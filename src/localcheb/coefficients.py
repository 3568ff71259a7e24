"""Chebyshev-family coefficients of a function on an arbitrary interval.

Discrete coefficients are computed from the function's values at one rule's
nodes, normalized by the rule's discrete orthogonality norms so that the
truncated series interpolates there.  Continuous (integral) coefficients are
obtained operationally as discrete coefficients at a much finer node set of
the matching rule; for that reason they carry their resolution in the
``source`` tag.

All sums run in the angle domain.  With the node factors written as
half-angle products the third- and fourth-kind quotients cancel, so no node
ever divides by a small cosine or sine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .polynomials import (
    ChebKind,
    Interval,
    affine_map,
    clamp_reference,
    eval_cheb,
    gamma,
    gamma_tilde,
)
from .rules import (
    TRANSFORM_CUTOFF,
    _FAMILY,
    QuadKind,
    _closed_set_normalizers,
    _node_factors,
    family_for_rule,
    rule_thetas,
)

__all__ = [
    "CoefficientSet",
    "ContinuousOracleSource",
    "DiscreteRuleSource",
    "KindRelationsReport",
    "MidpointGap",
    "SampledFunction",
    "continuous_coeffs",
    "discrete_coeffs",
    "kind_relations_check",
    "midpoint_limit_check",
]

# magnitudes below this are flushed to exact zeros when coefficients are built
SUBNORMAL_FLUSH = 1e-300

# the open rule of each family; cc shares the first kind with f1
_RULE_FOR_FAMILY = {
    family: kind for kind, family in _FAMILY.items() if kind is not QuadKind.CLENSHAW_CURTIS
}


@dataclass(frozen=True)
class SampledFunction:
    """A scalar function of one real variable, with an optional regularity tag.

    regularity_m = m means the function has m continuous derivatives at its
    worst point; None means smooth.  Evaluator failures propagate unchanged.
    """

    evaluator: Callable[[float], float]
    regularity_m: int | None = None


@dataclass(frozen=True)
class DiscreteRuleSource:
    """Coefficients came from the n-point rule of the given kind."""

    kind: QuadKind
    n: int


@dataclass(frozen=True)
class ContinuousOracleSource:
    """Coefficients approximate the integral definition at resolution n_ref."""

    n_ref: int


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients c_0..c_{K} of one family on one interval.

    ``values[k]`` multiplies the degree-k polynomial of ``family`` composed
    with the affine pullback onto [-1, 1].
    """

    family: ChebKind
    interval: Interval
    values: tuple[float, ...]
    source: DiscreteRuleSource | ContinuousOracleSource

    def evaluate(self, t: float) -> float:
        """Value of sum_k values[k] P_k(t) at the reference coordinate t."""
        t = clamp_reference(t)
        vals = self.values
        total = vals[0]
        if len(vals) == 1:
            return total
        prev = 1.0
        cur = eval_cheb(self.family, 1, t)
        total += vals[1] * cur
        for k in range(2, len(vals)):
            prev, cur = cur, 2.0 * t * cur - prev
            total += vals[k] * cur
        return total

    def to_csv(self) -> str:
        lines = ["k,value"]
        lines.extend(f"{k},{format(v, '.17g')}" for k, v in enumerate(self.values))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        src: dict
        if isinstance(self.source, DiscreteRuleSource):
            src = {"rule": self.source.kind.value, "n": self.source.n}
        else:
            src = {"n_ref": self.source.n_ref}
        return {
            "family": self.family.value,
            "interval": {"a": self.interval.a, "b": self.interval.b},
            "source": src,
            "values": list(self.values),
        }


def _node_sums_fft(base: np.ndarray, phase0: float, period: int, ms: np.ndarray) -> np.ndarray:
    """sum_j base_j e^{i m (phase0 + 2 pi j / period)} for each m in ms, by one real FFT."""
    return np.exp(1j * phase0 * ms) * np.conj(np.fft.rfft(base, n=period)[ms])


def _coeff_values_fft(
    kind: QuadKind, thetas: np.ndarray, fvals: np.ndarray, n: int, ks: np.ndarray
) -> np.ndarray:
    """The coefficients of the termwise path, from one real FFT of the weighted samples.

    The node angles are theta_j = theta_0 + 2 pi j / P.  The V and W kinds use
    half-integer frequencies k + 1/2, which are whole frequencies of the half
    angles theta_j / 2, whose period is 2P.
    """
    theta0 = float(thetas[0])
    if kind is QuadKind.FEJER_I:
        s = _node_sums_fft(fvals, theta0, 2 * n, ks).real
        return np.where(ks == 0, 1.0, 2.0) / n * s
    if kind is QuadKind.CLENSHAW_CURTIS:
        gj = _closed_set_normalizers(n)
        s = _node_sums_fft(fvals / gj, theta0, 2 * (n - 1), ks).real
        return 2.0 / ((n - 1.0) * gj[ks]) * s
    if kind is QuadKind.FEJER_II:
        s = _node_sums_fft(fvals * np.sin(thetas), theta0, 2 * (n + 1), ks + 1).imag
        return 2.0 / (n + 1.0) * s
    period = 2 * (2 * n + 1)
    if kind is QuadKind.FEJER_III:
        base = fvals * (2.0 * np.cos(0.5 * thetas))
        s = _node_sums_fft(base, 0.5 * theta0, period, 2 * ks + 1).real
    else:
        base = fvals * (2.0 * np.sin(0.5 * thetas))
        s = _node_sums_fft(base, 0.5 * theta0, period, 2 * ks + 1).imag
    return s / (n + 0.5)


def _coeff_values_direct(
    kind: QuadKind, thetas: np.ndarray, fvals: np.ndarray, n: int, ks: Sequence[int]
) -> list[float]:
    """One termwise inner product per degree, each reduced with math.fsum."""
    out: list[float] = []
    if kind in (QuadKind.FEJER_I, QuadKind.CLENSHAW_CURTIS):
        # w_j is 1 or 1/2 here, so f_j * w_j is exact
        base = fvals * _node_factors(kind, thetas)
        for k in ks:
            s = math.fsum((base * np.cos(k * thetas)).tolist())
            if kind is QuadKind.FEJER_I:
                out.append(gamma(k) / n * s)
            else:
                out.append(2.0 / ((n - 1.0) * gamma_tilde(k, n)) * s)
    elif kind is QuadKind.FEJER_II:
        base = fvals * np.sin(thetas)
        for k in ks:
            s = math.fsum((base * np.sin((k + 1.0) * thetas)).tolist())
            out.append(2.0 / (n + 1.0) * s)
    elif kind is QuadKind.FEJER_III:
        base = fvals * (2.0 * np.cos(0.5 * thetas))
        for k in ks:
            s = math.fsum((base * np.cos((k + 0.5) * thetas)).tolist())
            out.append(s / (n + 0.5))
    else:
        base = fvals * (2.0 * np.sin(0.5 * thetas))
        for k in ks:
            s = math.fsum((base * np.sin((k + 0.5) * thetas)).tolist())
            out.append(s / (n + 0.5))
    return out


def _coeff_values(
    kind: QuadKind, thetas: np.ndarray, fvals: np.ndarray, n: int, ks: Sequence[int]
) -> list[float]:
    """Discrete coefficients for the requested degrees, given node samples.

    Below TRANSFORM_CUTOFF degrees each inner product is formed termwise and
    reduced with exact summation (math.fsum), so it is the correctly rounded
    sum of its rounded terms; the paper's tables (n <= 16) and the goldens
    come from this path.  From TRANSFORM_CUTOFF degrees on, all of them come
    from one real FFT in O(n log n).  The two agree to within n * eps *
    max|f|; most of that gap is the termwise path's own rounding of
    k * theta_j before the cosine.  Both paths are deterministic, so repeated
    runs are reproducible to the bit.
    """
    if len(ks) >= TRANSFORM_CUTOFF:
        out = _coeff_values_fft(kind, thetas, fvals, n, np.asarray(ks)).tolist()
    else:
        out = _coeff_values_direct(kind, thetas, fvals, n, ks)
    return [0.0 if abs(v) < SUBNORMAL_FLUSH else v for v in out]


def _sample_at_nodes(f: SampledFunction, interval: Interval, thetas: np.ndarray) -> np.ndarray:
    xs = [affine_map(interval, math.cos(float(th))) for th in thetas]
    fvals = np.array([float(f.evaluator(x)) for x in xs])
    finite = np.isfinite(fvals)
    if not finite.all():
        j = int(np.argmin(finite))
        raise ValueError(f"non-finite sample {float(fvals[j])!r} at node {j} (x = {xs[j]!r})")
    return fvals


def discrete_coeffs(
    kind: QuadKind, f: SampledFunction, interval: Interval, n: int
) -> CoefficientSet:
    """Coefficients c~_0..c~_{n-1} from the n-point rule of the given kind.

    The function is evaluated exactly once per node.  The resulting series
    reproduces those samples: it is the unique interpolant of f at the
    rule's (mapped) nodes within the matched family's degree-(n-1) span.
    """
    thetas = rule_thetas(kind, n)
    fvals = _sample_at_nodes(f, interval, thetas)
    values = _coeff_values(kind, thetas, fvals, n, range(n))
    return CoefficientSet(
        family=family_for_rule(kind),
        interval=interval,
        values=tuple(values),
        source=DiscreteRuleSource(kind, n),
    )


def continuous_coeffs(
    family: ChebKind, f: SampledFunction, interval: Interval, k_max: int, n_ref: int
) -> CoefficientSet:
    """Integral coefficients c_0..c_{k_max}, resolved at n_ref nodes.

    Computed as discrete coefficients of the family's matching rule at a
    resolution far beyond k_max; n_ref must be at least
    max(4096, 64 * (k_max + 1)) so the aliasing error stays negligible
    relative to the coefficients being asked for.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    needed = max(4096, 64 * (k_max + 1))
    if n_ref < needed:
        raise ValueError(f"n_ref={n_ref} is too coarse for k_max={k_max}; need >= {needed}")
    kind = _RULE_FOR_FAMILY[family]
    thetas = rule_thetas(kind, n_ref)
    fvals = _sample_at_nodes(f, interval, thetas)
    values = _coeff_values(kind, thetas, fvals, n_ref, range(k_max + 1))
    return CoefficientSet(
        family=family,
        interval=interval,
        values=tuple(values),
        source=ContinuousOracleSource(n_ref),
    )


@dataclass(frozen=True)
class KindRelationsReport:
    """Largest violation of the first-kind ladder identities, per target family.

    The identities relate continuous coefficients across families:
    c^U_k = c^T_k / gamma_k - c^T_{k+2} / 2,
    c^V_k = c^T_k / gamma_k + c^T_{k+1} / 2,
    c^W_k = c^T_k / gamma_k - c^T_{k+1} / 2.
    """

    residual_second: float
    residual_third: float
    residual_fourth: float

    @property
    def max_residual(self) -> float:
        return max(self.residual_second, self.residual_third, self.residual_fourth)


def kind_relations_check(
    f: SampledFunction, interval: Interval, k_max: int, n_ref: int
) -> KindRelationsReport:
    """Measure how well the cross-family coefficient identities hold for f."""
    c1 = continuous_coeffs(ChebKind.FIRST, f, interval, k_max + 2, n_ref).values
    c2 = continuous_coeffs(ChebKind.SECOND, f, interval, k_max, n_ref).values
    c3 = continuous_coeffs(ChebKind.THIRD, f, interval, k_max, n_ref).values
    c4 = continuous_coeffs(ChebKind.FOURTH, f, interval, k_max, n_ref).values
    r2 = max(abs(c2[k] - (c1[k] / gamma(k) - 0.5 * c1[k + 2])) for k in range(k_max + 1))
    r3 = max(abs(c3[k] - (c1[k] / gamma(k) + 0.5 * c1[k + 1])) for k in range(k_max + 1))
    r4 = max(abs(c4[k] - (c1[k] / gamma(k) - 0.5 * c1[k + 1])) for k in range(k_max + 1))
    return KindRelationsReport(r2, r3, r4)


@dataclass(frozen=True)
class MidpointGap:
    """One shrink step of midpoint_limit_check."""

    interval: Interval
    center_gap: float  # |c_0 - f(midpoint)|
    tail_max: float  # max over k >= 1 of |c_k|


def midpoint_limit_check(
    f: SampledFunction,
    intervals: Iterable[Interval],
    kind: QuadKind = QuadKind.FEJER_I,
    n: int = 8,
) -> tuple[MidpointGap, ...]:
    """Track c_0 -> f(midpoint) and the decay of all higher coefficients.

    For a function continuous at the common midpoint of a shrinking family of
    intervals, both returned columns must fall to zero as the intervals
    collapse.
    """
    rows = []
    for iv in intervals:
        cs = discrete_coeffs(kind, f, iv, n)
        gap = abs(cs.values[0] - float(f.evaluator(iv.midpoint)))
        tail = max((abs(v) for v in cs.values[1:]), default=0.0)
        rows.append(MidpointGap(iv, gap, tail))
    return tuple(rows)
