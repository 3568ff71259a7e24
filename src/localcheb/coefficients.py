"""Chebyshev-family coefficients of a function on an arbitrary interval.

Discrete coefficients are computed from the function's values at one rule's
nodes, normalized by the rule's discrete orthogonality norms so that the
truncated series interpolates there.  Continuous (integral) coefficients are
obtained operationally as discrete coefficients at a much finer node set of
the matching rule; for that reason they carry their resolution in the
``source`` tag.

All sums run in the angle domain.  Per rule, one analysis table gives the
weighted samples b_j and, from its family's angle form trig((k + s) theta) /
D(theta) in rules.py, the shift s and cos or sin; coefficient k is sum_j b_j
trig((k + s) theta_j) over the rule's discrete norm.  A termwise math.fsum
loop and a real FFT read that table without asking which rule they have.
The U, V and W node factors equal D^2 / s, so b_j = f_j D(theta_j) / s: the
quotient cancels and no node ever divides by a small cosine or sine.
Below TRANSFORM_CUTOFF nodes the samples, the table and the coefficients
are Python floats, so the paper's sizes import no numpy; from it on the
table and its sums are numpy arrays.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .polynomials import (
    ChebKind,
    Interval,
    _integers,
    _recurrence,
    affine_map,
    clamp_reference,
    gamma,
)
from . import rules
from .rules import (
    _ANGLE_FORM,
    _FAMILY,
    QuadKind,
    _angles,
    _check_n,
    _node_factors,
    _period,
    family_for_rule,
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
        vals = self.values
        total = vals[0]
        for v, p in zip(vals[1:], _recurrence(self.family, clamp_reference(t), len(vals))[1:]):
            total += v * p
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


def _analysis(
    kind: QuadKind, thetas: Sequence[float], fvals: Sequence[float]
) -> tuple[list[float], float, Callable[[float], float]]:
    """The rule's analysis table over Python floats: weighted samples b_j, shift s, cos or sin.

    b_j is f_j w(t_j) / D(theta_j).  First-kind rules have D = 1 and a node
    factor of 1 or 1/2, so f_j times it is exact; the other families have
    w = D^2 / s, so b_j = f_j D / s with D = trig(s theta), and dividing by
    s = 1 or 1/2 is exact.
    """
    s, trig = _ANGLE_FORM[family_for_rule(kind)]
    if s:
        base = [f * (trig(s * th) / s) for f, th in zip(fvals, thetas)]
    else:
        base = [f * w for f, w in zip(fvals, _node_factors(kind, thetas))]
    return base, s, trig


def _normalise(kind: QuadKind, n: int, ks: Sequence[int], sums: Sequence[float]) -> list[float]:
    """The coefficients from their node sums: divide out the discrete norms.

    Each scale is formed once, as the same expression in n that a single
    coefficient would use, so hoisting it out of the loop changes no bit.
    """
    if kind is QuadKind.FEJER_I:
        first, rest = 1.0 / n, 2.0 / n
        return [(first if k == 0 else rest) * v for k, v in zip(ks, sums)]
    if kind is QuadKind.CLENSHAW_CURTIS:
        # 2 / ((n - 1) gamma_tilde_k), where gamma_tilde_k is 2 at both ends and 1 inside
        end, inside = 2.0 / ((n - 1.0) * 2.0), 2.0 / (n - 1.0)
        return [(end if k == 0 or k == n - 1 else inside) * v for k, v in zip(ks, sums)]
    if kind is QuadKind.FEJER_II:
        scale = 2.0 / (n + 1.0)
        return [scale * v for v in sums]
    den = n + 0.5
    return [v / den for v in sums]


def _coeff_values(
    kind: QuadKind, thetas: Sequence[float], fvals: Sequence[float], n: int, ks: Sequence[int]
) -> list[float]:
    """Discrete coefficients for the requested degrees, given node samples.

    Each inner product is formed termwise and reduced with exact summation
    (math.fsum), so it is the correctly rounded sum of its rounded terms.
    Below TRANSFORM_CUTOFF nodes the table and its terms are Python floats;
    the paper's tables (n <= 16) and the goldens come from this path, which
    needs no numpy.  From TRANSFORM_CUTOFF nodes on, _array_sums forms them
    with numpy instead.
    """
    if n < rules.TRANSFORM_CUTOFF:
        base, shift, trig = _analysis(kind, thetas, fvals)
        sums = [math.fsum([b * trig((k + shift) * th) for b, th in zip(base, thetas)]) for k in ks]
    else:
        sums = _array_sums(kind, thetas, fvals, n, ks)
    out = _normalise(kind, n, ks, sums)
    return [0.0 if abs(v) < SUBNORMAL_FLUSH else v for v in out]


def _array_sums(
    kind: QuadKind, thetas: Sequence[float], fvals: Sequence[float], n: int, ks: Sequence[int]
) -> list[float]:
    """The node sums of _coeff_values from TRANSFORM_CUTOFF nodes on, over float64 arrays.

    The analysis table is _analysis', formed by the same elementwise
    operations on arrays; at these sizes a Python loop over the nodes would
    cost more than the sums.  Fewer than TRANSFORM_CUTOFF degrees, as continuous
    coefficients ask for, keep the termwise sums, one array row per degree;
    more come from one real FFT in O(n log n).  The FFT and the termwise
    sums agree to within n * eps * max|f|; most of that gap is the termwise
    sums' own rounding of k * theta_j before the cosine.  Both are
    deterministic, so repeated runs are reproducible to the bit.
    """
    import numpy as np

    shift, trig = _ANGLE_FORM[family_for_rule(kind)]
    trig = getattr(np, trig.__name__)
    th, fv = np.array(thetas), np.array(fvals)
    base = fv * (trig(shift * th) / shift if shift else np.array(_node_factors(kind, thetas)))
    if len(ks) < rules.TRANSFORM_CUTOFF:
        return [math.fsum((base * trig((k + shift) * th)).tolist()) for k in ks]
    # theta_j = theta_0 + 2 pi j / P.  A half-integer shift makes k + s a
    # whole frequency 2k + 1 of the half angles theta_j / 2, of period 2P.
    q = 2 if shift % 1 else 1
    ms = q * np.asarray(ks) + int(q * shift)
    spectrum = np.conj(np.fft.rfft(base, n=q * _period(kind, n))[ms])
    sums = np.exp(1j * (float(th[0]) / q) * ms) * spectrum
    return (sums.real if trig is np.cos else sums.imag).tolist()


def _sample_at_nodes(
    f: SampledFunction, interval: Interval, thetas: Sequence[float]
) -> list[float]:
    evaluator = f.evaluator
    xs = [affine_map(interval, math.cos(th)) for th in thetas]
    fvals = [float(evaluator(x)) for x in xs]
    if not all(map(math.isfinite, fvals)):
        j = next(j for j, v in enumerate(fvals) if not math.isfinite(v))
        raise ValueError(f"non-finite sample {fvals[j]!r} at node {j} (x = {xs[j]!r})")
    return fvals


def discrete_coeffs(
    kind: QuadKind, f: SampledFunction, interval: Interval, n: int
) -> CoefficientSet:
    """Coefficients c~_0..c~_{n-1} from the n-point rule of the given kind.

    The function is evaluated exactly once per node.  The resulting series
    reproduces those samples: it is the unique interpolant of f at the
    rule's (mapped) nodes within the matched family's degree-(n-1) span.
    """
    n = _check_n(kind, n)
    thetas = _angles(kind, n)
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
    k_max = operator.index(_integers(k_max, "k_max"))
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    needed = max(4096, 64 * (k_max + 1))
    if n_ref < needed:
        raise ValueError(f"n_ref={n_ref} is too coarse for k_max={k_max}; need >= {needed}")
    kind = _RULE_FOR_FAMILY[family]
    n_ref = _check_n(kind, n_ref)
    thetas = _angles(kind, n_ref)
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
