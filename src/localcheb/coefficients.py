"""Chebyshev-family coefficients of a function on an arbitrary interval.

This module samples a function at one rule's nodes and packages the
coefficients that rules.py computes from those samples.  Discrete
coefficients come from the n-point rule, normalized by its discrete
orthogonality norms so that the truncated series interpolates there.
Continuous (integral) coefficients are obtained operationally as discrete
coefficients at a much finer node set of the matching rule; for that reason
they carry their resolution in the ``source`` tag.  Both go through one
sampling path: the rule's analysis table from rules.py (its angles and, at
small n, the node factors and trigonometric rows), one evaluation per node,
and the analysis transform applied to those samples.
midpoint_limit_check and the decay study of analysis.py prepare the table
once and pass it to discrete_coeffs on every interval.  Below
TRANSFORM_CUTOFF nodes the samples and the coefficients are Python floats,
so the paper's sizes import no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .polynomials import (ChebKind, Interval, _fold, _index, _non_finite, affine_map,
                          clamp_reference, gamma)
from .rules import _FAMILY, QuadKind, _analysis, _Analysis, _check_n, _coeff_values, family_for_rule

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

# the open rule of each family; cc shares the first kind with f1
_RULE_FOR_FAMILY = {
    family: kind for kind, family in _FAMILY.items() if kind is not QuadKind.CLENSHAW_CURTIS
}


@dataclass(frozen=True)
class SampledFunction:
    """A scalar function of one real variable.  Evaluator failures propagate unchanged."""

    evaluator: Callable[[float], float]


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
        """Value of sum_k values[k] P_k(t) at the reference coordinate t.

        The terms are added left to right, each as the three-term recurrence
        reaches its degree (polynomials._fold), with no list of P_k(t).
        """
        return _fold(self.family, clamp_reference(t), self.values)

    def to_csv(self) -> str:
        """Header k,value and one row per coefficient, each formatted by one %."""
        return "k,value\n" + "".join(map("%d,%.17g\n".__mod__, enumerate(self.values)))

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


def _sample_at_nodes(
    f: SampledFunction, interval: Interval, thetas: Sequence[float]
) -> list[float]:
    """f at the mapped nodes cos(theta_j) as Python floats, one affine_map call per node.

    Mapping, evaluation and conversion run in one pass; only a non-finite
    sample maps its node again, to name its x in the error.
    """
    evaluator = f.evaluator
    fvals = [float(evaluator(affine_map(interval, math.cos(th)))) for th in thetas]
    if not all(map(math.isfinite, fvals)):
        j = next(j for j, v in enumerate(fvals) if not math.isfinite(v))
        x = affine_map(interval, math.cos(thetas[j]))
        raise _non_finite(fvals[j], f"non-finite sample {fvals[j]!r} at node {j} (x = {x!r})")
    return fvals


def _rule_coeffs(table: _Analysis, f: SampledFunction, interval: Interval) -> tuple[float, ...]:
    """Coefficients of the table's degrees from f sampled once at each of its nodes on interval."""
    return tuple(_coeff_values(table, _sample_at_nodes(f, interval, table.thetas)))


def discrete_coeffs(
    kind: QuadKind, f: SampledFunction, interval: Interval, n: int,
    *, table: _Analysis | None = None,
) -> CoefficientSet:
    """Coefficients c~_0..c~_{n-1} from the n-point rule of the given kind.

    The function is evaluated exactly once per node.  The resulting series
    reproduces those samples: it is the unique interpolant of f at the
    rule's (mapped) nodes within the matched family's degree-(n-1) span.
    A caller that takes this rule's coefficients on many intervals passes
    table, rules._analysis(kind, n, range(n)), to prepare it only once.
    """
    n = _check_n(kind, n)
    if table is None:
        table = _analysis(kind, n, range(n))
    return CoefficientSet(
        family=family_for_rule(kind),
        interval=interval,
        values=_rule_coeffs(table, f, interval),
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
    k_max = _index(k_max, "k_max")
    kind = _RULE_FOR_FAMILY[family]
    n_ref = _check_n(kind, n_ref)
    needed = max(4096, 64 * (k_max + 1))
    if n_ref < needed:
        raise ValueError(f"n_ref={n_ref} is too coarse for k_max={k_max}; need >= {needed}")
    return CoefficientSet(
        family=family,
        interval=interval,
        values=_rule_coeffs(_analysis(kind, n_ref, range(k_max + 1)), f, interval),
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
        return _nan_max((self.residual_second, self.residual_third, self.residual_fourth))


def _nan_max(values: Iterable[float]) -> float:
    """max of values, NaN if any is NaN (Python's max drops a NaN that is not first)."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values)


# Each ladder identity c^P_k = c^T_k / gamma_k + sign c^T_{k+offset} / 2 of
# KindRelationsReport, in its field order: (target family P, offset, sign)
_LADDER = ((ChebKind.SECOND, 2, -1), (ChebKind.THIRD, 1, 1), (ChebKind.FOURTH, 1, -1))


def kind_relations_check(
    f: SampledFunction, interval: Interval, k_max: int, n_ref: int
) -> KindRelationsReport:
    """Measure how well the cross-family coefficient identities hold for f."""
    k_max = _index(k_max, "k_max")
    c1 = continuous_coeffs(ChebKind.FIRST, f, interval, k_max + 2, n_ref).values
    residuals = []
    for family, offset, sign in _LADDER:
        c = continuous_coeffs(family, f, interval, k_max, n_ref).values
        residuals.append(_nan_max(abs(c[k] - (c1[k] / gamma(k) + sign * 0.5 * c1[k + offset]))
                                  for k in range(k_max + 1)))
    return KindRelationsReport(*residuals)


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
    collapse.  The rule's analysis table is prepared once for all intervals.
    """
    n = _check_n(kind, n)
    table = _analysis(kind, n, range(n))
    rows = []
    for iv in intervals:
        values = discrete_coeffs(kind, f, iv, n, table=table).values
        gap = abs(values[0] - float(f.evaluator(iv.midpoint)))
        tail = max((abs(v) for v in values[1:]), default=0.0)
        rows.append(MidpointGap(iv, gap, tail))
    return tuple(rows)
