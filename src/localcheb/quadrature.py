"""Interpolatory quadrature on arbitrary intervals, single-patch and composite.

A rule's reference weights integrate over [-1, 1]; mapping to [a, b] scales
the sum by h/2.  Single-patch and composite integration share one patch-sum
path: the rule is built and its nodes and weights are taken as Python floats
once per call, each patch's weighted sum is reduced exactly with math.fsum,
and the patch sums are added with one more math.fsum.  A single patch is the
one-patch case of that path, so the two entry points agree to the bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .coefficients import CoefficientSet, SampledFunction, discrete_coeffs
from .polynomials import Interval, _integers, affine_inverse, affine_map
from .rules import QuadKind, QuadratureRule, make_rule

__all__ = [
    "Partition",
    "QuadResult",
    "integrate",
    "integrate_composite",
    "interpolant_eval",
]


@dataclass(frozen=True)
class Partition:
    """Breakpoints a = x_0 < x_1 < ... < x_P = b of an interval."""

    interval: Interval
    breakpoints: tuple[float, ...]

    def __post_init__(self):
        bp = self.breakpoints
        if len(bp) < 2:
            raise ValueError("a partition needs at least two breakpoints")
        if bp[0] != self.interval.a or bp[-1] != self.interval.b:
            raise ValueError("breakpoints must start at a and end at b")
        for lo, hi in zip(bp, bp[1:]):
            if not hi > lo:
                raise ValueError("breakpoints must be strictly increasing")

    @classmethod
    def equispaced(cls, interval: Interval, pieces: int) -> "Partition":
        pieces = operator.index(_integers(pieces, "pieces"))
        if pieces < 1:
            raise ValueError("pieces must be >= 1")
        a, b = interval.a, interval.b
        bp = [a + (b - a) * (i / pieces) for i in range(pieces + 1)]
        # snap the ends so the invariant holds exactly in floating point
        bp[0] = a
        bp[-1] = b
        return cls(interval, tuple(bp))

    @property
    def pieces(self) -> int:
        return len(self.breakpoints) - 1

    def patches(self) -> list[Interval]:
        return [Interval(lo, hi) for lo, hi in zip(self.breakpoints, self.breakpoints[1:])]


@dataclass(frozen=True)
class QuadResult:
    """Value of one quadrature run plus its cost in function evaluations."""

    value: float
    kind: QuadKind
    n: int
    evaluations: int


def _patch_sums(
    rule: QuadratureRule, f: Callable[[float], float], patches: Sequence[Interval]
) -> list[float]:
    """The rule's weighted sum on each patch, each reduced exactly with math.fsum.

    The rule holds its nodes and weights as Python floats, so each node
    costs one affine_map call, one evaluation and one multiply.
    """
    tw = list(zip(rule.node_values, rule.weight_values))
    return [
        0.5 * patch.h * math.fsum([w * float(f(affine_map(patch, t))) for t, w in tw])
        for patch in patches
    ]


def _finite_value(value: float) -> float:
    # checked once per call, not per node: a NaN or infinite sample leaves the sum non-finite
    if not math.isfinite(value):
        raise ValueError(f"quadrature value {value!r} is not finite")
    return value


def integrate(kind: QuadKind, f: SampledFunction, interval: Interval, n: int) -> QuadResult:
    """Apply the n-point rule of the given kind once over the whole interval."""
    rule = make_rule(kind, n)
    value = _finite_value(math.fsum(_patch_sums(rule, f.evaluator, [interval])))
    return QuadResult(value=value, kind=kind, n=n, evaluations=n)


def integrate_composite(
    kind: QuadKind, f: SampledFunction, partition: Partition, n: int
) -> QuadResult:
    """Apply the n-point rule on every patch of the partition and sum.

    integrate() is the one-patch case of the same sum, so a single patch
    reproduces it bit for bit.
    """
    rule = make_rule(kind, n)
    value = _finite_value(math.fsum(_patch_sums(rule, f.evaluator, partition.patches())))
    return QuadResult(value=value, kind=kind, n=n, evaluations=n * partition.pieces)


def interpolant_eval(
    kind: QuadKind,
    f: SampledFunction,
    interval: Interval,
    n: int,
    xs: Sequence[float],
) -> tuple[CoefficientSet, list[float]]:
    """Interpolate f at the rule's mapped nodes and evaluate the result at xs."""
    cs = discrete_coeffs(kind, f, interval, n)
    ys = [cs.evaluate(affine_inverse(interval, float(x))) for x in xs]
    return cs, ys
