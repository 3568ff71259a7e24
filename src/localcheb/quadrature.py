"""Interpolatory quadrature on arbitrary intervals, single-patch and composite.

A rule's reference weights integrate over [-1, 1]; mapping to [a, b] scales
the sum by h/2.  Single-patch and composite integration share one patch-sum
path: the rule is built and its nodes and weights are taken as Python floats
once per call, each patch's weighted sum is reduced exactly with math.fsum,
and the patch sums are added with one more math.fsum.  A patch sum that is
not finite raises where it is made, at its patch.  A single patch is the
one-patch case of that path, so the two entry points agree to the bit.  The
quadrature convergence study shares the same path too: one patch-sum call per
node count covers every interval of its shrink schedule.

The patch sums are streamed: each patch is built and sampled only when the
sum reaches it, so a composite run holds its breakpoints and one patch,
and nothing else that grows with the number of patches.  The command line's
``quad`` and ``study-composite`` stream their equispaced breakpoints too, so
their memory does not depend on ``--patches``: Partition.equispaced holds
the streamed partition's points as a tuple, one check proves them strictly
increasing, and one composite sum reduces them, whether they come from a
tuple or are streamed.  math.fsum is exact and the points are the same
floats, so streaming leaves every value bit for bit as it was.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .coefficients import CoefficientSet, SampledFunction, discrete_coeffs
from .polynomials import Interval, _index, _non_finite, affine_inverse, affine_map
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
        _check_increasing(bp)

    @classmethod
    def equispaced(cls, interval: Interval, pieces: int) -> "Partition":
        """pieces equal patches of interval, breakpoints a + (b - a) i / pieces.

        The ends are exactly a and b, so the invariant holds in floating
        point.  The tuple holds the points of _StreamedPartition(interval,
        pieces), which makes the checks, built in one pass from its iterator.
        """
        return cls(interval, tuple(_StreamedPartition(interval, pieces).breakpoints))

    @property
    def pieces(self) -> int:
        return len(self.breakpoints) - 1

    def patches(self) -> list[Interval]:
        return [Interval(lo, hi) for lo, hi in itertools.pairwise(self.breakpoints)]


def _check_increasing(points: Iterable[float]) -> None:
    for lo, hi in itertools.pairwise(points):
        if not hi > lo:
            raise ValueError("breakpoints must be strictly increasing")


# An equispaced step (b - a) / pieces above this many ulps of max(|a|, |b|)
# proves the points strictly increasing without a pass over them.  Every
# rounding in a + (b - a) * (i / pieces) is monotone, so the points never
# decrease.  Before the last rounding, neighbours lie at least
# (1 - 4.2 * pieces * 2**-53) steps apart, over half a step since a step
# this large forces pieces < 2**50; and half of eight ulps exceeds the
# spacing of the floats they round to, at most two ulps of the larger end,
# so no two round together.  (Two ulps suffice in practice, one does not.)
# Below the bound the full pass decides.
_STRICT_STEP_ULPS = 8


class _StreamedPartition:
    """The breakpoints of Partition.equispaced(interval, pieces), streamed.

    Partition.equispaced holds these points as a tuple, so the pieces check,
    the point formula and the strictness check are written only here, and an
    invalid partition fails before any sample.  Each read of breakpoints
    streams the same floats afresh, so a composite run over it holds nothing
    that grows with pieces; integrate_composite reads pieces and one pass.
    """

    __slots__ = ("interval", "pieces")

    def __init__(self, interval: Interval, pieces: int):
        self.interval, self.pieces = interval, _index(pieces, "pieces", 1)
        a, b = interval.a, interval.b
        if not (b - a) / self.pieces > _STRICT_STEP_ULPS * math.ulp(max(abs(a), abs(b))):
            _check_increasing(self.breakpoints)

    @property
    def breakpoints(self) -> Iterator[float]:
        """a, then a + (b - a) * (i / pieces) for 0 < i < pieces, then b exactly."""
        a, b, pieces = self.interval.a, self.interval.b, self.pieces
        interior = (a + (b - a) * (i / pieces) for i in range(1, pieces))
        return itertools.chain((a,), interior, (b,))


@dataclass(frozen=True)
class QuadResult:
    """Value of one quadrature run plus its cost in function evaluations."""

    value: float
    kind: QuadKind
    n: int
    evaluations: int


def _patch_sums(
    rule: QuadratureRule, f: Callable[[float], float], patches: Iterable[Interval]
) -> Iterator[float]:
    """The rule's weighted sum on each patch, each reduced exactly with math.fsum.

    The rule holds its nodes and weights as Python floats, so each node
    costs one affine_map call, one evaluation and one multiply.  The sums
    come from an iterator, to be consumed once: a patch is sampled only when
    its sum is asked for, so no list of P sums is held.  Each sum is checked
    here and nowhere else: an infinite one raises OverflowError, whatever
    the signs of its terms (math.fsum's "-inf + inf" ValueError is raised
    as that OverflowError), and a NaN one ValueError, at its patch.  Every
    sum yielded is finite, so math.fsum over them returns a finite total or
    raises OverflowError itself.
    """
    tw = list(zip(rule.node_values, rule.weight_values))
    for patch in patches:
        terms = [w * float(f(affine_map(patch, t))) for t, w in tw]
        try:
            total = 0.5 * patch.h * math.fsum(terms)
        except ValueError as exc:
            raise OverflowError(*exc.args) from None
        if not math.isfinite(total):
            raise _non_finite(total, f"quadrature value {total!r} is not finite")
        yield total


def integrate(kind: QuadKind, f: SampledFunction, interval: Interval, n: int) -> QuadResult:
    """Apply the n-point rule of the given kind once over the whole interval."""
    value = math.fsum(_patch_sums(make_rule(kind, n), f.evaluator, (interval,)))
    return QuadResult(value=value, kind=kind, n=n, evaluations=n)


def integrate_composite(
    kind: QuadKind, f: SampledFunction, partition: Partition, n: int
) -> QuadResult:
    """Apply the n-point rule on every patch of the partition and sum.

    integrate() is the one-patch case of the same sum, so a single patch
    reproduces it bit for bit.  Each patch is built, sampled and added to
    the running math.fsum in turn, so beyond the partition's breakpoints
    the run holds one patch at a time, whatever the number of patches.
    The command line's quad and study-composite pass a partition that
    streams its equispaced breakpoints, so they hold memory independent of
    --patches.
    """
    rule = make_rule(kind, n)
    patches = itertools.starmap(Interval, itertools.pairwise(partition.breakpoints))
    value = math.fsum(_patch_sums(rule, f.evaluator, patches))
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
