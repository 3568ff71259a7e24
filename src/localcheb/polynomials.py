"""Chebyshev polynomial families and interval arithmetic.

Four families are supported, labelled T, U, V, W (first to fourth kind).
Every family satisfies the same three-term recurrence

    p_{n+1}(t) = 2 t p_n(t) - p_{n-1}(t),

and they differ only in the degree-1 seed: t, 2t, 2t - 1, 2t + 1.  The
recurrence, run by ``_recurrence`` (the values) and ``_fold`` (a series
summed as it runs) alone, is the primary evaluator of every module; a
closed trigonometric form is provided as an independent cross-check.
Everything in this module is pure and thread-safe.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Any, Sequence

__all__ = [
    "ChebKind",
    "Interval",
    "affine_inverse",
    "affine_map",
    "clamp_reference",
    "eval_cheb",
    "eval_cheb_trig",
    "gamma",
    "gamma_tilde",
]

# Arguments this far outside [-1, 1] (or [0, pi]) are treated as round-off
# and clamped; anything further out is a domain error.
REFERENCE_BAND = 1e-12


def _is_array(value: Any) -> bool:
    """True for a numpy array; numpy is not imported to find out, so a plain value costs nothing."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


def _index(
    value: Any, name: str, low: float = 0, high: int | None = None, *, arrays: bool = False
) -> Any:
    """value as an int within low..high, where high None is unbounded.

    bool, float and float arrays raise TypeError even where they hold whole
    numbers, so a size or an index is never truncated or taken as a flag;
    values out of range raise ValueError.  With arrays, an integer array is
    taken too and returned as int64; unsigned arrays are held to the int64
    maximum, so index arithmetic below 0 cannot wrap around.  Without it,
    only a 0-d integer array passes, as an int.
    """
    array = False
    if type(value) is not int:  # a plain int, the common case, skips the search for numpy
        if _is_array(value):
            ok = value.dtype.kind in "iu" and (arrays or value.ndim == 0)
            array = arrays
        else:
            ok = not isinstance(value, bool) and hasattr(type(value), "__index__")
        if not ok:
            raise TypeError(f"{name} must be an integer, got {value!r}")
        if not array:
            value = operator.index(value)
        elif value.dtype.kind == "u" and high is None:
            high = 2**63 - 1  # the int64 maximum
    inside = value >= low if high is None else (value >= low) & (value <= high)
    if not (inside.all() if array else inside):
        bound = f"be at least {low}" if high is None else f"lie in {low}..{high}"
        raise ValueError(f"{name} must {bound}, got {value}")
    return value.astype("int64", copy=False) if array else value


def _non_finite(value: float, message: str) -> Exception:
    """The error for a non-finite value: an infinity is an overflow, a NaN an invalid value."""
    return (OverflowError if math.isinf(value) else ValueError)(message)


class ChebKind(Enum):
    """The four Chebyshev polynomial families."""

    FIRST = "T"
    SECOND = "U"
    THIRD = "V"
    FOURTH = "W"


# degree-1 recurrence seed, as (scale, offset) in p_1(t) = scale * t + offset
_SEED = {
    ChebKind.FIRST: (1.0, 0.0),
    ChebKind.SECOND: (2.0, 0.0),
    ChebKind.THIRD: (2.0, -1.0),
    ChebKind.FOURTH: (2.0, 1.0),
}


@dataclass(frozen=True)
class Interval:
    """Closed bounded interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")
        if not (math.isfinite(self.b - self.a) and math.isfinite(self.a + self.b)):
            raise ValueError(f"interval [{self.a}, {self.b}] is too wide for floating point")

    @property
    def h(self) -> float:
        """Interval length b - a."""
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


def clamp_reference(t: float) -> float:
    """Snap t to [-1, 1], allowing round-off spill of at most REFERENCE_BAND.

    A t already in [-1, 1] is returned as is; NaN is a domain error.
    """
    if -1.0 <= t <= 1.0:
        return t
    if not abs(t) <= 1.0 + REFERENCE_BAND:
        raise ValueError(f"reference coordinate {t!r} lies outside [-1, 1]")
    return min(1.0, max(-1.0, t))


def affine_map(interval: Interval, t: float) -> float:
    """Map the reference coordinate t in [-1, 1] onto [a, b].

    Called once per sampled node, so it reads the endpoints directly, and
    calls clamp_reference only for a t outside [-1, 1] (NaN included, which
    it rejects); the expression is 0.5 * h * t + midpoint in the same order,
    bit for bit.
    """
    if not -1.0 <= t <= 1.0:
        t = clamp_reference(t)
    a, b = interval.a, interval.b
    return 0.5 * (b - a) * t + 0.5 * (a + b)


def affine_inverse(interval: Interval, x: float) -> float:
    """Map x in [a, b] back to the reference coordinate in [-1, 1]."""
    band = REFERENCE_BAND * max(1.0, abs(interval.a), abs(interval.b))
    if not interval.a - band <= x <= interval.b + band:
        raise ValueError(f"{x!r} lies outside [{interval.a}, {interval.b}]")
    x = min(interval.b, max(interval.a, x))
    t = (2.0 * x - interval.a - interval.b) / interval.h
    return min(1.0, max(-1.0, t))


def gamma(n: int) -> int:
    """Interior normalizer: 1 for index 0, else 2."""
    return 1 if _index(n, "index") == 0 else 2


def gamma_tilde(j: int, n: int) -> int:
    """Endpoint normalizer for an n-point closed node set: 2 at j in {0, n-1}, else 1."""
    n = _index(n, "node count n", 1)
    j = _index(j, "index j", 0, n - 1)
    return 2 if j in (0, n - 1) else 1


def eval_cheb(kind: ChebKind, degree: int, t: float) -> float:
    """Evaluate the degree-n polynomial of the given family at t in [-1, 1].

    Runs the shared three-term recurrence upward from the family seed;
    cost is O(degree).
    """
    return _recurrence(kind, clamp_reference(t), _index(degree, "degree") + 1)[-1]


def _recurrence(kind: ChebKind, t: float, count: int) -> list[float]:
    """P_0(t)..P_{count-1}(t) of the family, for count >= 1 and t in [-1, 1]."""
    scale, offset = _SEED[kind]
    prev, cur = 1.0, scale * t + offset
    vals = [prev, cur][:count]
    for _ in range(count - 2):
        prev, cur = cur, 2.0 * t * cur - prev
        vals.append(cur)
    return vals


def _fold(kind: ChebKind, t: float, values: Sequence[float]) -> float:
    """values[0] + values[1] P_1(t) + ..., for at least one value and t in [-1, 1].

    Each term is added as the recurrence of _recurrence produces its P_k(t),
    so no list of them is built: the operations and their order are those of
    folding over _recurrence's list, bit for bit (2 t p_n is (2 t) p_n, so
    2 t is formed once).
    """
    total = values[0]
    if len(values) > 1:
        scale, offset = _SEED[kind]
        prev, cur = 1.0, scale * t + offset
        total += values[1] * cur
        two_t = 2.0 * t
        for v in values[2:]:
            prev, cur = cur, two_t * cur - prev
            total += v * cur
    return total


def eval_cheb_trig(kind: ChebKind, degree: int, theta: float) -> float:
    """Evaluate via the closed trigonometric form at t = cos(theta), theta in [0, pi].

    Serves as an independent cross-check of eval_cheb.  The quotient forms of
    U, V, W are 0/0 at one endpoint; the analytic limits are hard-coded there:
    U_n(1) = n + 1, U_n(-1) = (-1)^n (n + 1), V_n(-1) = (-1)^n (2n + 1),
    W_n(1) = 2n + 1.
    """
    n = _index(degree, "degree")
    if not -REFERENCE_BAND <= theta <= math.pi + REFERENCE_BAND:
        raise ValueError(f"angle {theta!r} lies outside [0, pi]")
    theta = min(math.pi, max(0.0, theta))
    if kind is ChebKind.FIRST:
        return math.cos(n * theta)
    if kind is ChebKind.SECOND:
        if theta == 0.0:
            return float(n + 1)
        if theta == math.pi:
            return float((-1) ** n * (n + 1))
        return math.sin((n + 1) * theta) / math.sin(theta)
    if kind is ChebKind.THIRD:
        if theta == math.pi:
            return float((-1) ** n * (2 * n + 1))
        return math.cos((n + 0.5) * theta) / math.cos(0.5 * theta)
    # the divisor itself is tested: at theta = 5e-324, 0.5 * theta rounds to 0
    half = math.sin(0.5 * theta)
    if half == 0.0:
        return float(2 * n + 1)
    return math.sin((n + 0.5) * theta) / half
