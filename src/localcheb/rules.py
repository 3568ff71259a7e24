"""Interpolatory quadrature rules at Chebyshev-family nodes on [-1, 1].

Five node sets are supported, named f1, cc, f2, f3, f4: Fejer-1 (zeros of
T_n), Clenshaw-Curtis (extrema of T_{n-1}, both endpoints included), Fejer-2
(zeros of U_n), Fejer-3 (zeros of V_n) and Fejer-4 (zeros of W_n).  Node
angles increase with the index j, so nodes t_j = cos(theta_j) are strictly
decreasing.  One table row per rule gives its angle grid theta_j =
(step j + offset) pi / den and the alias period P = 2 den / step that the
FFTs and the closed-form orthogonality read.

Weights come from one trigonometric sum per rule, kept as a spectrum
(frequencies m, numerators c, denominators d, cos or sin) and summed by two
paths that never ask for the rule.  Below TRANSFORM_CUTOFF nodes one loop
adds c trig(m theta) / d term by term in O(n^2); this covers the paper's
tables (n <= 16) and the goldens.  From TRANSFORM_CUTOFF nodes on, one
inverse FFT of the spectrum gives the same sums in O(n log n).  The paths
agree to within 1e-16 and are deterministic, so a rule's output is
byte-identical from run to run.

Each family's angle form P_k(cos theta) = trig((k + s) theta) / D(theta) is
one row (s, trig, D) of a second table, and ``_norm`` gives each rule's
orthogonality norm, P/4 or P/2; the weights, the family matrices, the
coefficients' analysis and the closed forms read these without asking for
the family.  Each node set makes its matched family discretely orthogonal:
``discrete_orthogonality_sum`` evaluates those sums directly and
``closed_form_orthogonality`` predicts them from a divisibility pattern, so
the two can be cross-checked against each other.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from .polynomials import ChebKind, _recurrence, clamp_reference

__all__ = [
    "QuadKind",
    "QuadratureRule",
    "closed_form_orthogonality",
    "discrete_orthogonality_sum",
    "family_for_rule",
    "lagrange_basis_eval",
    "make_rule",
    "rule_thetas",
]


class QuadKind(Enum):
    """The five interpolatory rules, keyed by their CLI labels."""

    FEJER_I = "f1"
    CLENSHAW_CURTIS = "cc"
    FEJER_II = "f2"
    FEJER_III = "f3"
    FEJER_IV = "f4"

    @property
    def min_nodes(self) -> int:
        """Smallest admissible n: 2 for cc (needs both endpoints), 1 otherwise."""
        return 2 if self is QuadKind.CLENSHAW_CURTIS else 1


_FAMILY = {
    QuadKind.FEJER_I: ChebKind.FIRST,
    QuadKind.CLENSHAW_CURTIS: ChebKind.FIRST,
    QuadKind.FEJER_II: ChebKind.SECOND,
    QuadKind.FEJER_III: ChebKind.THIRD,
    QuadKind.FEJER_IV: ChebKind.FOURTH,
}


def family_for_rule(kind: QuadKind) -> ChebKind:
    """Polynomial family whose discrete orthogonality the rule's nodes carry."""
    return _FAMILY[kind]


# Each family's angle form P_k(cos theta) = trig((k + s) theta) / D(theta): (s, trig, D)
_ANGLE_FORM = {
    ChebKind.FIRST: (0, np.cos, lambda th: 1.0),
    ChebKind.SECOND: (1, np.sin, np.sin),
    ChebKind.THIRD: (0.5, np.cos, lambda th: np.cos(0.5 * th)),
    ChebKind.FOURTH: (0.5, np.sin, lambda th: np.sin(0.5 * th)),
}


# Rules with at least this many nodes, and coefficient requests with at least
# this many degrees, are computed by FFT; smaller ones by termwise sums.  The
# FFT is already faster from n = 16 (weights) and n = 8 (coefficients), but
# it is not bit-equal to the termwise sums, so the cutoff sits well above the
# paper's n <= 16 to keep those tables and the goldens byte-identical; the
# termwise path costs under 0.6 ms at n = 63.
TRANSFORM_CUTOFF = 64


def _integers(value: Any, name: str) -> Any:
    """value itself if it is an integer or an integer array; TypeError otherwise.

    bool, float and float arrays are refused even where they hold whole
    numbers, so a size or an index is never truncated or taken as a flag.
    """
    if isinstance(value, np.ndarray):
        ok = value.dtype.kind in "iu"
    else:
        ok = not isinstance(value, bool) and hasattr(type(value), "__index__")
    if not ok:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _check_n(kind: QuadKind, n: Any) -> int:
    """n as an int of at least kind.min_nodes; TypeError or ValueError otherwise."""
    n = operator.index(_integers(n, "node count n"))
    if n < kind.min_nodes:
        raise ValueError(f"rule {kind.value} needs n >= {kind.min_nodes}, got {n}")
    return n


def _check_index(value: Any, name: str, top: int | None = None) -> Any:
    """An integer or integer array within 0..top, as an int or an int64 array.

    top None means no upper bound.  Non-integers raise TypeError, values
    out of range ValueError; unsigned arrays are held to the int64 maximum.
    The conversion keeps index arithmetic below 0 from wrapping around, as it
    would in unsigned numpy integers.
    """
    value = _integers(value, name)
    if not isinstance(value, np.ndarray):
        value = operator.index(value)
    elif value.dtype.kind == "u":
        top = np.iinfo(np.int64).max if top is None else top
    inside = value >= 0 if top is None else (value >= 0) & (value <= top)
    if not (inside if isinstance(inside, bool) else inside.all()):
        bound = "be nonnegative" if top is None else f"lie in 0..{top}"
        raise ValueError(f"{name} must {bound}, got {value}")
    return value.astype(np.int64, copy=False) if isinstance(value, np.ndarray) else value


# Each rule's node angles theta_j = (step * j + offset) * pi / den, where
# den = den_scale * n + den_shift: (step, offset, den_scale, den_shift)
_GRID = {
    QuadKind.FEJER_I: (2, 1, 2, 0),
    QuadKind.CLENSHAW_CURTIS: (1, 0, 1, -1),
    QuadKind.FEJER_II: (1, 1, 1, 1),
    QuadKind.FEJER_III: (2, 1, 2, 1),
    QuadKind.FEJER_IV: (2, 2, 2, 1),
}


def rule_thetas(kind: QuadKind, n: int) -> np.ndarray:
    """Node angles theta_j in increasing order; the nodes are cos(theta_j).

    Exposed separately from make_rule because sampling-only uses (coefficient
    computation) need the angles but not the weight construction.
    """
    n = _check_n(kind, n)
    step, offset, den_scale, den_shift = _GRID[kind]
    j = np.arange(n, dtype=float)
    return (step * j + offset) * (math.pi / (den_scale * n + den_shift))


def _period(kind: QuadKind, n: int) -> int:
    """Smallest P with theta_{j+1} - theta_j = 2 pi / P: the alias period of the nodes."""
    step, _, den_scale, den_shift = _GRID[kind]
    return 2 * (den_scale * n + den_shift) // step


def _norm(kind: QuadKind, n: int) -> float:
    """Orthogonality norm N_k of each degree k whose index sum 2k + 2s does not alias.

    It is P/4, or P/2 for the families with a half-integer shift s.
    """
    return _period(kind, n) / (2 if _ANGLE_FORM[_FAMILY[kind]][0] % 1 else 4)


def _closed_set_normalizers(n: int) -> np.ndarray:
    """gamma_tilde(j, n) for j = 0..n-1: 2 at both ends, 1 inside."""
    gj = np.ones(n)
    gj[[0, -1]] = 2.0
    return gj


def _spectrum(kind: QuadKind, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, Any]:
    """The weights' moment sum as sum_m c_m trig(m theta) / d_m: (m, c, d, trig).

    First-kind rules sum cosines of the even m up to n (n - 1 for cc) with
    d = m^2 - 1 and c = -2, except c = -1 at m = 0 and at cc's endpoint
    frequency m = n - 1; the U, V and W rules sum sines of the odd m up to n
    with c = 1 and d = m.
    """
    if _FAMILY[kind] is ChebKind.FIRST:
        closed = kind is QuadKind.CLENSHAW_CURTIS
        top = n - 1 if closed else n
        m = np.arange(0, top + 1, 2)
        c = np.where((m == 0) | (closed & (m == top)), -1, -2)
        return m, c, m * m - 1, np.cos
    m = np.arange(1, n + 1, 2)
    return m, np.ones_like(m), m, np.sin


def _weights(kind: QuadKind, n: int, thetas: np.ndarray) -> np.ndarray:
    m, c, d, trig = _spectrum(kind, n)
    if n >= TRANSFORM_CUTOFF:
        # theta_j = theta_0 + 2 pi j / P, so the sum is the unscaled length-P
        # inverse DFT of (c / d) e^{i m theta_0}, read at j < n
        spectrum = np.zeros(_period(kind, n), dtype=complex)
        spectrum[m] = c / d * np.exp(1j * float(thetas[0]) * m)
        sums = np.fft.ifft(spectrum, norm="forward")[:n]
        acc = sums.real if trig is np.cos else sums.imag
    else:
        acc = np.zeros(n)
        for freq, num, den in zip(m.tolist(), c.tolist(), d.tolist()):
            acc += num * trig(freq * thetas) / den
    s = _ANGLE_FORM[_FAMILY[kind]][0]
    factor = (2 / s) * np.sin(thetas) if s else _node_factors(kind, thetas)
    return factor / _norm(kind, n) * acc


@dataclass(frozen=True)
class QuadratureRule:
    """Angles, nodes and weights of an n-point rule on [-1, 1].

    Instances are immutable: the dataclass is frozen and the arrays are
    marked read-only.  Construction validates the basic sanity invariants
    (weights positive and summing to 2, nodes strictly decreasing).
    """

    kind: QuadKind
    n: int
    thetas: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.thetas, self.nodes, self.weights):
            arr.setflags(write=False)
        total = math.fsum(self.weights.tolist())
        if abs(total - 2.0) > 1e-13:
            raise ValueError(f"weights sum to {total!r}, expected 2")
        if not np.all(self.weights > 0.0):
            raise ValueError("weights must all be positive")
        if not np.all(np.diff(self.nodes) < 0.0):
            raise ValueError("nodes must be strictly decreasing")

    def to_json_dict(self) -> dict[str, Any]:
        """Plain-JSON form: kind label, n, and the three arrays as lists."""
        return {
            "kind": self.kind.value,
            "n": self.n,
            "thetas": self.thetas.tolist(),
            "nodes": self.nodes.tolist(),
            "weights": self.weights.tolist(),
        }


def make_rule(kind: QuadKind, n: int) -> QuadratureRule:
    """The n-point rule of the given kind, built once per process.

    n must be an integer (int or a numpy integer, not bool or float) and at
    least 1 (2 for Clenshaw-Curtis, whose node set contains both endpoints).
    The result is a shared, immutable instance from a cache of the 128 most
    recently used rules, enough for every rule a full paper sweep touches;
    repeated calls with the same kind and n return the same object.  Invalid
    arguments raise on every call: errors are not cached.
    """
    return _build_rule(kind, _check_n(kind, n))


@functools.lru_cache(maxsize=128)
def _build_rule(kind: QuadKind, n: int) -> QuadratureRule:
    thetas = rule_thetas(kind, n)
    return QuadratureRule(
        kind=kind,
        n=n,
        thetas=thetas,
        nodes=np.cos(thetas),
        weights=_weights(kind, n, thetas),
    )


def _family_matrix(family: ChebKind, thetas: np.ndarray, degrees) -> np.ndarray:
    """P_i(cos theta_j) for each degree i (rows) and angle theta_j (columns).

    Quotient forms are safe here: callers only pass rule angles, and every
    rule's angles are interior for its matched family (first-kind angles need
    no quotient at all).
    """
    s, trig, denom = _ANGLE_FORM[family]
    th = thetas.reshape(1, -1)
    return trig((np.asarray(degrees).reshape(-1, 1) + s) * th) / denom(th)


def _node_factors(kind: QuadKind, thetas: np.ndarray) -> np.ndarray:
    """Node factor w(t_j) of discrete_orthogonality_sum at each angle (f2's 1 - t^2 as sin^2)."""
    if kind is QuadKind.FEJER_I:
        return np.ones_like(thetas)
    if kind is QuadKind.CLENSHAW_CURTIS:
        return 1.0 / _closed_set_normalizers(thetas.size)
    if kind is QuadKind.FEJER_II:
        return np.sin(thetas) ** 2
    if kind is QuadKind.FEJER_III:
        return 1.0 + np.cos(thetas)
    return 1.0 - np.cos(thetas)


def discrete_orthogonality_sum(kind: QuadKind, n: int, i: int, k: int) -> float:
    """Sum of P_i(t_j) P_k(t_j) w(t_j) over the rule's nodes, by direct evaluation.

    P is the matched family of the rule and w(t) its node factor: 1 for f1,
    1/gamma_tilde_j for cc, (1 - t^2) for f2, (1 + t) for f3, (1 - t) for f4.
    Polynomial values are taken in the angle domain to avoid an arccos
    round-trip.
    """
    n = _check_n(kind, n)
    i = operator.index(_check_index(i, "index i"))
    k = operator.index(_check_index(k, "index k"))
    thetas = rule_thetas(kind, n)
    p_i, p_k = _family_matrix(_FAMILY[kind], thetas, [i, k])
    return math.fsum((p_i * _node_factors(kind, thetas) * p_k).tolist())


def _alias_hit(r: Any, period: int, flip: int) -> Any:
    """1 where r is a multiple of period, else 0, negated where flip * (r // period) is odd."""
    return (r % period == 0) * (1 - 2 * (flip * (r // period) % 2))


def closed_form_orthogonality(kind: QuadKind, n: int, i: Any, k: Any) -> Any:
    """Predicted value of discrete_orthogonality_sum(kind, n, i, k) for 0 <= k <= n-1.

    Off the diagonal the sum vanishes unless i aliases k across the node
    count; on a hit the value is the rule's orthogonality norm, possibly
    signed.  Both alias branches (index difference and index sum) are
    accumulated, which matters in the corner where both fire at once
    (e.g. k = 0 with i a nonzero multiple of 2n on f1 nodes).

    i and k may be integers or integer arrays.  Arrays broadcast against each
    other, so ``closed_form_orthogonality(kind, n, i[:, None], k)`` gives the
    whole table at once and ``closed_form_orthogonality(kind, n, k, k)`` the
    norms; the result is then a float array of the broadcast shape.  Two
    integers give a Python float.  The values are small integer multiples of
    n/2, n+1/2 and the like, so they are exact either way.
    """
    n = _check_n(kind, n)
    i = _check_index(i, "index i")
    k = _check_index(k, "index k", n - 1)
    p = _period(kind, n)
    step, offset, _, _ = _GRID[kind]
    s, trig, _ = _ANGLE_FORM[_FAMILY[kind]]
    # at r = m P every node has cos(r theta_j) = cos(m pi flip): odd flip signs the hits
    flip = 2 * offset // step
    sign = 1 if trig is np.cos else -1
    hits = _alias_hit(i - k, p, flip) + sign * _alias_hit(i + k + int(2 * s), p, flip)
    out = _norm(kind, n) * hits
    return out if isinstance(out, np.ndarray) else float(out)


def lagrange_basis_eval(kind: QuadKind, n: int, j: int, t: float) -> float:
    """Evaluate the cardinal basis polynomial of node j at t.

    Uses the finite family sum w(t_j) sum_k P_k(t_j) P_k(t) / N_k, where the
    norms N_k are the diagonal closed forms, rather than node products, so
    one evaluation costs O(n).
    """
    n = _check_n(kind, n)
    j = operator.index(_check_index(j, "node index j", n - 1))
    thetas = rule_thetas(kind, n)
    family = _FAMILY[kind]
    factor = float(_node_factors(kind, thetas)[j])
    at_node = _family_matrix(family, thetas[j : j + 1], range(n))[:, 0].tolist()
    ks = np.arange(n)
    norms = closed_form_orthogonality(kind, n, ks, ks).tolist()
    at_t = _recurrence(family, clamp_reference(t), n)
    terms = [factor * at_node[k] * at_t[k] / norms[k] for k in range(n)]
    return math.fsum(terms)
