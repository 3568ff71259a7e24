"""Interpolatory quadrature rules at Chebyshev-family nodes on [-1, 1].

Five node sets are supported, named f1, cc, f2, f3, f4: Fejer-1 (zeros of
T_n), Clenshaw-Curtis (extrema of T_{n-1}, both endpoints included), Fejer-2
(zeros of U_n), Fejer-3 (zeros of V_n) and Fejer-4 (zeros of W_n).  Node
angles increase with the index j, so nodes t_j = cos(theta_j) are strictly
decreasing.  Weights come from closed-form trigonometric sums of about n/2
terms.  Below TRANSFORM_CUTOFF nodes they are summed term by term in
O(n^2); this covers the paper's tables (n <= 16) and the golden files.  From
TRANSFORM_CUTOFF nodes on, the same sums come from one inverse FFT in
O(n log n).  The two paths agree to within 1e-16, and both are
deterministic, so a rule's output is byte-identical from run to run.

Each node set makes its matched polynomial family discretely orthogonal.
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

from .polynomials import ChebKind, eval_cheb

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
    out of range ValueError.  The conversion keeps index arithmetic below 0
    from wrapping around, as it would in unsigned numpy integers.
    """
    value = _integers(value, name)
    if isinstance(value, np.ndarray):
        value = value.astype(np.int64, casting="safe", copy=False)
    else:
        value = operator.index(value)
    inside = value >= 0 if top is None else (value >= 0) & (value <= top)
    if not (inside if isinstance(inside, bool) else inside.all()):
        bound = "be nonnegative" if top is None else f"lie in 0..{top}"
        raise ValueError(f"{name} must {bound}, got {value}")
    return value


def rule_thetas(kind: QuadKind, n: int) -> np.ndarray:
    """Node angles theta_j in increasing order; the nodes are cos(theta_j).

    Exposed separately from make_rule because sampling-only uses (coefficient
    computation) need the angles but not the weight construction.
    """
    n = _check_n(kind, n)
    j = np.arange(n, dtype=float)
    if kind is QuadKind.FEJER_I:
        return (2.0 * j + 1.0) * (math.pi / (2.0 * n))
    if kind is QuadKind.CLENSHAW_CURTIS:
        return j * (math.pi / (n - 1.0))
    if kind is QuadKind.FEJER_II:
        return (j + 1.0) * (math.pi / (n + 1.0))
    if kind is QuadKind.FEJER_III:
        return (2.0 * j + 1.0) * (math.pi / (2.0 * n + 1.0))
    return (2.0 * j + 2.0) * (math.pi / (2.0 * n + 1.0))


def _closed_set_normalizers(n: int) -> np.ndarray:
    """gamma_tilde(j, n) for j = 0..n-1: 2 at both ends, 1 inside."""
    gj = np.ones(n)
    gj[[0, -1]] = 2.0
    return gj


def _moment_sums_direct(kind: QuadKind, n: int, thetas: np.ndarray) -> np.ndarray:
    if kind is QuadKind.FEJER_I:
        acc = np.ones(n)
        for k in range(1, n // 2 + 1):
            acc -= 2.0 * np.cos(2.0 * k * thetas) / (4.0 * k * k - 1.0)
        return acc
    if kind is QuadKind.CLENSHAW_CURTIS:
        acc = np.ones(n)
        for k in range(1, (n - 1) // 2 + 1):
            # the top term is halved when 2k hits the closed-set endpoint index
            coef = 1.0 if 2 * k == n - 1 else 2.0
            acc -= coef * np.cos(2.0 * k * thetas) / (4.0 * k * k - 1.0)
        return acc
    # the three open rules at U/V/W zeros share the odd-sine sum
    acc = np.zeros(n)
    for k in range(1, (n + 1) // 2 + 1):
        acc += np.sin((2.0 * k - 1.0) * thetas) / (2.0 * k - 1.0)
    return acc


def _moment_sums_fft(kind: QuadKind, n: int, theta0: float) -> np.ndarray:
    """The sums of _moment_sums_direct, from one inverse FFT.

    The angles are theta_j = theta_0 + 2 pi j / P, so sum_m a_m e^{i m theta_j}
    is the unscaled length-P inverse DFT of a_m e^{i m theta_0}, read at
    j < n.  P is the smallest period of the node set.
    """
    if kind in (QuadKind.FEJER_I, QuadKind.CLENSHAW_CURTIS):
        # 1 - sum_k coef_k cos(2k theta) / (4k^2 - 1) with coef_0 = 1 is one cosine sum
        top = n // 2 if kind is QuadKind.FEJER_I else (n - 1) // 2
        period = 2 * n if kind is QuadKind.FEJER_I else 2 * (n - 1)
        k = np.arange(top + 1)
        coef = np.full(top + 1, 2.0)
        coef[0] = 1.0
        if kind is QuadKind.CLENSHAW_CURTIS and 2 * top == n - 1:
            coef[top] = 1.0
        m = 2 * k
        amps = -coef / (4.0 * k * k - 1.0)
    else:
        period = 2 * (n + 1) if kind is QuadKind.FEJER_II else 2 * n + 1
        m = np.arange(1, n + 1, 2)
        amps = 1.0 / m
    spectrum = np.zeros(period, dtype=complex)
    spectrum[m] = amps * np.exp(1j * theta0 * m)
    sums = np.fft.ifft(spectrum, norm="forward")[:n]
    return sums.real if kind in (QuadKind.FEJER_I, QuadKind.CLENSHAW_CURTIS) else sums.imag


def _weights(kind: QuadKind, n: int, thetas: np.ndarray) -> np.ndarray:
    if n >= TRANSFORM_CUTOFF:
        acc = _moment_sums_fft(kind, n, float(thetas[0]))
    else:
        acc = _moment_sums_direct(kind, n, thetas)
    if kind is QuadKind.FEJER_I:
        return (2.0 / n) * acc
    if kind is QuadKind.CLENSHAW_CURTIS:
        return 2.0 / ((n - 1.0) * _closed_set_normalizers(n)) * acc
    denom = n + 1.0 if kind is QuadKind.FEJER_II else n + 0.5
    return 4.0 * np.sin(thetas) / denom * acc


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
    i = np.asarray(degrees).reshape(-1, 1)
    th = thetas.reshape(1, -1)
    if family is ChebKind.FIRST:
        return np.cos(i * th)
    if family is ChebKind.SECOND:
        return np.sin((i + 1) * th) / np.sin(th)
    if family is ChebKind.THIRD:
        return np.cos((i + 0.5) * th) / np.cos(0.5 * th)
    return np.sin((i + 0.5) * th) / np.sin(0.5 * th)


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


def _alias_hit(r: Any, period: int) -> Any:
    """1 where r is a multiple of period, else 0, for an int or an integer array r."""
    return (r % period == 0) * 1


def _signed_alias_hit(r: Any, period: int) -> Any:
    """_alias_hit, negated where r // period is odd."""
    return (r % period == 0) * (1 - 2 * (r // period % 2))


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
    if kind is QuadKind.FEJER_I:
        period = 2 * n
        out = 0.5 * n * (_signed_alias_hit(i - k, period) + _signed_alias_hit(i + k, period))
    elif kind is QuadKind.CLENSHAW_CURTIS:
        period = 2 * (n - 1)
        out = 0.5 * (n - 1) * (_alias_hit(i - k, period) + _alias_hit(i + k, period))
    elif kind is QuadKind.FEJER_II:
        period = 2 * (n + 1)
        out = 0.5 * (n + 1) * (_alias_hit(i - k, period) - _alias_hit(i + k + 2, period))
    elif kind is QuadKind.FEJER_III:
        period = 2 * n + 1
        out = (n + 0.5) * (
            _signed_alias_hit(i - k, period) + _signed_alias_hit(i + k + 1, period)
        )
    else:
        period = 2 * n + 1
        out = (n + 0.5) * (_alias_hit(i - k, period) - _alias_hit(i + k + 1, period))
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
    terms = [factor * at_node[k] * eval_cheb(family, k, t) / norms[k] for k in range(n)]
    return math.fsum(terms)
