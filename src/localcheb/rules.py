"""Interpolatory quadrature rules at Chebyshev-family nodes on [-1, 1].

Five node sets are supported, named f1, cc, f2, f3, f4: Fejer-1 (zeros of
T_n), Clenshaw-Curtis (extrema of T_{n-1}, both endpoints included), Fejer-2
(zeros of U_n), Fejer-3 (zeros of V_n) and Fejer-4 (zeros of W_n).  Node
angles increase with the index j, so nodes t_j = cos(theta_j) are strictly
decreasing.  One table row per rule gives its angle grid theta_j =
(step j + offset) pi / den and the alias period P = 2 den / step that the
FFTs and the closed-form orthogonality read.

Two transforms of that grid live here, each summed by two paths that never
ask for the rule.  Weights come from one trigonometric sum per rule, kept
as a spectrum (terms m, c, d and cos or sin).  Below TRANSFORM_CUTOFF nodes
one loop over Python floats adds c trig(m theta) / d term by term in
O(n^2); this covers the paper's tables (n <= 16) and the goldens, and needs
no numpy.  From TRANSFORM_CUTOFF nodes on, one inverse FFT of the spectrum
gives the same sums in O(n log n).  The paths agree to within 1e-16 and are
deterministic, so a rule's output is byte-identical from run to run.

Coefficients come from samples f_j at the nodes.  Per rule, one analysis
table gives the weighted samples b_j = f_j w(t_j) / D(theta_j) and, from the
family's angle form, the shift s and cos or sin; coefficient k is sum_j b_j
trig((k + s) theta_j) over the rule's discrete norm N_k.  The U, V and W
node factors equal D^2 / s, so b_j = f_j D(theta_j) / s: the quotient
cancels and no node ever divides by a small cosine or sine.  The table and
its math.fsum sums are Python floats below TRANSFORM_CUTOFF nodes and numpy
arrays from it on, where TRANSFORM_CUTOFF degrees or more come from one real
FFT instead.  numpy is imported only by the FFTs, the array paths and
accessors and the orthogonality helpers, so a small rule or coefficient set
costs no numpy import.

Each family's angle form P_k(cos theta) = trig((k + s) theta) / trig(s theta)
is one row (s, trig) of a second table, and ``_norm`` gives each rule's
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
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .polynomials import ChebKind, _index, _is_array, _recurrence, clamp_reference

if TYPE_CHECKING:
    import numpy as np

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


# Each family's angle form P_k(cos theta) = trig((k + s) theta) / D(theta): (s, trig).
# The denominator D(theta) = trig(s theta) is 1, sin theta, cos(theta/2), sin(theta/2);
# array code takes numpy's function of the same name.
_ANGLE_FORM = {
    ChebKind.FIRST: (0, math.cos),
    ChebKind.SECOND: (1, math.sin),
    ChebKind.THIRD: (0.5, math.cos),
    ChebKind.FOURTH: (0.5, math.sin),
}


# Rules with at least this many nodes, and coefficient requests with at least
# this many degrees, are computed by FFT; smaller ones by termwise sums.  The
# FFT is already faster from n = 16 (weights) and n = 8 (coefficients), but
# it is not bit-equal to the termwise sums, so the cutoff sits well above the
# paper's n <= 16 to keep those tables and the goldens byte-identical.  The
# termwise path runs over Python floats and needs no numpy; at n = 63 it takes
# about 0.4 ms per rule and 0.7 ms per coefficient set.
TRANSFORM_CUTOFF = 64


def _check_n(kind: QuadKind, n: Any) -> int:
    """n as an int of at least kind.min_nodes; TypeError or ValueError otherwise."""
    # any integer passes _index: the rule's own minimum below words the error
    n = _index(n, "node count n", -math.inf)
    if n < kind.min_nodes:
        raise ValueError(f"rule {kind.value} needs n >= {kind.min_nodes}, got {n}")
    return n


# Each rule's node angles theta_j = (step * j + offset) * pi / den, where
# den = den_scale * n + den_shift: (step, offset, den_scale, den_shift)
_GRID = {
    QuadKind.FEJER_I: (2, 1, 2, 0),
    QuadKind.CLENSHAW_CURTIS: (1, 0, 1, -1),
    QuadKind.FEJER_II: (1, 1, 1, 1),
    QuadKind.FEJER_III: (2, 1, 2, 1),
    QuadKind.FEJER_IV: (2, 2, 2, 1),
}


def _angles(kind: QuadKind, n: int) -> list[float]:
    """Node angles theta_j in increasing order, as Python floats, for an n that _check_n passed."""
    step, offset, den_scale, den_shift = _GRID[kind]
    scale = math.pi / (den_scale * n + den_shift)
    return [i * scale for i in range(offset, step * n + offset, step)]


def rule_thetas(kind: QuadKind, n: int) -> np.ndarray:
    """Node angles theta_j in increasing order as a float64 array; the nodes are cos(theta_j).

    Exposed separately from make_rule for callers that need the angles as an
    array but not the weights: in the package only the verify suites call it,
    and the benchmark's per-layer trace counts those calls.  Rule and
    coefficient construction read the Python-float angles of _angles instead.
    """
    import numpy as np

    return np.array(_angles(kind, _check_n(kind, n)))


def _period(kind: QuadKind, n: int) -> int:
    """Smallest P with theta_{j+1} - theta_j = 2 pi / P: the alias period of the nodes."""
    step, _, den_scale, den_shift = _GRID[kind]
    return 2 * (den_scale * n + den_shift) // step


def _norm(kind: QuadKind, n: int) -> float:
    """Orthogonality norm N_k of each degree k whose index sum 2k + 2s does not alias.

    It is P/4, or P/2 for the families with a half-integer shift s.
    """
    return _period(kind, n) / (2 if _ANGLE_FORM[_FAMILY[kind]][0] % 1 else 4)


def _spectrum(kind: QuadKind, n: int) -> tuple[list[tuple[int, int, int]], Callable]:
    """The weights' moment sum as sum_m c_m trig(m theta) / d_m: its terms (m, c, d) and trig.

    First-kind rules sum cosines of the even m up to n (n - 1 for cc) with
    d = m^2 - 1 and c = -2, except c = -1 at m = 0 and at cc's endpoint
    frequency m = n - 1; the U, V and W rules sum sines of the odd m up to n
    with c = 1 and d = m.
    """
    if _FAMILY[kind] is ChebKind.FIRST:
        closed = kind is QuadKind.CLENSHAW_CURTIS
        top = n - 1 if closed else n
        ends = (0, top) if closed else (0,)
        return [(m, -1 if m in ends else -2, m * m - 1) for m in range(0, top + 1, 2)], math.cos
    return [(m, 1, m) for m in range(1, n + 1, 2)], math.sin


def _weights(kind: QuadKind, n: int, thetas: Sequence[float]) -> list[float]:
    terms, trig = _spectrum(kind, n)
    if n >= TRANSFORM_CUTOFF:
        import numpy as np

        # theta_j = theta_0 + 2 pi j / P, so the sum is the unscaled length-P
        # inverse DFT of (c / d) e^{i m theta_0}, read at j < n
        m, c, d = (np.array(column) for column in zip(*terms))
        spectrum = np.zeros(_period(kind, n), dtype=complex)
        spectrum[m] = c / d * np.exp(1j * float(thetas[0]) * m)
        sums = np.fft.ifft(spectrum, norm="forward")[:n]
        acc = (sums.real if trig is math.cos else sums.imag).tolist()
    else:
        acc = []
        for th in thetas:
            total = 0.0
            for m, c, d in terms:
                total += c * trig(m * th) / d
            acc.append(total)
    s = _ANGLE_FORM[_FAMILY[kind]][0]
    factors = [(2 / s) * math.sin(th) for th in thetas] if s else _node_factors(kind, thetas)
    norm = _norm(kind, n)
    return [factor / norm * total for factor, total in zip(factors, acc)]


# magnitudes below this are flushed to exact zeros when coefficients are built
SUBNORMAL_FLUSH = 1e-300


def _coeff_values(
    kind: QuadKind, thetas: Sequence[float], fvals: Sequence[float], n: int, ks: Sequence[int]
) -> list[float]:
    """Discrete coefficients of degrees ks from samples fvals at the n-point rule's angles.

    Each node sum but _array_sums' FFT is formed termwise and reduced with
    math.fsum, so it is the correctly rounded sum of its rounded terms.  The
    paper's tables (n <= 16) and the goldens come from the Python-float path
    below TRANSFORM_CUTOFF nodes, which needs no numpy.  Finite samples can
    still overflow a term or a sum; every path then raises OverflowError
    naming the first degree whose coefficient is not finite.
    """
    if n < TRANSFORM_CUTOFF:
        # First-kind rules have D = 1 and a node factor of 1 or 1/2, so f_j
        # times it is exact; the other families have w = D^2 / s, so b_j =
        # f_j D / s with D = trig(s theta), and dividing by s = 1 or 1/2 is exact.
        shift, trig = _ANGLE_FORM[_FAMILY[kind]]
        if shift:
            base = [f * (trig(shift * th) / shift) for f, th in zip(fvals, thetas)]
        else:
            base = [f * w for f, w in zip(fvals, _node_factors(kind, thetas))]
        sums = [_fsum([b * trig((k + shift) * th) for b, th in zip(base, thetas)]) for k in ks]
    else:
        sums = _array_sums(kind, thetas, fvals, n, ks)
    out = _normalise(kind, n, ks, sums)
    if not all(map(math.isfinite, out)):
        k = next(k for k, v in zip(ks, out) if not math.isfinite(v))
        raise OverflowError(f"coefficient of degree {k} is not finite")
    return [0.0 if abs(v) < SUBNORMAL_FLUSH else v for v in out]


def _fsum(terms: list[float]) -> float:
    """math.fsum, or NaN where a partial sum overflows or meets inf - inf."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def _array_sums(
    kind: QuadKind, thetas: Sequence[float], fvals: Sequence[float], n: int, ks: Sequence[int]
) -> list[float]:
    """The node sums of _coeff_values from TRANSFORM_CUTOFF nodes on, over float64 arrays.

    The analysis table is the termwise path's, formed by the same elementwise
    operations on arrays; at these sizes a Python loop over the nodes would
    cost more than the sums.  Fewer than TRANSFORM_CUTOFF degrees, as continuous
    coefficients ask for, keep the termwise sums, one array row per degree;
    more come from one real FFT in O(n log n).  The FFT and the termwise
    sums agree to within n * eps * max|f|; most of that gap is the termwise
    sums' own rounding of k * theta_j before the cosine.  Both are
    deterministic, so repeated runs are reproducible to the bit.  An
    overflow leaves a sum non-finite, for _coeff_values to report, and
    warns nothing.
    """
    import numpy as np

    shift, trig = _ANGLE_FORM[_FAMILY[kind]]
    trig = getattr(np, trig.__name__)
    th, fv = np.array(thetas), np.array(fvals)
    with np.errstate(over="ignore", invalid="ignore"):
        base = fv * (trig(shift * th) / shift if shift else np.array(_node_factors(kind, thetas)))
        if len(ks) < TRANSFORM_CUTOFF:
            return [_fsum((base * trig((k + shift) * th)).tolist()) for k in ks]
        # theta_j = theta_0 + 2 pi j / P.  A half-integer shift makes k + s a
        # whole frequency 2k + 1 of the half angles theta_j / 2, of period 2P.
        q = 2 if shift % 1 else 1
        ms = q * np.asarray(ks) + int(q * shift)
        spectrum = np.conj(np.fft.rfft(base, n=q * _period(kind, n))[ms])
        sums = np.exp(1j * (float(th[0]) / q) * ms) * spectrum
    return (sums.real if trig is np.cos else sums.imag).tolist()


def _normalise(kind: QuadKind, n: int, ks: Sequence[int], sums: Sequence[float]) -> list[float]:
    """The coefficients from their node sums: divide out the discrete norms N_k.

    N_k is the rule's norm (_norm), doubled at each degree k < n whose
    index sum 2k + 2s is a multiple of the period P.  Both scales and the
    doubled degrees are formed once per call.  The rules with a whole shift
    s (f1, cc, f2) multiply by 1 / N_k and the half-shift rules (f3, f4)
    divide by N_k; the two differ in the last bit, and the goldens hold these.
    """
    norm, period = _norm(kind, n), _period(kind, n)
    two_s = int(2 * _ANGLE_FORM[_FAMILY[kind]][0])
    # each multiple h of P that is the index sum 2k + 2s of some k < n
    doubled = {(h - two_s) // 2 for h in range(0, 2 * n + two_s, period)
               if h >= two_s and (h - two_s) % 2 == 0}
    if two_s % 2:
        return [v / (2 * norm if k in doubled else norm) for k, v in zip(ks, sums)]
    once, twice = 1 / norm, 1 / (2 * norm)
    return [(twice if k in doubled else once) * v for k, v in zip(ks, sums)]


def _read_only(values: tuple[float, ...]) -> np.ndarray:
    """values as a float64 array that cannot be written to."""
    import numpy as np

    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QuadratureRule:
    """Angles, nodes and weights of an n-point rule on [-1, 1].

    The fields hold them as tuples of Python floats, which the library
    reads; ``thetas``, ``nodes`` and ``weights`` give the same values as
    read-only float64 arrays, built (and numpy imported) on first access.
    Instances are immutable.  Construction validates the basic sanity
    invariants (weights positive and summing to 2, nodes strictly
    decreasing).
    """

    kind: QuadKind
    n: int
    theta_values: tuple[float, ...]
    node_values: tuple[float, ...]
    weight_values: tuple[float, ...]

    def __post_init__(self) -> None:
        weights, nodes = self.weight_values, self.node_values
        total = math.fsum(weights)
        if abs(total - 2.0) > 1e-13:
            raise ValueError(f"weights sum to {total!r}, expected 2")
        if not all(w > 0.0 for w in weights):
            raise ValueError("weights must all be positive")
        if not all(hi > lo for hi, lo in zip(nodes, nodes[1:])):
            raise ValueError("nodes must be strictly decreasing")

    @functools.cached_property
    def thetas(self) -> np.ndarray:
        """Node angles in increasing order, as a read-only float64 array."""
        return _read_only(self.theta_values)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """Nodes cos(theta_j) in decreasing order, as a read-only float64 array."""
        return _read_only(self.node_values)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Weights on [-1, 1], as a read-only float64 array."""
        return _read_only(self.weight_values)

    def to_json_dict(self) -> dict[str, Any]:
        """Plain-JSON form: kind label, n, and the angles, nodes and weights as lists."""
        return {
            "kind": self.kind.value,
            "n": self.n,
            "thetas": list(self.theta_values),
            "nodes": list(self.node_values),
            "weights": list(self.weight_values),
        }


def make_rule(kind: QuadKind, n: int) -> QuadratureRule:
    """The n-point rule of the given kind, built once per process.

    n must be an integer (int or a numpy integer, not bool or float) and at
    least 1 (2 for Clenshaw-Curtis, whose node set contains both endpoints).
    The result is a shared, immutable instance; repeated calls with the same
    kind and n return the same object while it stays cached.  Rules below
    TRANSFORM_CUTOFF nodes come from a cache of the 128 most recently used,
    enough for every rule a full paper sweep touches.  Larger rules come from
    a cache of the 4 most recently used: a rule holds about 6 MiB at n =
    2**16, so the large rules cached at once stay within about 30 MiB with
    their arrays, where 128 of them could reach about 1 GiB.  Invalid
    arguments raise on every call: errors are not cached.
    """
    n = _check_n(kind, n)
    return (_build_rule if n < TRANSFORM_CUTOFF else _build_large_rule)(kind, n)


@functools.lru_cache(maxsize=128)
def _build_rule(kind: QuadKind, n: int) -> QuadratureRule:
    thetas = _angles(kind, n)
    return QuadratureRule(
        kind=kind,
        n=n,
        theta_values=tuple(thetas),
        node_values=tuple(map(math.cos, thetas)),
        weight_values=tuple(_weights(kind, n, thetas)),
    )


_build_large_rule = functools.lru_cache(maxsize=4)(_build_rule.__wrapped__)


def _family_matrix(family: ChebKind, thetas: Any, degrees: Any) -> np.ndarray:
    """P_i(cos theta_j) for each degree i (rows) and angle theta_j (columns).

    Quotient forms are safe here: callers only pass rule angles, and every
    rule's angles are interior for its matched family (first-kind angles need
    no quotient at all, and divide by cos 0 = 1).
    """
    import numpy as np

    s, trig = _ANGLE_FORM[family]
    trig = getattr(np, trig.__name__)
    th = np.asarray(thetas, dtype=float).reshape(1, -1)
    return trig((np.asarray(degrees).reshape(-1, 1) + s) * th) / trig(s * th)


def _node_factors(kind: QuadKind, thetas: Sequence[float]) -> list[float]:
    """Node factor w(t_j) of discrete_orthogonality_sum at each angle (f2's 1 - t^2 as sin^2)."""
    if kind is QuadKind.FEJER_I:
        return [1.0] * len(thetas)
    if kind is QuadKind.CLENSHAW_CURTIS:
        # 1 / gamma_tilde_j: 1/2 at both ends, 1 inside
        factors = [1.0] * len(thetas)
        factors[0] = factors[-1] = 0.5
        return factors
    if kind is QuadKind.FEJER_II:
        return [sin * sin for sin in map(math.sin, thetas)]
    if kind is QuadKind.FEJER_III:
        return [1.0 + math.cos(th) for th in thetas]
    return [1.0 - math.cos(th) for th in thetas]


def discrete_orthogonality_sum(kind: QuadKind, n: int, i: int, k: int) -> float:
    """Sum of P_i(t_j) P_k(t_j) w(t_j) over the rule's nodes, by direct evaluation.

    P is the matched family of the rule and w(t) its node factor: 1 for f1,
    1/gamma_tilde_j for cc, (1 - t^2) for f2, (1 + t) for f3, (1 - t) for f4.
    Polynomial values are taken in the angle domain to avoid an arccos
    round-trip.
    """
    n = _check_n(kind, n)
    i = _index(i, "index i")
    k = _index(k, "index k")
    thetas = _angles(kind, n)
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
    i = _index(i, "index i", arrays=True)
    k = _index(k, "index k", 0, n - 1, arrays=True)
    p = _period(kind, n)
    step, offset, _, _ = _GRID[kind]
    s, trig = _ANGLE_FORM[_FAMILY[kind]]
    # at r = m P every node has cos(r theta_j) = cos(m pi flip): odd flip signs the hits
    flip = 2 * offset // step
    sign = 1 if trig is math.cos else -1
    hits = _alias_hit(i - k, p, flip) + sign * _alias_hit(i + k + int(2 * s), p, flip)
    out = _norm(kind, n) * hits
    return out if _is_array(out) else float(out)


def lagrange_basis_eval(kind: QuadKind, n: int, j: int, t: float) -> float:
    """Evaluate the cardinal basis polynomial of node j at t.

    Uses the finite family sum w(t_j) sum_k P_k(t_j) P_k(t) / N_k, where the
    norms N_k are the diagonal closed forms, rather than node products, so
    one evaluation costs O(n).
    """
    import numpy as np

    n = _check_n(kind, n)
    j = _index(j, "node index j", 0, n - 1)
    thetas = _angles(kind, n)
    family = _FAMILY[kind]
    factor = _node_factors(kind, thetas)[j]
    at_node = _family_matrix(family, thetas[j : j + 1], range(n))[:, 0].tolist()
    ks = np.arange(n)
    norms = closed_form_orthogonality(kind, n, ks, ks).tolist()
    at_t = _recurrence(family, clamp_reference(t), n)
    terms = [factor * at_node[k] * at_t[k] / norms[k] for k in range(n)]
    return math.fsum(terms)
