"""Property suites behind ``localcheb verify``.

``SUITES`` maps each suite name, in report order, to a callable that runs
the suite and returns ``(ok, detail)``: whether every residual is at most
its case's tolerance (a NaN fails), and the worst case in one line.  A
suite that raises a ValueError or an ArithmeticError fails with the error
as its detail, so the suites after it still run.  Each suite is
deterministic, so its detail is byte-identical from run to run.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator

import numpy as np

from .analysis import _powers, function_by_id, trig_moment
from .coefficients import kind_relations_check
from .polynomials import Interval
from .rules import (
    QuadKind,
    _family_matrix,
    _node_factors,
    closed_form_orthogonality,
    family_for_rule,
    make_rule,
    rule_thetas,
)

__all__ = ["SUITES"]


def _judge(cases: Iterable[tuple[object, float]], detail: str) -> tuple[bool, str]:
    """ok iff every residual is <= its case's tol; ``detail`` gets the worst and its tol.

    A ValueError or ArithmeticError raised while the cases are drawn fails
    the suite with detail "error: <message>"; any other exception propagates.
    """
    ok, worst, worst_tol = True, 0.0, math.inf
    try:
        for residuals, tol in cases:
            r = np.asarray(residuals)
            ok = ok and bool((r <= tol).all())
            top = float(r.max())
            # a larger residual, or the first NaN, becomes the worst
            if not top <= worst and not math.isnan(worst):
                worst, worst_tol = top, tol
    except (ValueError, ArithmeticError) as exc:
        return False, f"error: {exc}"
    return ok, detail.format(worst=worst, tol=worst_tol)


def _orthogonality() -> Iterator[tuple[np.ndarray, float]]:
    """Node sums of P_i P_k against their closed forms, all kinds, n <= 16.

    All (4n + 4) x n direct sums of one rule come from one elementwise
    product and a sum over the last axis, whose result does not depend on
    the BLAS thread count; one broadcast call of the closed form referees
    them all.
    """
    for kind in QuadKind:
        family = family_for_rule(kind)
        for n in range(kind.min_nodes, 17):
            thetas = rule_thetas(kind, n)
            i = np.arange(4 * n + 4)
            vals = _family_matrix(family, thetas, i)
            weighted = vals * _node_factors(kind, thetas)
            direct = (weighted[:, None, :] * vals[None, :n, :]).sum(axis=-1)
            closed = closed_form_orthogonality(kind, n, i[:, None], i[:n])
            yield np.abs(direct - closed), 1e-11 * n


# The 20 intervals of the exactness suite: sorted pairs of uniform draws on
# [-2, 2] from numpy's default_rng(271828), kept when at least 0.25 wide (all
# of the first 20 are).  They are written out so that the suite draws nothing
# at run time and does not depend on a Generator stream that numpy does not
# promise to keep across versions.
_EXACTNESS_INTERVALS = (
    (1.106068454630114, 1.6968942522923016),
    (-1.1185760647003384, 0.22180201342014305),
    (-1.990809315872201, -1.637518410559247),
    (1.4583839052755025, 1.814620127149607),
    (0.7914054611356041, 1.7471503639737458),
    (-1.036014417431153, 1.7014898205607634),
    (-1.8577069464478497, 0.5121164751246288),
    (-0.01042305968656887, 1.0054854488291274),
    (-1.4443075128572191, -0.488325852699627),
    (-0.911001122947718, 1.3859622317625653),
    (0.23312969763648317, 1.2589186333020024),
    (-0.29118134770985105, 1.2885613241732403),
    (-0.9536681730174341, -0.11219924588743702),
    (-1.9599380928978372, 1.612987042822366),
    (-1.7520643169275578, 1.3062220765469457),
    (0.17208408876730497, 0.9432611668020319),
    (-1.6130305540420045, 1.0634932721911854),
    (-1.5633444872590396, 0.05074258604668369),
    (-0.6675597974551559, 1.2172476796181857),
    (-1.8760975603231582, -0.3205564137480761),
)


def _exactness() -> Iterator[tuple[np.ndarray, float]]:
    """Each n-point rule integrates degrees <= n-1 exactly on 20 fixed intervals.

    The intervals are ``_EXACTNESS_INTERVALS``, the draws of
    ``default_rng(271828)`` kept as a table.  Per rule, all 20 intervals are
    mapped and all powers formed in one array operation each; each (degree,
    interval) sum keeps its own math.fsum.  The reference integrals take
    their powers from Python's float power (libm's pow), since numpy's
    vectorised power rounds differently in the last bit.
    """
    intervals = [Interval(a, b) for a, b in _EXACTNESS_INTERVALS]
    half_h = np.array([0.5 * iv.h for iv in intervals])
    mid = np.array([iv.midpoint for iv in intervals])
    # one row per degree d <= 11; pows[d, m] holds a, b, |a|, |b| of interval m to the d + 1
    ends = [(iv.a, iv.b, abs(iv.a), abs(iv.b)) for iv in intervals]
    pows = np.array([[[x**p for x in end] for end in ends] for p in range(1, 13)])
    d1 = np.arange(1, 13)[:, None]
    exact = (pows[..., 1] - pows[..., 0]) / d1
    scale = (pows[..., 2] + pows[..., 3]) / d1
    for kind in QuadKind:
        for n in range(kind.min_nodes, 13):
            rule = make_rule(kind, n)
            xs = half_h[:, None] * rule.nodes + mid[:, None]
            terms = rule.weights * _powers(xs, np.arange(n))
            sums = np.array(list(map(math.fsum, terms.reshape(-1, n).tolist())))
            q = half_h * sums.reshape(n, len(intervals))
            yield np.abs(q - exact[:n]) / scale[:n], 1e-12


def _kind_relations() -> Iterator[tuple[tuple[float, ...], float]]:
    """Cross-family coefficient identities for e^x on [-0.5, 1]."""
    fn = function_by_id("exp")
    r = kind_relations_check(fn.sampled(), Interval(-0.5, 1.0), k_max=6, n_ref=8192)
    yield (r.residual_second, r.residual_third, r.residual_fourth), 1e-10


def _trig_moments() -> Iterator[tuple[np.ndarray, float]]:
    """sin^l cos^q x {cos,sin}(k t) moments vanish on [-pi,pi] for l+q < k.

    Cases of equal total degree l + q + k share the default trapezoid grid,
    so each group is one trig_moment call, both parities at once.
    """
    ell, q, k = (g.ravel() for g in np.meshgrid(range(5), range(5), range(13), indexing="ij"))
    vanishing = ell + q < k
    ell, q, k = ell[vanishing], q[vanishing], k[vanishing]
    total = ell + q + k
    parity = np.array([0, 1])
    for degree in sorted(set(total.tolist())):
        group = total == degree
        yield np.abs(trig_moment(ell[group, None], q[group, None], k[group, None], parity)), 1e-10


# each value calls its suite afresh: a generator is spent after one pass
SUITES: dict[str, Callable[[], tuple[bool, str]]] = {
    "orthogonality": lambda: _judge(
        _orthogonality(), "max|direct-closed|={worst:.3e} (tol at worst case {tol:.1e})"),
    "exactness": lambda: _judge(_exactness(), "max scaled error={worst:.3e} (tol 1e-12)"),
    "kind-relations": lambda: _judge(_kind_relations(), "max residual={worst:.3e} (tol 1e-10)"),
    "trig-moments": lambda: _judge(_trig_moments(), "max |moment|={worst:.3e} (tol 1e-10)"),
}
