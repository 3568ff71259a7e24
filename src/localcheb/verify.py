"""Property suites behind ``localcheb verify``.

``SUITES`` maps each suite name, in report order, to a callable that runs
the suite and returns ``(ok, detail)``: whether every case stayed within its
tolerance, and a one-line summary of the worst case.  Each suite is
deterministic, so its detail is byte-identical from run to run.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .analysis import function_by_id, trig_moment
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


def _orthogonality() -> tuple[bool, str]:
    """Node sums of P_i P_k against their closed forms, all kinds, n <= 16.

    All (4n + 4) x n direct sums of one rule come from one elementwise
    product and a sum over the last axis, whose result does not depend on
    the BLAS thread count; the scalar closed forms referee each of them.
    """
    worst = 0.0
    worst_tol = math.inf
    ok = True
    for kind in QuadKind:
        family = family_for_rule(kind)
        for n in range(kind.min_nodes, 17):
            thetas = rule_thetas(kind, n)
            vals = _family_matrix(family, thetas, np.arange(4 * n + 4))
            weighted = vals * _node_factors(kind, thetas)
            direct = (weighted[:, None, :] * vals[None, :n, :]).sum(axis=-1)
            closed = np.array([
                [closed_form_orthogonality(kind, n, i, k) for k in range(n)]
                for i in range(4 * n + 4)
            ])
            tol = 1e-11 * n
            diff = float(np.abs(direct - closed).max())
            if diff > worst:
                worst = diff
                worst_tol = tol
            if diff > tol:
                ok = False
    return ok, f"max|direct-closed|={worst:.3e} (tol at worst case {worst_tol:.1e})"


def _exactness() -> tuple[bool, str]:
    """Each n-point rule integrates degrees <= n-1 exactly on random intervals."""
    rng = np.random.default_rng(271828)
    intervals = []
    while len(intervals) < 20:
        lo, hi = np.sort(rng.uniform(-2.0, 2.0, size=2))
        if hi - lo >= 0.25:
            intervals.append(Interval(float(lo), float(hi)))
    worst = 0.0
    ok = True
    for kind in QuadKind:
        for n in range(kind.min_nodes, 13):
            rule = make_rule(kind, n)
            for iv in intervals:
                half_h = 0.5 * iv.h
                xs = np.array([half_h * t + iv.midpoint for t in rule.nodes])
                for d in range(n):
                    q = half_h * math.fsum((rule.weights * xs**d).tolist())
                    exact = (iv.b ** (d + 1) - iv.a ** (d + 1)) / (d + 1)
                    scale = (abs(iv.a) ** (d + 1) + abs(iv.b) ** (d + 1)) / (d + 1)
                    rel = abs(q - exact) / scale
                    worst = max(worst, rel)
                    if rel > 1e-12:
                        ok = False
    return ok, f"max scaled error={worst:.3e} (tol 1e-12)"


def _kind_relations() -> tuple[bool, str]:
    """Cross-family coefficient identities for e^x on [-0.5, 1]."""
    fn = function_by_id("exp")
    report = kind_relations_check(fn.sampled(), Interval(-0.5, 1.0), k_max=6, n_ref=8192)
    ok = report.max_residual < 1e-10
    return ok, f"max residual={report.max_residual:.3e} (tol 1e-10)"


def _trig_moments() -> tuple[bool, str]:
    """sin^l cos^q x {cos,sin}(k t) moments vanish on [-pi,pi] for l+q < k."""
    worst = 0.0
    ok = True
    for ell in range(5):
        for q in range(5):
            for k in range(ell + q + 1, 13):
                for parity in (0, 1):
                    v = abs(trig_moment(ell, q, k, parity))
                    worst = max(worst, v)
                    if v > 1e-10:
                        ok = False
    return ok, f"max |moment|={worst:.3e} (tol 1e-10)"


SUITES: dict[str, Callable[[], tuple[bool, str]]] = {
    "orthogonality": _orthogonality,
    "exactness": _exactness,
    "kind-relations": _kind_relations,
    "trig-moments": _trig_moments,
}
