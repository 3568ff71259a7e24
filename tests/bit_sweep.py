"""Bit-level fingerprint of the library's numerical outputs, beyond the goldens.

Prints one sha256 per output family: rules, discrete and continuous
coefficients, closed-form orthogonality, family matrices,
lagrange_basis_eval, CoefficientSet.evaluate, theoretical_order and
quadrature (integrate_composite over 1 to 1025 equispaced patches, one
uneven partition and one quadrature convergence study).  Node counts run up
to 2048, so the FFT paths (n >= TRANSFORM_CUTOFF) are covered as well as
the termwise ones.

This is a comparison tool, not a golden: FFT results may differ in the last
bit from one platform or numpy build to another.  To check that a change
keeps every output, run it on the parent checkout and on the change, on the
same machine, and compare the two printouts family by family (a family
the parent does not print is new, not a difference):

    PYTHONPATH=src python3 tests/bit_sweep.py

pytest does not collect this file.  It takes about ten seconds.
"""

import hashlib
import math

import numpy as np

from localcheb import (
    ChebKind,
    CoefficientSet,
    Interval,
    Partition,
    QuadKind,
    SampledFunction,
    ShrinkSchedule,
    closed_form_orthogonality,
    continuous_coeffs,
    discrete_coeffs,
    family_for_rule,
    integrate_composite,
    lagrange_basis_eval,
    make_rule,
    power_abs_exp,
    quadrature_convergence_study,
    theoretical_order,
)
from localcheb.rules import _family_matrix, rule_thetas

NS = list(range(1, 70)) + [100, 127, 128, 255, 256, 511, 512, 1000, 1024, 2047, 2048]
FUNCTIONS = [SampledFunction(math.exp)] + [power_abs_exp(m).sampled() for m in (0, 1, 4)]
INTERVALS = [Interval(-1.0, 1.0), Interval(-0.5, 1.0), Interval(3.0, 7.25)]
TS = [float(t) for t in np.linspace(-1.0, 1.0, 11)] + [0.3, -0.77, 1e-9]


def _ns(kind: QuadKind) -> list[int]:
    return [n for n in NS if n >= kind.min_nodes]


def _feed(h, values) -> None:
    h.update(np.asarray(values, dtype=float).tobytes())


def _quadrature(h) -> None:
    """integrate_composite's value as float.hex, per rule, n, patch count, function and interval."""
    fns = [SampledFunction(math.exp)] + [power_abs_exp(m).sampled() for m in (0, 3)]
    uneven = Partition(INTERVALS[1], (-0.5, -0.4999999999, -1e-300, 0.0, 5e-324, 0.3, 0.999, 1.0))
    for kind in QuadKind:
        for n in (2, 5, 64):
            for iv in INTERVALS[1:]:
                for pieces in (1, 3, 64, 1025):
                    part = Partition.equispaced(iv, pieces)
                    for f in fns:
                        h.update(integrate_composite(kind, f, part, n).value.hex().encode())
            for f in fns:
                h.update(integrate_composite(kind, f, uneven, n).value.hex().encode())
    study = quadrature_convergence_study(
        QuadKind.FEJER_I, power_abs_exp(3), range(1, 17), ShrinkSchedule.doubling(1 << 20))
    h.update(study.to_csv().encode())


def sweep() -> dict[str, str]:
    h = {name: hashlib.sha256() for name in (
        "rules", "discrete_coeffs", "continuous_coeffs", "closed_form",
        "family_matrix", "lagrange_basis_eval", "evaluate", "theoretical_order", "quadrature")}
    for kind in QuadKind:
        family = family_for_rule(kind)
        for n in _ns(kind):
            rule = make_rule(kind, n)
            for arr in (rule.thetas, rule.nodes, rule.weights):
                _feed(h["rules"], arr)
            for f in FUNCTIONS:
                for iv in INTERVALS:
                    cs = discrete_coeffs(kind, f, iv, n)
                    _feed(h["discrete_coeffs"], cs.values)
                    if n in (2, 5, 16, 63, 64, 512):
                        _feed(h["evaluate"], [cs.evaluate(t) for t in TS])
            # the table is (4n + 4) x n; the largest sizes take every 61st row
            step = 1 if n <= 256 else 61
            ii = np.arange(0, 4 * n + 4, step)
            _feed(h["closed_form"], closed_form_orthogonality(kind, n, ii[:, None], np.arange(n)))
            _feed(h["closed_form"], [closed_form_orthogonality(kind, n, 3 * n, k) for k in (0, n - 1)])
            _feed(h["family_matrix"], _family_matrix(family, rule_thetas(kind, n), ii))
            js = range(n) if n <= 32 else (0, 1, n // 3, n - 2, n - 1)
            _feed(h["lagrange_basis_eval"], [lagrange_basis_eval(kind, n, j, t) for j in js for t in TS])
            for m in (None, 0, 1, 2, 5, 10):
                _feed(h["theoretical_order"], [theoretical_order(kind, n, m, c) for c in (False, True)])
    for family in ChebKind:
        for k_max in (0, 5, 30, 63, 64, 100):
            for f in FUNCTIONS[:2]:
                cs = continuous_coeffs(family, f, INTERVALS[1], k_max, 8192)
                _feed(h["continuous_coeffs"], cs.values)
                _feed(h["evaluate"], [cs.evaluate(t) for t in TS])
    values = tuple(math.sin(k + 0.5) / (k + 1) for k in range(64))
    for family in ChebKind:
        cs = CoefficientSet(family, INTERVALS[0], values, None)
        _feed(h["evaluate"], [cs.evaluate(float(t)) for t in np.linspace(-1.0, 1.0, 257)])
    _quadrature(h["quadrature"])
    return {name: d.hexdigest() for name, d in h.items()}


if __name__ == "__main__":
    for name, digest in sweep().items():
        print(f"{digest}  {name}")
