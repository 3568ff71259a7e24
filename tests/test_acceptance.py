"""Acceptance gate: ten numbered criteria, one test and one verdict line each.

The reference tables below are regression targets for the shrinking-interval
error study: 3-significant-digit error magnitudes and 2-decimal convergence
orders for f(x) = x^m |x| + e^x under the standard doubling schedule.  Cells
recorded as None were not reported.  Comparisons are scoped to cells both
sides can rate: reference errors of at most 1e-13 sit at the reference's own
print floor, and rows under this harness's precision floor (flagged in the
reports) carry no rate by design.  The scoped cell counts are asserted so the
scoping itself cannot silently widen.

Two decay cells need more than a single number to state honestly:

* stabilized ndr: the decay-rate criteria compare the rate at the finest
  above-floor halving (the terminal value a decay plot shows).  Early
  halvings of high-k cells are far from asymptotic for every family alike,
  and the k=4 cells cross into their terminal regime only at the precision
  floor, so last-step reading is the strongest uniformly checkable form.
* the (k=5, m=5) cell: its limiting h^5 term has constant ~1.6e-5, which
  meets the coefficient noise floor (~1e-15) before the kink-driven h^6
  transient hands over.  The entire tdr=5 regime is below double precision,
  so that one cell gets a one-sided check: every rated ndr must stay inside
  [tdr - 0.15, (m+1) + 0.15] and decrease monotonically toward tdr.  All 20
  other (k, m) cells meet the two-sided +-0.15 band.
"""

import math
import time

import pytest

from conftest import record_criterion
from localcheb import (
    Interval,
    Partition,
    QuadKind,
    SampledFunction,
    ShrinkSchedule,
    TestFunction,
    coefficient_decay_study,
    composite_convergence_study,
    integrate_composite,
    kind_relations_check,
    midpoint_limit_check,
    power_abs_exp,
    quadrature_convergence_study,
    theoretical_decay_rate,
    trig_moment,
)
from localcheb.verify import SUITES

PS = [2**j for j in range(11)]

# fixed rule size n=8, regularity m = 0..4: (error, order) per schedule step
REF_FIXED_N = {
    0: [(4.80e-3, None), (1.20e-3, 2.00), (3.00e-4, 2.00), (7.49e-5, 2.00),
        (1.87e-5, 2.00), (4.68e-6, 2.00), (1.17e-6, 2.00), (2.93e-7, 2.00),
        (7.32e-8, 2.00), (1.83e-8, 2.00), (4.57e-9, 2.00)],
    1: [(5.53e-4, None), (6.91e-5, 3.00), (8.64e-6, 3.00), (1.08e-6, 3.00),
        (1.35e-7, 3.00), (1.69e-8, 3.00), (2.11e-9, 3.00), (2.64e-10, 3.00),
        (3.30e-11, 3.00), (4.12e-12, 3.00), (5.15e-13, 3.00)],
    2: [(5.20e-5, None), (3.25e-6, 4.00), (2.03e-7, 4.00), (1.27e-8, 4.00),
        (7.93e-10, 4.00), (4.96e-11, 4.00), (3.10e-12, 4.00), (1.94e-13, 4.00),
        (1.20e-14, 4.01), (7.33e-16, 4.03), (None, None)],
    3: [(2.19e-5, None), (6.84e-7, 5.00), (2.14e-8, 5.00), (6.68e-10, 5.00),
        (2.09e-11, 5.00), (6.53e-13, 5.00), (2.04e-14, 5.00), (5.55e-16, 5.20),
        (None, None), (None, None), (None, None)],
    4: [(1.46e-6, None), (2.28e-8, 6.00), (3.56e-10, 6.00), (5.57e-12, 6.00),
        (8.70e-14, 6.00), (1.30e-15, 6.07), (4.16e-17, 4.96), (None, None),
        (None, None), (None, None), (None, None)],
}

# fixed regularity m=10, rule size n = 1..5
REF_VARY_N = {
    1: [(2.69e-1, None), (2.01e-2, 3.74), (2.34e-3, 3.10), (2.84e-4, 3.05),
        (3.49e-5, 3.02), (4.33e-6, 3.01), (5.39e-7, 3.01), (6.72e-8, 3.00),
        (8.39e-9, 3.00), (1.05e-9, 3.00), (1.31e-10, 3.00)],
    2: [(5.72e-2, None), (9.99e-3, 2.52), (1.17e-3, 3.09), (1.42e-4, 3.05),
        (1.74e-5, 3.02), (2.16e-6, 3.01), (2.69e-7, 3.01), (3.36e-8, 3.00),
        (4.20e-9, 3.00), (5.24e-10, 3.00), (6.55e-11, 3.00)],
    3: [(2.19e-2, None), (4.02e-5, 9.09), (1.03e-6, 5.29), (3.11e-8, 5.05),
        (9.58e-10, 5.02), (2.97e-11, 5.01), (9.24e-13, 5.01), (2.87e-14, 5.01),
        (1.00e-15, 4.85), (5.12e-17, 4.29), (None, None)],
    4: [(2.13e-2, None), (1.11e-5, 10.91), (1.73e-7, 6.00), (5.19e-9, 5.06),
        (1.60e-10, 5.02), (4.95e-12, 5.01), (1.54e-13, 5.01), (4.72e-15, 5.03),
        (2.51e-16, 4.24), (2.78e-17, 3.17), (None, None)],
    5: [(6.81e-3, None), (1.67e-6, 11.99), (4.78e-10, 11.77), (6.42e-13, 9.54),
        (4.27e-15, 7.23), (2.78e-17, 7.27), (None, None), (None, None),
        (None, None), (None, None), (None, None)],
}

ALL_KINDS = list(QuadKind)


def _check(num: int, ok: bool, detail: str) -> None:
    record_criterion(num, ok, detail)
    assert ok, f"criterion {num}: {detail}"


def _two_sig_band(ref: float) -> float:
    """Half a unit in the second significant digit, with rounding slack."""
    return 0.051 * 10.0 ** math.floor(math.log10(ref))


def _compare_error_table(table, study_for_key, p2_noc_tol):
    eps_checked = noc_checked = noc_skipped = 0
    bad = []
    for key, cells in table.items():
        rows = {r.p: r for r in study_for_key(key).rows}
        for i, p in enumerate(PS):
            ref_eps, ref_noc = cells[i]
            r = rows[p]
            if ref_eps is not None and ref_eps > 1e-13:
                eps_checked += 1
                if abs(r.error - ref_eps) > _two_sig_band(ref_eps):
                    bad.append(f"eps key={key} p={p}: {r.error:.3e} vs {ref_eps:.3e}")
            if ref_noc is not None:
                if r.floored or r.noc is None:
                    noc_skipped += 1
                    continue
                noc_checked += 1
                tol = p2_noc_tol if p == 2 else 0.05
                if abs(r.noc - ref_noc) > tol:
                    bad.append(f"noc key={key} p={p}: {r.noc:.3f} vs {ref_noc:.2f}")
    return eps_checked, noc_checked, noc_skipped, bad


def test_c01_error_table_fixed_rule_size():
    """n=8 rule, m = 0..4: errors to 2 significant figures, orders to 0.05."""
    sched = ShrinkSchedule.doubling(1024)
    t0 = time.perf_counter()
    eps_n, noc_n, skip_n, bad = _compare_error_table(
        REF_FIXED_N,
        lambda m: quadrature_convergence_study(QuadKind.FEJER_I, power_abs_exp(m), 8, sched),
        p2_noc_tol=0.05,
    )
    elapsed = time.perf_counter() - t0
    counts_ok = (eps_n, noc_n, skip_n) == (40, 38, 4)
    ok = not bad and counts_ok and elapsed < 5.0
    _check(1, ok, (
        f"{eps_n}/40 errors within 2 sig figs, {noc_n}/38 rated orders within "
        f"+-0.05 ({skip_n} sub-floor cells skipped), {len(bad)} mismatches, {elapsed:.2f}s"
    ))


def test_c02_error_table_varying_rule_size():
    """m=10, n = 1..5: asymptotic orders to 0.05, first halving to 0.5."""
    sched = ShrinkSchedule.doubling(1024)
    f = power_abs_exp(10)
    t0 = time.perf_counter()
    eps_n, noc_n, skip_n, bad = _compare_error_table(
        REF_VARY_N,
        lambda n: quadrature_convergence_study(QuadKind.FEJER_I, f, n, sched),
        p2_noc_tol=0.5,
    )
    elapsed = time.perf_counter() - t0
    counts_ok = (eps_n, noc_n, skip_n) == (40, 36, 7)
    ok = not bad and counts_ok and elapsed < 5.0
    _check(2, ok, (
        f"{eps_n}/40 errors within 2 sig figs, {noc_n}/36 rated orders within "
        f"tolerance ({skip_n} sub-floor cells skipped), {len(bad)} mismatches, {elapsed:.2f}s"
    ))


def _rated_ndrs(report, k):
    return [r.ndr for r in report.rows if r.k == k and not r.floored and r.ndr is not None]


def test_c03_coefficient_decay_all_families():
    """All five node sets, n=8, m=4: stabilized ndr hits min(k, 5) for k=1..7."""
    sched = ShrinkSchedule.doubling(1024)
    f = power_abs_exp(4)
    t0 = time.perf_counter()
    worst = 0.0
    rated_sets = []
    enough_history = True
    for kind in ALL_KINDS:
        rep = coefficient_decay_study(kind, f, 8, range(1, 8), sched)
        rated_ks = set()
        for k in range(1, 8):
            rated = _rated_ndrs(rep, k)
            if len(rated) >= 3:
                rated_ks.add(k)
            else:
                enough_history = False
            worst = max(worst, abs(rated[-1] - min(k, 5)))
        rated_sets.append(frozenset(rated_ks))
    elapsed = time.perf_counter() - t0
    uniform = len(set(rated_sets)) == 1 and rated_sets[0] == frozenset(range(1, 8))
    ok = worst <= 0.15 and uniform and enough_history and elapsed < 5.0
    _check(3, ok, (
        f"max |stabilized ndr - min(k,5)| = {worst:.3f} (band 0.15) over 5 rules x "
        f"7 coefficients, every cell rated on >= 3 halvings, {elapsed:.2f}s"
    ))


def test_c04_coefficient_decay_by_regularity():
    """First-kind nodes, k in {3,4,5}, m = 0..6: ndr within 0.15 of min(k, m+1).

    The (5,5) cell is checked one-sidedly; see the module docstring.
    """
    sched = ShrinkSchedule.doubling(1024)
    worst = 0.0
    two_sided_bad = []
    one_sided_ok = False
    one_sided_note = ""
    for m in range(7):
        rep = coefficient_decay_study(QuadKind.FEJER_I, power_abs_exp(m), 8, [3, 4, 5], sched)
        for k in (3, 4, 5):
            rated = _rated_ndrs(rep, k)
            tdr = theoretical_decay_rate(k, m)
            if (k, m) == (5, 5):
                decreasing = all(b < a for a, b in zip(rated, rated[1:]))
                in_band = all(tdr - 0.15 <= v <= (m + 1) + 0.15 for v in rated)
                one_sided_ok = decreasing and in_band and len(rated) >= 4
                one_sided_note = f"(5,5) one-sided: {len(rated)} rated, last {rated[-1]:.3f} decreasing toward {tdr:g}"
                continue
            if len(rated) < 3:
                two_sided_bad.append(f"k={k} m={m}: only {len(rated)} rated")
                continue
            dev = abs(rated[-1] - tdr)
            worst = max(worst, dev)
            if dev > 0.15:
                two_sided_bad.append(f"k={k} m={m}: dev {dev:.3f}")
    ok = not two_sided_bad and worst <= 0.15 and one_sided_ok
    _check(4, ok, (
        f"20 cells two-sided, max dev {worst:.3f} (band 0.15); {one_sided_note}"
    ))


def test_c05_discrete_orthogonality_property_suite():
    t0 = time.perf_counter()
    passed, detail = SUITES["orthogonality"]()
    elapsed = time.perf_counter() - t0
    ok = passed and elapsed < 2.0
    _check(5, ok, f"{detail}, n <= 16 all rules, {elapsed:.2f}s")


def test_c06_interpolatory_exactness():
    passed, detail = SUITES["exactness"]()
    _check(6, passed, f"{detail}, all rules n <= 12, 20 fixed intervals")


def test_c07_inter_kind_relations():
    report = kind_relations_check(SampledFunction(math.exp), Interval(-0.5, 1.0), k_max=6, n_ref=8192)
    ok = report.max_residual < 1e-10
    _check(7, ok, f"max ladder residual {report.max_residual:.3e} (tol 1e-10), k <= 6, n_ref 8192")


def test_c08_center_value_limit():
    sched = ShrinkSchedule.doubling(1024)
    exp = SampledFunction(math.exp)
    rows = midpoint_limit_check(exp, [ShrinkSchedule.interval(p) for p in sched.p_values])
    gaps = [r.center_gap for r in rows]
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] < 1e-6
    # the tail needs a much smaller interval to clear the same threshold:
    # max_k |c_k| is dominated by c_1 ~ h/2 here, so extend the schedule
    tail = midpoint_limit_check(exp, [ShrinkSchedule.interval(2**20)])[0].tail_max
    tail_ok = tail < 1e-6
    ok = monotone and final_ok and tail_ok
    _check(8, ok, (
        f"|c0 - f(x0)| monotone over 11 halvings, {gaps[-1]:.3e} at p=2^10; "
        f"max tail coefficient {tail:.3e} at p=2^20 (both < 1e-6)"
    ))


def test_c09_weighted_trig_moments_vanish():
    worst = 0.0
    for ell in range(5):
        for q in range(5):
            for k in range(ell + q + 1, 13):
                for parity in (0, 1):
                    worst = max(worst, abs(trig_moment(ell, q, k, parity)))
    ok = worst < 1e-10
    _check(9, ok, f"max |moment| = {worst:.3e} (tol 1e-10), ell,q <= 4 < k <= 12, both parities")


def test_c10_composite_order():
    """Composite order min(n + n0, m + 2) on both branches.

    The even-rule regularity branch needs care: on dyadic partitions of the
    standard interval the kink always lands where the n=4 endpoint rule's
    first Peano kernel vanishes, so the kink term is integrated exactly and
    the order climbs to the smooth branch's 4.  Holding the kink at a generic
    patch position (tripling partitions, symmetric interval) exposes the
    regularity-limited order 2.  All three effects are asserted.
    """
    iv = Interval(-0.5, 1.0)
    dyadic = [2**j for j in range(9)]

    rep = composite_convergence_study(QuadKind.FEJER_I, power_abs_exp(10), 3, iv, dyadic)
    rated = [r.noc for r in rep.rows if not r.floored and r.noc is not None]
    odd_ok = abs(rated[-1] - 4.0) <= 0.1
    odd_note = f"odd rule n=3 m=10: noc {rated[-1]:.4f} -> 4"

    kink = TestFunction(
        "abs", 0, abs,
        antiderivative=lambda x: 0.5 * abs(x) * x,
        exact_integral=lambda v: 0.5 * (abs(v.b) * v.b - abs(v.a) * v.a),
    )
    kink_errs = [
        abs(kink.exact_integral(iv) - integrate_composite(
            QuadKind.CLENSHAW_CURTIS, kink.sampled(), Partition.equispaced(iv, p), 4).value)
        for p in dyadic
    ]
    cancel_ok = max(kink_errs) < 5e-15

    rep = composite_convergence_study(QuadKind.CLENSHAW_CURTIS, power_abs_exp(0), 4, iv, dyadic)
    rated = [r.noc for r in rep.rows if not r.floored and r.noc is not None]
    smooth_branch_ok = abs(rated[-1] - 4.0) <= 0.1
    even_note = f"even rule n=4 m=0 dyadic: kink term exact to {max(kink_errs):.1e}, full noc {rated[-1]:.4f} -> 4"

    rep = composite_convergence_study(
        QuadKind.CLENSHAW_CURTIS, power_abs_exp(0), 4, Interval(-0.75, 0.75), [3**j for j in range(6)]
    )
    rated = [r.noc for r in rep.rows if not r.floored and r.noc is not None]
    regularity_ok = abs(rated[-1] - 2.0) <= 0.1
    trip_note = f"generic kink position (tripling): noc {rated[-1]:.4f} -> 2"

    ok = odd_ok and cancel_ok and smooth_branch_ok and regularity_ok
    _check(10, ok, f"{odd_note}; {even_note}; {trip_note}")
