"""Study harness: schedules, rate estimators, report structure, floors."""

import math
import tracemalloc

import numpy as np
import oracles
import pytest
from scipy.integrate import quad as scipy_quad

from localcheb import (
    ChebKind,
    Interval,
    Partition,
    QuadKind,
    QuadRow,
    ShrinkSchedule,
    StudyReport,
    TestFunction,
    coefficient_decay_study,
    composite_convergence_study,
    continuous_coeffs,
    exp_fn,
    integrate,
    merge_reports,
    poly_fn,
    power_abs_exp,
    quadrature_convergence_study,
    rate,
    function_by_id,
    theoretical_decay_rate,
    theoretical_order,
    trig_moment,
)


def test_rate_reference_pairs():
    assert rate(4.80e-3, 1.20e-3) == 2.0
    assert rate(5.0, 5.0) == 0.0
    assert rate(8 * math.e, math.e) == 3.0
    assert math.isnan(rate(0.0, 1.0))
    assert math.isnan(rate(1.0, 0.0))
    assert math.isnan(rate(-1.0, 2.0))


def test_theoretical_decay_rate():
    assert theoretical_decay_rate(3, None) == 3.0
    assert theoretical_decay_rate(3, 1) == 2.0
    assert theoretical_decay_rate(5, 5) == 5.0
    assert theoretical_decay_rate(5, 3) == 4.0
    assert theoretical_decay_rate(1, 0) == 1.0


def test_theoretical_order():
    f1 = QuadKind.FEJER_I
    # symmetric rules pick up the bonus n0 = 1 at odd node counts
    assert theoretical_order(f1, 1, None) == 3.0
    assert theoretical_order(f1, 2, None) == 3.0
    assert theoretical_order(f1, 3, None) == 5.0
    assert theoretical_order(f1, 4, None) == 5.0
    assert theoretical_order(f1, 5, None) == 7.0
    assert theoretical_order(f1, 8, None) == 9.0
    assert theoretical_order(f1, 8, 0) == 2.0
    assert theoretical_order(f1, 8, 4) == 6.0
    assert theoretical_order(f1, 3, 10) == 5.0
    assert theoretical_order(QuadKind.CLENSHAW_CURTIS, 3, None) == 5.0
    assert theoretical_order(QuadKind.FEJER_II, 5, None) == 7.0
    # asymmetric node sets get no bonus at odd n
    assert theoretical_order(QuadKind.FEJER_III, 5, None) == 6.0
    assert theoretical_order(QuadKind.FEJER_IV, 3, 10) == 4.0
    assert theoretical_order(QuadKind.FEJER_III, 4, None) == 5.0
    # composite rules drop the +1
    assert theoretical_order(f1, 3, 10, composite=True) == 4.0
    assert theoretical_order(f1, 4, 0, composite=True) == 2.0
    assert theoretical_order(f1, 4, None, composite=True) == 4.0
    assert theoretical_order(QuadKind.FEJER_III, 5, None, composite=True) == 5.0


def test_asymmetric_rule_order_observed():
    """Third kind nodes at odd n converge one order below the symmetric rules.

    The rule is exact only through degree n-1 (no odd-monomial cancellation),
    so n=3 lands at order 4 where the first kind rule reaches 5.
    """
    sched = ShrinkSchedule.doubling(512)
    f = power_abs_exp(10)
    for kind, want in ((QuadKind.FEJER_III, 4.0), (QuadKind.FEJER_I, 5.0)):
        rep = quadrature_convergence_study(kind, f, 3, sched)
        rated = [r for r in rep.rows if r.noc is not None and not r.floored]
        assert rated[-1].toc == want
        assert rated[-1].noc == pytest.approx(want, abs=0.05)


def test_shrink_schedule():
    sched = ShrinkSchedule.doubling(1024)
    assert sched.p_values == (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
    assert ShrinkSchedule.doubling(1).p_values == (1,)
    assert ShrinkSchedule.interval(2) == Interval(-0.25, 0.5)
    assert ShrinkSchedule.h(2) == 0.75
    assert ShrinkSchedule.interval(4).midpoint == pytest.approx(0.0625)
    with pytest.raises(ValueError):
        ShrinkSchedule((4, 2))
    with pytest.raises(ValueError):
        ShrinkSchedule((0, 1))
    with pytest.raises(ValueError):
        ShrinkSchedule(())
    with pytest.raises(ValueError):
        ShrinkSchedule.doubling(0)


def test_power_abs_exp_value_and_regularity_tag():
    f = power_abs_exp(0)
    assert f.m == 0
    assert f.evaluator(-0.3) == pytest.approx(0.3 + math.exp(-0.3), abs=1e-15)
    assert f.evaluator(0.5) == pytest.approx(0.5 + math.exp(0.5), abs=1e-15)
    f3 = power_abs_exp(3)
    assert f3.evaluator(-0.5) == pytest.approx((-0.5) ** 3 * 0.5 + math.exp(-0.5), abs=1e-15)
    with pytest.raises(ValueError):
        power_abs_exp(-1)


def test_exact_integral_against_adaptive_oracle():
    """Closed-form integrals are what the error floors lean on; check them."""
    iv = Interval(-0.5, 1.0)
    for m in (0, 2, 5):
        f = power_abs_exp(m)
        ref, _ = scipy_quad(f.evaluator, iv.a, iv.b, points=[0.0])
        assert f.exact_integral(iv) == pytest.approx(ref, abs=1e-12), m
        # antiderivative and exact_integral must agree with each other too
        diff = f.antiderivative(iv.b) - f.antiderivative(iv.a)
        assert f.exact_integral(iv) == pytest.approx(diff, abs=1e-14)


def test_exp_fn_and_poly_fn():
    e = exp_fn()
    assert e.m is None
    iv = Interval(-2.0, -1.9)
    # expm1 form stays accurate when the endpoints nearly cancel
    assert e.exact_integral(iv) == pytest.approx(math.exp(-1.9) - math.exp(-2.0), rel=1e-13)

    p = poly_fn([1.0, 0.0, 3.0])
    assert p.fn_id == "poly:1,0,3"
    assert p.evaluator(2.0) == 13.0
    assert p.exact_integral(Interval(0.0, 1.0)) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        poly_fn([])


@pytest.mark.parametrize("fn_id,index", [("poly:1,nan", 1), ("poly:inf", 0)])
def test_poly_rejects_non_finite_coefficients(fn_id, index):
    with pytest.raises(ValueError, match=f"poly coefficient {index} is not finite"):
        function_by_id(fn_id)


def test_function_id_dispatch():
    assert function_by_id("exp").fn_id == "exp"
    assert function_by_id("xm_abs_exp", 2).m == 2
    assert function_by_id("poly:0.5,-1").evaluator(2.0) == pytest.approx(-1.5)
    with pytest.raises(ValueError):
        function_by_id("xm_abs_exp")
    with pytest.raises(ValueError):
        function_by_id("poly:a,b")
    with pytest.raises(ValueError):
        function_by_id("nope")
    # the smooth functions have no regularity parameter; an m is refused, not dropped
    for fn_id in ("exp", "poly:1,2"):
        for m in (0, 3):
            with pytest.raises(ValueError, match=f"test function '{fn_id}' takes no regularity parameter m, got {m}"):
                function_by_id(fn_id, m)


def test_decay_study_structure():
    sched = ShrinkSchedule.doubling(8)
    rep = coefficient_decay_study(QuadKind.FEJER_I, power_abs_exp(0), 8, [1, 2], sched)
    assert rep.study == "decay"
    assert len(rep.rows) == 8  # 4 schedule steps x 2 coefficient indices
    keys = [(r.p, r.k) for r in rep.rows]
    assert keys == sorted(keys)
    first_step = [r for r in rep.rows if r.p == 1]
    assert all(r.ndr is None for r in first_step)
    k1 = [r for r in rep.rows if r.k == 1]
    assert all(r.tdr == 1.0 for r in k1)
    # the kink coefficient settles onto its first-order decay immediately
    assert k1[-1].ndr == pytest.approx(1.0, abs=0.2)
    csv_text = rep.to_csv()
    assert csv_text.startswith("family,rule,m,k,p,h,coeff_abs,ndr,tdr\n")
    assert csv_text.count("\n") == 9


def test_decay_study_floors_a_constant():
    # every coefficient above k=0 of a constant sits below the noise floor
    sched = ShrinkSchedule.doubling(4)
    rep = coefficient_decay_study(QuadKind.FEJER_I, poly_fn([1.0]), 8, [1, 2, 3], sched)
    assert all(r.floored for r in rep.rows)
    for line in rep.to_csv().splitlines()[1:]:
        fields = line.split(",")
        assert fields[7] == ""  # ndr column stays empty on floored rows


def test_decay_study_validates_indices():
    sched = ShrinkSchedule.doubling(4)
    with pytest.raises(ValueError):
        coefficient_decay_study(QuadKind.FEJER_I, power_abs_exp(0), 8, [0], sched)
    with pytest.raises(ValueError):
        coefficient_decay_study(QuadKind.FEJER_I, power_abs_exp(0), 8, [8], sched)
    with pytest.raises(ValueError):
        coefficient_decay_study(QuadKind.FEJER_I, power_abs_exp(0), 8, [], sched)


def test_quad_study_structure_and_frozen_rate():
    sched = ShrinkSchedule.doubling(4)
    rep = quadrature_convergence_study(QuadKind.FEJER_I, power_abs_exp(0), 8, sched)
    assert rep.study == "quad"
    assert len(rep.rows) == 3
    assert [r.p for r in rep.rows] == [1, 2, 4]
    assert rep.rows[0].noc is None
    assert all(r.toc == 2.0 for r in rep.rows)
    assert not any(r.floored for r in rep.rows)
    # frozen regression value for the first halving of the m=0 study
    assert rep.rows[1].noc == pytest.approx(2.00000018065688, abs=1e-9)
    header = rep.to_csv().splitlines()[0]
    assert header == "rule,m,n,p,h,error,noc,toc,floor_flag"


def test_quad_study_flags_floor():
    # a 16-point rule nails exp instantly; every row sits on the floor
    sched = ShrinkSchedule.doubling(4)
    rep = quadrature_convergence_study(QuadKind.FEJER_I, exp_fn(), 16, sched)
    assert all(r.floored for r in rep.rows)
    for line in rep.to_csv().splitlines()[1:]:
        assert line.endswith(",1")
        assert line.split(",")[6] == ""


def test_quad_study_multiple_node_counts():
    sched = ShrinkSchedule.doubling(2)
    rep = quadrature_convergence_study(QuadKind.FEJER_I, power_abs_exp(1), [2, 3], sched)
    assert [(r.p, r.n) for r in rep.rows] == [(1, 2), (1, 3), (2, 2), (2, 3)]
    with pytest.raises(ValueError):
        quadrature_convergence_study(QuadKind.FEJER_I, poly_fn([1.0]), [], sched)


@pytest.mark.parametrize("kind", list(QuadKind), ids=lambda k: k.value)
def test_quad_study_matches_one_integrate_per_cell(kind):
    ns = range(kind.min_nodes, 17)
    fns = [exp_fn(), function_by_id("poly:1,-2,0.5"), *map(power_abs_exp, range(6))]
    for schedule in (ShrinkSchedule.doubling(1024), ShrinkSchedule((1, 3, 7, 20))):
        for f in fns:
            want = oracles.quad_study_reference(kind, f, ns, schedule).to_csv()
            assert quadrature_convergence_study(kind, f, ns, schedule).to_csv() == want


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_quad_study_refuses_a_non_finite_sum_as_integrate_does(bad):
    f = TestFunction("bad", None, lambda x: bad, exact_integral=lambda iv: 0.0)
    with pytest.raises(ValueError) as direct:
        integrate(QuadKind.FEJER_I, f.sampled(), ShrinkSchedule.interval(1), 4)
    with pytest.raises(ValueError, match=f"quadrature value {bad!r} is not finite") as study:
        quadrature_convergence_study(QuadKind.FEJER_I, f, [4, 5], ShrinkSchedule.doubling(8))
    assert str(study.value) == str(direct.value)


def test_quad_study_needs_exact_integral():
    bare = TestFunction("bare", None, math.exp)
    with pytest.raises(ValueError):
        quadrature_convergence_study(QuadKind.FEJER_I, bare, 4, ShrinkSchedule.doubling(2))


@pytest.mark.parametrize("call, message", [
    (lambda: coefficient_decay_study(QuadKind.FEJER_I, exp_fn(), 8, [], _SCHED),
     "need at least one coefficient index"),
    (lambda: quadrature_convergence_study(QuadKind.FEJER_I, exp_fn(), [], _SCHED),
     "need at least one node count"),
    (lambda: composite_convergence_study(QuadKind.FEJER_I, exp_fn(), 4, _IV, []),
     "need at least one patch count"),
    (lambda: quadrature_convergence_study(QuadKind.FEJER_I, TestFunction("bare", None, math.exp),
                                          [], _SCHED),
     "quadrature study needs a test function with an exact integral"),
    (lambda: composite_convergence_study(QuadKind.FEJER_I, TestFunction("bare", None, math.exp),
                                         4, _IV, []),
     "composite study needs a test function with an exact integral"),
], ids=["decay-empty", "quad-empty", "composite-empty", "quad-no-exact", "composite-no-exact"])
def test_study_input_errors_name_what_is_missing(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_composite_study_non_dyadic_refinement():
    """Patch-count ratios other than 2 must report the same order."""
    iv = Interval(-0.5, 1.0)
    rep = composite_convergence_study(QuadKind.FEJER_I, exp_fn(), 2, iv, [1, 3, 9, 27])
    rated = [r.noc for r in rep.rows if r.noc is not None]
    assert len(rated) == 3
    # composite n=2 on a smooth function is second order
    assert rated[-1] == pytest.approx(2.0, abs=0.05)
    assert rep.rows[-1].h == pytest.approx(1.5 / 27, abs=1e-16)
    assert all(r.toc == 2.0 for r in rep.rows)


def test_composite_study_dyadic_matches_plain_rate():
    iv = Interval(-0.5, 1.0)
    rep = composite_convergence_study(QuadKind.CLENSHAW_CURTIS, power_abs_exp(0), 4, iv, [1, 2, 4, 8])
    errs = [r.error for r in rep.rows]
    nocs = [r.noc for r in rep.rows]
    for i in (1, 2, 3):
        assert nocs[i] == rate(errs[i - 1], errs[i])  # exactly the log2 form
    with pytest.raises(ValueError):
        composite_convergence_study(QuadKind.FEJER_I, exp_fn(), 2, iv, [0, 1])


def test_composite_study_memory_does_not_grow_with_patches():
    iv, ps = Interval(-0.5, 1.0), [1, 2**8, 2**16]
    # build and cache the rule first, so only the study itself is traced
    composite_convergence_study(QuadKind.CLENSHAW_CURTIS, exp_fn(), 4, iv, [1])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rep = composite_convergence_study(QuadKind.CLENSHAW_CURTIS, exp_fn(), 4, iv, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.p for r in rep.rows] == ps
    # the 2**16 + 1 breakpoints of the last patch count alone would take over 1.5 MiB
    assert peak - start < 64 * 1024


_SCHED = ShrinkSchedule.doubling(2)
_IV = Interval(-0.5, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: coefficient_decay_study(QuadKind.FEJER_I, exp_fn(), 4, [1.9], _SCHED),
        lambda: coefficient_decay_study(QuadKind.FEJER_I, exp_fn(), 4, [True], _SCHED),
        lambda: quadrature_convergence_study(QuadKind.FEJER_I, exp_fn(), [4.7], _SCHED),
        lambda: quadrature_convergence_study(QuadKind.FEJER_I, exp_fn(), 4.0, _SCHED),
        lambda: composite_convergence_study(QuadKind.FEJER_I, exp_fn(), 2, _IV, [1, 2.9]),
        lambda: composite_convergence_study(QuadKind.FEJER_I, exp_fn(), 2, _IV, [True]),
        lambda: ShrinkSchedule((1, 2.5)),
        lambda: ShrinkSchedule((True, 2)),
        lambda: Partition.equispaced(_IV, 2.0),
        lambda: ShrinkSchedule.doubling(4.5),
        lambda: ShrinkSchedule.doubling(True),
        lambda: power_abs_exp(1.5),
        lambda: power_abs_exp(True),
        lambda: continuous_coeffs(ChebKind.FIRST, exp_fn().sampled(), _IV, True, 4096),
        lambda: continuous_coeffs(ChebKind.FIRST, exp_fn().sampled(), _IV, 2.0, 4096),
    ],
    ids=["decay-float-k", "decay-bool-k", "quad-float-n", "quad-float-scalar-n",
         "composite-float-p", "composite-bool-p", "schedule-float-p", "schedule-bool-p",
         "equispaced-float-pieces", "doubling-float-p-max", "doubling-bool-p-max",
         "power-abs-exp-float-m", "power-abs-exp-bool-m", "continuous-bool-k-max",
         "continuous-float-k-max"],
)
def test_studies_refuse_non_integer_sizes(call):
    with pytest.raises(TypeError, match="must be an integer"):
        call()


def test_quad_study_takes_any_integer_scalar():
    want = quadrature_convergence_study(QuadKind.FEJER_I, exp_fn(), 8, _SCHED)
    for n in (np.int64(8), np.uint8(8), [np.int32(8)]):
        assert quadrature_convergence_study(QuadKind.FEJER_I, exp_fn(), n, _SCHED) == want


def test_study_report_refuses_unknown_kind():
    with pytest.raises(ValueError, match="unknown study kind 'banana'"):
        StudyReport("banana", ())


def test_study_report_refuses_rows_of_another_kind():
    row = QuadRow(QuadKind.FEJER_I, None, 4, 1, 1.5, 1e-3, None, 5.0, False)
    with pytest.raises(TypeError, match="decay study rows must be DecayRow, got QuadRow"):
        StudyReport("decay", (row,))
    assert StudyReport("quad", (row,)).to_csv().count("\n") == 2


def test_merge_reports():
    sched = ShrinkSchedule.doubling(2)
    a = quadrature_convergence_study(QuadKind.FEJER_I, power_abs_exp(0), 2, sched)
    b = quadrature_convergence_study(QuadKind.FEJER_I, power_abs_exp(1), 2, sched)
    merged = merge_reports(a, b)
    assert len(merged.rows) == 4
    assert [(r.p, r.m) for r in merged.rows] == [(1, 0), (1, 1), (2, 0), (2, 1)]
    decay = coefficient_decay_study(QuadKind.FEJER_I, power_abs_exp(0), 4, [1], sched)
    with pytest.raises(ValueError):
        merge_reports(a, decay)
    with pytest.raises(ValueError):
        merge_reports()


def test_trig_moment_values():
    assert trig_moment(0, 0, 0, 0) == pytest.approx(2.0 * math.pi, abs=1e-10)
    # sin^2(t) cos(2t) integrates to -pi/2 on a full period
    assert trig_moment(2, 0, 2, 0) == pytest.approx(-math.pi / 2, abs=1e-10)
    assert abs(trig_moment(1, 1, 5, 1)) < 1e-10
    assert abs(trig_moment(0, 3, 7, 0)) < 1e-10
    with pytest.raises(ValueError):
        trig_moment(1, 1, 3, 2)
    with pytest.raises(ValueError):
        trig_moment(-1, 0, 3, 0)


@pytest.mark.parametrize("num_points", [0, 1])
def test_trig_moment_needs_two_points(num_points):
    # one point spans no interval, so the trapezoid sum would read 0 for any integrand
    with pytest.raises(ValueError, match="num_points must be at least 2"):
        trig_moment(0, 0, 0, 0, num_points)
    assert trig_moment(0, 0, 0, 0, 2) == pytest.approx(2.0 * math.pi, abs=1e-12)


@pytest.mark.parametrize(
    "args", [(1.5, 0, 1, 0), (True, 0, 1, 0), (0, 2.0, 1, 0), (0, 0, np.array([1.0]), 0), (0, 0, 1, False)],
    ids=["float-ell", "bool-ell", "float-q", "float-array-k", "bool-parity"],
)
def test_trig_moment_needs_integer_orders(args):
    with pytest.raises(TypeError, match="must be an integer"):
        trig_moment(*args)


def test_trig_moment_unsigned_orders_do_not_wrap():
    # 200 + 56 wraps to 0 in uint8, which would pick a 2-point grid
    got = trig_moment(np.uint8([200]), np.uint8([56]), np.uint8([0]), np.uint8([0]))
    assert got.tolist() == [trig_moment(200, 56, 0, 0)]
    assert got[0] != 0.0


def test_trig_moment_takes_uint64_orders():
    # uint64 has no safe cast to int64, but every order that fits in one is taken
    for ell, q in ((1, 0), (2, 2)):
        got = trig_moment(np.uint64([ell]), np.uint64([q]), np.uint64([0]), 0)
        assert got.tobytes() == np.float64(trig_moment(ell, q, 0, 0)).tobytes()
    with pytest.raises(ValueError, match="ell must lie in 0..9223372036854775807"):
        trig_moment(np.uint64([2**63]), 0, 0, 0)


def test_trig_moment_arrays_match_scalar_calls():
    # a batch on one grid equals the scalar calls on that grid, bit for bit;
    # ell, q, k range over the verify suite's cases
    ell, q, k = (g[..., None] for g in np.meshgrid(range(5), range(5), range(13), indexing="ij"))
    parity = np.array([0, 1])
    for num_points in (None, 17, 40):
        got = trig_moment(ell, q, k, parity, num_points)
        grid = num_points or 22
        want = [trig_moment(a, b, c, p, grid)
                for a, b, c in zip(ell.ravel().tolist(), q.ravel().tolist(), k.ravel().tolist())
                for p in (0, 1)]
        assert got.shape == (5, 5, 13, 2)
        assert got.tobytes() == np.array(want).tobytes(), num_points
