import math
import tracemalloc

import pytest
from scipy.integrate import quad as scipy_quad

import oracles
from localcheb import (
    DiscreteRuleSource,
    Interval,
    Partition,
    QuadKind,
    SampledFunction,
    integrate,
    integrate_composite,
    interpolant_eval,
    power_abs_exp,
)
from localcheb import quadrature
from localcheb.quadrature import _StreamedPartition

EXP = SampledFunction(math.exp)


class CountingFunction:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def test_partition_validation():
    iv = Interval(0.0, 1.0)
    with pytest.raises(ValueError):
        Partition(iv, (0.0,))
    with pytest.raises(ValueError):
        Partition(iv, (0.1, 1.0))
    with pytest.raises(ValueError):
        Partition(iv, (0.0, 0.9))
    with pytest.raises(ValueError):
        Partition(iv, (0.0, 0.6, 0.4, 1.0))
    with pytest.raises(ValueError):
        Partition.equispaced(iv, 0)


def test_equispaced_partition_geometry():
    iv = Interval(-0.5, 1.0)
    part = Partition.equispaced(iv, 7)
    assert part.pieces == 7
    assert part.breakpoints[0] == -0.5
    assert part.breakpoints[-1] == 1.0
    patches = part.patches()
    assert len(patches) == 7
    for left, right in zip(patches, patches[1:]):
        assert left.b == right.a  # shared breakpoint, exactly
    assert sum(p.h for p in patches) == pytest.approx(iv.h, abs=1e-15)


def test_integrate_exponential_against_adaptive_oracle():
    iv = Interval(-0.5, 1.0)
    ref, _ = scipy_quad(math.exp, iv.a, iv.b)
    res = integrate(QuadKind.FEJER_I, EXP, iv, 16)
    assert res.value == pytest.approx(ref, abs=1e-12)
    assert res.evaluations == 16
    assert res.n == 16
    assert res.kind is QuadKind.FEJER_I


def test_all_kinds_converge_on_smooth_function():
    iv = Interval(-1.0, 2.0)
    exact = math.exp(2.0) - math.exp(-1.0)
    for kind in QuadKind:
        res = integrate(kind, EXP, iv, 20)
        assert res.value == pytest.approx(exact, abs=1e-11), kind


def test_cc_three_point_rule_is_simpson():
    iv = Interval(-0.3, 0.9)
    got = integrate(QuadKind.CLENSHAW_CURTIS, EXP, iv, 3).value
    ref = oracles.simpson_value(math.exp, iv.a, iv.b)
    assert got == pytest.approx(ref, abs=1e-14)


def test_single_patch_composite_is_bit_identical():
    iv = Interval(-0.5, 1.0)
    f = power_abs_exp(2).sampled()
    for kind in (QuadKind.FEJER_I, QuadKind.CLENSHAW_CURTIS, QuadKind.FEJER_IV):
        whole = integrate(kind, f, iv, 6).value
        split = integrate_composite(kind, f, Partition.equispaced(iv, 1), 6).value
        assert split == whole  # same code path, exactly


@pytest.mark.parametrize("kind", list(QuadKind), ids=lambda k: k.value)
def test_composite_matches_reference_sum_bit_for_bit(kind):
    fns = [math.exp, power_abs_exp(0).evaluator, power_abs_exp(3).evaluator]
    for a, b in ((-0.5, 1.0), (3.0, 7.25)):
        for n in (2, 5, 8, 16):
            for pieces in (1, 3, 64, 4097):
                part = Partition.equispaced(Interval(a, b), pieces)
                for f in fns:
                    got = integrate_composite(kind, SampledFunction(f), part, n).value
                    assert got == oracles.composite_reference(kind, f, a, b, pieces, n), (
                        a, b, n, pieces, f)


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-0.546, 0.568), (3.0, 7.25)])
def test_equispaced_breakpoints_match_list_and_snap_bit_for_bit(a, b):
    for pieces in (1, 2, 3, 7, 2**16):
        got = Partition.equispaced(Interval(a, b), pieces).breakpoints
        want = oracles.equispaced_breakpoints(a, b, pieces)
        assert type(got) is tuple and len(got) == pieces + 1
        assert all(x.hex() == y.hex() for x, y in zip(got, want)), (a, b, pieces)


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-0.546, 0.568), (3.0, 7.25)])
def test_streamed_breakpoints_match_equispaced_bit_for_bit(a, b):
    for pieces in (1, 2, 3, 7, 2**16):
        streamed = _StreamedPartition(Interval(a, b), pieces)
        want = [x.hex() for x in Partition.equispaced(Interval(a, b), pieces).breakpoints]
        assert streamed.pieces == pieces
        for _ in range(2):  # each read streams the same floats afresh
            assert [x.hex() for x in streamed.breakpoints] == want, (a, b, pieces)


def _outcome(build, *args):
    try:
        build(*args)
    except ValueError as exc:
        return str(exc)
    return "ok"


@pytest.mark.parametrize("a", [1.0, -3.7, 1e-300, 2.0**52, -1e300, 5e-324])
@pytest.mark.parametrize("pieces", [1, 3, 64, 4097])
def test_strictness_bound_skips_the_pass_only_where_it_holds(a, pieces, monkeypatch):
    full_pass, passes = quadrature._check_increasing, []

    def recorded(points):
        passes.append(points)
        full_pass(points)

    monkeypatch.setattr(quadrature, "_check_increasing", recorded)
    edge = quadrature._STRICT_STEP_ULPS * pieces * math.ulp(a)
    sides = set()
    for scale in (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0):
        iv = Interval(a, a + scale * edge)
        step, ulp = (iv.b - a) / pieces, math.ulp(max(abs(a), abs(iv.b)))
        clears = step > quadrature._STRICT_STEP_ULPS * ulp
        sides.add(clears)
        del passes[:]
        got = _outcome(_StreamedPartition, iv, pieces)
        # above the bound no pass is made; below it one pass decides
        assert len(passes) == (0 if clears else 1)
        assert got == _outcome(Partition.equispaced, iv, pieces)
        if clears:  # the bound's claim: the points are strictly increasing all the same
            full_pass(_StreamedPartition(iv, pieces).breakpoints)
    assert sides == {False, True}


def test_streamed_partition_rejects_collapsing_breakpoints():
    # 64 patches of an interval 4 ulps wide: neighbouring breakpoints round together
    iv = Interval(1.0, 1.000000000000001)
    for build in (Partition.equispaced, _StreamedPartition):
        with pytest.raises(ValueError, match="breakpoints must be strictly increasing"):
            build(iv, 64)
        with pytest.raises(ValueError, match="pieces must be at least 1"):
            build(iv, 0)
        with pytest.raises(TypeError):
            build(iv, 2.0)


def test_composite_holds_no_per_patch_memory():
    part = Partition.equispaced(Interval(-0.5, 1.0), 2**16)
    # build and cache the rule first, so only the sum itself is traced
    integrate_composite(QuadKind.CLENSHAW_CURTIS, EXP, Partition.equispaced(Interval(-0.5, 1.0), 2), 4)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        integrate_composite(QuadKind.CLENSHAW_CURTIS, EXP, part, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a list of 2**16 sums or patches alone would take over 2 MiB
    assert peak - start < 64 * 1024


def test_composite_keeps_per_patch_overflow_check():
    # the second patch's midpoint overflows; only its Interval sees that
    part = Partition.equispaced(Interval(-1.7e308, 1e-300), 2)
    with pytest.raises(ValueError, match="too wide"):
        integrate_composite(QuadKind.FEJER_I, EXP, part, 4)


def test_composite_error_shrinks_at_the_expected_order():
    # trapezoid-like cc n=2 is second order: 8x the patches, ~64x the accuracy
    iv = Interval(-0.5, 1.0)
    exact = math.exp(1.0) - math.exp(-0.5)
    errs = {}
    for pieces in (4, 32):
        got = integrate_composite(QuadKind.CLENSHAW_CURTIS, EXP, Partition.equispaced(iv, pieces), 2).value
        errs[pieces] = abs(got - exact)
    ratio = errs[4] / errs[32]
    assert 50.0 < ratio < 80.0


def test_composite_handles_kinked_integrand():
    f = power_abs_exp(0)
    iv = Interval(-0.5, 1.0)
    e1 = abs(f.exact_integral(iv) - integrate_composite(QuadKind.FEJER_I, f.sampled(), Partition.equispaced(iv, 1), 4).value)
    e16 = abs(f.exact_integral(iv) - integrate_composite(QuadKind.FEJER_I, f.sampled(), Partition.equispaced(iv, 16), 4).value)
    assert e16 < e1 / 100.0


def test_evaluation_counts():
    iv = Interval(0.0, 1.0)
    counter = CountingFunction(math.exp)
    res = integrate(QuadKind.FEJER_II, SampledFunction(counter), iv, 9)
    assert counter.calls == 9
    assert res.evaluations == 9

    counter = CountingFunction(math.exp)
    res = integrate_composite(QuadKind.FEJER_II, SampledFunction(counter), Partition.equispaced(iv, 5), 9)
    assert counter.calls == 45
    assert res.evaluations == 45


def test_non_finite_value_is_rejected():
    iv = Interval(0.0, 1.0)
    for value in (math.nan, math.inf):
        f = SampledFunction(lambda x, value=value: value if x > 0.9 else x)
        with pytest.raises(ValueError, match="not finite"):
            integrate(QuadKind.FEJER_I, f, iv, 4)
        with pytest.raises(ValueError, match="not finite"):
            integrate_composite(QuadKind.FEJER_I, f, Partition.equispaced(iv, 3), 4)


def test_frozen_single_rule_value():
    # regression anchor for the whole integrate path
    f = power_abs_exp(0)
    res = integrate(QuadKind.FEJER_I, f.sampled(), Interval(-0.5, 1.0), 8)
    assert res.value == pytest.approx(2.741547096618709, abs=1e-15)
    err = abs(f.exact_integral(Interval(-0.5, 1.0)) - res.value)
    assert err == pytest.approx(0.004795927872297323, rel=1e-12)


def test_interpolant_eval_reproduces_function():
    iv = Interval(-0.5, 1.0)
    xs = [-0.5, -0.2, 0.0, 0.25, 0.6, 1.0]
    cs, ys = interpolant_eval(QuadKind.FEJER_II, EXP, iv, 12, xs)
    assert cs.source == DiscreteRuleSource(QuadKind.FEJER_II, 12)
    for x, y in zip(xs, ys):
        assert y == pytest.approx(math.exp(x), abs=1e-9)


def test_interpolant_eval_exact_on_low_degree_polynomial():
    def f(x: float) -> float:
        return (0.5 * x - 1.0) * x + 2.0

    iv = Interval(-2.0, 1.5)
    xs = [-2.0, -0.77, 0.31, 1.5]
    _, ys = interpolant_eval(QuadKind.CLENSHAW_CURTIS, SampledFunction(f), iv, 4, xs)
    for x, y in zip(xs, ys):
        assert y == pytest.approx(f(x), abs=1e-13)


def test_interpolant_eval_rejects_nan_point():
    with pytest.raises(ValueError, match="nan"):
        interpolant_eval(QuadKind.FEJER_I, EXP, Interval(-0.5, 1.0), 8, [math.nan])
