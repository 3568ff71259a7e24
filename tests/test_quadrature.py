import math

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
