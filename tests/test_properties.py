"""Property tests over random intervals, rules, node counts and patch counts.

Derandomized, so every run draws the same examples and tier-1 stays
deterministic.
"""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from localcheb import (
    ChebKind,
    CoefficientSet,
    Interval,
    Partition,
    QuadKind,
    SampledFunction,
    affine_inverse,
    affine_map,
    clamp_reference,
    discrete_coeffs,
    integrate,
    integrate_composite,
    rule_thetas,
)
from localcheb import coefficients
from localcheb import rules as rules_module

PROPERTY = settings(derandomize=True, deadline=None)
EPS = sys.float_info.epsilon


def smooth(x: float) -> float:
    return math.sin(x) + 0.5 * x


@st.composite
def intervals(draw) -> Interval:
    a = draw(st.floats(-1e6, 1e6))
    width = draw(st.floats(1e-6, 1e6))
    return Interval(a, a + width)


@st.composite
def rules(draw) -> tuple[QuadKind, int]:
    kind = draw(st.sampled_from(list(QuadKind)))
    return kind, draw(st.integers(kind.min_nodes, 24))


@PROPERTY
@given(intervals(), rules())
def test_integrate_is_the_one_patch_composite(iv, rule):
    kind, n = rule
    f = SampledFunction(smooth)
    whole = integrate(kind, f, iv, n).value
    assert integrate_composite(kind, f, Partition.equispaced(iv, 1), n).value == whole


@PROPERTY
@given(intervals(), rules(), st.integers(1, 50))
def test_evaluator_runs_once_per_node_and_patch(iv, rule, pieces):
    kind, n = rule
    calls = []

    def counted(x: float) -> float:
        calls.append(x)
        return smooth(x)

    res = integrate_composite(kind, SampledFunction(counted), Partition.equispaced(iv, pieces), n)
    assert len(calls) == res.evaluations == n * pieces


HUGE = 1.7e308


@st.composite
def breakpoint_sets(draw) -> tuple[float, ...]:
    """Strictly increasing breakpoints of a valid interval, at ordinary, huge
    (near +-1.7e308) and subnormal magnitudes, with runs of neighbouring floats."""
    point = (st.floats(-1e3, 1e3) | st.floats(-HUGE, HUGE) | st.floats(-1e-307, 1e-307)
             | st.sampled_from([-HUGE, -0.85 * HUGE, 0.0, 5e-324, 1e-300, 0.9 * HUGE, HUGE]))
    xs = draw(st.lists(point, min_size=1, max_size=10))
    for x in list(xs):
        # one-ulp gaps, subnormal ones near 0
        for _ in range(draw(st.integers(0, 2))):
            x = math.nextafter(x, math.inf)
            xs.append(x)
    bp = tuple(sorted(set(xs)))
    # drop the larger end until the whole interval is valid
    while len(bp) > 1 and not (math.isfinite(bp[-1] - bp[0]) and math.isfinite(bp[0] + bp[-1])):
        bp = bp[1:] if abs(bp[0]) > abs(bp[-1]) else bp[:-1]
    assume(len(bp) > 1)
    return bp


@PROPERTY
@given(breakpoint_sets(), st.sampled_from(list(QuadKind)), st.integers(1, 16))
# a + b overflows on the first patch, then on the third: Interval's "too
# wide" error at that patch's turn
@example((-HUGE, -0.5 * HUGE, 1e-300), QuadKind.FEJER_I, 4)
@example((-1.0, 0.0, 1.6e308, HUGE), QuadKind.CLENSHAW_CURTIS, 2)
@example((0.0, 5e-324, 1e-323, 1.5e-323), QuadKind.FEJER_IV, 16)
def test_composite_is_the_per_patch_interval_sum_bit_for_bit(bp, kind, n):
    n = max(n, kind.min_nodes)
    part, f = Partition(Interval(bp[0], bp[-1]), bp), SampledFunction(math.atan)
    try:
        want = oracles.partition_reference(kind, math.atan, bp, n)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)) as got:
            integrate_composite(kind, f, part, n)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        assert integrate_composite(kind, f, part, n).value.hex() == want.hex()


@PROPERTY
@given(st.floats(-1.0, 1.0))
@example(-0.0)
def test_clamp_reference_returns_in_range_values_unchanged(t):
    assert clamp_reference(t) is t


@PROPERTY
@given(intervals(), rules(), st.data())
def test_rules_integrate_polynomials_up_to_degree_n_minus_1(iv, rule, data):
    # scaled as in the exactness suite; rounding grows with the n-term sum
    # and the degree-d power, measured at most 1.2 * (d + n) * eps
    kind, n = rule
    d = data.draw(st.integers(0, n - 1), label="degree")
    got = integrate(kind, SampledFunction(lambda x: x**d), iv, n).value
    exact = (iv.b ** (d + 1) - iv.a ** (d + 1)) / (d + 1)
    scale = (abs(iv.a) ** (d + 1) + abs(iv.b) ** (d + 1)) / (d + 1)
    assert abs(got - exact) <= 4 * (d + n) * EPS * scale


@PROPERTY
@given(intervals(), rules())
def test_interpolant_reproduces_the_samples_at_the_mapped_nodes(iv, rule):
    # n coefficients each rounded near eps * max|f|, times P_k up to 2k + 1
    # near the ends: an n^2 * eps * max|f| bound, measured at most 1.5 of it
    kind, n = rule
    ts = [math.cos(th) for th in rule_thetas(kind, n).tolist()]
    samples = [smooth(affine_map(iv, t)) for t in ts]
    cs = discrete_coeffs(kind, SampledFunction(smooth), iv, n)
    bound = 4 * n * n * EPS * max(abs(y) for y in samples)
    for t, y in zip(ts, samples):
        assert abs(cs.evaluate(t) - y) <= bound


@PROPERTY
@given(intervals(), st.sampled_from(list(QuadKind)), st.integers(64, 200))
def test_fft_and_termwise_paths_agree(iv, kind, n):
    # both paths forced at the same n, under the bounds of the fixed-n tests
    # in test_rules.py and test_coefficients.py
    thetas = rule_thetas(kind, n)
    fvals = coefficients._sample_at_nodes(SampledFunction(smooth), iv, thetas)
    paths = []
    for cutoff in (1, n + 1):
        with mock.patch.object(rules_module, "TRANSFORM_CUTOFF", cutoff):
            weights = np.array(rules_module._weights(kind, n, thetas))
            table = rules_module._analysis(kind, n, range(n))
            values = np.array(rules_module._coeff_values(table, fvals))
        paths.append((weights, values))
    (fast_w, fast_c), (exact_w, exact_c) = paths
    assert np.max(np.abs(fast_w - exact_w)) <= 2e-16
    assert np.max(np.abs(fast_c - exact_c)) <= 0.5 * n * EPS * np.max(np.abs(fvals))


@PROPERTY
@given(intervals(), st.floats(-1.0, 1.0))
@example(Interval(-1e6, -1e6 + 1e-6), 1.0)
def test_affine_inverse_undoes_affine_map(iv, t):
    # the map rounds x near eps * (|a| + |b|), which the inverse divides by
    # h; measured at most 1.0 of this bound
    back = affine_inverse(iv, affine_map(iv, t))
    assert abs(back - t) <= 4 * EPS * (1.0 + (abs(iv.a) + abs(iv.b)) / iv.h)


# the reference coordinates every evaluation must handle, beside any in [-1, 1]
EDGE_TS = [1.0, -1.0, 0.0, -0.0, 1e-300, -1e-300]


@st.composite
def series(draw) -> tuple[ChebKind, tuple[float, ...]]:
    n = draw(st.sampled_from([1, 2, 3, 5, 16, 63, 64, 65, 200]))
    value = st.floats(-1e6, 1e6) | st.floats(allow_nan=False, allow_infinity=False)
    return draw(st.sampled_from(list(ChebKind))), tuple(draw(st.lists(value, min_size=n, max_size=n)))


@PROPERTY
@given(series(), st.sampled_from(EDGE_TS) | st.floats(-1.0, 1.0))
@example((ChebKind.FOURTH, (0.5, -0.25, 2.0)), -0.0)
@example((ChebKind.FIRST, (-0.0,)), 0.5)
def test_evaluate_is_the_list_then_fold_sum_bit_for_bit(family_values, t):
    family, values = family_values
    got = CoefficientSet(family, Interval(-1.0, 1.0), values, None).evaluate(t)
    # repr tells -0.0 from 0.0 and matches NaN with NaN (huge values overflow to inf - inf)
    assert repr(got) == repr(oracles.recurrence_fold(family.value, values, t))
