"""Property tests over random intervals, rules, node counts and patch counts.

Derandomized, so every run draws the same examples and tier-1 stays
deterministic.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from localcheb import (
    Interval,
    Partition,
    QuadKind,
    SampledFunction,
    clamp_reference,
    integrate,
    integrate_composite,
)

PROPERTY = settings(derandomize=True, deadline=None)


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


@PROPERTY
@given(st.floats(-1.0, 1.0))
@example(-0.0)
def test_clamp_reference_returns_in_range_values_unchanged(t):
    assert clamp_reference(t) is t
