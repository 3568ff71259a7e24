"""Rule construction: nodes, weights, orthogonality sums, cardinal basis."""

import json
import math

import numpy as np
import pytest

import oracles
from localcheb import rules
from localcheb import (
    QuadKind,
    eval_cheb,
    eval_cheb_trig,
    closed_form_orthogonality,
    discrete_orthogonality_sum,
    family_for_rule,
    lagrange_basis_eval,
    make_rule,
    rule_thetas,
)
from localcheb.rules import TRANSFORM_CUTOFF

ALL_KINDS = list(QuadKind)

# node counts on both sides of the cutoff between exact sums and FFT, and two large ones
FAST_PATH_NS = [TRANSFORM_CUTOFF - 1, TRANSFORM_CUTOFF, 1000, 4096]


def test_min_nodes():
    assert QuadKind.CLENSHAW_CURTIS.min_nodes == 2
    for kind in ALL_KINDS:
        if kind is not QuadKind.CLENSHAW_CURTIS:
            assert kind.min_nodes == 1
    with pytest.raises(ValueError):
        make_rule(QuadKind.CLENSHAW_CURTIS, 1)
    with pytest.raises(ValueError):
        make_rule(QuadKind.FEJER_I, 0)
    with pytest.raises(ValueError):
        rule_thetas(QuadKind.FEJER_II, -3)


def test_weights_positive_and_sum_to_two():
    for kind in ALL_KINDS:
        for n in list(range(kind.min_nodes, 21)) + [33, 40] + FAST_PATH_NS:
            rule = make_rule(kind, n)
            assert np.all(rule.weights > 0.0)
            assert math.fsum(rule.weights.tolist()) == pytest.approx(2.0, abs=1e-13)
            assert np.all(np.diff(rule.nodes) < 0.0)
            assert np.all(np.diff(rule.thetas) > 0.0)


def test_node_angle_ranges():
    # open rules keep both endpoints out; cc includes both
    for kind in (QuadKind.FEJER_I, QuadKind.FEJER_II, QuadKind.FEJER_III, QuadKind.FEJER_IV):
        th = rule_thetas(kind, 9)
        assert th[0] > 0.0 and th[-1] < math.pi
    th = rule_thetas(QuadKind.CLENSHAW_CURTIS, 9)
    assert th[0] == 0.0
    assert th[-1] == pytest.approx(math.pi, abs=1e-15)


def test_symmetric_rules():
    for kind in (QuadKind.FEJER_I, QuadKind.FEJER_II, QuadKind.CLENSHAW_CURTIS):
        rule = make_rule(kind, 11)
        assert rule.weights == pytest.approx(rule.weights[::-1], abs=1e-15)
        assert rule.nodes == pytest.approx(-rule.nodes[::-1], abs=1e-15)
    # third and fourth kind rules are mirror images of each other
    r3 = make_rule(QuadKind.FEJER_III, 9)
    r4 = make_rule(QuadKind.FEJER_IV, 9)
    assert r3.weights == pytest.approx(r4.weights[::-1], abs=1e-15)
    assert r3.nodes == pytest.approx(-r4.nodes[::-1], abs=1e-15)


def test_cc_two_points_is_trapezoid():
    rule = make_rule(QuadKind.CLENSHAW_CURTIS, 2)
    assert rule.nodes.tolist() == [1.0, -1.0]
    assert rule.weights.tolist() == [1.0, 1.0]


def test_cc_three_points_is_simpson():
    rule = make_rule(QuadKind.CLENSHAW_CURTIS, 3)
    assert rule.nodes == pytest.approx([1.0, 0.0, -1.0], abs=1e-16)
    assert rule.weights == pytest.approx([1 / 3, 4 / 3, 1 / 3], rel=1e-15)


def test_f1_one_point_is_midpoint():
    rule = make_rule(QuadKind.FEJER_I, 1)
    assert rule.thetas[0] == pytest.approx(math.pi / 2, abs=1e-16)
    assert abs(rule.nodes[0]) < 1e-16
    assert rule.weights[0] == 2.0


def test_f2_one_point_is_midpoint():
    rule = make_rule(QuadKind.FEJER_II, 1)
    assert abs(rule.nodes[0]) < 1e-16
    assert rule.weights[0] == pytest.approx(2.0, abs=1e-15)


def test_rules_integrate_their_own_family():
    """Sum of w_j P_k(t_j) must hit the exact moment for every k <= n-1.

    This pins the weights against an independent closed form, family by
    family, so a wrong prefactor anywhere would show up immediately.  The
    closed forms take the rule's angles: acos(t_j) loses digits near t = +-1,
    where the U, V and W values are largest.  Above the cutoff, 32 spread
    degrees and the top three stand in for all n.
    """
    for kind in ALL_KINDS:
        label = family_for_rule(kind).value
        for n in list(range(kind.min_nodes, 11)) + FAST_PATH_NS:
            rule = make_rule(kind, n)
            ks = range(n) if n <= TRANSFORM_CUTOFF else sorted({*range(0, n, n // 32), n - 3, n - 2, n - 1})
            for k in ks:
                vals = [
                    oracles.trig_eval_angle(label, k, float(th)) if abs(t) < 1.0
                    else float(sum_endpoint(label, k, float(t)))
                    for t, th in zip(rule.nodes, rule.thetas)
                ]
                got = math.fsum(w * v for w, v in zip(rule.weights.tolist(), vals))
                want = oracles.family_moment(label, k)
                assert got == pytest.approx(want, abs=1e-13), (kind, n, k)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_fft_weights_match_exact_sums(kind, monkeypatch):
    """The FFT weights against the termwise sums, both forced at the same n.

    Measured gap: at most 7.7e-17 for 63 <= n <= 16384 (f3, n = 63).  The
    termwise sums cost O(n^2), so they referee about 66 spread nodes, the
    first and last included (cc's halved end factors sit there); at each
    node they give the same bits as over the whole rule.
    """
    for n in FAST_PATH_NS:
        # rules._weights, not make_rule: the rule cache would return the first
        # rule for the second cutoff and compare it with itself
        thetas = rule_thetas(kind, n)
        picks = sorted({*range(0, n, max(1, n // 64)), n - 1})
        monkeypatch.setattr(rules, "TRANSFORM_CUTOFF", 1)
        fast = np.array(rules._weights(kind, n, thetas))[picks]
        monkeypatch.setattr(rules, "TRANSFORM_CUTOFF", n + 1)
        exact = np.array(rules._weights(kind, n, thetas[picks]))
        assert np.max(np.abs(fast - exact)) <= 2e-16, n


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_array_angles_equal_the_python_float_products(kind):
    # from the cutoff on the angles are one array multiply; the Python-float
    # form i * scale is the referee, bit for bit, and the array form gives it at any n
    step, offset, den_scale, den_shift = rules._GRID[kind]
    for n in [*range(kind.min_nodes, TRANSFORM_CUTOFF), 64, 65, 127, 1000, 4096, 8192]:
        scale = math.pi / (den_scale * n + den_shift)
        want = [i * scale for i in range(offset, step * n + offset, step)]
        got = rules._angles(kind, n)
        assert got == want and {type(th) for th in got} == {float}, n
        assert rules._angle_array(kind, n).tolist() == want == rule_thetas(kind, n).tolist(), n


def _per_degree_normalise(kind, n, ks, sums):
    """The norm rule degree by degree, each degree tested for a doubled norm."""
    norm, period = rules._norm(kind, n), rules._period(kind, n)
    two_s = int(2 * rules._ANGLE_FORM[rules._FAMILY[kind]][0])
    doubled = [(2 * k + two_s) % period == 0 for k in ks]
    if two_s % 2:
        return [v / (2 * norm if d else norm) for d, v in zip(doubled, sums)]
    return [(1 / (2 * norm) if d else 1 / norm) * v for d, v in zip(doubled, sums)]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_normalise_tests_only_the_degrees_that_can_alias(kind):
    # every degree 0 <= k < n, as a list and as an array, for the degree sets callers pass
    rng = np.random.default_rng(5)
    for n in [*range(kind.min_nodes, 70), 127, 128, 1000, 4096]:
        for ks in (range(n), range(min(n, 7)), sorted({0, n - 1}), sorted({n // 2, n - 1})):
            sums = rng.standard_normal(len(ks)).tolist()
            want = _per_degree_normalise(kind, n, ks, sums)
            assert rules._normalise(kind, n, ks, sums) == want, (n, ks)
            assert rules._normalise(kind, n, ks, np.array(sums)).tolist() == want, (n, ks)


def test_make_rule_returns_one_shared_rule():
    for kind in ALL_KINDS:
        assert make_rule(kind, 8) is make_rule(kind, 8)


def test_large_rules_are_cached_four_at_a_time():
    small = {kind: make_rule(kind, 8) for kind in ALL_KINDS}
    first = make_rule(QuadKind.FEJER_I, 64)
    for n in (65, 66, 67):
        make_rule(QuadKind.FEJER_I, n)
    assert make_rule(QuadKind.FEJER_I, 64) is first
    # 64 is now the most recent of four; four more large rules push it out
    for n in (68, 69, 70, 71):
        make_rule(QuadKind.FEJER_I, n)
    rebuilt = make_rule(QuadKind.FEJER_I, 64)
    assert rebuilt is not first and rebuilt.weight_values == first.weight_values
    assert all(make_rule(kind, 8) is rule for kind, rule in small.items())


def test_cached_rules_equal_fresh_builds_bit_for_bit():
    build = rules._build_rule.__wrapped__
    for kind in ALL_KINDS:
        for n in range(kind.min_nodes, 71):
            cached, fresh = make_rule(kind, n), build(kind, n)
            assert cached is not fresh
            for name in ("thetas", "nodes", "weights"):
                assert getattr(cached, name).tobytes() == getattr(fresh, name).tobytes(), (kind, n, name)


def test_invalid_rule_request_raises_every_time():
    for _ in range(2):
        with pytest.raises(ValueError, match="needs n >= 2"):
            make_rule(QuadKind.CLENSHAW_CURTIS, 1)


def test_numpy_integer_node_count_gives_the_int_rule():
    rule = make_rule(QuadKind.FEJER_I, np.int64(8))
    assert type(rule.n) is int
    assert rule is make_rule(QuadKind.FEJER_I, 8)
    assert json.loads(json.dumps(rule.to_json_dict()))["n"] == 8


@pytest.mark.parametrize("n", [8.0, True], ids=["float", "bool"])
def test_non_integer_node_count_is_a_type_error(n):
    with pytest.raises(TypeError, match="node count n must be an integer"):
        make_rule(QuadKind.FEJER_I, n)


def sum_endpoint(label, k, t):
    # endpoint values of each family, needed only for cc nodes
    sign = -1.0 if k % 2 else 1.0
    table = {
        ("T", 1.0): 1.0, ("T", -1.0): sign,
        ("U", 1.0): k + 1.0, ("U", -1.0): sign * (k + 1.0),
        ("V", 1.0): 1.0, ("V", -1.0): sign * (2 * k + 1.0),
        ("W", 1.0): 2 * k + 1.0, ("W", -1.0): sign,
    }
    return table[(label, t)]


def test_rules_integrate_monomials():
    for kind in ALL_KINDS:
        for n in range(kind.min_nodes, 13):
            rule = make_rule(kind, n)
            for d in range(n):
                got = math.fsum((rule.weights * rule.nodes**d).tolist())
                want = 2.0 / (d + 1) if d % 2 == 0 else 0.0
                assert got == pytest.approx(want, abs=1e-13), (kind, n, d)


def test_orthogonality_direct_vs_closed_form():
    for kind in ALL_KINDS:
        for n in (kind.min_nodes, 3, 5, 8):
            if n < kind.min_nodes:
                continue
            for i in range(2 * n + 4):
                for k in range(n):
                    direct = discrete_orthogonality_sum(kind, n, i, k)
                    closed = closed_form_orthogonality(kind, n, i, k)
                    assert direct == pytest.approx(closed, abs=1e-11 * n), (kind, n, i, k)


def test_orthogonality_double_alias_corner():
    # k = 0 with i a full period: both alias branches fire at once
    n = 6
    assert closed_form_orthogonality(QuadKind.FEJER_I, n, 2 * n, 0) == -float(n)
    assert discrete_orthogonality_sum(QuadKind.FEJER_I, n, 2 * n, 0) == pytest.approx(
        -float(n), abs=1e-12
    )
    assert closed_form_orthogonality(QuadKind.CLENSHAW_CURTIS, n, 2 * (n - 1), 0) == float(n - 1)
    assert discrete_orthogonality_sum(QuadKind.CLENSHAW_CURTIS, n, 2 * (n - 1), 0) == pytest.approx(
        float(n - 1), abs=1e-12
    )


def test_orthogonality_index_validation():
    with pytest.raises(ValueError):
        closed_form_orthogonality(QuadKind.FEJER_I, 4, 2, 4)
    with pytest.raises(ValueError):
        closed_form_orthogonality(QuadKind.FEJER_I, 4, -1, 2)
    with pytest.raises(ValueError):
        discrete_orthogonality_sum(QuadKind.FEJER_I, 4, -1, 2)


def test_closed_form_orthogonality_array_matches_scalar():
    # one broadcast call per rule gives the whole table, bit for bit
    for kind in ALL_KINDS:
        for n in range(kind.min_nodes, 41):
            i = np.arange(4 * n + 4)
            table = closed_form_orthogonality(kind, n, i[:, None], i[:n])
            scalar = np.array(
                [[closed_form_orthogonality(kind, n, a, b) for b in range(n)] for a in range(4 * n + 4)]
            )
            assert table.shape == scalar.shape
            assert (table == scalar).all() and table.tobytes() == scalar.tobytes(), (kind, n)
    # unsigned indices must not wrap around in i - k: 2**32 - 1 and 2**64 - 1
    # are multiples of 17, the f3/f4 period at n = 8
    i = np.arange(36, dtype=np.uint32)
    for kind in ALL_KINDS:
        assert closed_form_orthogonality(kind, 8, i, np.uint8(1)).tobytes() == (
            closed_form_orthogonality(kind, 8, i.astype(np.int64), 1).tobytes()
        )
        assert closed_form_orthogonality(kind, 8, np.uint64(0), 1) == 0.0


@pytest.mark.parametrize("n", [2.5, 4.0, True, np.True_], ids=["float", "whole-float", "bool", "numpy-bool"])
def test_rule_thetas_needs_an_integer_node_count(n):
    with pytest.raises(TypeError, match="node count n must be an integer"):
        rule_thetas(QuadKind.FEJER_I, n)


@pytest.mark.parametrize(
    "n, i, k",
    [(True, 0, 0), (4.0, 1, 1), (4, 1.5, 1), (4, True, 0), (4, 1, 0.0), (4, np.arange(3.0), 0),
     (4, 0, np.array([0.0]))],
    ids=["bool-n", "float-n", "float-i", "bool-i", "float-k", "float-array-i", "float-array-k"],
)
def test_closed_form_orthogonality_needs_integers(n, i, k):
    with pytest.raises(TypeError, match="must be an integer"):
        closed_form_orthogonality(QuadKind.FEJER_I, n, i, k)


@pytest.mark.parametrize(
    "n, i, k",
    [(True, 0, 0), (4.0, 1, 1), (4, 1.5, 1), (4, 1, True)],
    ids=["bool-n", "float-n", "float-i", "bool-k"],
)
def test_discrete_orthogonality_sum_needs_integers(n, i, k):
    with pytest.raises(TypeError, match="must be an integer"):
        discrete_orthogonality_sum(QuadKind.FEJER_I, n, i, k)


@pytest.mark.parametrize(
    "n, j", [(True, 0), (4.0, 1), (4, 1.0), (4, True)], ids=["bool-n", "float-n", "float-j", "bool-j"]
)
def test_lagrange_basis_eval_needs_integers(n, j):
    with pytest.raises(TypeError, match="must be an integer"):
        lagrange_basis_eval(QuadKind.FEJER_I, n, j, 0.3)


def test_lagrange_basis_delta_property():
    n = 6
    for kind in ALL_KINDS:
        rule = make_rule(kind, n)
        for j in range(n):
            for i in range(n):
                want = 1.0 if i == j else 0.0
                got = lagrange_basis_eval(kind, n, j, float(rule.nodes[i]))
                assert got == pytest.approx(want, abs=1e-12), (kind, j, i)


def test_lagrange_basis_matches_node_product():
    # frozen spot value plus a sweep against the direct product construction
    got = lagrange_basis_eval(QuadKind.FEJER_II, 4, 2, 0.3)
    assert got == pytest.approx(0.01473312629199905, abs=1e-15)
    for kind in (QuadKind.FEJER_I, QuadKind.CLENSHAW_CURTIS, QuadKind.FEJER_IV):
        rule = make_rule(kind, 5)
        for j in (0, 2, 4):
            for t in (-0.83, -0.2, 0.41, 0.97):
                ref = oracles.lagrange_node_product(rule.nodes.tolist(), j, t)
                assert lagrange_basis_eval(kind, 5, j, t) == pytest.approx(ref, abs=1e-12)
    with pytest.raises(ValueError):
        lagrange_basis_eval(QuadKind.FEJER_I, 4, 4, 0.0)


def test_lagrange_basis_eval_matches_the_per_degree_sum():
    # the same sum with each P_k(t) from its own eval_cheb call, as an O(n^2)
    # reference; one upward recurrence must reproduce it bit for bit.  P_k(t)
    # does not depend on the node j, so each t's values serve every j.
    for kind in ALL_KINDS:
        family = family_for_rule(kind)
        for n in range(kind.min_nodes, 41):
            thetas = rule_thetas(kind, n)
            factors = rules._node_factors(kind, thetas)
            at_nodes = rules._family_matrix(family, thetas, range(n)).T.tolist()
            norms = [closed_form_orthogonality(kind, n, k, k) for k in range(n)]
            for t in (-1.0, -0.83, 0.0, 0.41, 1.0, 1.0 + 5e-13):
                at_t = [eval_cheb(family, k, t) for k in range(n)]
                for j in range(n):
                    terms = [factors[j] * at_nodes[j][k] * at_t[k] / norms[k] for k in range(n)]
                    assert lagrange_basis_eval(kind, n, j, t) == math.fsum(terms), (kind, n, j, t)


def test_family_matrix_matches_scalar_trig_forms():
    # the angle-form table against eval_cheb_trig's own per-family formulas
    for kind in ALL_KINDS:
        family = family_for_rule(kind)
        for n in range(kind.min_nodes, 17):
            thetas = rule_thetas(kind, n)
            degrees = np.arange(4 * n + 4)
            got = rules._family_matrix(family, thetas, degrees)
            want = [[eval_cheb_trig(family, d, th) for th in thetas.tolist()] for d in degrees]
            assert np.all(np.abs(got - want) <= 1e-12 * (degrees[:, None] + 1)), (kind, n)


def test_rule_arrays_are_read_only():
    rule = make_rule(QuadKind.FEJER_I, 5)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[2] = 1.0


def test_to_json_dict():
    rule = make_rule(QuadKind.FEJER_III, 4)
    d = rule.to_json_dict()
    assert d["kind"] == "f3"
    assert d["n"] == 4
    assert len(d["thetas"]) == len(d["nodes"]) == len(d["weights"]) == 4
    assert d["nodes"][0] == float(rule.nodes[0])
    assert all(isinstance(v, float) for v in d["weights"])
