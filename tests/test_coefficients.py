"""Coefficient computation: interpolation property, aliasing, continuous limits."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from localcheb import coefficients, rules
from localcheb import (
    ChebKind,
    CoefficientSet,
    ContinuousOracleSource,
    DiscreteRuleSource,
    Interval,
    QuadKind,
    SampledFunction,
    affine_map,
    continuous_coeffs,
    discrete_coeffs,
    eval_cheb,
    interpolant_eval,
    kind_relations_check,
    midpoint_limit_check,
    rule_thetas,
)
from localcheb.rules import TRANSFORM_CUTOFF

ALL_KINDS = list(QuadKind)

# node counts on both sides of the cutoff between exact sums and FFT, and two large ones
FAST_PATH_NS = [TRANSFORM_CUTOFF - 1, TRANSFORM_CUTOFF, 1000, 4096]

EXP = SampledFunction(math.exp)

# heads of the continuous expansions of e^x on [-0.5, 1], frozen from an
# adaptive-integration run (estimated truncation error ~2e-14)
REF_EXP_FIRST = [1.4710395815549175, 1.0323370759735493, 0.18918029384703683, 0.02337550878935182]
REF_EXP_SECOND = [1.376449434631399, 0.5044807835920988, 0.09350203515740682, 0.011606525505189815]


def _family_weight(family: ChebKind, theta: float) -> float:
    """w(theta) with |w P_k| <= 1 for every k: 1, sin, cos(theta/2), sin(theta/2)."""
    return {
        ChebKind.FIRST: 1.0,
        ChebKind.SECOND: math.sin(theta),
        ChebKind.THIRD: math.cos(0.5 * theta),
        ChebKind.FOURTH: math.sin(0.5 * theta),
    }[family]


def test_interpolation_property():
    """The coefficient series reproduces the samples at the rule's own nodes.

    Near t = +-1 the U, V and W polynomials grow like 2k + 1, so at large n
    the series magnifies the rounding of its coefficients there (1e-12 at
    n = 4096, by either summation path).  The large-n cases therefore bound
    the error times the family weight w, under which every P_k stays within
    [-1, 1]; measured worst case 1.3e-14 (n = 63).  Above the cutoff, 64
    spread nodes and the last one stand in for all n.
    """
    iv = Interval(-0.5, 1.0)
    for kind in ALL_KINDS:
        n = 9
        cs = discrete_coeffs(kind, EXP, iv, n)
        assert len(cs.values) == n
        assert cs.family.value == {"f1": "T", "cc": "T", "f2": "U", "f3": "V", "f4": "W"}[kind.value]
        for th in rule_thetas(kind, n):
            t = math.cos(float(th))
            x = affine_map(iv, t)
            assert cs.evaluate(t) == pytest.approx(math.exp(x), abs=1e-13), kind
        for n in FAST_PATH_NS:
            cs = discrete_coeffs(kind, EXP, iv, n)
            assert len(cs.values) == n
            thetas = rule_thetas(kind, n)
            for j in sorted({*range(0, n, max(1, n // 64)), n - 1}):
                th = float(thetas[j])
                t = math.cos(th)
                err = abs(cs.evaluate(t) - math.exp(affine_map(iv, t)))
                assert err * _family_weight(cs.family, th) <= 1e-13, (kind, n, j)


def test_polynomial_coefficients_match_basis_change_oracle():
    """For a polynomial of degree < n the discrete coefficients are exact.

    The oracle expands the same polynomial through a triangular solve in the
    monomial basis, a completely different route than node projection.
    Beyond the polynomial's degree every coefficient must vanish.
    """
    mono = [0.3, -1.2, 0.5, 2.0, -0.7, 0.1, 0.25]

    def f(x: float) -> float:
        acc = 0.0
        for c in reversed(mono):
            acc = acc * x + c
        return acc

    iv = Interval(-1.0, 1.0)
    for kind in ALL_KINDS:
        for n in [7] + FAST_PATH_NS:
            cs = discrete_coeffs(kind, SampledFunction(f), iv, n)
            ref = oracles.family_expansion_of_poly(cs.family.value, mono)
            assert cs.values[:7] == pytest.approx(ref, abs=2e-14), (kind, n)
            assert max(map(abs, cs.values[7:]), default=0.0) < 2e-14, (kind, n)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_fft_coefficients_match_exact_sums(kind, monkeypatch):
    """The FFT coefficients against the termwise exact sums, at the same n.

    The gap is the exact path's own error: it rounds k * theta_j before
    taking the cosine, which costs up to n eps per term.  Measured on
    x|x| + e^x: at most 0.09 n eps max|f| (1.3e-13 at n = 4096).  Above the
    cutoff, 32 spread degrees and the top three stand in for all n.
    """
    iv = Interval(-0.3, 0.8)
    f = SampledFunction(lambda x: x * abs(x) + math.exp(x))
    for n in FAST_PATH_NS:
        thetas = rule_thetas(kind, n)
        fvals = coefficients._sample_at_nodes(f, iv, thetas)
        ks = range(n) if n <= TRANSFORM_CUTOFF else sorted({*range(0, n, n // 32), n - 3, n - 2, n - 1})
        monkeypatch.setattr(rules, "TRANSFORM_CUTOFF", 1)
        fast = np.array(rules._coeff_values(rules._analysis(kind, n, ks), fvals))
        monkeypatch.setattr(rules, "TRANSFORM_CUTOFF", n + 1)
        exact = np.array(rules._coeff_values(rules._analysis(kind, n, ks), fvals))
        bound = 0.5 * n * np.finfo(float).eps * np.max(np.abs(fvals))
        assert np.max(np.abs(fast - exact)) <= bound, n


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_array_rows_match_python_termwise_sums(kind, monkeypatch):
    """Few degrees of many nodes: the array rows against the Python-float loop.

    Both reduce the same terms with math.fsum; only the cosine or sine of
    each term comes from numpy in one and from libm in the other.
    """
    iv = Interval(-0.3, 0.8)
    f = SampledFunction(lambda x: x * abs(x) + math.exp(x))
    for n in (TRANSFORM_CUTOFF, 1000):
        thetas = rule_thetas(kind, n).tolist()
        fvals = coefficients._sample_at_nodes(f, iv, thetas)
        ks = [0, 1, 2, 7, n // 2, n - 1]
        rows = np.array(rules._coeff_values(rules._analysis(kind, n, ks), fvals))
        monkeypatch.setattr(rules, "TRANSFORM_CUTOFF", n + 1)
        loop = np.array(rules._coeff_values(rules._analysis(kind, n, ks), fvals))
        monkeypatch.undo()
        bound = 0.5 * n * np.finfo(float).eps * np.max(np.abs(fvals))
        assert np.max(np.abs(rows - loop)) <= bound, n


# every sum path: each rule's termwise sums (n = 8) and FFT (n = TRANSFORM_CUTOFF), and
# each family's array rows (few degrees of many nodes)
SUM_PATHS = [
    *(pytest.param(functools.partial(discrete_coeffs, kind, n=n), id=f"{kind.value}-n{n}")
      for kind in ALL_KINDS for n in (8, TRANSFORM_CUTOFF)),
    *(pytest.param(functools.partial(continuous_coeffs, family, k_max=3, n_ref=4096),
                   id=f"continuous-{family.value}")
      for family in ChebKind),
]


@pytest.mark.parametrize("coeffs", SUM_PATHS)
def test_subnormal_coefficients_flush_to_zero(coeffs):
    """Magnitudes below 1e-300 become exact zeros, on every path; larger ones are kept."""
    iv = Interval(-0.3, 0.8)
    tiny = coeffs(SampledFunction(lambda x: 1e-305), iv).values
    assert tiny == (0.0,) * len(tiny)
    small = coeffs(SampledFunction(lambda x: 1e-299), iv).values
    assert small[0] == pytest.approx(1e-299, rel=1e-12)


def test_non_finite_sample_names_the_node():
    # an infinite sample is an overflow, a NaN sample an invalid value
    for bad, error in ((math.nan, ValueError), (math.inf, OverflowError), (-math.inf, OverflowError)):
        f = SampledFunction(lambda x, bad=bad: bad if x > 0.9 else x)
        for n in (8, TRANSFORM_CUTOFF):
            with pytest.raises(error, match=rf"^non-finite sample {bad!r} at node 0 \(x = 0\.9"):
                discrete_coeffs(QuadKind.FEJER_I, f, Interval(0.0, 1.0), n)


def test_first_kind_alias_folding():
    """Degrees at and beyond n fold back onto 0..n-1 with known signs."""
    n = 8
    iv = Interval(-1.0, 1.0)
    for k in (1, 3, 5):
        for i, expected in ((k, 1.0), (2 * n - k, -1.0), (2 * n + k, -1.0)):
            f = SampledFunction(lambda x, i=i: eval_cheb(ChebKind.FIRST, i, x))
            cs = discrete_coeffs(QuadKind.FEJER_I, f, iv, n)
            assert cs.values[k] == pytest.approx(expected, abs=1e-13), (k, i)
            others = [abs(v) for j, v in enumerate(cs.values) if j != k]
            assert max(others) < 1e-13, (k, i)


def test_continuous_coeffs_match_adaptive_quadrature():
    iv = Interval(-0.5, 1.0)
    for family, ref in ((ChebKind.FIRST, REF_EXP_FIRST), (ChebKind.SECOND, REF_EXP_SECOND)):
        cs = continuous_coeffs(family, EXP, iv, 3, 4096)
        assert isinstance(cs.source, ContinuousOracleSource)
        assert cs.source.n_ref == 4096
        for k in range(4):
            oracle = oracles.continuous_coeff_quad(family.value, math.exp, iv, k)
            assert cs.values[k] == pytest.approx(oracle, abs=1e-12), (family, k)
            assert cs.values[k] == pytest.approx(ref[k], abs=1e-13), (family, k)


def test_continuous_coeffs_third_fourth_kind_oracle():
    iv = Interval(-0.5, 1.0)
    for family in (ChebKind.THIRD, ChebKind.FOURTH):
        cs = continuous_coeffs(family, EXP, iv, 2, 4096)
        for k in range(3):
            oracle = oracles.continuous_coeff_quad(family.value, math.exp, iv, k)
            assert cs.values[k] == pytest.approx(oracle, abs=1e-12), (family, k)


def test_continuous_abs_has_known_even_coefficients():
    """First-kind expansion of |x| on [-1, 1]: 2/pi, 0, 4/(3 pi), 0, -4/(15 pi)."""
    cs = continuous_coeffs(ChebKind.FIRST, SampledFunction(abs), Interval(-1.0, 1.0), 4, 8192)
    assert cs.values[0] == pytest.approx(2.0 / math.pi, abs=1e-7)
    assert cs.values[2] == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-7)
    assert cs.values[4] == pytest.approx(-4.0 / (15.0 * math.pi), abs=1e-7)
    assert abs(cs.values[1]) < 1e-13
    assert abs(cs.values[3]) < 1e-13


def test_continuous_coeffs_rejects_coarse_resolution():
    with pytest.raises(ValueError):
        continuous_coeffs(ChebKind.FIRST, EXP, Interval(-1.0, 1.0), 0, 2048)
    with pytest.raises(ValueError):
        continuous_coeffs(ChebKind.FIRST, EXP, Interval(-1.0, 1.0), 100, 4096)
    with pytest.raises(ValueError):
        continuous_coeffs(ChebKind.FIRST, EXP, Interval(-1.0, 1.0), -1, 4096)


def test_kind_relations_exponential():
    report = kind_relations_check(EXP, Interval(-0.5, 1.0), k_max=6, n_ref=8192)
    assert report.max_residual < 1e-12
    assert report.max_residual == max(
        report.residual_second, report.residual_third, report.residual_fourth
    )


@pytest.mark.parametrize("field, family", [
    ("residual_second", ChebKind.SECOND),
    ("residual_third", ChebKind.THIRD),
    ("residual_fourth", ChebKind.FOURTH),
])
@pytest.mark.parametrize("k", [0, 2, 4])
def test_kind_relations_nan_coefficient_gives_nan(field, family, k, monkeypatch):
    # Python's max drops a NaN unless it comes first, so a NaN at any k must still show
    real = coefficients.continuous_coeffs

    def with_nan(fam, *args):
        cs = real(fam, *args)
        if fam is not family:
            return cs
        values = list(cs.values)
        values[k] = math.nan
        return CoefficientSet(cs.family, cs.interval, tuple(values), cs.source)

    monkeypatch.setattr(coefficients, "continuous_coeffs", with_nan)
    report = kind_relations_check(EXP, Interval(-0.5, 1.0), k_max=4, n_ref=4096)
    assert math.isnan(getattr(report, field))
    assert math.isnan(report.max_residual)
    others = [v for name, v in vars(report).items() if name != field]
    assert all(v < 1e-12 for v in others)


# finite samples whose weighted terms overflow: each path once returned inf
# or nan coefficients, or let math.fsum's "-inf + inf" ValueError out
_HUGE_NEAR_1 = SampledFunction(lambda x: 1e308 if x > 0.99 else 1.0)
_HUGE_BOTH_SIGNS = SampledFunction(lambda x: 1e308 if x > 0.95 else (-1e308 if x > 0.85 else 1.0))
_UNIT = Interval(0.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda: discrete_coeffs(QuadKind.FEJER_III, _HUGE_NEAR_1, _UNIT, 8),
    lambda: discrete_coeffs(QuadKind.FEJER_III, _HUGE_BOTH_SIGNS, _UNIT, 8),
    lambda: continuous_coeffs(ChebKind.THIRD, _HUGE_NEAR_1, _UNIT, 6, 4096),
    lambda: continuous_coeffs(
        ChebKind.THIRD, SampledFunction(lambda x: 1e308 if x > 0.999 else (-1e308 if x > 0.99 else 1.0)),
        _UNIT, 6, 4096),
    lambda: interpolant_eval(QuadKind.FEJER_II, SampledFunction(lambda x: 1e308), _UNIT, 64, [0.5]),
    lambda: discrete_coeffs(QuadKind.FEJER_I, SampledFunction(lambda x: 1.7e308), _UNIT, 64),
], ids=["termwise-inf", "termwise-inf-minus-inf", "array-termwise-inf",
        "array-termwise-inf-minus-inf", "fft-interpolant", "fft-discrete"])
def test_overflowing_coefficients_raise_overflow_error(call):
    # numpy's overflow warnings are errors under the test settings, so none may leak either
    with pytest.raises(OverflowError, match=r"^coefficient of degree 0 is not finite$"):
        call()


def test_kind_relations_polynomial():
    # for a polynomial the ladder identities are exact up to rounding
    def f(x: float) -> float:
        return ((1.5 * x - 0.2) * x + 0.7) * x - 1.1

    report = kind_relations_check(SampledFunction(f), Interval(-1.0, 1.0), k_max=4, n_ref=4096)
    assert report.max_residual < 1e-13


def test_midpoint_limit_columns_shrink():
    ivs = [Interval(-0.5 / p, 1.0 / p) for p in (1, 4, 16, 64)]
    rows = midpoint_limit_check(EXP, ivs)
    gaps = [r.center_gap for r in rows]
    tails = [r.tail_max for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert all(b < a for a, b in zip(tails, tails[1:]))
    # gap is O(h^2): a 64x shrink gives ~1/4096, so 1e-3 leaves real margin
    assert gaps[-1] < 1e-3 * gaps[0]
    assert rows[0].interval == ivs[0]


def test_evaluate_matches_direct_family_sum():
    values = (0.8, -0.45, 0.3, 0.05, -0.21)
    iv = Interval(-2.0, 3.0)
    for family in ChebKind:
        cs = CoefficientSet(family, iv, values, DiscreteRuleSource(QuadKind.FEJER_I, 5))
        for t in np.linspace(-1.0, 1.0, 9):
            t = float(t)
            direct = math.fsum(v * eval_cheb(family, k, t) for k, v in enumerate(values))
            assert cs.evaluate(t) == pytest.approx(direct, abs=1e-14)
            fold = values[0]  # the left fold v0 + v1 P_1 + ..., rounded term by term
            for k, v in enumerate(values[1:], 1):
                fold += v * eval_cheb(family, k, t)
            assert cs.evaluate(t) == fold, (family, t)


def test_single_coefficient_evaluate():
    cs = CoefficientSet(ChebKind.FIRST, Interval(0.0, 1.0), (2.5,), DiscreteRuleSource(QuadKind.FEJER_I, 1))
    assert cs.evaluate(0.7) == 2.5


# any float, with the signed zero, the smallest subnormal and both largest floats drawn often
CSV_FLOATS = st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]) | st.floats()


@settings(derandomize=True, deadline=None)
@given(st.lists(CSV_FLOATS, min_size=1, max_size=40))
def test_to_csv_is_the_per_value_format_text(values):
    cs = CoefficientSet(ChebKind.FIRST, Interval(0.0, 1.0), tuple(values), None)
    lines = ["k,value"]
    lines.extend(f"{k},{format(v, '.17g')}" for k, v in enumerate(values))
    assert cs.to_csv() == "\n".join(lines) + "\n"


def test_frozen_cc_coefficients_of_exp():
    # determinism regression for the cc projection path
    cs = discrete_coeffs(QuadKind.CLENSHAW_CURTIS, EXP, Interval(-1.0, 1.0), 4)
    ref = [1.2661108550760019, 1.1308643327583661, 0.27696977973924186, 0.044336860885435495]
    for got, want in zip(cs.values, ref):
        assert got == pytest.approx(want, abs=1e-15)


def test_first_kind_discrete_matches_numpy_interpolation():
    # numpy's chebinterpolate uses the same first-kind node family
    ref = np.polynomial.chebyshev.chebinterpolate(np.exp, 7)
    cs = discrete_coeffs(QuadKind.FEJER_I, EXP, Interval(-1.0, 1.0), 8)
    assert cs.values == pytest.approx(ref, abs=1e-14)


def test_csv_and_json_serialization():
    cs = discrete_coeffs(QuadKind.FEJER_II, EXP, Interval(-0.5, 1.0), 3)
    csv_text = cs.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "k,value"
    assert len(lines) == 4
    assert lines[1].startswith("0,")
    assert float(lines[2].split(",")[1]) == cs.values[1]

    d = cs.to_json_dict()
    assert d["family"] == "U"
    assert d["interval"] == {"a": -0.5, "b": 1.0}
    assert d["source"] == {"rule": "f2", "n": 3}
    assert d["values"] == list(cs.values)

    cont = continuous_coeffs(ChebKind.THIRD, EXP, Interval(-0.5, 1.0), 2, 4096)
    assert cont.to_json_dict()["source"] == {"n_ref": 4096}
