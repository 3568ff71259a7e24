"""The package's public names, and the one integer contract of their counts, degrees and indices."""

import importlib
import math

import numpy as np
import pytest

import localcheb
from localcheb import (
    ChebKind,
    Interval,
    Partition,
    QuadKind,
    SampledFunction,
    ShrinkSchedule,
    closed_form_orthogonality,
    coefficient_decay_study,
    composite_convergence_study,
    continuous_coeffs,
    discrete_coeffs,
    discrete_orthogonality_sum,
    eval_cheb,
    eval_cheb_trig,
    exp_fn,
    function_by_id,
    gamma,
    gamma_tilde,
    integrate,
    integrate_composite,
    interpolant_eval,
    kind_relations_check,
    lagrange_basis_eval,
    make_rule,
    midpoint_limit_check,
    power_abs_exp,
    quadrature_convergence_study,
    rule_thetas,
    theoretical_decay_rate,
    theoretical_order,
    trig_moment,
)

NAMES = {
    "analysis": [
        "DecayRow", "QuadRow", "ShrinkSchedule", "StudyReport", "TestFunction",
        "coefficient_decay_study", "composite_convergence_study", "exp_fn", "function_by_id",
        "merge_reports", "poly_fn", "power_abs_exp", "quadrature_convergence_study", "rate",
        "theoretical_decay_rate", "theoretical_order", "trig_moment",
    ],
    "coefficients": [
        "CoefficientSet", "ContinuousOracleSource", "DiscreteRuleSource", "KindRelationsReport",
        "MidpointGap", "SampledFunction", "continuous_coeffs", "discrete_coeffs",
        "kind_relations_check", "midpoint_limit_check",
    ],
    "polynomials": [
        "ChebKind", "Interval", "affine_inverse", "affine_map", "clamp_reference", "eval_cheb",
        "eval_cheb_trig", "gamma", "gamma_tilde",
    ],
    "quadrature": [
        "Partition", "QuadResult", "integrate", "integrate_composite", "interpolant_eval",
    ],
    "rules": [
        "QuadKind", "QuadratureRule", "closed_form_orthogonality", "discrete_orthogonality_sum",
        "family_for_rule", "lagrange_basis_eval", "make_rule", "rule_thetas",
    ],
}


def test_public_names_are_pinned():
    want = sorted(name for names in NAMES.values() for name in names) + ["__version__"]
    assert len(want) == 50
    assert sorted(localcheb.__all__) == sorted(want)
    assert len(set(localcheb.__all__)) == len(localcheb.__all__)


def test_public_names_are_their_modules_objects():
    for module, names in NAMES.items():
        mod = importlib.import_module(f"localcheb.{module}")
        assert sorted(mod.__all__) == sorted(names), module
        for name in names:
            assert getattr(localcheb, name) is getattr(mod, name), name


_IV = Interval(-0.5, 1.0)
_F = SampledFunction(math.exp)
_EXP = exp_fn()
_T, _F1 = ChebKind.FIRST, QuadKind.FEJER_I
_SCHED = ShrinkSchedule.doubling(2)

# every public entry that takes a count, degree or index, as a call of that one argument
INTEGER_ARGUMENTS = {
    "eval_cheb-degree": lambda v: eval_cheb(_T, v, 0.3),
    "eval_cheb_trig-degree": lambda v: eval_cheb_trig(_T, v, 0.3),
    "gamma-index": lambda v: gamma(v),
    "gamma_tilde-j": lambda v: gamma_tilde(v, 5),
    "gamma_tilde-n": lambda v: gamma_tilde(0, v),
    "make_rule-n": lambda v: make_rule(_F1, v),
    "rule_thetas-n": lambda v: rule_thetas(_F1, v),
    "discrete_orthogonality_sum-n": lambda v: discrete_orthogonality_sum(_F1, v, 0, 0),
    "discrete_orthogonality_sum-i": lambda v: discrete_orthogonality_sum(_F1, 4, v, 0),
    "discrete_orthogonality_sum-k": lambda v: discrete_orthogonality_sum(_F1, 4, 0, v),
    "closed_form_orthogonality-n": lambda v: closed_form_orthogonality(_F1, v, 0, 0),
    "closed_form_orthogonality-i": lambda v: closed_form_orthogonality(_F1, 4, v, 0),
    "closed_form_orthogonality-k": lambda v: closed_form_orthogonality(_F1, 4, 0, v),
    "lagrange_basis_eval-n": lambda v: lagrange_basis_eval(_F1, v, 0, 0.3),
    "lagrange_basis_eval-j": lambda v: lagrange_basis_eval(_F1, 4, v, 0.3),
    "Partition.equispaced-pieces": lambda v: Partition.equispaced(_IV, v),
    "integrate-n": lambda v: integrate(_F1, _F, _IV, v),
    "integrate_composite-n": lambda v: integrate_composite(_F1, _F, Partition(_IV, (-0.5, 1.0)), v),
    "interpolant_eval-n": lambda v: interpolant_eval(_F1, _F, _IV, v, [0.1]),
    "discrete_coeffs-n": lambda v: discrete_coeffs(_F1, _F, _IV, v),
    "continuous_coeffs-k_max": lambda v: continuous_coeffs(_T, _F, _IV, v, 4096),
    "continuous_coeffs-n_ref": lambda v: continuous_coeffs(_T, _F, _IV, 2, v),
    "kind_relations_check-k_max": lambda v: kind_relations_check(_F, _IV, v, 4096),
    "kind_relations_check-n_ref": lambda v: kind_relations_check(_F, _IV, 2, v),
    "midpoint_limit_check-n": lambda v: midpoint_limit_check(_F, [_IV], _F1, v),
    "power_abs_exp-m": lambda v: power_abs_exp(v),
    "function_by_id-m": lambda v: function_by_id("xm_abs_exp", v),
    "ShrinkSchedule-p": lambda v: ShrinkSchedule((v,)),
    "ShrinkSchedule.doubling-p_max": lambda v: ShrinkSchedule.doubling(v),
    "ShrinkSchedule.interval-p": lambda v: ShrinkSchedule.interval(v),
    "ShrinkSchedule.h-p": lambda v: ShrinkSchedule.h(v),
    "theoretical_order-n": lambda v: theoretical_order(_F1, v, None),
    "theoretical_order-m": lambda v: theoretical_order(_F1, 4, v),
    "theoretical_decay_rate-k": lambda v: theoretical_decay_rate(v, None),
    "theoretical_decay_rate-m": lambda v: theoretical_decay_rate(2, v),
    "trig_moment-ell": lambda v: trig_moment(v, 0, 0, 0),
    "trig_moment-q": lambda v: trig_moment(0, v, 0, 0),
    "trig_moment-k": lambda v: trig_moment(0, 0, v, 0),
    "trig_moment-parity": lambda v: trig_moment(0, 0, 0, v),
    "trig_moment-num_points": lambda v: trig_moment(0, 0, 0, 0, v),
    "coefficient_decay_study-n": lambda v: coefficient_decay_study(_F1, _EXP, v, [1], _SCHED),
    "coefficient_decay_study-ks": lambda v: coefficient_decay_study(_F1, _EXP, 4, [v], _SCHED),
    "quadrature_convergence_study-ns": lambda v: quadrature_convergence_study(_F1, _EXP, v, _SCHED),
    "composite_convergence_study-n": lambda v: composite_convergence_study(_F1, _EXP, v, _IV, [1]),
    "composite_convergence_study-p": lambda v: composite_convergence_study(_F1, _EXP, 4, _IV, [v]),
}


# the arguments that also take an integer array (ns takes any iterable of counts)
ARRAY_ARGUMENTS = {
    "closed_form_orthogonality-i", "closed_form_orthogonality-k", "trig_moment-ell",
    "trig_moment-q", "trig_moment-k", "trig_moment-parity", "quadrature_convergence_study-ns",
}


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_counts_degrees_and_indices_share_one_contract(name):
    call = INTEGER_ARGUMENTS[name]
    # bool and whole-number floats are refused, not truncated or read as 0 and 1
    for value in (True, 2.0):
        with pytest.raises(TypeError, match="must be an integer"):
            call(value)
    with pytest.raises(ValueError):
        call(-1)
    if name not in ARRAY_ARGUMENTS:
        # an integer array with ndim > 0 is refused where one integer is taken
        for value in (np.array([1]), np.array([8, 9])):
            with pytest.raises(TypeError, match="must be an integer"):
                call(value)


def test_zero_d_integer_array_passes_as_an_int():
    assert make_rule(_F1, np.array(8)).n == 8
    assert gamma(np.array(0)) == 1
