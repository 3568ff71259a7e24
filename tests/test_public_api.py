"""The package's public names: one list, each the same object as in its module."""

import importlib

import localcheb

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
