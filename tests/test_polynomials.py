import math
import re

import numpy as np
import pytest

import oracles
from localcheb import (
    ChebKind,
    Interval,
    affine_inverse,
    affine_map,
    clamp_reference,
    eval_cheb,
    eval_cheb_trig,
    gamma,
    gamma_tilde,
)

KINDS = list(ChebKind)
LABELS = {k: k.value for k in KINDS}


def test_degree_zero_is_one():
    for kind in KINDS:
        for t in (-1.0, -0.37, 0.0, 0.8, 1.0):
            assert eval_cheb(kind, 0, t) == 1.0


def test_degree_one_seeds():
    t = 0.37
    assert eval_cheb(ChebKind.FIRST, 1, t) == pytest.approx(t, abs=1e-16)
    assert eval_cheb(ChebKind.SECOND, 1, t) == pytest.approx(2 * t, abs=1e-16)
    assert eval_cheb(ChebKind.THIRD, 1, t) == pytest.approx(2 * t - 1, abs=1e-16)
    assert eval_cheb(ChebKind.FOURTH, 1, t) == pytest.approx(2 * t + 1, abs=1e-16)


def test_quadratics():
    # T_2 = 2t^2-1, U_2 = 4t^2-1, V_2 = 4t^2-2t-1, W_2 = 4t^2+2t-1
    for t in np.linspace(-1.0, 1.0, 9):
        t = float(t)
        assert eval_cheb(ChebKind.FIRST, 2, t) == pytest.approx(2 * t * t - 1, abs=1e-15)
        assert eval_cheb(ChebKind.SECOND, 2, t) == pytest.approx(4 * t * t - 1, abs=1e-15)
        assert eval_cheb(ChebKind.THIRD, 2, t) == pytest.approx(4 * t * t - 2 * t - 1, abs=1e-15)
        assert eval_cheb(ChebKind.FOURTH, 2, t) == pytest.approx(4 * t * t + 2 * t - 1, abs=1e-15)


def test_frozen_cubic_values():
    # hand-computed through the recurrence at t = 0.2
    assert eval_cheb(ChebKind.FOURTH, 3, 0.2) == pytest.approx(-1.576, abs=5e-16)
    assert eval_cheb(ChebKind.THIRD, 3, 0.2) == pytest.approx(0.104, abs=5e-16)


def test_recurrence_matches_trig_oracle():
    """The O(n) recurrence and the closed form agree away from the endpoints."""
    for kind in KINDS:
        label = LABELS[kind]
        for n in range(13):
            for t in np.linspace(-0.999, 0.999, 23):
                t = float(t)
                ours = eval_cheb(kind, n, t)
                ref = oracles.trig_eval(label, n, t)
                assert ours == pytest.approx(ref, abs=1e-11), (kind, n, t)


def test_trig_form_matches_recurrence_in_angle():
    for kind in KINDS:
        for n in range(11):
            for theta in np.linspace(0.03, math.pi - 0.03, 17):
                theta = float(theta)
                assert eval_cheb_trig(kind, n, theta) == pytest.approx(
                    eval_cheb(kind, n, math.cos(theta)), abs=1e-11
                )


def test_endpoint_values():
    """Endpoint limits where the quotient forms are 0/0.

    At t = +-1 the recurrence runs on small integers, so exact equality is
    the right assertion for eval_cheb; the trig form hard-codes the limits.
    """
    for n in range(9):
        sign = -1.0 if n % 2 else 1.0
        assert eval_cheb(ChebKind.FIRST, n, 1.0) == 1.0
        assert eval_cheb(ChebKind.FIRST, n, -1.0) == sign
        assert eval_cheb(ChebKind.SECOND, n, 1.0) == n + 1
        assert eval_cheb(ChebKind.SECOND, n, -1.0) == sign * (n + 1)
        assert eval_cheb(ChebKind.THIRD, n, 1.0) == 1.0
        assert eval_cheb(ChebKind.THIRD, n, -1.0) == sign * (2 * n + 1)
        assert eval_cheb(ChebKind.FOURTH, n, 1.0) == 2 * n + 1
        assert eval_cheb(ChebKind.FOURTH, n, -1.0) == sign

        assert eval_cheb_trig(ChebKind.SECOND, n, 0.0) == n + 1
        assert eval_cheb_trig(ChebKind.SECOND, n, math.pi) == sign * (n + 1)
        assert eval_cheb_trig(ChebKind.THIRD, n, math.pi) == sign * (2 * n + 1)
        assert eval_cheb_trig(ChebKind.FOURTH, n, 0.0) == 2 * n + 1


def test_third_fourth_product_is_second_kind():
    # V_n(t) W_n(t) = U_{2n}(t), a cross-family identity that exercises all
    # three quotient forms at once
    for n in range(7):
        for t in np.linspace(-0.95, 0.95, 11):
            t = float(t)
            prod = eval_cheb(ChebKind.THIRD, n, t) * eval_cheb(ChebKind.FOURTH, n, t)
            assert prod == pytest.approx(eval_cheb(ChebKind.SECOND, 2 * n, t), abs=1e-12)


def test_first_kind_from_second_kind_difference():
    # 2 T_n = U_n - U_{n-2} for n >= 2
    for n in range(2, 9):
        for t in (-0.7, -0.1, 0.33, 0.9):
            lhs = 2.0 * eval_cheb(ChebKind.FIRST, n, t)
            rhs = eval_cheb(ChebKind.SECOND, n, t) - eval_cheb(ChebKind.SECOND, n - 2, t)
            assert lhs == pytest.approx(rhs, abs=1e-13)


def test_clamp_reference_band():
    assert clamp_reference(1.0 + 5e-13) == 1.0
    assert clamp_reference(-1.0 - 5e-13) == -1.0
    assert clamp_reference(0.25) == 0.25
    with pytest.raises(ValueError):
        clamp_reference(1.0 + 1e-11)
    with pytest.raises(ValueError):
        clamp_reference(-1.01)


def test_clamp_reference_rejects_nan():
    # min/max would turn NaN into the endpoint -1
    with pytest.raises(ValueError, match="nan"):
        clamp_reference(math.nan)


def test_interval_basics():
    iv = Interval(-0.5, 1.0)
    assert iv.h == 1.5
    assert iv.midpoint == 0.25
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)


def test_interval_rejects_overflowing_width():
    # finite endpoints whose length (or midpoint) is not a finite float
    with pytest.raises(ValueError, match="too wide"):
        Interval(-1e308, 1e308)
    with pytest.raises(ValueError, match="too wide"):
        Interval(1e308, 1.7e308)


def test_affine_map_endpoints_and_roundtrip():
    iv = Interval(-0.5, 1.0)
    assert affine_map(iv, -1.0) == -0.5
    assert affine_map(iv, 1.0) == 1.0
    assert affine_map(iv, 0.0) == 0.25
    for t in np.linspace(-1.0, 1.0, 17):
        t = float(t)
        assert affine_inverse(iv, affine_map(iv, t)) == pytest.approx(t, abs=1e-15)
    with pytest.raises(ValueError):
        affine_inverse(iv, 1.5)
    # round-off spill just past an endpoint clamps instead of raising
    assert affine_inverse(iv, 1.0 + 1e-13) == 1.0


def test_affine_inverse_rejects_nan():
    with pytest.raises(ValueError, match="nan"):
        affine_inverse(Interval(-0.5, 1.0), math.nan)


def test_gamma_normalizers():
    assert gamma(0) == 1
    assert gamma(1) == 2
    assert gamma(7) == 2
    with pytest.raises(ValueError):
        gamma(-1)
    assert gamma_tilde(0, 5) == 2
    assert gamma_tilde(4, 5) == 2
    assert gamma_tilde(2, 5) == 1
    assert gamma_tilde(0, 1) == 2
    with pytest.raises(ValueError):
        gamma_tilde(5, 5)
    with pytest.raises(ValueError):
        gamma_tilde(-1, 5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: eval_cheb(ChebKind.FIRST, True, 0.3), "degree must be an integer, got True"),
        (lambda: eval_cheb(ChebKind.FIRST, 2.0, 0.3), "degree must be an integer, got 2.0"),
        (lambda: eval_cheb_trig(ChebKind.SECOND, 2.0, 0.3), "degree must be an integer, got 2.0"),
        (lambda: gamma(True), "index must be an integer, got True"),
        (lambda: gamma(1.5), "index must be an integer, got 1.5"),
        (lambda: gamma_tilde(1.0, 5), "index j must be an integer, got 1.0"),
        (lambda: gamma_tilde(0, True), "node count n must be an integer, got True"),
    ],
    ids=["eval-bool", "eval-float", "trig-float", "gamma-bool", "gamma-float",
         "gamma-tilde-float-j", "gamma-tilde-bool-n"],
)
def test_indices_must_be_integers(call, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        call()


def test_numpy_integer_indices_are_accepted():
    assert eval_cheb(ChebKind.THIRD, np.int64(3), 0.2) == eval_cheb(ChebKind.THIRD, 3, 0.2)
    assert eval_cheb_trig(ChebKind.FIRST, np.uint8(2), 0.4) == eval_cheb_trig(ChebKind.FIRST, 2, 0.4)
    assert gamma(np.int32(0)) == 1
    assert gamma_tilde(np.int64(4), np.int64(5)) == 2


def test_domain_errors():
    with pytest.raises(ValueError):
        eval_cheb(ChebKind.FIRST, -1, 0.0)
    with pytest.raises(ValueError):
        eval_cheb(ChebKind.FIRST, 3, 1.5)
    with pytest.raises(ValueError):
        eval_cheb_trig(ChebKind.SECOND, -2, 0.5)
    with pytest.raises(ValueError):
        eval_cheb_trig(ChebKind.SECOND, 2, -0.5)
    with pytest.raises(ValueError):
        eval_cheb_trig(ChebKind.SECOND, 2, math.pi + 0.5)


def test_eval_cheb_trig_rejects_nan():
    for kind in KINDS:
        with pytest.raises(ValueError, match="nan"):
            eval_cheb_trig(kind, 3, math.nan)
