import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from numpy.testing import assert_allclose

from ultrasph.gegenbauer import (
    alpha_factor,
    assoc,
    deriv_at_one,
    norm_factor,
    ode_residual,
    poly,
    poly_deriv,
    poly_reference,
)
from ultrasph.quadrature import theta_rule

X_GRID = np.linspace(-1.0, 1.0, 21)


class TestPoly:
    def test_degree_zero_is_one(self):
        for d in range(3, 9):
            assert poly(0, d, 0.31) == 1.0
        assert_allclose(poly(0, 4, X_GRID), np.ones_like(X_GRID))

    def test_degree_one(self):
        assert poly(1, 5, 0.5) == 1.5  # (d-2) x

    def test_legendre_d3(self):
        # (3 x^2 - 1)/2 at x = 0.3
        assert_allclose(poly(2, 3, 0.3), -0.365, rtol=1e-14)
        for l in range(9):
            assert_allclose(
                poly(l, 3, X_GRID),
                scipy.special.eval_legendre(l, X_GRID),
                atol=1e-13,
            )

    def test_matches_scipy_gegenbauer(self):
        for d in (4, 5, 6, 8):
            lam = (d - 2) / 2
            for l in range(9):
                assert_allclose(
                    poly(l, d, X_GRID),
                    scipy.special.eval_gegenbauer(l, lam, X_GRID),
                    rtol=1e-11, atol=1e-11,
                )

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            poly(-1, 3, 0.0)


class TestPolyReference:
    def test_degree_zero(self):
        assert poly_reference(0, 6, -0.2) == 1.0

    @pytest.mark.parametrize("d", range(3, 9))
    def test_recurrence_agrees_with_binomial_oracle(self, d):
        for l in range(11):
            a = np.asarray(poly(l, d, X_GRID))
            b = np.asarray(poly_reference(l, d, X_GRID))
            assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) <= 1e-12

    @pytest.mark.parametrize("d", (3, 4))
    def test_partial_sums_converge_to_generating_function(self, d, tail_bound_depth):
        r = 0.4
        level_cap = tail_bound_depth(r, d, 1e-12)
        for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
            total = sum(r**l * poly_reference(l, d, x)
                        for l in range(level_cap + 1))
            closed = (1 + r * r - 2 * r * x) ** (-(d - 2) / 2)
            assert abs(total - closed) <= 1e-10


class TestAlphaFactor:
    def test_empty_product(self):
        for d in range(3, 9):
            assert alpha_factor(0, d) == 1.0

    def test_single_factor(self):
        assert alpha_factor(1, 5) == 3.0

    def test_direct_product(self):
        assert alpha_factor(2, 3) == 3.0  # (1)(3)
        assert alpha_factor(3, 6) == 4.0 * 6.0 * 8.0


def _fd_first(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestPolyDeriv:
    def test_zeroth_derivative(self):
        assert_allclose(poly_deriv(5, 0, 4, X_GRID), poly(5, 4, X_GRID), atol=0)

    def test_beyond_degree_vanishes(self):
        assert poly_deriv(3, 4, 5, 0.7) == 0.0
        assert np.all(np.asarray(poly_deriv(2, 3, 6, X_GRID)) == 0.0)

    def test_first_derivative_matches_central_difference(self):
        got = poly_deriv(3, 1, 3, 0.2)
        fd = _fd_first(lambda t: poly(3, 3, t), 0.2)
        assert abs(got - fd) <= 1e-8

    @pytest.mark.parametrize("d", (3, 4, 6))
    def test_higher_derivatives_step_down(self, d):
        # each order is the derivative of the previous one
        xs = np.array([-0.6, 0.1, 0.7])
        for l in range(2, 7):
            for m in range(1, min(l, 3) + 1):
                got = np.asarray(poly_deriv(l, m, d, xs))
                fd = _fd_first(lambda t, m=m: np.asarray(poly_deriv(l, m - 1, d, t)), xs)
                assert np.max(np.abs(got - fd) / np.maximum(1.0, np.abs(got))) <= 1e-7


class TestDerivAtOne:
    def test_legendre_value_at_one(self):
        for l in range(9):
            assert deriv_at_one(l, 0, 3) == 1.0

    def test_legendre_slope_at_one(self):
        assert deriv_at_one(4, 1, 3) == 10.0  # l(l+1)/2

    def test_d5_value(self):
        assert deriv_at_one(2, 0, 5) == 6.0
        assert_allclose(poly(2, 5, 1.0), 6.0, rtol=1e-14)

    def test_beyond_degree(self):
        assert deriv_at_one(3, 4, 5) == 0.0

    @pytest.mark.parametrize("d", range(3, 8))
    def test_matches_dimension_shift_at_one(self, d):
        for l in range(9):
            for n in range(l + 1):
                exact = deriv_at_one(l, n, d)
                shift = poly_deriv(l, n, d, 1.0)
                assert abs(exact - shift) <= 1e-10 * max(1.0, abs(exact))


class TestAssoc:
    def test_order_zero(self):
        t = np.linspace(0.1, 3.0, 7)
        assert_allclose(assoc(4, 0, 5, t), poly(4, 5, np.cos(t)), atol=0)

    def test_classic_p11(self):
        assert_allclose(assoc(1, 1, 3, math.pi / 2), 1.0, rtol=1e-15)

    def test_pole_zero_for_positive_order(self):
        assert assoc(3, 1, 4, 0.0) == 0.0
        assert assoc(3, 2, 4, 0.0) == 0.0

    def test_beyond_degree_vanishes(self):
        assert assoc(2, 3, 4, 1.0) == 0.0

    def test_matches_scipy_lpmv_without_phase(self):
        # scipy's lpmv carries the Condon-Shortley factor (-1)^m
        t = np.linspace(0.05, math.pi - 0.05, 11)
        for l in range(6):
            for m in range(l + 1):
                ours = np.asarray(assoc(l, m, 3, t))
                ref = (-1.0) ** m * scipy.special.lpmv(m, l, np.cos(t))
                assert_allclose(ours, ref, atol=1e-12)

    @pytest.mark.parametrize("d", (3, 4, 5, 6))
    def test_fixed_order_orthogonality(self, d):
        # int sin^(d-2) assoc_l assoc_l' dtheta = 0 for l != l'; tested on
        # unit-normalized functions so 1e-10 is meaningful at every scale
        rule = theta_rule(d - 2, 10)
        for m in range(3):
            vals = {
                l: norm_factor(l, m, d) * np.asarray(assoc(l, m, d, rule.nodes))
                for l in range(m, 7)
            }
            for l in range(m, 7):
                for lp in range(m, l):
                    ip = rule.integrate(vals[l] * vals[lp])
                    assert abs(ip) <= 1e-10


class TestNormFactor:
    def test_constant_d4(self):
        want = math.sqrt(2 / math.pi)
        assert_allclose(norm_factor(0, 0, 4), want, rtol=1e-14)
        integral, _ = scipy.integrate.quad(lambda t: math.sin(t) ** 2, 0, math.pi)
        assert_allclose(want**2 * integral, 1.0, rtol=1e-12)

    def test_legendre_l1(self):
        assert_allclose(norm_factor(1, 0, 3), math.sqrt(1.5), rtol=1e-14)
        integral, _ = scipy.integrate.quad(
            lambda t: math.sin(t) * math.cos(t) ** 2, 0, math.pi
        )
        assert_allclose(1.5 * integral, 1.0, rtol=1e-12)

    def test_rejects_n_above_l(self):
        with pytest.raises(ValueError):
            norm_factor(2, 3, 4)

    @pytest.mark.parametrize("d", range(3, 8))
    def test_normalizes_adaptive_quadrature(self, d):
        # independent oracle: adaptive quadrature instead of the Gauss rule
        for l in (0, 2, 5):
            for n in (0, min(1, l), l):
                val, _ = scipy.integrate.quad(
                    lambda t: math.sin(t) ** (d - 2) * assoc(l, n, d, t) ** 2,
                    0.0,
                    math.pi,
                )
                assert abs(norm_factor(l, n, d) ** 2 * val - 1.0) <= 1e-9


class TestOdeResidual:
    def test_constant_mode_exactly_zero(self):
        assert ode_residual(0, 0, 5, 1.3) == 0.0

    def test_d3_l2_m1(self):
        resid = ode_residual(2, 1, 3, 1.0)
        scale = max(1.0, abs(assoc(2, 1, 3, 1.0)) * 2 * 3)
        assert abs(resid) <= 1e-9 * scale

    def test_d6_l4_m2(self):
        resid = ode_residual(4, 2, 6, 2.0)
        scale = max(1.0, abs(assoc(4, 2, 6, 2.0)) * 4 * 8)
        assert abs(resid) <= 1e-9 * scale

    @pytest.mark.parametrize("d", (3, 4, 5, 6))
    def test_small_everywhere(self, d):
        thetas = np.linspace(0.2, math.pi - 0.2, 9)
        for l in range(6):
            for m in range(l + 1):
                resid = np.asarray(ode_residual(l, m, d, thetas))
                p = np.asarray(assoc(l, m, d, thetas))
                scale = np.maximum(1.0, np.abs(p) * max(1, l * (l + d - 2)))
                assert np.max(np.abs(resid) / scale) <= 1e-9

    def test_rejects_endpoints(self):
        with pytest.raises(ValueError):
            ode_residual(2, 1, 3, 1e-5)
        with pytest.raises(ValueError):
            ode_residual(2, 1, 3, math.pi)
