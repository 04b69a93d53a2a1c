import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from numpy.testing import assert_allclose

import ultrasph.gegenbauer
import ultrasph.harmonics
from ultrasph.cli import main
from ultrasph.gegenbauer import (
    assoc,
    deriv_at_one,
    norm_factor,
    ode_residual,
    poly,
    poly_deriv,
    poly_reference,
)
from ultrasph.geometry import UltrasphericalPoint, _check_int, solid_angle
from ultrasph.harmonics import axis_factors, harmonic_values
from ultrasph.quadrature import theta_rule
from ultrasph.solver import BoundaryProblem, eval_expansion, fit_annulus

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
    """alpha(m, d), the constant m-th derivative of P_{m,d}: deriv_at_one(m, m, d)."""

    def test_empty_product(self):
        for d in range(3, 9):
            assert deriv_at_one(0, 0, d) == 1.0

    def test_single_factor(self):
        assert deriv_at_one(1, 1, 5) == 3.0

    def test_direct_product(self):
        assert deriv_at_one(2, 2, 3) == 3.0  # (1)(3)
        assert deriv_at_one(3, 3, 6) == 4.0 * 6.0 * 8.0


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


# The exact-rational routines these functions had when every constant
# went through fractions.Fraction; the integer versions must return the
# same doubles bit for bit and fail with the same exception types.


def _poly_reference_exact_fraction(l, d, x):
    lam = Fraction(d - 2, 2)
    k0 = (l + 1) // 2
    cb = Fraction(1)
    for i in range(1, k0 + 1):
        cb *= (lam + i - 1) / i
    two_x = 2 * Fraction(x)
    total = Fraction(0)
    for k in range(k0, l + 1):
        j = l - k
        total += cb * math.comb(k, j) * two_x ** (2 * k - l) * (-1) ** j
        cb *= (lam + k) / (k + 1)
    return float(total)


def poly_reference_fraction(l, d, x):
    l = _check_int(l, "degree", 0)
    d = _check_int(d, "dimension", 3)
    xa = np.asarray(x, dtype=float)
    flat = [_poly_reference_exact_fraction(l, d, float(v)) for v in np.atleast_1d(xa).ravel()]
    if xa.ndim == 0:
        return flat[0]
    return np.asarray(flat).reshape(xa.shape)


def deriv_at_one_fraction(l, n, d):
    l = _check_int(l, "degree", 0)
    n = _check_int(n, "order", 0)
    d = _check_int(d, "dimension", 3)
    if n > l:
        return 0.0
    num = math.prod(range(d - 2, d + 2 * n - 2, 2)) * math.factorial(d + n + l - 3)
    den = math.factorial(l - n) * math.factorial(d + 2 * n - 3)
    return float(Fraction(num, den))


def norm_factor_fraction(l, n, d):
    l = _check_int(l, "degree", 0)
    n = _check_int(n, "order", 0)
    d = _check_int(d, "dimension", 3)
    if n > l:
        raise ValueError(f"order n={n} exceeds degree l={l}")
    ratio = Fraction(2 * l + d - 2, d - 2) * Fraction(
        math.factorial(d - 3) * math.factorial(l - n), math.factorial(d + l + n - 3)
    )
    return math.sqrt(float(ratio) * solid_angle(d - 1) / solid_angle(d))


def _outcome(f, *args):
    """("value", bit pattern) of a result, or ("raises", exception type)."""
    try:
        value = f(*args)
    except (ValueError, OverflowError) as exc:
        return "raises", type(exc)
    if isinstance(value, np.ndarray):
        return "value", (value.dtype, value.shape, value.tobytes())
    return "value", (type(value), float(value).hex())


def _orders(l):
    """Orders 0, 1, l/3, l/2, l-1, l and l+1 (past the degree) for degree l."""
    return sorted({0, min(1, l), l // 3, l // 2, max(l - 1, 0), l, l + 1})


class TestExactIntegerArithmetic:
    X_SPECIAL = np.array([1.0, -1.0, 0.0, -0.0, 5e-324, 1e-300, 0.5])

    @pytest.mark.parametrize("d", range(3, 13))
    def test_poly_reference_bitwise(self, d):
        rng = np.random.default_rng(700 + d)
        xs = np.concatenate([self.X_SPECIAL, rng.uniform(-1.0, 1.0, 30)])
        for l in range(41):
            assert _outcome(poly_reference, l, d, xs) == \
                _outcome(poly_reference_fraction, l, d, xs)
            for x in (0.5, -0.0):  # a scalar x gives a Python float
                assert _outcome(poly_reference, l, d, x) == \
                    _outcome(poly_reference_fraction, l, d, x)

    def test_poly_reference_out_of_range_x(self):
        for x in (np.inf, -np.inf, np.nan, 1e300, -3.5):
            for l in (0, 1, 7, 40):
                assert _outcome(poly_reference, l, 5, x) == \
                    _outcome(poly_reference_fraction, l, 5, x)

    @pytest.mark.parametrize("d", range(3, 21))
    def test_norm_factor_and_deriv_at_one_bitwise(self, d):
        for l in range(181):
            for n in _orders(l):
                assert _outcome(norm_factor, l, n, d) == _outcome(norm_factor_fraction, l, n, d)
                assert _outcome(deriv_at_one, l, n, d) == \
                    _outcome(deriv_at_one_fraction, l, n, d)

    def test_large_arguments_overflow_and_underflow_as_before(self):
        # deriv_at_one leaves the double range, norm_factor underflows to 0.0
        assert _outcome(deriv_at_one, 180, 180, 20) == ("raises", OverflowError)
        assert norm_factor(180, 180, 20) == norm_factor_fraction(180, 180, 20) == 0.0

    @pytest.mark.parametrize("d", range(3, 21))
    def test_alpha_factor_is_deriv_at_one(self, d):
        # poly_deriv(m, m, d, x) is alpha(m, d) P_{0,d+2m} = alpha(m, d), rounded once
        for m in range(181):
            assert _outcome(poly_deriv, m, m, d, 0.5) == _outcome(deriv_at_one_fraction, m, m, d)

    @pytest.mark.parametrize("arg", (2.0, True, np.int64(2), np.int32(3), -1, "2"))
    def test_argument_types_accepted_or_rejected_as_before(self, arg):
        cases = [
            (poly_reference, poly_reference_fraction, [(arg, 4, 0.3), (2, arg, 0.3)]),
            (norm_factor, norm_factor_fraction, [(arg, 1, 4), (3, arg, 4), (3, 1, arg)]),
            (deriv_at_one, deriv_at_one_fraction, [(arg, 1, 4), (3, arg, 4), (3, 1, arg)]),
        ]
        for new, old, arg_lists in cases:
            for args in arg_lists:
                assert _outcome(new, *args) == _outcome(old, *args)
                if _outcome(old, *args)[0] == "raises":
                    with pytest.raises(ValueError) as err_new:
                        new(*args)
                    with pytest.raises(ValueError) as err_old:
                        old(*args)
                    assert str(err_new.value) == str(err_old.value)


def _no_fraction(*args, **kwargs):
    raise AssertionError("fractions.Fraction used on a per-call path")


class TestNoFractionOnHotPaths:
    def test_constants_and_tables(self, monkeypatch):
        monkeypatch.setattr(ultrasph.gegenbauer, "Fraction", _no_fraction)
        assert norm_factor(5, 2, 6) == norm_factor_fraction(5, 2, 6)
        assert deriv_at_one(7, 3, 4) == deriv_at_one_fraction(7, 3, 4)
        assert axis_factors(5, 6, np.linspace(0.0, math.pi, 9)).shape == (7, 7, 9)
        point = UltrasphericalPoint(5, 1.0, (0.4, 1.1, 2.0), 0.3)
        assert harmonic_values(point, 4).shape == (105,)

    def test_solve_and_eval(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ultrasph.gegenbauer, "Fraction", _no_fraction)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "d": 5, "kind": "annulus", "radii": [0.5, 2.0], "lmax": 3,
            "boundary": [{"radius": 0.5, "data": "harmonic:(3,2,1;-1)"},
                         {"radius": 2.0, "data": "harmonic:(2,0,0;0)"}],
        }))
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"points": [
            {"cartesian": [0.3, -0.2, 0.5, 0.1, 0.6]},
            {"ultraspherical": {"r": 1.2, "theta": [0.5, 1.2, 2.0], "phi": 4.0}},
        ]}))
        coeffs = str(tmp_path / "coeffs.json")
        assert main(["solve", str(config), "-o", coeffs]) == 0
        assert main(["eval", coeffs, str(points)]) == 0
        assert len(json.loads(capsys.readouterr().out)["values"]) == 2

    def test_poly_reference_builds_its_series_once_per_call(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return Fraction(*args)

        monkeypatch.setattr(ultrasph.gegenbauer, "Fraction", counting)
        poly_reference(12, 6, 0.3)
        once = len(calls)
        calls.clear()
        poly_reference(12, 6, X_GRID)
        assert 0 < once == len(calls)


def _no_constant(*args, **kwargs):
    raise AssertionError("norm_factor or exact integer arithmetic used on a bulk path")


class TestNoNormalizationConstantOnBulkPaths:
    def test_tables_values_fit_and_eval(self, monkeypatch):
        monkeypatch.setattr(ultrasph.harmonics, "norm_factor", _no_constant)
        monkeypatch.setattr(math, "factorial", _no_constant)
        assert axis_factors(5, 6, np.linspace(0.0, math.pi, 9)).shape == (7, 7, 9)
        point = UltrasphericalPoint(5, 1.0, (0.4, 1.1, 2.0), 0.3)
        assert harmonic_values(point, 4).shape == (105,)
        problem = BoundaryProblem(
            4, "annulus", (0.5, 2.0), 3, (lambda p: np.cos(p.theta[0]), lambda p: 1.0 + 0 * p.phi)
        )
        expansion = fit_annulus(problem)
        value = eval_expansion(expansion, 1.2, UltrasphericalPoint(4, 1.2, (0.5, 2.0), 4.0))
        assert np.isfinite(value)
