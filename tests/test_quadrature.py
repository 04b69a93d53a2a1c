import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from ultrasph.geometry import solid_angle
from ultrasph.harmonics import MultiIndex, axis_factors, enumerate_indices, eval_harmonic, eval_psi
from ultrasph.quadrature import sphere_grid, theta_rule, weight_total
from ultrasph.verify import _moment


def grid_inner(f, g, grid):
    """<f, g> = sum w f conj(g) over the grid, for values at the grid nodes."""
    return np.sum(grid.weights * f * np.conj(g))


def sin_power_moment(k, alpha):
    """Analytic int_0^pi cos^k sin^alpha dtheta via the reduction formula."""
    if k % 2 == 1:
        return 0.0
    val = math.sqrt(math.pi) * math.gamma((alpha + 1) / 2) / math.gamma(alpha / 2 + 1)
    for j in range(2, k + 1, 2):
        val *= (j - 1) / (j + alpha)
    return val


class TestThetaRule:
    def test_unit_integrand_alpha1(self):
        assert_allclose(theta_rule(1, 2).integrate(lambda t: np.ones_like(t)), 2.0,
                        rtol=1e-14)

    def test_unit_integrand_alpha2(self):
        assert_allclose(theta_rule(2, 3).total_weight(), math.pi / 2, rtol=1e-13)

    def test_cos_squared_alpha2(self):
        rule = theta_rule(2, 4)
        got = rule.integrate(np.cos(rule.nodes) ** 2)
        assert_allclose(got, math.pi / 8, rtol=1e-13)

    def test_high_weight_exponent(self):
        # Gamma(150.5)^2 overflows a double; the mass is formed in logs
        rule = theta_rule(300, 6)
        total = rule.total_weight()
        assert_allclose(total, math.sqrt(math.pi) * math.exp(math.lgamma(150.5) - math.lgamma(151)),
                        rtol=1e-13)
        assert_allclose(rule.integrate(np.cos(rule.nodes) ** 2) / total, 1 / 302, rtol=1e-13)

    def test_weight_total_past_the_gamma_overflow(self):
        # mpmath: 0.12525310615320497864...
        assert_allclose(weight_total(400), 0.12525310615320498, rtol=1e-13)
        assert_allclose(theta_rule(400, 3).total_weight(), weight_total(400), rtol=1e-13)

    @pytest.mark.parametrize("alpha", (60, 61, 400, 601, 1000))
    def test_total_weight_at_large_alpha_is_exact_to_rounding(self, alpha):
        # (alpha-1)!!/alpha!! times pi (alpha even) or 2 (odd), rounded twice; a
        # mass from lgamma at (alpha-1)/2 was off by 2.1e-14 at 60 and 7.4e-14 at 601
        ratio = Fraction(math.prod(range(alpha - 1, 0, -2)), math.prod(range(alpha, 0, -2)))
        exact = float(ratio) * (math.pi if alpha % 2 == 0 else 2.0)
        for n in (1, 5, 40):
            assert abs(theta_rule(alpha, n).total_weight() / exact - 1.0) <= 3e-15

    @pytest.mark.parametrize("alpha", range(1, 7))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_monomial_exactness(self, alpha, n):
        rule = theta_rule(alpha, n)
        x = np.cos(rule.nodes)
        for k in range(2 * n):
            exact = sin_power_moment(k, alpha)
            got = rule.integrate(x**k)
            assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))

    @pytest.mark.parametrize("alpha", range(1, 7))
    def test_weight_sum_and_positivity(self, alpha):
        # sizes where a weight built on the product of the recurrence
        # coefficients underflows: digits lost, then 0 (n = 540..543), then NaN
        large = (520, 539, 540, 544, 1002) if alpha in (1, 2, 6) else ()
        for n in (1, 4, 9, 12) + large:
            rule = theta_rule(alpha, n)
            assert np.all(np.isfinite(rule.weights)) and np.all(rule.weights > 0)
            bound = 1e-12 if n <= 12 else 1e-13 * weight_total(alpha)
            assert abs(rule.total_weight() - weight_total(alpha)) <= bound

    def test_orthonormal_gram_under_the_rule(self):
        # q_0..q_{n-1} of (1-x^2)^0 are column 0 of the d = 3 tables
        n = 102
        rule = theta_rule(1, n)
        q = axis_factors(3, n - 1, rule.nodes)[:, 0]
        gram = (q * rule.weights) @ q.T
        assert np.max(np.abs(gram - np.eye(n))) <= 2e-14

    def test_nodes_increasing_and_symmetric(self):
        for alpha, n in ((1, 8), (3, 9), (6, 12)):
            rule = theta_rule(alpha, n)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.max(np.abs(rule.nodes + rule.nodes[::-1] - math.pi)) <= 1e-13
            assert np.max(np.abs(rule.weights - rule.weights[::-1])) <= 1e-13

    @pytest.mark.parametrize("alpha,n", [(1, 5), (2, 7), (4, 9), (6, 12)])
    def test_against_scipy_gauss_jacobi(self, alpha, n):
        delta = (alpha - 1) / 2
        x_ref, w_ref = scipy.special.roots_jacobi(n, delta, delta)
        rule = theta_rule(alpha, n)
        assert_allclose(np.cos(rule.nodes)[::-1], x_ref, atol=1e-13)
        assert_allclose(rule.weights[::-1], w_ref, rtol=1e-11)

    @pytest.mark.parametrize("alpha", (1, 2))
    def test_matches_closed_forms(self, alpha):
        # alpha = 1 is Gauss-Legendre in x = cos(theta); alpha = 2 is
        # Gauss-Chebyshev of the second kind, theta_j = j pi / (n+1).
        # Node errors scale like n eps, weight errors like n^2 eps.
        eps = np.finfo(float).eps
        for n in range(1, 101):
            if alpha == 1:
                x, w = np.polynomial.legendre.leggauss(n)
                nodes, weights = np.arccos(x[::-1]), w[::-1]
            else:
                nodes = np.arange(1, n + 1) * math.pi / (n + 1)
                weights = math.pi / (n + 1) * np.sin(nodes) ** 2
            rule = theta_rule(alpha, n)
            assert_allclose(rule.nodes, nodes, rtol=0, atol=4 * n * eps)
            assert_allclose(rule.weights, weights, rtol=32 * n * n * eps)

    @pytest.mark.parametrize("alpha", range(1, 8))
    def test_pair_mirror_symmetry_is_exact(self, alpha):
        for n in range(1, 41):
            rule = theta_rule(alpha, n)
            low = rule.nodes[: n // 2]
            assert np.array_equal(rule.nodes[::-1][: n // 2], math.pi - low)
            assert np.array_equal(rule.weights, rule.weights[::-1])
            if n % 2 == 1:
                assert rule.nodes[n // 2] == math.pi / 2

    def test_large_rule_integrates_all_its_monomials(self):
        rule = theta_rule(5, 200)
        cos_t = np.cos(rule.nodes)
        for k in range(400):
            exact = _moment(k, 5)
            assert abs(rule.integrate(cos_t**k) - exact) <= 1e-13 * max(1.0, abs(exact))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            theta_rule(0, 4)
        with pytest.raises(ValueError):
            theta_rule(2, 0)

    def test_each_rule_is_built_once_and_read_only(self):
        rule = theta_rule(1, 3)
        assert theta_rule(1, 3) is rule
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights *= 2.0

    def test_cached_rule_keeps_the_integer_check(self):
        rule = theta_rule(1, 3)
        for alpha in (True, 1.0):
            with pytest.raises(ValueError, match="alpha"):
                theta_rule(alpha, 3)
        with pytest.raises(ValueError, match="node count"):
            theta_rule(1, 3.0)
        assert theta_rule(np.int64(1), np.int64(3)) is rule


class TestSphereGrid:
    def test_each_grid_is_built_once_and_keeps_no_node_mesh(self):
        grid = sphere_grid(5, 3)
        assert sphere_grid(5, 3) is grid and sphere_grid(np.int64(5), np.int64(3)) is grid
        assert not grid.phi_nodes.flags.writeable
        points, weights = grid.points, grid.weights
        assert points.phi.shape == weights.shape == (grid.size,)
        assert "points" not in vars(grid) and "weights" not in vars(grid)

    @pytest.mark.parametrize("d, lmax, name", [
        (True, 3, "dimension"), (3.0, 3, "dimension"), (2, 3, "dimension"),
        (3, True, "lmax"), (3, 1.0, "lmax"), (3, -1, "lmax"),
    ])
    def test_shared_grid_keeps_the_integer_check(self, d, lmax, name):
        with pytest.raises(ValueError, match=name):
            sphere_grid(d, lmax)

    @pytest.mark.parametrize("d", range(3, 8))
    def test_total_weight_is_solid_angle(self, d):
        grid = sphere_grid(d, 4)
        assert abs(grid.total_weight() - solid_angle(d)) <= 1e-10

    def test_total_weight_is_the_product_of_the_axis_sums(self):
        for d in range(3, 9):
            for lmax in range(5):
                grid = sphere_grid(d, lmax)
                whole = float(np.sum(grid.weights))
                assert abs(grid.total_weight() - whole) <= 1e-15 * whole
        # d = 8, lmax 4: 466,560 weights, 3.7 MB as one tensor
        tracemalloc.start()
        try:
            grid.total_weight()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.size * 8 == 3_732_480 and peak < 64 * 2**10

    def test_constant_harmonic_normalized(self):
        grid = sphere_grid(4, 3)
        y0 = MultiIndex(4, 0, (0, 0))
        y = eval_harmonic(y0, grid.points)
        val = grid_inner(y, y, grid)
        assert abs(val - 1.0) <= 1e-12

    @pytest.mark.parametrize("d", (3, 4, 5))
    def test_mean_of_higher_harmonics_vanishes(self, d):
        grid = sphere_grid(d, 4)
        ones = np.ones(grid.size)
        for l in (1, 2, 3):
            for idx in enumerate_indices(d, l):
                val = grid_inner(eval_harmonic(idx, grid.points), ones, grid)
                assert abs(val) <= 1e-10


class TestInnerProduct:
    def test_gram_pair(self):
        grid = sphere_grid(4, 4)
        a = MultiIndex(4, 2, (1, 1))
        b = MultiIndex(4, 3, (1, -1))
        ya = np.asarray(eval_harmonic(a, grid.points))
        yb = np.asarray(eval_harmonic(b, grid.points))
        assert abs(grid_inner(ya, ya, grid) - 1.0) <= 1e-10
        assert abs(grid_inner(ya, yb, grid)) <= 1e-10

    def test_unnormalized_axisymmetric_mode_d3(self):
        # int cos^2(theta) dOmega_3 = 4 pi / 3
        grid = sphere_grid(3, 2)
        psi = MultiIndex(3, 1, (0,))
        y = eval_psi(psi, grid.points)
        val = grid_inner(y, y, grid)
        assert_allclose(val.real, 4 * math.pi / 3, rtol=1e-12)
        assert abs(val.imag) <= 1e-14
