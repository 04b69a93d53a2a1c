import math

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from ultrasph.gegenbauer import assoc, norm_factor, poly
from ultrasph.geometry import UltrasphericalPoint, cos_gamma, solid_angle
from ultrasph.harmonics import (
    MultiIndex,
    addition_reduced,
    addition_sum,
    axis_factors,
    count,
    enumerate_indices,
    eval_harmonic,
    eval_psi,
    harmonic_values,
    harmonicity_residual,
    norm_coeff,
)
from ultrasph.quadrature import sphere_grid


def random_angles(rng, d):
    return UltrasphericalPoint(
        d,
        1.0,
        tuple(rng.uniform(0.25, math.pi - 0.25) for _ in range(d - 2)),
        rng.uniform(0.0, 2.0 * math.pi),
    )


class TestMultiIndex:
    def test_chain_accepted(self):
        idx = MultiIndex(6, 4, (3, 2, 2, -1))
        assert idx.axis_terms() == ((6, 4, 3), (5, 3, 2), (4, 2, 2), (3, 2, 1))

    def test_chain_violations_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex(4, 1, (2, 0))  # m_2 > l
        with pytest.raises(ValueError):
            MultiIndex(5, 3, (1, 2, 0))  # increases along the chain
        with pytest.raises(ValueError):
            MultiIndex(4, 2, (1, -2))  # |m_1| > m_2
        with pytest.raises(ValueError):
            MultiIndex(4, 2, (-1, 0))  # upper entries must be nonnegative

    def test_entries_must_be_integers(self):
        for d, l, m in ((3, 1, (0.7,)), (3, True, (0,)), (3, 1, (True,)),
                        (4, 2, (1.0, 0)), (3.0, 1, (0,))):
            with pytest.raises(ValueError, match="must be an integer"):
                MultiIndex(d, l, m)
        idx = MultiIndex(np.int64(4), np.int64(2), (np.int64(1), np.int64(-1)))
        assert idx == MultiIndex(4, 2, (1, -1))
        assert all(type(v) is int for v in (idx.d, idx.l) + idx.m)

    def test_length_must_match_dimension(self):
        with pytest.raises(ValueError):
            MultiIndex(5, 2, (1, 0))

    def test_hashable(self):
        assert MultiIndex(4, 2, (1, 1)) in {MultiIndex(4, 2, (1, 1))}


class TestCount:
    def test_spot_values(self):
        assert count(3, 2) == 5
        assert count(4, 2) == 9

    def test_level_zero(self):
        for d in range(3, 9):
            assert count(d, 0) == 1

    def test_non_integer_arguments_rejected(self):
        for d, l in ((3, True), (True, 1), (3, 1.0), (2, 1), (3, -1)):
            with pytest.raises(ValueError, match="must be an integer"):
                count(d, l)

    def test_d4_squares(self):
        for l in range(7):
            assert count(4, l) == (l + 1) ** 2


class TestEnumerate:
    def test_d3_level1(self):
        got = [(i.l, i.m) for i in enumerate_indices(3, 1)]
        assert got == [(1, (-1,)), (1, (0,)), (1, (1,))]

    def test_d4_level1(self):
        got = [i.m for i in enumerate_indices(4, 1)]
        assert got == [(0, 0), (1, -1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("d", range(3, 9))
    @pytest.mark.parametrize("l", range(7))
    def test_length_matches_count(self, d, l):
        assert len(enumerate_indices(d, l)) == count(d, l)

    def test_order_is_deterministic(self):
        assert enumerate_indices(5, 3) == enumerate_indices(5, 3)


class TestEvalPsi:
    def test_all_zero_index_is_one(self):
        rng = np.random.default_rng(8)
        for d in (3, 4, 6):
            idx = MultiIndex(d, 0, (0,) * (d - 2))
            assert eval_psi(idx, random_angles(rng, d)) == 1.0 + 0.0j

    def test_d3_axisymmetric_is_cos_theta(self):
        idx = MultiIndex(3, 1, (0,))
        for t in (0.3, 1.0, 2.5):
            p = UltrasphericalPoint(3, 1.0, (t,), 0.8)
            assert_allclose(eval_psi(idx, p), math.cos(t), rtol=1e-15)

    def test_d4_product_structure(self):
        idx = MultiIndex(4, 2, (1, 1))
        t4, t3, phi = 1.1, 0.6, 0.9
        p = UltrasphericalPoint(4, 1.0, (t4, t3), phi)
        want = assoc(2, 1, 4, t4) * assoc(1, 1, 3, t3) * np.exp(1j * phi)
        assert_allclose(eval_psi(idx, p), want, rtol=1e-14)

    def test_negative_m1_rejected(self):
        idx = MultiIndex(4, 1, (1, -1))
        with pytest.raises(ValueError):
            eval_psi(idx, UltrasphericalPoint(4, 1.0, (1.0, 1.0), 0.0))

    def test_dimension_mismatch(self):
        idx = MultiIndex(4, 1, (1, 1))
        with pytest.raises(ValueError):
            eval_psi(idx, UltrasphericalPoint(5, 1.0, (1.0, 1.0, 1.0), 0.0))


class TestNormCoeff:
    def test_constant_is_inverse_sqrt_solid_angle(self):
        for d in range(3, 8):
            idx = MultiIndex(d, 0, (0,) * (d - 2))
            assert_allclose(norm_coeff(idx), solid_angle(d) ** -0.5, rtol=1e-13)

    def test_classical_y10(self):
        assert_allclose(
            norm_coeff(MultiIndex(3, 1, (0,))), math.sqrt(3 / (4 * math.pi)),
            rtol=1e-14,
        )

    def test_invariant_under_m1_sign(self):
        a = norm_coeff(MultiIndex(5, 3, (2, 1, 1)))
        b = norm_coeff(MultiIndex(5, 3, (2, 1, -1)))
        assert a == b


class TestEvalHarmonic:
    def test_constant_everywhere(self):
        rng = np.random.default_rng(12)
        for d in (3, 5):
            idx = MultiIndex(d, 0, (0,) * (d - 2))
            val = eval_harmonic(idx, random_angles(rng, d))
            assert_allclose(val, solid_angle(d) ** -0.5, rtol=1e-13)

    def test_conjugation_of_negative_m1(self):
        rng = np.random.default_rng(13)
        for d in (3, 4, 6):
            for _ in range(5):
                p = random_angles(rng, d)
                pos = MultiIndex(d, 2, (2,) * (d - 3) + (1,))
                neg = MultiIndex(d, 2, (2,) * (d - 3) + (-1,))
                assert eval_harmonic(neg, p) == np.conj(eval_harmonic(pos, p))

    def test_d3_matches_classical_spherical_harmonics(self):
        # classical Y_l^m carries Condon-Shortley; ours differs by (-1)^m
        # for m >= 0 and agrees outright for m < 0
        rng = np.random.default_rng(14)
        for _ in range(5):
            p = random_angles(rng, 3)
            theta, phi = p.theta[0], p.phi
            for l in range(4):
                for m in range(-l, l + 1):
                    ours = eval_harmonic(MultiIndex(3, l, (m,)), p)
                    ref = scipy.special.sph_harm_y(l, m, theta, phi)
                    sign = (-1.0) ** m if m > 0 else 1.0
                    assert_allclose(ours, sign * ref, atol=1e-12)

    @pytest.mark.parametrize("d", (4, 5))
    def test_gram_matrix_is_identity(self, d):
        grid = sphere_grid(d, 6)
        indices = [i for l in range(4) for i in enumerate_indices(d, l)]
        values = np.vstack(
            [np.asarray(eval_harmonic(i, grid.points)) for i in indices]
        )
        gram = (values * grid.weights) @ values.conj().T
        assert np.max(np.abs(gram - np.eye(len(indices)))) <= 1e-8

    def test_psi_orthogonality_requires_all_indices_equal(self):
        # inner products vanish unless every chain entry coincides
        d = 4
        grid = sphere_grid(d, 5)
        indices = [i for l in range(4) for i in enumerate_indices(d, l)
                   if i.m[-1] >= 0]
        values = {i: np.asarray(eval_psi(i, grid.points)) for i in indices}
        for a in indices:
            for b in indices:
                ip = complex(np.sum(grid.weights * values[a] * np.conj(values[b])))
                if a != b:
                    assert abs(ip) <= 1e-10
                else:
                    assert abs(ip) > 1e-3


def axis_factors_reference(k, lmax, theta):
    """The table entry by entry, as norm_factor * assoc."""
    theta = np.asarray(theta, dtype=float)
    table = np.zeros((lmax + 1, lmax + 1) + theta.shape)
    for deg in range(lmax + 1):
        for order in range(deg + 1):
            table[deg, order] = norm_factor(deg, order, k) * np.asarray(
                assoc(deg, order, k, theta)
            )
    return table


def random_point_array(rng, d, shape):
    return UltrasphericalPoint(
        d,
        1.0,
        tuple(rng.uniform(0.0, math.pi, shape) for _ in range(d - 2)),
        rng.uniform(0.0, 2.0 * math.pi, shape),
    )


class TestAxisFactors:
    @pytest.mark.parametrize("k", range(3, 9))
    def test_one_pass_table_is_bitwise_the_entry_products(self, k):
        rng = np.random.default_rng(40 + k)
        thetas = (0.0, math.pi, 0.7, rng.uniform(0.0, math.pi, 13),
                  rng.uniform(0.0, math.pi, (3, 4)))
        for lmax in range(11):
            for theta in thetas:
                got = axis_factors(k, lmax, theta)
                want = axis_factors_reference(k, lmax, theta)
                assert got.shape == want.shape
                assert np.array_equal(got, want)


# levels per dimension for the harmonic_values comparison
_VALUE_LMAX = {3: 8, 4: 6, 5: 5, 6: 4, 7: 3, 8: 3}


class TestHarmonicValues:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_matches_eval_harmonic(self, d):
        rng = np.random.default_rng(50 + d)
        lmax = _VALUE_LMAX[d]
        indices = [i for l in range(lmax + 1) for i in enumerate_indices(d, l)]
        for point in (random_angles(rng, d), random_point_array(rng, d, (2, 5))):
            got = harmonic_values(point, lmax)
            want = np.array([eval_harmonic(i, point) for i in indices])
            assert got.shape == want.shape
            assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_single_level_is_a_slice_of_all_levels(self):
        rng = np.random.default_rng(57)
        point = random_point_array(rng, 5, (7,))
        full = harmonic_values(point, 4)
        start = sum(count(5, l) for l in range(3))
        assert np.array_equal(harmonic_values(point, 3, 3), full[start:start + count(5, 3)])

    def test_open_mesh_broadcasts_to_the_full_grid(self):
        grid = sphere_grid(4, 3)
        axes = np.ix_(*(rule.nodes for rule in grid.theta_rules), grid.phi_nodes)
        mesh = UltrasphericalPoint(4, 1.0, axes[:-1], axes[-1])
        got = harmonic_values(mesh, 3).reshape(-1, grid.size)
        assert_allclose(got, harmonic_values(grid.points, 3), rtol=1e-15, atol=0)


class TestAdditionSum:
    def test_level_zero_is_one(self):
        rng = np.random.default_rng(21)
        for d in (3, 4, 6):
            a, b = random_angles(rng, d), random_angles(rng, d)
            assert_allclose(addition_sum(d, 0, a, b), 1.0, rtol=1e-13)

    def test_coincident_points_give_value_at_one(self):
        rng = np.random.default_rng(22)
        for d in (3, 5):
            for l in (1, 3):
                a = random_angles(rng, d)
                assert_allclose(addition_sum(d, l, a, a), poly(l, d, 1.0),
                                rtol=1e-11)

    @pytest.mark.parametrize("d", (3, 4, 5, 6))
    def test_matches_polynomial_of_cos_gamma(self, d):
        rng = np.random.default_rng(23 + d)
        for l in range(5):
            for _ in range(10):
                a, b = random_angles(rng, d), random_angles(rng, d)
                direct = poly(l, d, cos_gamma(a, b))
                assert abs(addition_sum(d, l, a, b) - direct) <= 1e-8

    def test_array_points_give_one_sum_per_pair(self):
        rng = np.random.default_rng(25)
        for d in (3, 5, 7):
            a, b = random_point_array(rng, d, (6,)), random_point_array(rng, d, (6,))
            for l in range(4):
                got = addition_sum(d, l, a, b)
                assert isinstance(got, np.ndarray) and got.shape == (6,)
                for j in range(6):
                    aj = UltrasphericalPoint(d, 1.0, tuple(t[j] for t in a.theta), a.phi[j])
                    bj = UltrasphericalPoint(d, 1.0, tuple(t[j] for t in b.theta), b.phi[j])
                    one = addition_sum(d, l, aj, bj)
                    assert isinstance(one, float)
                    assert abs(got[j] - one) <= 1e-14 * max(1.0, abs(one))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(26)
        with pytest.raises(ValueError):
            addition_sum(4, 1, random_angles(rng, 4), random_angles(rng, 5))

    def test_trace_identity(self):
        # sum over one level of |Y|^2 is direction independent
        rng = np.random.default_rng(24)
        for d, l in ((4, 2), (5, 3)):
            want = (2 * l + d - 2) * poly(l, d, 1.0) / ((d - 2) * solid_angle(d))
            for _ in range(20):
                p = random_angles(rng, d)
                total = sum(
                    abs(eval_harmonic(i, p)) ** 2 for i in enumerate_indices(d, l)
                )
                assert abs(total - want) <= 1e-9 * max(1.0, want)


class TestAdditionReduced:
    def test_poles_reduce_to_endpoint_value(self):
        for d in (4, 5):
            for l in (0, 2, 4):
                got = addition_reduced(d, l, 0.0, 0.0, 0.37)
                assert_allclose(got, poly(l, d, 1.0), rtol=1e-12)

    def test_level_zero(self):
        assert_allclose(addition_reduced(5, 0, 0.9, 1.8, -0.3), 1.0, rtol=1e-13)

    @pytest.mark.parametrize("d", (4, 5, 6))
    def test_matches_full_recursion(self, d):
        rng = np.random.default_rng(31 + d)
        for l in range(5):
            for _ in range(5):
                a, b = random_angles(rng, d), random_angles(rng, d)
                lower_a = UltrasphericalPoint(d - 1, 1.0, a.theta[1:], a.phi)
                lower_b = UltrasphericalPoint(d - 1, 1.0, b.theta[1:], b.phi)
                got = addition_reduced(
                    d, l, a.theta[0], b.theta[0], cos_gamma(lower_a, lower_b)
                )
                assert abs(got - poly(l, d, cos_gamma(a, b))) <= 1e-9

    def test_d3_rejected(self):
        with pytest.raises(ValueError):
            addition_reduced(3, 2, 0.5, 0.5, 0.5)


class TestHarmonicity:
    def test_constant_has_no_fd_noise(self):
        rng = np.random.default_rng(41)
        idx = MultiIndex(4, 0, (0, 0))
        resid = harmonicity_residual(idx, 0.6, random_angles(rng, 4))
        assert resid <= 1e-10

    @pytest.mark.parametrize("branch", ("interior", "exterior"))
    def test_solid_harmonics_are_harmonic(self, branch):
        rng = np.random.default_rng(42)
        idx = MultiIndex(4, 2, (1, 1))
        for _ in range(20):
            resid = harmonicity_residual(
                idx, rng.uniform(0.5, 0.85), random_angles(rng, 4), 1e-3, branch
            )
            assert resid <= 1e-4

    def test_rejects_bad_step(self):
        rng = np.random.default_rng(43)
        with pytest.raises(ValueError):
            harmonicity_residual(
                MultiIndex(4, 1, (0, 0)), 0.5, random_angles(rng, 4), h=1.0
            )

    def test_rejects_axis_singularity(self):
        idx = MultiIndex(4, 1, (1, 1))
        pole = UltrasphericalPoint(4, 0.5, (0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            harmonicity_residual(idx, 0.5, pole)
