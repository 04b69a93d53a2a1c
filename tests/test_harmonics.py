import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from ultrasph import harmonics, verify
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
from ultrasph.quadrature import sphere_grid, theta_rule
from ultrasph.solver import HarmonicExpansion, eval_expansion, radial_eval


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

    def test_matches_the_factorial_formula(self):
        for d in range(3, 13):
            for l in range(61):
                num = (d + 2 * l - 2) * math.factorial(d + l - 3)
                den = math.factorial(d - 2) * math.factorial(l)
                assert num % den == 0
                got = count(d, l)
                assert type(got) is int and got == num // den


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

    def test_underflowing_constant_raises(self):
        point = UltrasphericalPoint(3, 1.0, (1.0,), 0.0)
        # norm_factor(80, 80, 3) is still a normal double
        assert eval_harmonic(MultiIndex(3, 80, (80,)), point) != 0.0
        # norm_factor(100, 100, 3) is subnormal; the true Y is 3.029345023317297e-08
        with pytest.raises(ValueError, match="underflows"):
            eval_harmonic(MultiIndex(3, 100, (100,)), point)
        # each per-axis factor is about 1e-104, their product is subnormal
        assert norm_coeff(MultiIndex(5, 61, (61, 61, 61))) > 0.0
        with pytest.raises(ValueError, match="underflows"):
            norm_coeff(MultiIndex(5, 62, (62, 62, 62)))


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
    def test_one_pass_table_matches_the_entry_products(self, k):
        rng = np.random.default_rng(40 + k)
        thetas = (0.0, math.pi, 0.7, rng.uniform(0.0, math.pi, 13),
                  rng.uniform(0.0, math.pi, (3, 4)))
        for lmax in range(11):
            for theta in thetas:
                got = axis_factors(k, lmax, theta)
                want = axis_factors_reference(k, lmax, theta)
                assert got.shape == want.shape
                # the largest |entry| of each column at each point
                scale = np.max(np.abs(want), axis=0, keepdims=True)
                assert np.all(np.abs(got - want) <= 2e-14 * scale)

    def test_high_degree_entry_does_not_underflow(self):
        # mpmath at 50 digits, rounded; norm_factor * assoc gives 0.0 here
        assert_allclose(axis_factors(3, 100, 1.0)[100, 100], 7.593441889059845e-08, rtol=1e-13)

    def test_high_degree_table_is_finite(self):
        # filterwarnings = error: an overflow warning fails the test too
        assert np.all(np.isfinite(axis_factors(3, 160, 1.0)))

    @pytest.mark.parametrize("k", (3, 5))
    def test_columns_are_orthonormal_at_high_degree(self, k):
        lmax = 120
        rule = theta_rule(k - 2, lmax + 2)
        table = axis_factors(k, lmax, rule.nodes)
        for order in range(lmax + 1):
            column = table[:, order]
            gram = (column * rule.weights) @ column.T
            expected = np.diag((np.arange(lmax + 1) >= order).astype(float))
            assert np.max(np.abs(gram - expected)) <= 1e-12

    @pytest.mark.parametrize("k, lmax, name", [
        (2, 3, "dimension"), (True, 3, "dimension"), (3.0, 3, "dimension"),
        (3, -1, "lmax"), (3, 2.5, "lmax"), (3, True, "lmax"), (3, 1.0, "lmax"),
    ])
    def test_rejects_bad_integers(self, k, lmax, name):
        with pytest.raises(ValueError, match=name):
            axis_factors(k, lmax, np.linspace(0.1, 3.0, 4))

    def test_steps_are_shared_read_only_and_keyed_on_ints(self):
        theta = np.linspace(0.1, 3.0, 5)
        table = axis_factors(4, 6, theta)
        before = harmonics._steps.cache_info()
        assert np.array_equal(axis_factors(np.int64(4), np.int64(6), theta), table)
        after = harmonics._steps.cache_info()
        assert (after.hits, after.currsize) == (before.hits + 1, before.currsize)
        for steps in harmonics._steps(4, 6):
            assert not steps.flags.writeable
            with pytest.raises(ValueError):
                steps[0] = 1.0
        table[0, 0] = 2.0  # each call returns its own table
        assert not np.any(axis_factors(4, 6, theta)[0, 0] == 2.0)


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
            # entries near zero cancel in the table recurrence; atol covers them
            assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))

    def test_single_level_is_a_slice_of_all_levels(self):
        rng = np.random.default_rng(57)
        point = random_point_array(rng, 5, (7,))
        full = harmonic_values(point, 4)
        start = sum(count(5, l) for l in range(3))
        assert np.array_equal(harmonic_values(point, 3, 3), full[start:start + count(5, 3)])

    @pytest.mark.parametrize("lmax, lmin, name", [
        (-1, 0, "lmax"), (True, 0, "lmax"), (2.0, 0, "lmax"), (2, -1, "lmin"), (2, 1.0, "lmin"),
    ])
    def test_rejects_bad_levels(self, lmax, lmin, name):
        point = random_point_array(np.random.default_rng(58), 4, (3,))
        with pytest.raises(ValueError, match=name):
            harmonic_values(point, lmax, lmin)

    def test_label_rows_are_built_once_and_read_only(self):
        labels = harmonics._labels(5, 3, 0)
        assert harmonics._labels(5, 3, 0) is labels and not labels.flags.writeable
        with pytest.raises(ValueError):
            labels[0, 0] = 1
        want = [(i.l, *i.m) for l in range(4) for i in enumerate_indices(5, l)]
        assert labels.tolist() == [list(row) for row in want]
        # values built from the shared rows are the caller's own
        values = harmonic_values(random_point_array(np.random.default_rng(59), 5, (2,)), 3)
        assert values.flags.writeable

    def test_open_mesh_broadcasts_to_the_full_grid(self):
        grid = sphere_grid(4, 3)
        axes = np.ix_(*(rule.nodes for rule in grid.theta_rules), grid.phi_nodes)
        mesh = UltrasphericalPoint(4, 1.0, axes[:-1], axes[-1])
        got = harmonic_values(mesh, 3).reshape(-1, grid.size)
        assert_allclose(got, harmonic_values(grid.points, 3), rtol=1e-15, atol=0)


def chain_products_reference(indices, angles):
    """Yield Y_idx(angles) for each idx of ``indices``, one chain product per index.

    The per-index loop the block gather replaced: the tables and phase
    rows are built once, then each Y_idx is its phase times one table
    entry per axis, in the order phase, theta_d, ..., theta_3.
    """
    top = max((idx.l for idx in indices), default=0)
    tables = [
        axis_factors(k, top, t) for k, t in zip(range(angles.d, 2, -1), angles.theta)
    ]
    phi = np.asarray(angles.phi)
    phases = {
        m1: np.exp(1j * m1 * phi) / math.sqrt(2.0 * math.pi)
        for m1 in range(-top, top + 1)
    }
    for idx in indices:
        y = phases[idx.m[-1]]
        for table, (_, degree, order) in zip(tables, idx.axis_terms()):
            y = y * table[degree, order]
        yield y


def eval_expansion_reference(expansion, r, angles):
    """sum_idx (A r^l + B r^-(l+d-2)) Y_idx, added index by index in coefficient order."""
    total = 0.0 + 0.0j
    for (idx, (a, b)), y in zip(expansion.coeffs.items(),
                                chain_products_reference(list(expansion.coeffs), angles)):
        total = total + radial_eval(a, b, idx.l, expansion.d, r) * y
    return total


def shuffled_expansion(rng, d, lmax):
    """Every index up to lmax with random A and B, in a random order."""
    indices = [i for l in range(lmax + 1) for i in enumerate_indices(d, l)]
    order = rng.permutation(len(indices))
    pairs = rng.standard_normal((len(indices), 4))
    return HarmonicExpansion(d, lmax, {
        indices[j]: (complex(*pairs[j, :2]), complex(*pairs[j, 2:])) for j in order
    })


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestBlockGather:
    """harmonic_values and eval_expansion against the per-index chain product."""

    # a point count at which every d's rows span several blocks
    SPLIT = 2000

    def points(self, rng, d):
        grid = sphere_grid(d, 2)
        axes = np.ix_(*(rule.nodes for rule in grid.theta_rules), grid.phi_nodes)
        return {
            "scalar": random_angles(rng, d),
            "array": random_point_array(rng, d, (2, 5)),
            "mesh": UltrasphericalPoint(d, 1.0, axes[:-1], axes[-1]),
            "split": random_point_array(rng, d, (self.SPLIT,)),
        }

    @pytest.mark.parametrize("d", range(3, 9))
    def test_harmonic_values_are_bitwise_the_chain_products(self, d):
        rng = np.random.default_rng(60 + d)
        lmax = _VALUE_LMAX[d]
        indices = [i for l in range(lmax + 1) for i in enumerate_indices(d, l)]
        assert len(indices) * self.SPLIT > 2 * harmonics._BLOCK
        for point in self.points(rng, d).values():
            want = np.array(list(chain_products_reference(indices, point)))
            assert_bitwise(harmonic_values(point, lmax), want)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_eval_expansion_is_the_sequential_sum(self, d):
        rng = np.random.default_rng(70 + d)
        expansion = shuffled_expansion(rng, d, _VALUE_LMAX[d])
        for name, point in self.points(rng, d).items():
            shape = np.broadcast_shapes(*(np.shape(t) for t in point.theta), np.shape(point.phi))
            r = rng.uniform(0.5, 2.0, shape)
            got = eval_expansion(expansion, r, point)
            want = eval_expansion_reference(expansion, r, point)
            if name == "scalar":
                # a vector's row sum is numpy's pairwise sum, not the sequential one
                assert isinstance(got, complex)
                assert abs(got - want) <= 1e-14 * abs(want)
            else:
                # rows are added in order, the running total first, in one block or several
                assert_bitwise(got, want)

    def test_empty_expansion_gives_zeros_of_the_point_shape(self):
        rng = np.random.default_rng(80)
        empty = HarmonicExpansion(4, 2, {})
        point = random_point_array(rng, 4, (2,))
        got = eval_expansion(empty, np.array([0.5, 2.0]), point)
        assert got.shape == (2,) and got.dtype == complex and not got.any()
        assert eval_expansion(empty, 1.5, random_angles(rng, 4)) == 0j
        assert harmonic_values(point, 1, 2).shape == (0, 2)

    def test_memory_stays_near_the_per_index_loop(self):
        # d = 5, lmax = 6: 336 indices; one rows x points array would take 269 MB
        rng = np.random.default_rng(81)
        d, lmax, n = 5, 6, 50_000
        expansion = shuffled_expansion(rng, d, lmax)
        point = random_point_array(rng, d, (n,))
        r = rng.uniform(0.5, 2.0, n)
        peaks = []
        for evaluate in (eval_expansion_reference, eval_expansion):
            tracemalloc.start()
            try:
                evaluate(expansion, r, point)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        reference, blocked = peaks
        assert blocked <= 1.25 * reference
        assert blocked < 0.5 * len(expansion.coeffs) * n * 16


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

    @pytest.mark.parametrize("d, l, name", [
        (3, -1, "level"), (3, True, "level"), (3, 1.0, "level"), (2, 1, "dimension"),
    ])
    def test_rejects_bad_integers(self, d, l, name):
        rng = np.random.default_rng(27)
        a, b = random_angles(rng, 3), random_angles(rng, 3)
        with pytest.raises(ValueError, match=name):
            addition_sum(d, l, a, b)

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

    @pytest.mark.parametrize("l", (-1, True, 2.0))
    def test_rejects_bad_levels(self, l):
        with pytest.raises(ValueError, match="level"):
            addition_reduced(4, l, 0.5, 0.7, 0.3)


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

    @pytest.mark.parametrize("branch", ("interior", "exterior"))
    @pytest.mark.parametrize("d", range(3, 9))
    def test_array_call_matches_scalar_calls(self, d, branch):
        rng = np.random.default_rng(44 + d)
        thetas = tuple(rng.uniform(0.3, math.pi - 0.3, size=(2, 3)) for _ in range(d - 2))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=(2, 3))
        r = rng.uniform(0.5, 0.85, size=(2, 3))
        for l in (0, 2, 3):
            indices = enumerate_indices(d, l)
            idx = indices[len(indices) // 2]
            got = harmonicity_residual(idx, r, UltrasphericalPoint(d, 1.0, thetas, phi),
                                       1e-3, branch)
            assert got.shape == (2, 3)
            for i in np.ndindex(2, 3):
                point = UltrasphericalPoint(d, 1.0, tuple(t[i] for t in thetas), phi[i])
                want = harmonicity_residual(idx, r[i], point, 1e-3, branch)
                assert type(want) is float
                assert abs(got[i] - want) <= 1e-12 * want

    def test_scalar_radius_broadcasts_against_array_angles(self):
        rng = np.random.default_rng(45)
        idx = MultiIndex(5, 2, (1, 1, -1))
        thetas = tuple(rng.uniform(0.3, math.pi - 0.3, size=4) for _ in range(3))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=4)
        got = harmonicity_residual(idx, 0.6, UltrasphericalPoint(5, 1.0, thetas, phi))
        want = harmonicity_residual(idx, np.full(4, 0.6), UltrasphericalPoint(5, 1.0, thetas, phi))
        assert got.shape == (4,)
        assert_allclose(got, want, rtol=0, atol=0)

    def test_one_near_axis_point_among_valid_ones_raises(self):
        rng = np.random.default_rng(46)
        idx = MultiIndex(4, 1, (1, 1))
        thetas = [rng.uniform(0.3, math.pi - 0.3, size=5) for _ in range(2)]
        phi = rng.uniform(0.0, 2.0 * math.pi, size=5)
        thetas[1][3] = 1e-7
        angles = UltrasphericalPoint(4, 1.0, tuple(thetas), phi)
        with pytest.raises(ValueError, match="singularity"):
            harmonicity_residual(idx, np.full(5, 0.5), angles)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_verify_check_matches_per_point_loop(self, d):
        # the check's former form: one scalar call per point and branch
        rng = np.random.default_rng(99 + d)
        want = 0.0
        for l in range(4):
            indices = enumerate_indices(d, l)
            idx = indices[len(indices) // 2]
            for _ in range(5):
                thetas = tuple(rng.uniform(0.3, math.pi - 0.3) for _ in range(d - 2))
                angles = UltrasphericalPoint(d, 1.0, thetas, rng.uniform(0.0, 2.0 * math.pi))
                r = rng.uniform(0.5, 0.85)
                for branch in ("interior", "exterior"):
                    want = max(want, harmonicity_residual(idx, r, angles, 1e-3, branch))
        got = verify._harmonicity_residual(d, 8)
        assert abs(got - want) <= 1e-12 * want
