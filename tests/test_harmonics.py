import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ultrasph import gegenbauer, harmonics, solver, verify
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

    @pytest.mark.parametrize("d, l", [(2, 1), (3, -1), (3, 1.0), (True, 1), (3, True)])
    def test_bad_arguments_rejected(self, d, l):
        with pytest.raises(ValueError, match="must be an integer"):
            enumerate_indices(d, l)


def reference_chains(bound, length):
    """The chains (m_{d-2}, ..., m_1) under ``bound``, by recursion on their length."""
    if length == 1:
        for m1 in range(-bound, bound + 1):
            yield (m1,)
        return
    for v in range(bound + 1):
        for rest in reference_chains(v, length - 1):
            yield (v,) + rest


class TestLabelRows:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_rows_are_the_recursive_enumeration(self, d):
        for lmax in range(9):
            for lmin in range(lmax + 2):
                want = [[l, *m] for l in range(lmin, lmax + 1) for m in reference_chains(l, d - 2)]
                got = harmonics._labels(d, lmax, lmin)
                assert got.dtype == np.int64 and got.shape == (len(want), d - 1)
                assert got.tolist() == want

    def test_high_dimension_builds_without_recursion(self):
        labels = harmonics._labels.__wrapped__(1200, 1, 0)  # not kept in the cache
        assert len(labels) == 1 + count(1200, 1)
        assert labels[1].tolist() == [1] + [0] * 1198 and labels[-1].tolist() == [1] * 1199

    @pytest.mark.parametrize("d, dtype, values", [
        *((d, np.int64, range(-3, 4)) for d in range(3, 6)),
        *((d, np.int64, (-2**63, -1, 0, 1, 2, 2**63 - 1)) for d in (3, 4)),
        *((d, object, (-2**70, -1, 0, 1, 2, 2**70)) for d in (3, 4)),
    ])
    def test_bulk_and_scalar_rules_agree(self, d, dtype, values):
        rows = np.array(list(itertools.product(values, repeat=d - 1)), dtype=dtype)
        ok = harmonics._chain_ok(rows)
        assert ok.dtype == bool and ok.any() and not ok.all()
        for row, accepted in zip(rows.tolist(), ok):
            try:
                MultiIndex(d, row[0], tuple(row[1:]))
            except ValueError:
                assert not accepted, row
            else:
                assert accepted, row


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

    def test_values_beyond_the_double_range_raise(self):
        # Y_0 = Omega_d^(-1/2): 4.19e281 at d = 700, beyond the double range at
        # d = 800, where the table product was inf times a phase, NaN
        def point(d):
            return UltrasphericalPoint(d, 1.0, (0.5,) * (d - 2), 0.1)

        log_omega = math.log(2.0) + 350 * math.log(math.pi) - math.lgamma(350)
        assert_allclose(harmonic_values(point(700), 0), [math.exp(-0.5 * log_omega)], rtol=1e-11)
        with pytest.raises(ValueError, match="beyond the double range"):
            harmonic_values(point(800), 0)
        with pytest.raises(ValueError, match="beyond the double range"):
            addition_sum(800, 0, point(800), point(800))

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
        for d, lmax in [(4, 3), (8, 2), (5, 6), (3, 8)]:
            grid = sphere_grid(d, lmax)
            axes = np.ix_(*(rule.nodes for rule in grid.theta_rules), grid.phi_nodes)
            mesh = UltrasphericalPoint(d, 1.0, axes[:-1], axes[-1])
            got = harmonic_values(mesh, lmax).reshape(-1, grid.size)
            assert_bitwise(got, harmonic_values(grid.points, lmax))


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


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(st.integers(0, 3000), st.integers(0, 10**10))
def test_slices_are_the_fewest_near_equal_ones_that_fit_the_budget(n, nbytes):
    slices = harmonics._slices(n, nbytes)
    lengths = [s.stop - s.start for s in slices]
    # a partition of range(n) in order, near-equal, with no empty slice but n = 0's one
    assert slices[0].start == 0 and slices[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
    assert max(lengths) - min(lengths) <= 1
    assert min(lengths) > 0 or lengths == [0]
    budget, count = harmonics._BUDGET, len(slices)
    if nbytes <= budget * n:
        # each slice's share of nbytes fits, and one slice fewer would not
        assert max(lengths) * nbytes <= budget * n
        assert count == 1 or -(-n // (count - 1)) * nbytes > budget * n
    else:
        assert lengths == [1] * n or lengths == [0]


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestBlockGather:
    """harmonic_values and eval_expansion against the per-index chain product."""

    # a point count at which every d's rows span several blocks (_CACHE)
    SPLIT = 2000
    BUDGET = harmonics._BUDGET

    def points(self, rng, d):
        """Point sets by name; those named "chunked ..." are taken in several chunks (budget)."""
        grid = sphere_grid(d, 2)
        axes = np.ix_(*(rule.nodes for rule in grid.theta_rules), grid.phi_nodes)
        return {
            "scalar": random_angles(rng, d),
            "array": random_point_array(rng, d, (2, 5)),
            "mesh": UltrasphericalPoint(d, 1.0, axes[:-1], axes[-1]),
            "scalar phi": UltrasphericalPoint(
                d, 1.0, random_point_array(rng, d, (2, 5)).theta, rng.uniform(0.0, 2.0 * math.pi)
            ),
            "one point": random_point_array(rng, d, (1,)),
            "split": random_point_array(rng, d, (self.SPLIT,)),
            # 7 flat points in chunks of one point, the mesh in one theta_d node per chunk
            "chunked flat": random_point_array(rng, d, (7,)),
            "chunked mesh": UltrasphericalPoint(d, 1.0, axes[:-1], axes[-1]),
        }

    def budget(self, monkeypatch, name):
        """Set the budget for the point set ``name``: 1 byte, the smallest chunks, if chunked."""
        monkeypatch.setattr(harmonics, "_BUDGET", 1 if name.startswith("chunked") else self.BUDGET)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_harmonic_values_are_bitwise_the_chain_products(self, d, monkeypatch):
        rng = np.random.default_rng(60 + d)
        lmax = _VALUE_LMAX[d]
        indices = [i for l in range(lmax + 1) for i in enumerate_indices(d, l)]
        for name, point in self.points(rng, d).items():
            self.budget(monkeypatch, name)
            if name == "split":
                labels = harmonics._labels(d, lmax, 0)
                blocks = harmonics._chain_blocks(labels, point, (self.SPLIT,))
                assert len([start for _, start, _ in blocks]) > 2
            want = np.array(list(chain_products_reference(indices, point)))
            assert_bitwise(harmonic_values(point, lmax), want)

    def test_a_level_above_the_budget_builds_no_table(self, monkeypatch):
        # one point's table and steps at d = 3, level 20,000 would take 6.4 GB
        calls = []
        for name in ("axis_factors", "_steps"):
            monkeypatch.setattr(harmonics, name, lambda *args, name=name: calls.append(name))
        point = UltrasphericalPoint(3, 1.0, (0.5,), 1.0)
        expansion = HarmonicExpansion._of(3, 20_000, np.array([[20_000, 0]]),
                                          np.array([[1.0, 0.0]], dtype=complex))
        with pytest.raises(ValueError, match="level 20000 at d=3 .* above the budget"):
            eval_expansion(expansion, 1.0, point)
        with pytest.raises(ValueError, match="level 20000 at d=3 .* above the budget"):
            harmonic_values(point, 20_000, 20_000)
        assert calls == []

    @pytest.mark.parametrize("d, top", [(3, 1500), (5, 300)])
    def test_the_budget_check_counts_what_one_point_takes(self, d, top):
        # the check counts one point's tables and their steps as
        # 16 (top + 1)^2 (d - 2) bytes; measured with the steps built afresh
        point = UltrasphericalPoint(d, 1.0, (0.5,) * (d - 2), 1.0)
        label = np.zeros((1, d - 1), dtype=int)
        label[0, 0] = top
        expansion = HarmonicExpansion._of(d, top, label, np.array([[1.0, 0.0]], dtype=complex))
        gegenbauer._steps.cache_clear()
        tracemalloc.start()
        try:
            eval_expansion(expansion, 1.0, point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counted = 16 * (top + 1) ** 2 * (d - 2)
        assert counted / 2 <= peak <= 1.05 * counted + 2**20

    def test_chunked_point_sets_span_several_chunks(self, monkeypatch):
        point = self.points(np.random.default_rng(69), 4)["chunked flat"]
        self.budget(monkeypatch, "chunked flat")
        labels = harmonics._labels(4, 2, 0)
        blocks = harmonics._chain_blocks(labels, point, (7,))
        assert [y.shape[1:] for _, start, y in blocks if start == 0] == [(1,)] * 7
        mesh = self.points(np.random.default_rng(69), 4)["chunked mesh"]
        shape = harmonics._point_shape(mesh)
        blocks = harmonics._chain_blocks(labels, mesh, shape)
        chunks = [y.shape[1:] for _, start, y in blocks if start == 0]
        assert chunks == [(1,) + shape[1:]] * shape[0]

    @pytest.mark.parametrize("d", range(3, 9))
    def test_eval_expansion_is_the_sequential_sum(self, d, monkeypatch):
        rng = np.random.default_rng(70 + d)
        expansion = shuffled_expansion(rng, d, _VALUE_LMAX[d])
        starts = []

        def blocks(*args, **kwargs):  # the gather eval_expansion runs, its blocks counted
            for block in harmonics._chain_blocks(*args, **kwargs):
                starts.append(block[1])
                yield block

        monkeypatch.setattr(solver, "_chain_blocks", blocks)
        # beside the point sets, a radial profile: array r at scalar angles
        cases = dict(self.points(rng, d), **{"radial profile": random_angles(rng, d)})
        for name, point in cases.items():
            self.budget(monkeypatch, name)
            shape = np.broadcast_shapes(*(np.shape(t) for t in point.theta), np.shape(point.phi))
            r = rng.uniform(0.5, 2.0, (7,) if name == "radial profile" else shape)
            starts.clear()
            got = eval_expansion(expansion, r, point)
            if name == "split" or name.startswith("chunked"):
                assert len(starts) > 2
            want = eval_expansion_reference(expansion, r, point)
            if name == "scalar":
                # the reference forms each term of numpy scalars, the gather of
                # arrays, and at d = 3 the two differ in their last bits
                assert isinstance(got, complex)
                assert abs(got - want) <= 1e-14 * abs(want)
            else:
                # rows are added in order, the running total first, in one block or several
                assert_bitwise(got, want)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_a_points_value_does_not_depend_on_its_shape(self, d):
        # each of 9 points alone, as a scalar and as a one-point array, against the batch
        rng = np.random.default_rng(90 + d)
        expansion = shuffled_expansion(rng, d, _VALUE_LMAX[d])
        batch, r = random_point_array(rng, d, (9,)), rng.uniform(0.5, 2.0, 9)
        values, rows = eval_expansion(expansion, r, batch), harmonic_values(batch, _VALUE_LMAX[d])
        for i in range(9):
            cut = (slice(i, i + 1),)
            one = UltrasphericalPoint(d, 1.0, tuple(t[cut] for t in batch.theta), batch.phi[cut])
            scalar = UltrasphericalPoint(
                d, 1.0, tuple(float(t[i]) for t in batch.theta), float(batch.phi[i]))
            assert_bitwise(eval_expansion(expansion, r[cut], one), values[cut])
            assert_bitwise(eval_expansion(expansion, float(r[i]), scalar), values[i])
            assert_bitwise(harmonic_values(one, _VALUE_LMAX[d]), rows[:, cut[0]])
            assert_bitwise(harmonic_values(scalar, _VALUE_LMAX[d]), rows[:, i])

    def test_empty_expansion_gives_zeros_of_the_point_shape(self):
        rng = np.random.default_rng(80)
        empty = HarmonicExpansion(4, 2, {})
        point = random_point_array(rng, 4, (2,))
        got = eval_expansion(empty, np.array([0.5, 2.0]), point)
        assert got.shape == (2,) and got.dtype == complex and not got.any()
        assert eval_expansion(empty, 1.5, random_angles(rng, 4)) == 0j
        assert harmonic_values(point, 1, 2).shape == (0, 2)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 3)])
    def test_points_without_entries_give_empty_results(self, shape):
        # a chunk of no points takes 0 bytes per row
        rng = np.random.default_rng(84)
        point = random_point_array(rng, 4, shape)
        assert harmonic_values(point, 2).shape == (14,) + shape
        idx = MultiIndex(4, 2, (1, -1))
        want = eval_harmonic(idx, point)
        assert want.shape == shape
        got = eval_expansion(shuffled_expansion(rng, 4, 2), np.ones(shape), point)
        assert got.shape == shape and got.dtype == complex
        assert addition_sum(4, 2, point, point).shape == shape

    def test_open_mesh_working_set_stays_in_the_budgets(self):
        # d = 8, lmax 2 on its grid's open mesh (24,576 nodes x 44 rows): the mesh
        # is broadcast to the grid's shape, so beside the result each chunk holds
        # its phases and tables (_BUDGET) and a block its gathered factor (_CACHE);
        # the four chunks' phases and tables fill _BUDGET exactly, so the peak,
        # 4,186,080 bytes with the numpy this was written against, sits near the bound
        grid = sphere_grid(8, 2)
        axes = np.ix_(*(rule.nodes for rule in grid.theta_rules), grid.phi_nodes)
        point = UltrasphericalPoint(8, 1.0, axes[:-1], axes[-1])
        harmonic_values(point, 2)  # warm: tables' steps and label rows cached
        tracemalloc.start()
        try:
            values = harmonic_values(point, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - values.nbytes < harmonics._BUDGET + harmonics._CACHE

    def test_scattered_working_set_stays_in_the_cache_budget(self):
        # eval-scatter's size, d = 5, lmax 6 (336 rows) at 100 points: one block of
        # every row and the seven temporaries made beside it peaked at 2.46 MiB
        rng = np.random.default_rng(83)
        d, lmax, n = 5, 6, 100
        expansion = shuffled_expansion(rng, d, lmax)
        point, r = random_point_array(rng, d, (n,)), rng.uniform(0.5, 2.0, n)
        eval_expansion(expansion, r, point)  # warm: the steps and label rows are cached
        tracemalloc.start()
        try:
            eval_expansion(expansion, r, point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beside the blocks, the chunk's tables and phases (and, smaller, its powers)
        tables = 8 * (lmax + 1) ** 2 * (d - 2) * n + 16 * (2 * lmax + 1) * n
        assert peak < harmonics._CACHE + 2 * tables
        assert peak < 1.25 * 2**20

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
        # one chunk's tables at a time, where the per-index loop holds all 56 MiB of them
        assert blocked <= 0.15 * reference
        assert blocked < 10 * 2**20

    def test_scattered_memory_does_not_grow_with_the_point_count(self):
        # one coefficient at l = 300: a point's table alone takes 725 kB, 143 MiB for 200
        # points; 200, not more, as each chunk of 4 points runs its own 300-step recurrence
        rng = np.random.default_rng(82)
        expansion = HarmonicExpansion(3, 300, {MultiIndex(3, 300, (7,)): (1.0, 0.5)})
        point, r = random_point_array(rng, 3, (200,)), rng.uniform(0.5, 1.0, 200)
        eval_expansion(expansion, 1.0, random_angles(rng, 3))  # warm: the steps are cached
        tracemalloc.start()
        try:
            values = eval_expansion(expansion, r, point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * harmonics._BUDGET + values.nbytes


class TestGramCheck:
    """verify's sum-factorized Gram check against the brute-force V W V^H."""

    @staticmethod
    def brute_force_residual(d):
        """max |V W V^H - I|, V every harmonic of levels <= the level cap on the whole grid."""
        lcap = verify._LEVEL_CAP[d]
        grid = sphere_grid(d, lcap)
        axes = np.ix_(*(rule.nodes for rule in grid.theta_rules), grid.phi_nodes)
        values = harmonic_values(UltrasphericalPoint(d, 1.0, axes[:-1], axes[-1]), lcap)
        values = values.reshape(len(values), -1)
        gram = (values * grid.weights) @ values.conj().T
        return float(np.max(np.abs(gram - np.eye(len(values)))))

    @pytest.mark.parametrize("d", range(3, 9))
    def test_factorized_gram_matches_the_brute_force_residual(self, d):
        assert abs(verify._gram_residual(d, 8) - self.brute_force_residual(d)) <= 4e-15

    def test_factorized_gram_sees_a_perturbed_table(self, monkeypatch):
        def perturbed(k, lmax, theta):
            table = axis_factors(k, lmax, theta)
            table[:, 1] *= 1.0 + 1e-6  # the order-1 column
            return table

        assert verify._gram_residual(5, 8) < 1e-13
        monkeypatch.setattr(harmonics, "axis_factors", perturbed)
        assert verify._gram_residual(5, 8) > 1e-7

    def test_gram_check_holds_no_grid_sized_array(self):
        # d = 8 at its level cap 2: 44 rows x 24,576 nodes of V would take 17.3 MB
        verify._gram_residual(8, 8)  # warm: the grid, steps and label rows are cached
        tracemalloc.start()
        try:
            verify._gram_residual(8, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**10


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
        rng = random.Random(99 + d)
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

    @pytest.mark.parametrize("d", range(3, 9))
    def test_verify_checks_build_few_multi_index(self, monkeypatch, d):
        built = []
        check = MultiIndex.__post_init__
        monkeypatch.setattr(MultiIndex, "__post_init__",
                            lambda idx: built.append(idx) or check(idx))
        # the count check compares the closed form with label rows, not objects
        verify._count_residual(d, 8)
        assert built == []
        # one index for each of levels 0..3, and the conjugate eval_harmonic forms when m_1 < 0
        verify._harmonicity_residual(d, 8)
        assert 4 <= len(built) <= 8
