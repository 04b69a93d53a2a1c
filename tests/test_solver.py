import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ultrasph.gegenbauer import poly
from ultrasph.geometry import (
    CartesianPoint,
    UltrasphericalPoint,
    cos_gamma,
    solid_angle,
    to_ultraspherical,
)
from ultrasph.harmonics import MultiIndex, enumerate_indices, eval_harmonic
from ultrasph import formats, solver
from ultrasph.quadrature import SphereGrid, ThetaRule, sphere_grid
from ultrasph.solver import (
    BoundaryProblem,
    HarmonicExpansion,
    eval_expansion,
    fit_annulus,
    fit_exterior,
    fit_interior,
    green_expansion,
    project_boundary,
    radial_eval,
)


def random_angles(rng, d):
    return UltrasphericalPoint(
        d,
        1.0,
        tuple(rng.uniform(0.25, math.pi - 0.25) for _ in range(d - 2)),
        rng.uniform(0.0, 2.0 * math.pi),
    )


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def manufactured(rng, d, lmax, kind):
    coeffs = {}
    for l in range(lmax + 1):
        for idx in enumerate_indices(d, l):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            if kind == "interior":
                b = 0j
            elif kind == "exterior":
                a = 0j
            coeffs[idx] = (a, b)
    return HarmonicExpansion(d, lmax, coeffs)


class TestRadialEval:
    def test_constant_branch(self):
        for r in (0.0, 0.5, 3.0):
            assert radial_eval(1.0, 0.0, 0, 4, r) == 1.0 + 0.0j

    def test_decaying_branch(self):
        assert radial_eval(0.0, 1.0, 0, 4, 2.0) == 0.25 + 0.0j

    def test_unit_radius_sums_branches(self):
        assert radial_eval(1.0, 1.0, 2, 5, 1.0) == 2.0 + 0.0j

    def test_singular_at_origin(self):
        with pytest.raises(ValueError):
            radial_eval(1.0, 1.0, 0, 4, 0.0)

    def test_growing_branch_beyond_double_range(self):
        r = np.array([1.0, 1e200])
        with pytest.raises(ValueError, match="A != 0 where r\\^l overflows"):
            radial_eval(1.0, 0.0, 2, 3, r)
        # without an A term the growing branch is not formed into the value
        assert_allclose(radial_eval(0.0, 2.0, 2, 3, r), 2.0 * r**-3.0)

    def test_decaying_branch_beyond_double_range(self):
        r = np.array([1.0, 1e-200])
        with pytest.raises(ValueError, match="overflows"):
            radial_eval(1.0, 1.0, 1, 3, r)
        # without a B term the decaying branch is not formed into the value
        assert_allclose(radial_eval(2.0, 0.0, 1, 3, r), 2.0 * r)

    def test_vectorized(self):
        r = np.array([0.5, 1.0, 2.0])
        got = radial_eval(2.0, 1.0, 1, 3, r)
        assert_allclose(got, 2.0 * r + r**-2.0)

    @pytest.mark.parametrize("l, d, name", [
        (-1, 3, "level"), (True, 3, "level"), (1.0, 3, "level"), (1, 2, "dimension"),
    ])
    def test_rejects_bad_integers(self, l, d, name):
        with pytest.raises(ValueError, match=name):
            radial_eval(1, 0, l, d, 0.5)


class TestEvalExpansion:
    def test_single_constant_coefficient(self):
        rng = np.random.default_rng(5)
        d = 4
        exp = HarmonicExpansion(d, 0, {MultiIndex(d, 0, (0, 0)): (3.0 + 0j, 0j)})
        for r in (0.2, 1.0, 2.5):
            val = eval_expansion(exp, r, random_angles(rng, d))
            assert_allclose(val, 3.0 / math.sqrt(solid_angle(d)), rtol=1e-13)

    def test_unit_radius_reduces_to_harmonic(self):
        rng = np.random.default_rng(6)
        idx = MultiIndex(4, 2, (1, -1))
        exp = HarmonicExpansion(4, 2, {idx: (1.0 + 0j, 0j)})
        p = random_angles(rng, 4)
        assert_allclose(eval_expansion(exp, 1.0, p), eval_harmonic(idx, p),
                        rtol=1e-14)

    def test_matches_term_by_term_sum(self):
        rng = np.random.default_rng(7)
        d, lmax = 5, 2
        exp = manufactured(rng, d, lmax, "annulus")
        keys = list(exp.coeffs)[:10]
        small = HarmonicExpansion(d, lmax, {k: exp.coeffs[k] for k in keys})
        p = random_angles(rng, d)
        r = 0.8
        brute = sum(
            radial_eval(a, b, k.l, d, r) * eval_harmonic(k, p)
            for k, (a, b) in small.coeffs.items()
        )
        assert abs(eval_expansion(small, r, p) - brute) <= 1e-14 * max(1, abs(brute))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(8)
        exp = HarmonicExpansion(4, 0, {MultiIndex(4, 0, (0, 0)): (1.0, 0.0)})
        with pytest.raises(ValueError):
            eval_expansion(exp, 1.0, random_angles(rng, 5))


class TestProjectBoundary:
    def test_recovers_single_harmonic(self):
        d, lmax = 4, 3
        grid = sphere_grid(d, lmax)
        target = MultiIndex(d, 2, (2, 1))
        coeffs = project_boundary(
            lambda p: eval_harmonic(target, p), grid, lmax
        )
        for idx, c in coeffs.items():
            want = 1.0 if idx == target else 0.0
            assert abs(c - want) <= 1e-10

    def test_constant_data(self):
        d = 5
        grid = sphere_grid(d, 2)
        coeffs = project_boundary(lambda p: 5.0 * np.ones(p.phi.shape), grid, 2)
        zero = MultiIndex(d, 0, (0,) * (d - 2))
        assert abs(coeffs[zero] - 5.0 * math.sqrt(solid_angle(d))) <= 1e-10
        for idx, c in coeffs.items():
            if idx != zero:
                assert abs(c) <= 1e-10

    def test_linearity(self):
        d, lmax = 4, 2
        grid = sphere_grid(d, lmax)
        a = MultiIndex(d, 1, (1, 1))
        b = MultiIndex(d, 2, (0, 0))
        coeffs = project_boundary(
            lambda p: 2.0 * eval_harmonic(a, p) + 3.0j * eval_harmonic(b, p),
            grid,
            lmax,
        )
        assert abs(coeffs[a] - 2.0) <= 1e-10
        assert abs(coeffs[b] - 3.0j) <= 1e-10
        others = [i for i in coeffs if i not in (a, b)]
        assert max(abs(coeffs[i]) for i in others) <= 1e-10

    @pytest.mark.parametrize("lmax", (-1, True, 1.0))
    def test_rejects_bad_lmax(self, lmax):
        grid = sphere_grid(3, 2)
        with pytest.raises(ValueError, match="lmax"):
            project_boundary(np.ones(grid.size), grid, lmax)

    def test_samples_array_accepted(self):
        d, lmax = 3, 2
        grid = sphere_grid(d, lmax)
        target = MultiIndex(d, 1, (-1,))
        samples = np.asarray(eval_harmonic(target, grid.points))
        coeffs = project_boundary(samples, grid, lmax)
        assert abs(coeffs[target] - 1.0) <= 1e-12


class TestSumFactorizedTransforms:
    """The staged and batched transforms against per-index reference sums."""

    @pytest.mark.parametrize("d, lmax", [(3, 8), (4, 8), (5, 6), (6, 4), (7, 3)])
    def test_projection_matches_brute_force(self, d, lmax):
        rng = np.random.default_rng(90 + d)
        grid = sphere_grid(d, lmax)
        samples = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
        got = project_boundary(samples, grid, lmax)
        want_order = [idx for l in range(lmax + 1) for idx in enumerate_indices(d, l)]
        assert list(got) == want_order
        for idx, c in got.items():
            brute = np.sum(grid.weights * samples * np.conj(eval_harmonic(idx, grid.points)))
            assert abs(c - brute) <= 1e-12

    @pytest.mark.parametrize("d", range(3, 9))
    def test_eval_on_point_arrays_matches_term_sum(self, d):
        rng = np.random.default_rng(95 + d)
        exp = manufactured(rng, d, 3 if d <= 5 else 2, "annulus")
        n = 25
        r = rng.uniform(0.5, 2.0, n)
        p = UltrasphericalPoint(
            d, r, tuple(rng.uniform(0.0, math.pi, n) for _ in range(d - 2)),
            rng.uniform(0.0, 2.0 * math.pi, n),
        )
        got = eval_expansion(exp, r, p)
        brute = sum(
            radial_eval(a, b, k.l, d, r) * eval_harmonic(k, p)
            for k, (a, b) in exp.coeffs.items()
        )
        assert got.shape == (n,)
        assert np.max(np.abs(got - brute)) <= 1e-12 * max(1.0, np.max(np.abs(brute)))

    def test_eval_array_radius_scalar_angles(self):
        rng = np.random.default_rng(101)
        d = 5
        exp = manufactured(rng, d, 3, "annulus")
        p = random_angles(rng, d)
        r = np.array([0.5, 0.9, 1.7])
        got = eval_expansion(exp, r, p)
        assert got.shape == (3,)
        for ri, gi in zip(r, got):
            brute = sum(
                radial_eval(a, b, k.l, d, ri) * eval_harmonic(k, p)
                for k, (a, b) in exp.coeffs.items()
            )
            assert abs(gi - brute) <= 1e-12 * max(1.0, abs(brute))

    def test_eval_at_origin(self):
        rng = np.random.default_rng(102)
        d = 4
        exp = manufactured(rng, d, 2, "interior")
        n = 6
        p = UltrasphericalPoint(
            d, np.zeros(n), tuple(rng.uniform(0.0, math.pi, n) for _ in range(d - 2)),
            rng.uniform(0.0, 2.0 * math.pi, n),
        )
        zero = MultiIndex(d, 0, (0, 0))
        want = exp.coeffs[zero][0] / math.sqrt(solid_angle(d))
        assert_allclose(eval_expansion(exp, p.r, p), np.full(n, want), rtol=1e-13)
        # a single nonzero B anywhere makes r = 0 singular
        coeffs = dict(exp.coeffs)
        last = list(coeffs)[-1]
        coeffs[last] = (coeffs[last][0], 1e-3 + 0j)
        exp = HarmonicExpansion(d, 2, coeffs)
        with pytest.raises(ValueError, match="r = 0"):
            eval_expansion(exp, p.r, p)
        r = np.array([0.5, 0.0, 1.0])
        q = UltrasphericalPoint(d, r, (0.3, 1.1), 2.0)
        with pytest.raises(ValueError, match="r = 0"):
            eval_expansion(exp, r, q)


class TestStagedSynthesis:
    """_synthesize, the staged adjoint of _project, against the scattered route."""

    CASES = [(3, 4), (4, 4), (5, 4), (6, 3), (7, 2), (8, 2)]

    @pytest.mark.parametrize("kind", ["interior", "exterior", "annulus"])
    @pytest.mark.parametrize("d, lmax", CASES)
    def test_matches_eval_expansion_on_grid(self, d, lmax, kind):
        rng = np.random.default_rng(110 + d)
        exp = manufactured(rng, d, lmax, kind)
        grid = sphere_grid(d, lmax)
        got = solver._synthesize(exp, 1.7, grid)
        want = eval_expansion(exp, 1.7, grid.points)
        assert got.shape == (grid.size,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("d, lmax", CASES)
    def test_projection_inverts_synthesis(self, d, lmax):
        rng = np.random.default_rng(120 + d)
        exp = manufactured(rng, d, lmax, "interior")
        grid = sphere_grid(d, lmax)
        samples = solver._synthesize(exp, 1.0, grid)
        labels, got = solver._read_off(solver._project((samples,), grid, lmax)[0], d, lmax)
        assert np.array_equal(labels, exp.labels)
        assert np.max(np.abs(got - exp.values[:, 0])) <= 1e-13

    def test_high_degree_round_trip(self):
        # fit, synthesize, fit again at lmax 100: the tables stay in the double range
        lmax = 100
        grid = sphere_grid(3, lmax)
        samples = np.random.default_rng(0).standard_normal(grid.size)
        first = fit_interior(BoundaryProblem(3, "interior", (1.0,), lmax, (samples,)))
        again = fit_interior(
            BoundaryProblem(3, "interior", (1.0,), lmax, (solver._synthesize(first, 1.0, grid),))
        )
        assert np.max(np.abs(again.values - first.values)) <= 1e-13

    def test_sparse_expansion_on_a_finer_grid(self):
        d = 5
        exp = HarmonicExpansion(d, 2, {MultiIndex(d, 2, (1, 1, -1)): (0.5j, 2.0),
                                       MultiIndex(d, 0, (0, 0, 0)): (1.0, 0.0)})
        grid = sphere_grid(d, 4)
        got = solver._synthesize(exp, 0.8, grid)
        assert_allclose(got, eval_expansion(exp, 0.8, grid.points), rtol=0, atol=1e-13)
        empty = HarmonicExpansion(d, 2)
        assert not solver._synthesize(empty, 0.8, grid).any()

    def test_radial_powers_outside_the_double_range_raise(self):
        grid = sphere_grid(3, 2)
        idx = MultiIndex(3, 2, (1,))
        with pytest.raises(ValueError, match="B != 0 .* overflows"):
            solver._synthesize(HarmonicExpansion(3, 2, {idx: (0, 1)}), 1e-200, grid)
        with pytest.raises(ValueError, match="A != 0 .* overflows"):
            solver._synthesize(HarmonicExpansion(3, 2, {idx: (1, 0)}), 1e200, grid)
        # the power of a zero coefficient is not formed into the values
        for a, b, r in ((1, 0, 1e-200), (0, 1, 1e200)):
            got = solver._synthesize(HarmonicExpansion(3, 2, {idx: (a, b)}), r, grid)
            assert np.isfinite(got).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solver._synthesize(HarmonicExpansion(4, 1), 1.0, sphere_grid(3, 1))


class TestGridTables:
    """Each grid builds its phase and tables once per lmax and shares them read-only."""

    def test_tables_are_shared_and_read_only(self):
        grid = sphere_grid(5, 3)
        phase, tables = solver._tables(grid, 3)
        again_phase, again_tables = solver._tables(sphere_grid(5, 3), 3)
        assert again_phase is phase and all(a is b for a, b in zip(again_tables, tables))
        for array in (phase, *tables):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array *= 2.0

    @pytest.mark.parametrize("d, lmax", [(3, 4), (5, 3)])
    def test_repeated_synthesis_is_bitwise_equal(self, d, lmax):
        exp = manufactured(np.random.default_rng(130 + d), d, lmax, "annulus")
        grid = sphere_grid(d, lmax)
        first = solver._synthesize(exp, 1.3, grid)
        assert_bitwise(solver._synthesize(exp, 1.3, grid), first)
        samples = first.copy()
        coef = solver._project((samples,), grid, lmax)
        assert_bitwise(solver._project((samples,), grid, lmax), coef)
        assert_bitwise(samples, first)

    def test_hand_built_grid_gets_its_own_tables(self):
        d, lmax = 4, 3
        shared = sphere_grid(d, lmax)
        shifted = SphereGrid(
            d, lmax,
            [ThetaRule(rule.alpha, rule.nodes + 0.01, rule.weights) for rule in shared.theta_rules],
            shared.phi_nodes + 0.1, shared.phi_weight,
        )
        phase, tables = solver._tables(shared, lmax)
        shifted_phase, shifted_tables = solver._tables(shifted, lmax)
        assert not np.allclose(shifted_phase, phase)
        for got, want in zip(shifted_tables, tables):
            assert got.shape == want.shape and not np.allclose(got, want)
        exp = manufactured(np.random.default_rng(140), d, lmax, "interior")
        assert_allclose(solver._synthesize(exp, 1.0, shifted),
                        eval_expansion(exp, 1.0, shifted.points), rtol=0, atol=1e-13)


class TestFits:
    def test_interior_unit_radius_identity(self):
        d, lmax = 4, 2
        target = MultiIndex(d, 2, (1, 0))
        problem = BoundaryProblem(
            d, "interior", (1.0,), lmax, (lambda p: eval_harmonic(target, p),)
        )
        fit = fit_interior(problem)
        assert abs(fit.coeffs[target][0] - 1.0) <= 1e-10
        assert all(b == 0 for _, b in fit.coeffs.values())

    def test_interior_radius_scaling(self):
        d, lmax = 4, 2
        target = MultiIndex(d, 2, (1, 0))
        problem = BoundaryProblem(
            d, "interior", (2.0,), lmax, (lambda p: eval_harmonic(target, p),)
        )
        fit = fit_interior(problem)
        assert abs(fit.coeffs[target][0] - 2.0**-2) <= 1e-10

    @pytest.mark.parametrize("kind", ("interior", "exterior"))
    def test_roundtrip_manufactured(self, kind):
        rng = np.random.default_rng(70)
        d, lmax, radius = 4, 3, 1.0
        truth = manufactured(rng, d, lmax, kind)
        problem = BoundaryProblem(
            d, kind, (radius,), lmax,
            (lambda p: eval_expansion(truth, radius, p),),
        )
        fit = fit_interior(problem) if kind == "interior" else fit_exterior(problem)
        # saved as fitted, so the file order is enumerate_indices order
        assert list(fit.coeffs) == list(truth.coeffs)
        for idx, (a, b) in truth.coeffs.items():
            ga, gb = fit.coeffs[idx]
            assert abs(ga - a) <= 1e-8 and abs(gb - b) <= 1e-8

    def test_exterior_constant_field_decay(self):
        d = 4
        zero = MultiIndex(d, 0, (0, 0))
        problem = BoundaryProblem(
            d, "exterior", (1.0,), 1,
            (lambda p: np.ones(p.phi.shape, dtype=complex),),
        )
        fit = fit_exterior(problem)
        assert abs(fit.coeffs[zero][1] - math.sqrt(solid_angle(d))) <= 1e-10
        rng = np.random.default_rng(71)
        p = random_angles(rng, d)
        for r in (1.5, 3.0):
            # constant data c on R=1 continues as c r^-(d-2)
            assert abs(eval_expansion(fit, r, p) - r ** -(d - 2)) <= 1e-10

    def test_annulus_roundtrip(self):
        rng = np.random.default_rng(72)
        d, lmax = 4, 3
        truth = manufactured(rng, d, lmax, "annulus")
        problem = BoundaryProblem(
            d, "annulus", (0.5, 2.0), lmax,
            (
                lambda p: eval_expansion(truth, 0.5, p),
                lambda p: eval_expansion(truth, 2.0, p),
            ),
        )
        fit = fit_annulus(problem)
        assert list(fit.coeffs) == list(truth.coeffs)
        for idx, (a, b) in truth.coeffs.items():
            ga, gb = fit.coeffs[idx]
            assert abs(ga - a) <= 1e-8 and abs(gb - b) <= 1e-8

    @pytest.mark.parametrize("d,lmax", [(3, 6), (5, 3)])
    def test_annulus_contracts_both_spheres_through_one_set_of_tables(
        self, monkeypatch, d, lmax
    ):
        rng = np.random.default_rng(73 + d)
        grid = sphere_grid(d, lmax)
        inner, outer = (rng.normal(size=(grid.size, 2)) @ [1.0, 1j] for _ in range(2))
        c1 = project_boundary(inner, grid, lmax)
        c2 = project_boundary(outer, grid, lmax)
        calls = []
        build = solver.axis_factors
        monkeypatch.setattr(
            solver, "axis_factors", lambda *args: calls.append(args) or build(*args)
        )
        # a fresh grid with the shared grid's axes builds its d-2 tables once
        fresh = SphereGrid(d, lmax, grid.theta_rules, grid.phi_nodes, grid.phi_weight)
        monkeypatch.setattr(solver, "sphere_grid", lambda *args: fresh)
        problem = BoundaryProblem(d, "annulus", (0.5, 2.0), lmax, (inner, outer))
        fit = fit_annulus(problem)
        assert len(calls) == d - 2
        # a second fit on the same grid builds none
        assert_bitwise(fit_annulus(problem).values, fit.values)
        assert len(calls) == d - 2
        # the 2x2 Cramer solve of fit_annulus, from the two separate projections
        want = {}
        for idx in c1:
            s = idx.l + d - 2
            t11, t12, t21, t22 = 0.5**idx.l, 0.5 ** (-s), 2.0**idx.l, 2.0 ** (-s)
            det = t11 * t22 - t21 * t12
            want[idx] = ((c1[idx] * t22 - c2[idx] * t12) / det,
                         (t11 * c2[idx] - t21 * c1[idx]) / det)
        assert list(fit.coeffs) == list(want)
        got, ref = np.array(list(fit.coeffs.values())), np.array(list(want.values()))
        scale = np.max(np.abs(ref), axis=0)
        assert np.all(np.abs(got - ref) <= 1e-15 * scale)

    def test_annulus_warns_once_per_nearly_singular_level(self):
        d, lmax = 4, 3
        n = sphere_grid(d, lmax).size
        problem = BoundaryProblem(
            d, "annulus", (1.0, 1.0 + 1e-14), lmax, (np.ones(n), np.ones(n))
        )
        with pytest.warns(UserWarning, match="nearly singular") as record:
            fit_annulus(problem)
        assert len(record) == lmax + 1
        for l, w in enumerate(record):
            assert f"level {l} " in str(w.message)
            assert w.filename == __file__  # attributed to the caller of the fit

    def test_annulus_zero_inner_data(self):
        d, lmax = 4, 2
        target = MultiIndex(d, 1, (1, 1))
        problem = BoundaryProblem(
            d, "annulus", (0.5, 2.0), lmax,
            (
                lambda p: np.zeros(p.phi.shape, dtype=complex),
                lambda p: eval_harmonic(target, p),
            ),
        )
        fit = fit_annulus(problem)
        grid = sphere_grid(d, lmax)
        inner = np.asarray(eval_expansion(fit, 0.5, grid.points))
        assert np.max(np.abs(inner)) <= 1e-8

    def test_annulus_degenerates_to_interior(self):
        # interior-regular data on both spheres leaves the B branch empty
        rng = np.random.default_rng(73)
        d, lmax = 4, 2
        truth = manufactured(rng, d, lmax, "interior")
        problem = BoundaryProblem(
            d, "annulus", (0.5, 2.0), lmax,
            (
                lambda p: eval_expansion(truth, 0.5, p),
                lambda p: eval_expansion(truth, 2.0, p),
            ),
        )
        fit = fit_annulus(problem)
        for idx, (a, _) in truth.coeffs.items():
            ga, gb = fit.coeffs[idx]
            assert abs(ga - a) <= 1e-8
            assert abs(gb) <= 1e-8

    def test_fit_linearity(self):
        d, lmax = 4, 1
        a_idx = MultiIndex(d, 1, (1, 0))
        b_idx = MultiIndex(d, 0, (0, 0))
        def fit_of(f):
            problem = BoundaryProblem(d, "interior", (1.0,), lmax, (f,))
            return fit_interior(problem)
        fa = fit_of(lambda p: eval_harmonic(a_idx, p))
        fb = fit_of(lambda p: eval_harmonic(b_idx, p))
        fab = fit_of(
            lambda p: 2.0 * eval_harmonic(a_idx, p) - 1.5j * eval_harmonic(b_idx, p)
        )
        for idx in fab.coeffs:
            combo = 2.0 * fa.coeffs[idx][0] - 1.5j * fb.coeffs[idx][0]
            assert abs(fab.coeffs[idx][0] - combo) <= 1e-12

    def test_real_data_gives_real_field(self):
        rng = np.random.default_rng(74)
        d, lmax = 4, 2
        def data(p):
            # real band-limited boundary data from conjugate pairs
            idx = MultiIndex(d, 2, (1, 1))
            return (eval_harmonic(idx, p) + eval_harmonic(idx.conjugate(), p)).real \
                + 0.7 * np.ones(p.phi.shape)
        problem = BoundaryProblem(d, "interior", (1.0,), lmax, (data,))
        fit = fit_interior(problem)
        for _ in range(10):
            val = eval_expansion(fit, 0.7, random_angles(rng, d))
            assert abs(val.imag) <= 1e-10

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            BoundaryProblem(4, "annulus", (2.0, 0.5), 2, (None, None))
        with pytest.raises(ValueError):
            BoundaryProblem(4, "annulus", (1.0, 1.0), 2, (None, None))
        with pytest.raises(ValueError):
            BoundaryProblem(4, "interior", (-1.0,), 2, (None,))
        with pytest.raises(ValueError):
            BoundaryProblem(4, "ball", (1.0,), 2, (None,))
        for radius in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                BoundaryProblem(3, "interior", (radius,), 2, (None,))
        with pytest.raises(ValueError, match="dimension"):
            BoundaryProblem(2, "interior", (1.0,), 2, (None,))
        with pytest.raises(ValueError, match="lmax"):
            BoundaryProblem(4, "interior", (1.0,), -1, (None,))
        with pytest.raises(ValueError, match="lmax"):
            BoundaryProblem(4, "interior", (1.0,), True, (None,))

    def test_expansion_validation_errors(self):
        with pytest.raises(ValueError, match="dimension"):
            HarmonicExpansion(2, 1, {})
        with pytest.raises(ValueError, match="lmax"):
            HarmonicExpansion(3, -1, {})
        exp = HarmonicExpansion(np.int64(3), np.int64(1), {})
        assert type(exp.d) is int and type(exp.lmax) is int


class TestCoefficientArrays:
    """HarmonicExpansion stores label rows and (A, B) rows; coeffs is a view of them."""

    @pytest.mark.parametrize("kind, radii", [("interior", (1.0,)), ("annulus", (0.5, 2.0))])
    def test_fit_and_save_build_no_multi_index(self, monkeypatch, kind, radii):
        d, lmax = 4, 3
        rng = np.random.default_rng(130)
        size = sphere_grid(d, lmax).size
        problem = BoundaryProblem(d, kind, radii, lmax,
                                  tuple(rng.normal(size=size) for _ in radii))
        built = []
        check = MultiIndex.__post_init__
        monkeypatch.setattr(MultiIndex, "__post_init__",
                            lambda idx: built.append(idx) or check(idx))
        fit = {"interior": fit_interior, "annulus": fit_annulus}[kind](problem)
        formats.save_coefficients(io.StringIO(), fit)
        assert built == []
        # the labels become MultiIndex keys only when a caller reads coeffs
        assert len(fit.coeffs) == len(built) == len(fit.labels)

    def test_coeffs_is_read_only(self):
        idx = MultiIndex(3, 1, (-1,))
        exp = HarmonicExpansion(3, 1, {idx: (1.0, 2.0)})
        with pytest.raises(TypeError):
            exp.coeffs[idx] = (0.0, 0.0)
        with pytest.raises(AttributeError):
            exp.coeffs = {}
        with pytest.raises(ValueError, match="read-only"):
            exp.values[0, 0] = 0.0
        assert exp.coeffs == {idx: (1.0, 2.0)}

    @pytest.mark.parametrize("d, lmax", [(3, 4), (5, 2)])
    def test_dict_constructor_reproduces_a_fit(self, d, lmax):
        rng = np.random.default_rng(131 + d)
        samples = rng.normal(size=(sphere_grid(d, lmax).size, 2)) @ [1.0, 1j]
        fit = fit_exterior(BoundaryProblem(d, "exterior", (1.5,), lmax, (samples,)))
        again = HarmonicExpansion(d, lmax, fit.coeffs)
        assert np.array_equal(again.labels, fit.labels)
        assert again.values.tobytes() == fit.values.tobytes()
        written = []
        for exp in (fit, again):
            out = io.StringIO()
            formats.save_coefficients(out, exp)
            written.append(out.getvalue())
        assert written[0] == written[1]

    def test_constructor_leaves_the_callers_dict_untouched(self):
        idx = MultiIndex(4, 1, (1, 0))
        pair = (1, 2)
        coeffs = {idx: pair}
        exp = HarmonicExpansion(4, 1, coeffs)
        assert coeffs == {idx: pair} and coeffs[idx] is pair
        assert exp.coeffs[idx] == (1 + 0j, 2 + 0j)
        assert all(type(v) is complex for v in exp.coeffs[idx])


class TestGreenExpansion:
    def test_axis_configuration_matches_generating_function(self):
        # target on the polar axis at radius 1: the kernel is the
        # generating function of the polynomials in cos(theta)
        d = 4
        xb = CartesianPoint(d, np.array([0.0, 0.0, 0.0, 1.0]))
        for r, theta in ((0.3, 0.9), (0.7, 2.2)):
            xa = CartesianPoint(
                d, np.array([r * math.sin(theta), 0.0, 0.0, r * math.cos(theta)])
            )
            closed = (1 + r * r - 2 * r * math.cos(theta)) ** (-(d - 2) / 2)
            got = green_expansion(xa, xb, 120)
            assert abs(got - closed) <= 1e-12 * closed

    def test_direct_kernel_d5(self):
        rng = np.random.default_rng(80)
        d = 5
        for _ in range(10):
            va = rng.normal(size=d)
            xa = CartesianPoint(d, 0.3 * va / np.linalg.norm(va))
            vb = rng.normal(size=d)
            xb = CartesianPoint(d, vb / np.linalg.norm(vb))
            direct = float(np.sum((xa.x - xb.x) ** 2)) ** (-(d - 2) / 2)
            assert abs(green_expansion(xa, xb, 40) - direct) <= 1e-6

    def test_origin_single_term(self):
        d = 5
        xa = CartesianPoint(d, np.zeros(d))
        xb = CartesianPoint(d, np.array([0.0, 0.0, 0.0, 0.0, 2.0]))
        assert green_expansion(xa, xb, 17) == 2.0 ** -(d - 2)

    def test_truncation_decay_rate(self):
        rng = np.random.default_rng(81)
        d, ratio = 5, 0.3
        errs = {10: [], 20: []}
        for _ in range(10):
            va = rng.normal(size=d)
            xa = CartesianPoint(d, ratio * va / np.linalg.norm(va))
            vb = rng.normal(size=d)
            xb = CartesianPoint(d, vb / np.linalg.norm(vb))
            direct = float(np.sum((xa.x - xb.x) ** 2)) ** (-(d - 2) / 2)
            for lmax in errs:
                errs[lmax].append(abs(green_expansion(xa, xb, lmax) - direct))
        measured = np.mean(errs[20]) / np.mean(errs[10])
        assert ratio**10 / 5 <= measured <= ratio**10 * 5

    def test_matches_the_per_level_sum(self):
        rng = np.random.default_rng(91)
        for d in (3, 5, 8):
            xa = CartesianPoint(d, 0.4 * rng.normal(size=d))
            xb = CartesianPoint(d, rng.normal(size=d))
            r_lo, r_hi = sorted((xa.norm(), xb.norm()))
            cg = cos_gamma(to_ultraspherical(xa), to_ultraspherical(xb))
            want = 0.0
            for l in range(31):
                want += r_lo**l / r_hi ** (l + d - 2) * poly(l, d, cg)
            assert green_expansion(xa, xb, 30) == want

    @pytest.mark.parametrize("lmax", (-1, True, 2.0))
    def test_rejects_bad_lmax(self, lmax):
        xa = CartesianPoint(4, np.array([0.1, 0.0, 0.0, 0.0]))
        xb = CartesianPoint(4, np.array([0.0, 1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="lmax"):
            green_expansion(xa, xb, lmax)

    def test_equal_radii_rejected(self):
        d = 4
        xa = CartesianPoint(d, np.array([1.0, 0.0, 0.0, 0.0]))
        xb = CartesianPoint(d, np.array([0.0, 1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            green_expansion(xa, xb, 10)
