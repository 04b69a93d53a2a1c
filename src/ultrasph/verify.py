"""Numerical verification suite behind the ``verify`` command.

Every identity the library implements is re-checked here against an
independent route: generating-function coefficients against the
recurrence, analytic derivatives against finite differences, closed-form
normalizations against quadrature, orthonormality by the grid's Gram
matrix summed axis by axis (sum factorization; the tests hold it to the
brute-force sum over every node), addition theorems against brute-force
index sums, solid harmonics against a finite-difference Laplacian, and
boundary fits against manufactured solutions (whose boundary data the
staged grid synthesis makes, itself held to the scattered evaluation).

Each check reports its maximum residual and the tolerance it was held
to.  Algebraic identities use the caller's tolerance directly; the
finite-difference harmonicity check has an O(h^2) method floor of 1e-4
(h = 1e-3), so its effective tolerance is max(tol, 1e-4).  Every check
caps the level, whatever lmax is asked.  Those over harmonic levels cap
it per dimension to keep grids desk-sized (_LEVEL_CAP for the Gram and
boundary-fit checks, l <= 4 for the addition theorems, l <= 3 for
harmonicity).  The one-dimensional ones stop at l <= min(lmax, cap): the
derivative shift at l <= 6 and m <= 3, the Sturm-Liouville,
normalization and level-count checks at l <= 6, and the endpoint
derivatives at l <= 8; the binomial oracle runs l <= 10 for every lmax.
Each FD stencil is one call on its four rows, each rule's monomials one sum.

Random points and coefficients are drawn from ``random.Random`` with a
fixed seed per check and dimension (uniform draws by ``uniform``, normal
ones by ``gauss``), so every run prints the same report; the stdlib
generator is already loaded with the command line, where the first
``numpy.random`` generator would import that package.  The level count
check compares the closed form ``count(d, l)`` with the number of label
rows the chain enumeration behind every table path builds.
"""

import math
import random
from dataclasses import asdict, dataclass, field

import numpy as np

from . import gegenbauer as gb
from . import geometry as geo
from . import harmonics as hr
from . import quadrature as qd
from . import solver as sv

__all__ = ["CheckResult", "VerifyReport", "run_verification"]

HARMONICITY_FLOOR = 1e-4
_FD_STEP = 3e-4
# level caps for grid-based checks, one per dimension in quadrature._D_LIMITS
_LEVEL_CAP = {3: 4, 4: 4, 5: 4, 6: 3, 7: 2, 8: 2}


@dataclass
class CheckResult:
    name: str
    params: dict
    max_residual: float
    tolerance: float
    passed: bool


@dataclass
class VerifyReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def add(self, name, params, max_residual, tolerance):
        self.checks.append(
            CheckResult(name, params, float(max_residual), float(tolerance),
                        float(max_residual) <= float(tolerance))
        )

    def to_dict(self):
        return {"passed": self.passed, **asdict(self)}


def _x_grid():
    return np.linspace(-1.0, 1.0, 21)


def _generating_function_residual(d):
    """Partial sums of the generating function vs the closed form.

    The sum is carried until the tail is negligible (the band grows like
    l^(d-3) 0.4^l), so the residual reflects roundoff only.
    """
    r = 0.4
    xs = (-1.0, -0.5, 0.0, 0.5, 1.0)
    closed = np.array([(1.0 + r * r - 2.0 * r * x) ** (-(d - 2) / 2.0) for x in xs])
    total = np.zeros(len(xs))
    rl = 1.0
    for p in gb._recurrence(200, d, np.array(xs)):
        total += rl * p
        rl *= r
    return float(np.max(np.abs(total - closed)))


def _oracle_equivalence_residual(d):
    worst = 0.0
    for l in range(11):
        ref = gb.poly_reference(l, d, _x_grid())
        got = gb.poly(l, d, _x_grid())
        worst = max(worst, float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))))
    return worst


def _derivative_identity_residual(d, lmax):
    xs = np.array([-0.7, -0.2, 0.3, 0.8])
    offsets = np.array([[2.0], [1.0], [-1.0], [-2.0]]) * _FD_STEP  # one row per stencil point
    worst = 0.0
    for l in range(min(lmax, 6) + 1):
        for m in range(1, min(l, 3) + 1):
            got = np.asarray(gb.poly_deriv(l, m, d, xs))
            f2, f1, b1, b2 = gb.poly_deriv(l, m - 1, d, xs + offsets)
            fd = (-f2 + 8 * f1 - 8 * b1 + b2) / (12 * _FD_STEP)
            worst = max(worst, float(np.max(np.abs(got - fd) / np.maximum(1.0, np.abs(got)))))
    return worst


def _endpoint_derivative_residual(d, lmax):
    worst = 0.0
    for l in range(min(lmax, 8) + 1):
        for n in range(l + 1):
            exact = gb.deriv_at_one(l, n, d)
            via_shift = gb.poly_deriv(l, n, d, 1.0)
            worst = max(worst, abs(exact - via_shift) / max(1.0, abs(exact)))
    return worst


def _ode_residual(d, lmax):
    thetas = np.linspace(0.3, math.pi - 0.3, 10)
    worst = 0.0
    for l in range(min(lmax, 6) + 1):
        for m in range(l + 1):
            resid = np.asarray(gb.ode_residual(l, m, d, thetas))
            p = np.asarray(gb.assoc(l, m, d, thetas))
            scale = np.maximum(1.0, np.abs(p) * max(1, l * (l + d - 2)))
            worst = max(worst, float(np.max(np.abs(resid) / scale)))
    return worst


def _normalization_residual(d, lmax):
    worst = 0.0
    lcap = min(lmax, 6)
    rule = qd.theta_rule(d - 2, lcap + 2)
    for l in range(lcap + 1):
        for n in range(l + 1):
            integral = rule.integrate(np.asarray(gb.assoc(l, n, d, rule.nodes)) ** 2)
            worst = max(worst, abs(gb.norm_factor(l, n, d) ** 2 * integral - 1.0))
    return worst


def _solid_angle_residual():
    worst = abs(geo.solid_angle(3) - 4 * math.pi) / (4 * math.pi)
    worst = max(worst, abs(geo.solid_angle(4) - 2 * math.pi**2) / (2 * math.pi**2))
    for d in range(3, 13):
        rec = (
            math.sqrt(math.pi)
            * math.gamma((d - 1) / 2.0)
            / math.gamma(d / 2.0)
            * geo.solid_angle(d - 1)
        )
        worst = max(worst, abs(rec - geo.solid_angle(d)) / geo.solid_angle(d))
    return worst


def _moment(k, alpha):
    """Analytic int_0^pi cos^k sin^alpha dtheta by the reduction formula."""
    if k % 2 == 1:
        return 0.0
    val = qd.weight_total(alpha)
    for j in range(2, k + 1, 2):
        val *= (j - 1) / (j + alpha)
    return val


def _theta_rule_residual():
    """Monomial exactness of the 1-D rules, alpha = 1..6, n = 1..12 (independent of d)."""
    worst = 0.0
    for alpha in range(1, 7):
        for n in range(1, 13):
            rule = qd.theta_rule(alpha, n)
            cos_t = np.cos(rule.nodes)
            rows = np.array([cos_t**k for k in range(2 * n)])  # int k: an int-array power differs bitwise
            for k, got in enumerate(np.sum(rule.weights * rows, axis=1).tolist()):
                exact = _moment(k, alpha)
                worst = max(worst, abs(got - exact) / max(1.0, abs(exact)))
    return worst


def _quadrature_residual(d, rule_residual):
    """The 1-D rules' residual, from _theta_rule_residual, with the grid's total weight."""
    grid = qd.sphere_grid(d, 4)
    return max(
        rule_residual, abs(grid.total_weight() - geo.solid_angle(d)) / geo.solid_angle(d)
    )


def _gram_residual(d, lmax):
    """max |G - I|, G the grid's weighted sums of Y_i conj(Y_j) over every label row pair.

    Harmonics and grid both factor over the axes, so G = P * A_d * ... * A_3
    entrywise (sum factorization): P the phase Gram, sum over the phi nodes
    of w_phi e^(i (m_1 - m_1') phi) / 2 pi, and A_k = T_k W_k T_k^T, T_k the
    axis_factors of theta_k at the nodes of its rule gathered at each row's
    (degree, order).  No array grows with the node count.
    """
    lcap = min(lmax, _LEVEL_CAP[d])
    grid = qd.sphere_grid(d, lcap)
    labels = hr._labels(d, lcap, 0)
    phases = np.exp(1j * np.multiply.outer(labels[:, -1], grid.phi_nodes))
    gram = (grid.phi_weight / (2.0 * math.pi)) * phases @ phases.conj().T
    # axis k = d, ..., 3 has degree labels[:, i] and order |labels[:, i + 1]|
    orders = np.abs(labels)
    for i, rule in enumerate(grid.theta_rules):
        table = hr.axis_factors(d - i, lcap, rule.nodes)[labels[:, i], orders[:, i + 1]]
        gram *= (table * rule.weights) @ table.T
    return float(np.max(np.abs(gram - np.eye(len(labels)))))


def _uniform(rng, bounds, n):
    """An (n, len(bounds)) array of uniform draws, row after row, column j in bounds[j]."""
    return np.array([rng.uniform(lo, hi) for _ in range(n) for lo, hi in bounds]).reshape(n, -1)


def _normal(rng, n):
    """n standard normal draws."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(n)])


def _random_pairs(rng, d, n):
    """n pairs of directions as two array points a, b.

    Each direction is drawn as its d-2 thetas in [0.3, pi - 0.3] and then
    its phi, the directions in the order a, b, a, ...
    """
    bounds = [(0.3, math.pi - 0.3)] * (d - 2) + [(0.0, 2.0 * math.pi)]
    draws = _uniform(rng, bounds, 2 * n).reshape(n, 2, d - 1)
    return tuple(
        geo.UltrasphericalPoint(d, 1.0, tuple(draws[:, j, :-1].T), draws[:, j, -1])
        for j in (0, 1)
    )


def _addition_residual(d, lmax):
    rng = random.Random(1234 + d)
    worst = 0.0
    for l in range(min(lmax, 4) + 1):
        a, b = _random_pairs(rng, d, 10)
        direct = gb.poly(l, d, geo.cos_gamma(a, b))
        worst = max(worst, float(np.max(np.abs(hr.addition_sum(d, l, a, b) - direct))))
    return worst


def _addition_reduced_residual(d, lmax):
    rng = random.Random(4321 + d)
    worst = 0.0
    for l in range(min(lmax, 4) + 1):
        a, b = _random_pairs(rng, d, 10)
        lower_a = geo.UltrasphericalPoint(d - 1, 1.0, a.theta[1:], a.phi)
        lower_b = geo.UltrasphericalPoint(d - 1, 1.0, b.theta[1:], b.phi)
        got = hr.addition_reduced(
            d, l, a.theta[0], b.theta[0], geo.cos_gamma(lower_a, lower_b)
        )
        direct = gb.poly(l, d, geo.cos_gamma(a, b))
        worst = max(worst, float(np.max(np.abs(got - direct))))
    return worst


def _harmonicity_residual(d, lmax):
    """Both radial branches at five random points per level, one call per branch.

    Each point is drawn as its d-2 thetas, its phi and then its r, the
    points one after another.  The index is the middle label row of its level.
    """
    rng = random.Random(99 + d)
    bounds = [(0.3, math.pi - 0.3)] * (d - 2) + [(0.0, 2.0 * math.pi), (0.5, 0.85)]
    worst = 0.0
    for l in range(min(lmax, 3) + 1):
        labels = hr._labels(d, l, l)
        mid = len(labels) // 2
        (idx,) = hr._indices(d, labels[mid : mid + 1])
        draws = _uniform(rng, bounds, 5)
        angles = geo.UltrasphericalPoint(d, 1.0, tuple(draws[:, :-2].T), draws[:, -2])
        for branch in ("interior", "exterior"):
            resid = hr.harmonicity_residual(idx, draws[:, -1], angles, 1e-3, branch)
            worst = max(worst, float(np.max(resid)))
    return worst


def _manufactured(d, lmax, rng, kind):
    """Random (A, B) for each index, by the draws A.re, A.im, B.re, B.im per index.

    B is zeroed for an interior expansion and A for an exterior one.
    """
    labels = hr._labels(d, lmax, 0)
    values = _normal(rng, 4 * len(labels)).reshape(-1, 4).view(complex)
    if kind == "interior":
        values[:, 1] = 0
    elif kind == "exterior":
        values[:, 0] = 0
    return sv.HarmonicExpansion._of(d, lmax, labels, values)


def _solver_residual(d, lmax):
    """Manufactured fits of every kind, from boundary data synthesized on the grid.

    Also re-synthesizes the annulus fit's outer boundary data, and holds
    the staged synthesis to the scattered route, eval_expansion, at 16
    grid nodes.
    """
    lcap = min(lmax, _LEVEL_CAP[d])
    rng = random.Random(7 + d)
    grid = qd.sphere_grid(d, lcap)
    worst = 0.0
    fits = {"interior": ((1.0,), sv.fit_interior), "exterior": ((1.0,), sv.fit_exterior),
            "annulus": ((0.5, 2.0), sv.fit_annulus)}
    for kind, (radii, fit_kind) in fits.items():
        truth = _manufactured(d, lcap, rng, kind)
        data = tuple(sv._synthesize(truth, r, grid) for r in radii)
        fit = fit_kind(sv.BoundaryProblem(d, kind, radii, lcap, data))
        worst = max(worst, float(np.max(np.abs(fit.values - truth.values))))

    # re-evaluated boundary data of the annulus fit, data[1] being its truth at r = 2
    refit = sv._synthesize(fit, 2.0, grid)
    worst = max(worst, float(np.max(np.abs(data[1] - refit))))

    # the same values at a few nodes by the scattered route
    nodes = np.linspace(0, grid.size - 1, 16).astype(int)
    at = np.unravel_index(nodes, grid.shape)
    angles = geo.UltrasphericalPoint(
        d, 1.0, tuple(rule.nodes[i] for rule, i in zip(grid.theta_rules, at)),
        grid.phi_nodes[at[-1]],
    )
    scattered = np.asarray(sv.eval_expansion(fit, 2.0, angles))
    worst = max(worst, float(np.max(np.abs(scattered - refit[nodes]))))
    return worst


def _green_residual(d):
    rng = random.Random(2 + d)
    worst = 0.0
    for _ in range(5):
        va = _normal(rng, d)
        xa = geo.CartesianPoint(d, 0.3 * va / np.linalg.norm(va))
        vb = _normal(rng, d)
        xb = geo.CartesianPoint(d, vb / np.linalg.norm(vb))
        direct = float(np.sum((xa.x - xb.x) ** 2)) ** (-(d - 2) / 2.0)
        got = sv.green_expansion(xa, xb, 80)
        worst = max(worst, abs(got - direct) / abs(direct))
    return worst


def _count_residual(d, lmax):
    """The closed form against the number of label rows the chain enumeration builds."""
    worst = 0
    for l in range(min(lmax, 6) + 1):
        worst = max(worst, abs(len(hr._labels(d, l, l)) - hr.count(d, l)))
    return float(worst)


def run_verification(d_values, lmax, tol):
    """Run every check for each dimension; returns a VerifyReport."""
    lo, hi = qd._D_LIMITS
    unsupported = [d for d in d_values if d not in range(lo, hi + 1)]
    if unsupported:
        raise ValueError(f"verify supports d = {lo}..{hi}, got {unsupported}")
    report = VerifyReport()
    rule_residual = _theta_rule_residual()
    report.add("solid_angle_closed_form_and_recursion", {"d": "2..12"},
               _solid_angle_residual(), tol)
    for d in d_values:
        params = {"d": d, "lmax": lmax}
        report.add("generating_function_partial_sums", params,
                   _generating_function_residual(d), tol)
        report.add("recurrence_vs_binomial_oracle", params,
                   _oracle_equivalence_residual(d), tol)
        report.add("derivative_dimension_shift_vs_fd", params,
                   _derivative_identity_residual(d, lmax), tol)
        report.add("endpoint_derivatives", params,
                   _endpoint_derivative_residual(d, lmax), tol)
        report.add("sturm_liouville_residual", params, _ode_residual(d, lmax), tol)
        report.add("associated_normalization_integral", params,
                   _normalization_residual(d, lmax), tol)
        report.add("quadrature_monomial_exactness", params,
                   _quadrature_residual(d, rule_residual), tol)
        report.add("level_count_vs_enumeration", params,
                   _count_residual(d, lmax), tol)
        report.add("gram_orthonormality", params, _gram_residual(d, lmax), tol)
        report.add("addition_theorem_sum", params, _addition_residual(d, lmax), tol)
        if d >= 4:
            report.add("addition_theorem_reduced", params,
                       _addition_reduced_residual(d, lmax), tol)
        report.add("harmonicity_fd_laplacian", params,
                   _harmonicity_residual(d, lmax), max(tol, HARMONICITY_FLOOR))
        report.add("boundary_fit_roundtrip", params, _solver_residual(d, lmax), tol)
        report.add("green_kernel_expansion", params, _green_residual(d), tol)
    return report
