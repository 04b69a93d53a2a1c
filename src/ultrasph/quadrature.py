"""Quadrature for the angular measure dOmega_d.

The measure factorizes over the angle chain,

    dOmega_d = sin^(d-2)(theta_d) ... sin(theta_3) dtheta_d ... dtheta_3 dphi,

so a product rule needs one Gauss rule per polar angle (weight
sin^alpha(theta) on [0, pi], i.e. the Gegenbauer weight (1-x^2)^((alpha-1)/2)
on x = cos(theta)) plus a uniform rule in phi, which is exact for
e^(i k phi) with |k| < n_phi.

Gauss nodes are the roots of the orthonormal polynomial q_n of the
weight: the eigenvalues of the symmetric tridiagonal Jacobi matrix
(Golub & Welsch 1969, Math. Comp. 23:221), polished by one vectorized
Newton step on gegenbauer's orthonormal recurrence, the one
harmonics.axis_factors runs.  The weights are Christoffel weights
1 / sum_{j<n} q_j(x)^2 from a second pass (Gautschi 2004, Orthogonal
Polynomials, section 3.1); no monic family is run, so no weight
underflows at large n.  A rule costs one dense eigensolve and two
recurrence passes.  Nodes and weights mirror around the midpoint exactly.

Each rule is solved once per process: :func:`theta_rule` keeps the
recently used (alpha, n) rules (up to 256) and returns the same
read-only ThetaRule on a repeated call.  Grids are shared the same way:
:func:`sphere_grid` keeps the recently used (d, lmax) grids (up to 64),
which share their rules, and the transforms keep the per-axis tables
of the last (grid, lmax) pair (solver._tables).  A
shared grid holds only its axes; its node mesh and weight tensor are
formed on each read, and its total weight is the product of the
per-axis sums.  sphere_grid, where every transform and verify take
their grid, and formats.load_config refuse a size whose modelled fit
(_fit_bytes) exceeds one byte budget; that bounds the _tables entry too.
"""

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gegenbauer import _jacobi_b, _orthonormal, _starts
from .geometry import UltrasphericalPoint, _check_int

__all__ = [
    "SphereGrid",
    "ThetaRule",
    "grid_shape",
    "sphere_grid",
    "theta_rule",
]


def _gauss_rule(n, delta):
    """Golub-Welsch nodes and Christoffel weights of the n-point rule for (1-x^2)^delta.

    The nodes are the Jacobi-matrix eigenvalues (off-diagonal a_k = sqrt(b_k)),
    polished by one Newton step whose derivative comes from the last two
    recurrence values, (1-x^2) q_n' = -n x q_n + (2n+2 delta+1) a_n q_{n-1},
    and mirrored exactly about 0; the weights are 1 / sum_{j<n} q_j(x)^2,
    mirror-averaged so paired weights are bitwise equal.
    """
    a = np.sqrt(_jacobi_b(np.arange(1, n + 1), delta))  # a_1, ..., a_n
    x = np.linalg.eigvalsh(np.diag(a[:-1], 1) + np.diag(a[:-1], -1))
    q0 = np.full_like(x, _starts(delta, 1)[0])
    q_prev, q = deque(_orthonormal(x, q0, a), maxlen=2)  # q_{n-1}, q_n
    x = x - (1.0 - x * x) * q / ((2 * n + 2 * delta + 1) * a[-1] * q_prev - n * x * q)
    x = 0.5 * (x - x[::-1])
    if n % 2 == 1:
        x[n // 2] = 0.0
    w = 1.0 / sum(q * q for q in _orthonormal(x, q0, a[:-1]))
    return x, 0.5 * (w + w[::-1])


@dataclass(frozen=True)
class ThetaRule:
    """Gauss rule for integrands against sin^alpha(theta) on [0, pi].

    ``integrate(f)`` computes sum(w_i f(theta_i)) which equals
    int_0^pi sin^alpha(theta) f(theta) dtheta exactly (to roundoff) for f
    polynomial of degree <= 2n-1 in cos(theta).
    """

    alpha: int
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f):
        vals = f(self.nodes) if callable(f) else np.asarray(f)
        return float(np.sum(self.weights * vals))

    def total_weight(self):
        return float(np.sum(self.weights))


def theta_rule(alpha, n):
    """Construct the n-point rule for weight sin^alpha(theta), alpha >= 1.

    Each (alpha, n) is solved once per process: later calls return the same
    ThetaRule, whose nodes and weights are read-only.
    """
    alpha = _check_int(alpha, "weight exponent alpha", 1)
    n = _check_int(n, "node count", 1)
    return _theta_rule(alpha, n)


@lru_cache(maxsize=256)
def _theta_rule(alpha, n):
    """The rule of :func:`theta_rule`, keyed on its validated plain ints."""
    x, weights = _gauss_rule(n, (alpha - 1) / 2.0)  # the weights are mirror-symmetric
    # theta = arccos(x), ascending, its upper half pi minus the lower so
    # node pairs mirror around pi/2 exactly
    theta = np.arccos(x[::-1])
    theta[(n + 1) // 2 :] = math.pi - theta[: n // 2][::-1]
    if n % 2 == 1:
        theta[n // 2] = math.pi / 2.0
    theta.flags.writeable = weights.flags.writeable = False  # the rule is shared
    return ThetaRule(alpha, theta, weights)


class SphereGrid:
    """Tensor-product quadrature realizing dOmega_d.

    Polar axis j (j = d, ..., 3) carries the rule for sin^(j-2)(theta_j)
    with lmax+2 points; phi carries 2*lmax+2 uniform points of weight
    2*pi/n_phi.  The grid integrates products of two harmonics of level
    <= lmax exactly up to roundoff.

    ``points``/``weights`` expose the flattened node tensor for vectorized
    consumers, formed anew on each read: a grid is shared, so it keeps no
    node-sized array.
    """

    def __init__(self, d, lmax, theta_rules, phi_nodes, phi_weight):
        self.d = d
        self.lmax = lmax
        self.theta_rules = tuple(theta_rules)  # ordered theta_d, ..., theta_3
        self.phi_nodes = phi_nodes
        self.phi_weight = phi_weight

    @property
    def n_phi(self):
        return len(self.phi_nodes)

    @property
    def shape(self):
        """Node tensor shape (n_d, ..., n_3, n_phi); see :func:`grid_shape`."""
        return grid_shape(self.d, self.lmax)

    @property
    def size(self):
        return math.prod(self.shape)

    @property
    def points(self):
        """All nodes as one UltrasphericalPoint with array angles, r = 1."""
        axes = [rule.nodes for rule in self.theta_rules] + [self.phi_nodes]
        mesh = np.meshgrid(*axes, indexing="ij")
        thetas = tuple(m.reshape(-1) for m in mesh[:-1])
        phi = mesh[-1].reshape(-1)
        return UltrasphericalPoint(self.d, 1.0, thetas, phi)

    @property
    def weights(self):
        w = self.theta_rules[0].weights
        for rule in self.theta_rules[1:]:
            w = np.multiply.outer(w, rule.weights)
        return np.multiply.outer(w, np.full(self.n_phi, self.phi_weight)).reshape(-1)

    def total_weight(self):
        """The sum of the weights, as the product of the per-axis sums."""
        return self.n_phi * self.phi_weight * math.prod(r.total_weight() for r in self.theta_rules)


# The working bytes a fit may take, as _fit_bytes models them: every d <= 8
# at lmax <= 8 fits ((8, 8) models 2.55 GiB), and d = 3 up to lmax = 340.
_FIT_BUDGET = 3 * 2**30
# The highest degree or order tabulate takes: the cost of one value grows
# with it, 0.03 s for assoc at d = 8 and l = m = 10,000, 3.5 s at 100,000.
_DEGREE_LIMIT = 10_000


def _fit_bytes(d, lmax):
    """The working bytes of a fit on sphere_grid(d, lmax), from its nodes and table entries.

    A node takes two spheres' samples and stage buffers, 16 bytes each, and
    a callable's node mesh, 8 (d - 1).  A table entry (solver._tables) takes
    8 bytes, its weighted copy 8 and matmul's complex cast of that 16, and 8 spare.
    """
    nodes = (lmax + 2) ** (d - 2) * (2 * lmax + 2)
    entries = (2 * lmax + 1) * (lmax + 1) * (lmax + 2) + (d - 3) * (lmax + 1) ** 2 * (lmax + 2)
    return (96 + 8 * (d - 1)) * nodes + 40 * entries


def _check_budget(d, lmax):
    """Raise ValueError when a fit on sphere_grid(d, lmax) would take more than _FIT_BUDGET.

    A grid has at least 2^(d-1) and 2 lmax^2 nodes, so a d or an lmax past
    the budget alone is refused before the node count is formed.
    """
    alone = d > _FIT_BUDGET.bit_length() or lmax > math.isqrt(_FIT_BUDGET)
    nbytes = math.inf if alone else _fit_bytes(d, lmax)
    if nbytes > _FIT_BUDGET:
        raise ValueError(f"a fit at d={d}, lmax={lmax} would take about {nbytes / 2**20:.0f} MiB, "
                         f"above the budget of {_FIT_BUDGET // 2**20} MiB")


def grid_shape(d, lmax):
    """Node counts (n_d, ..., n_3, n_phi) of the product grid sphere_grid(d, lmax).

    Each polar axis has lmax+2 Gauss nodes and phi has 2*lmax+2 uniform
    nodes; samples in canonical grid order are this tensor, row-major.
    """
    d = _check_int(d, "dimension", 3)
    lmax = _check_int(lmax, "lmax", 0)
    return (lmax + 2,) * (d - 2) + (2 * lmax + 2,)


def sphere_grid(d, lmax):
    """The product grid for dimension d and harmonic band limit lmax.

    Each (d, lmax) is built once per process, like its rules: later calls
    return the same SphereGrid, whose phi nodes are read-only.  A size above
    the byte budget raises ValueError before any rule is built.
    """
    return _sphere_grid(_check_int(d, "dimension", 3), _check_int(lmax, "lmax", 0))


@lru_cache(maxsize=64)
def _sphere_grid(d, lmax):
    """The grid of :func:`sphere_grid`, keyed on its validated plain ints."""
    _check_budget(d, lmax)
    shape = grid_shape(d, lmax)
    rules = [theta_rule(j - 2, n) for j, n in zip(range(d, 2, -1), shape[:-1])]
    n_phi = shape[-1]
    phi_nodes = 2.0 * math.pi * np.arange(n_phi) / n_phi
    phi_nodes.flags.writeable = False  # the grid is shared
    return SphereGrid(d, lmax, rules, phi_nodes, 2.0 * math.pi / n_phi)


def weight_total(alpha):
    """Analytic int_0^pi sin^alpha(theta) dtheta = c (alpha-1)!! / alpha!!, c = pi (even) or 2 (odd).

    The double-factorial ratio is one correctly rounded division of two
    Python ints, as in gegenbauer.deriv_at_one, so the value is within
    2 ulp at every alpha.  It shares no step with the Gauss rules' weights
    (gegenbauer._starts), so verify's moment check has an independent reference.
    """
    ratio = math.prod(range(alpha - 1, 0, -2)) / math.prod(range(alpha, 0, -2))
    return (2.0 if alpha % 2 else math.pi) * ratio
