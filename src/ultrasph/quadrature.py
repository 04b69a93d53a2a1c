"""Quadrature for the angular measure dOmega_d.

The measure factorizes over the angle chain,

    dOmega_d = sin^(d-2)(theta_d) ... sin(theta_3) dtheta_d ... dtheta_3 dphi,

so a product rule needs one Gauss rule per polar angle (weight
sin^alpha(theta) on [0, pi], i.e. the Gegenbauer weight (1-x^2)^((alpha-1)/2)
on x = cos(theta)) plus a uniform rule in phi, which is exact for
e^(i k phi) with |k| < n_phi.

Gauss nodes are the roots of the monic orthogonal polynomial p_n of the
weight.  They are found as the eigenvalues of the symmetric tridiagonal
Jacobi matrix of its three-term recurrence (Golub & Welsch 1969, Math.
Comp. 23:221), then polished by one vectorized Newton step on that
recurrence; weights come from the standard h_{n-1} / (p_{n-1}(x) p_n'(x))
formula, evaluated for all nodes in one recurrence pass.  The recurrence
coefficients b_k and the mass h_0 are gegenbauer's (_jacobi_b, _log_mass),
as for harmonics.axis_factors.  A rule costs one dense symmetric
eigensolve and two recurrence passes over all nodes.  Nodes and weights
are mirrored around the midpoint exactly.

Each rule is solved once per process: :func:`theta_rule` keeps the
recently used (alpha, n) rules (up to 256) and returns the same
read-only ThetaRule on a repeated call, so the grids :func:`sphere_grid`
builds share their rules.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .gegenbauer import _jacobi_b, _log_mass
from .geometry import UltrasphericalPoint, _check_int

__all__ = [
    "SphereGrid",
    "ThetaRule",
    "grid_shape",
    "sphere_grid",
    "theta_rule",
]


def _monic(b, x):
    """p_{n-1}(x), p_n(x) and p_n'(x) of the monic family, n = len(b) + 1."""
    p_prev, p = np.ones_like(x), x
    dp_prev, dp = np.zeros_like(x), np.ones_like(x)
    for bk in b:
        p_prev, p, dp_prev, dp = p, x * p - bk * p_prev, dp, p + x * dp - bk * dp_prev
    return p_prev, p, dp


def _gauss_rule(n, delta):
    """Golub-Welsch nodes and weights of the n-point rule for (1-x^2)^delta.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix (zero diagonal, off-diagonal sqrt(b_k)), polished by one Newton
    step on the monic recurrence and mirrored exactly about 0; the weights
    are h_{n-1} / (p_{n-1}(x) p_n'(x)), mirror-averaged so paired weights
    are bitwise equal.
    """
    b = _jacobi_b(np.arange(1, n), delta)
    off = np.sqrt(b)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    _, p, dp = _monic(b, x)
    x = x - p / dp
    x = 0.5 * (x - x[::-1])
    if n % 2 == 1:
        x[n // 2] = 0.0
    pm1, _, dp = _monic(b, x)
    w = math.exp(_log_mass(delta)) * np.prod(b) / (pm1 * dp)
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
    delta = (alpha - 1) / 2.0
    x, w = _gauss_rule(n, delta)
    # map to theta = arccos(x), ascending; build the upper half as
    # pi - arccos(|x|) so node pairs mirror around pi/2 exactly
    half = x[x > 0.0][::-1]  # descending positive roots
    t_low = np.arccos(half)
    t_high = (math.pi - np.arccos(half))[::-1]
    mid = [math.pi / 2.0] if n % 2 == 1 else []
    theta = np.concatenate([t_low, mid, t_high])
    w_half = w[x > 0.0][::-1]
    w_mid = [w[n // 2]] if n % 2 == 1 else []
    weights = np.concatenate([w_half, w_mid, w_half[::-1]])
    theta.flags.writeable = weights.flags.writeable = False  # the rule is shared
    return ThetaRule(alpha, theta, weights)


class SphereGrid:
    """Tensor-product quadrature realizing dOmega_d.

    Polar axis j (j = d, ..., 3) carries the rule for sin^(j-2)(theta_j)
    with lmax+2 points; phi carries 2*lmax+2 uniform points of weight
    2*pi/n_phi.  The grid integrates products of two harmonics of level
    <= lmax exactly up to roundoff.

    ``points``/``weights`` expose the flattened node tensor for vectorized
    consumers (built lazily and cached).
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

    @cached_property
    def points(self):
        """All nodes as one UltrasphericalPoint with array angles, r = 1."""
        axes = [rule.nodes for rule in self.theta_rules] + [self.phi_nodes]
        mesh = np.meshgrid(*axes, indexing="ij")
        thetas = tuple(m.reshape(-1) for m in mesh[:-1])
        phi = mesh[-1].reshape(-1)
        return UltrasphericalPoint(self.d, 1.0, thetas, phi)

    @cached_property
    def weights(self):
        axes = [rule.weights for rule in self.theta_rules] + [
            np.full(self.n_phi, self.phi_weight)
        ]
        w = axes[0]
        for a in axes[1:]:
            w = np.multiply.outer(w, a)
        return w.reshape(-1)

    def total_weight(self):
        return float(np.sum(self.weights))


# The supported problem sizes, (lowest, highest) inclusive: the dimensions
# and band limits the command line accepts and verify covers.  The grid
# has (lmax+2)^(d-2) (2 lmax+2) nodes: 18 million at d = 8, lmax = 8.
_D_LIMITS = (3, 8)
_LMAX_LIMITS = (0, 8)


def grid_shape(d, lmax):
    """Node counts (n_d, ..., n_3, n_phi) of the product grid sphere_grid(d, lmax).

    Each polar axis has lmax+2 Gauss nodes and phi has 2*lmax+2 uniform
    nodes; samples in canonical grid order are this tensor, row-major.
    """
    d = _check_int(d, "dimension", 3)
    lmax = _check_int(lmax, "lmax", 0)
    return (lmax + 2,) * (d - 2) + (2 * lmax + 2,)


def sphere_grid(d, lmax):
    """Build the product grid for dimension d and harmonic band limit lmax."""
    shape = grid_shape(d, lmax)
    d, lmax = int(d), int(lmax)
    rules = [theta_rule(j - 2, n) for j, n in zip(range(d, 2, -1), shape[:-1])]
    n_phi = shape[-1]
    phi_nodes = 2.0 * math.pi * np.arange(n_phi) / n_phi
    return SphereGrid(d, lmax, rules, phi_nodes, 2.0 * math.pi / n_phi)


def weight_total(alpha):
    """Analytic int_0^pi sin^alpha(theta) dtheta = sqrt(pi) Gamma((alpha+1)/2) / Gamma(alpha/2+1).

    The direct ratio is correct to a few ulps while the Gamma values are
    finite (alpha <= 340).  Above that it is formed in logs with
    math.lgamma, whose rounding near lgamma(alpha/2) limits it to about
    1e-13 relative (2.2e-14 at alpha = 400).
    """
    if alpha <= 340:
        return math.sqrt(math.pi) * math.gamma((alpha + 1) / 2.0) / math.gamma(alpha / 2.0 + 1.0)
    return math.exp(0.5 * math.log(math.pi) + math.lgamma((alpha + 1) / 2.0)
                    - math.lgamma(alpha / 2.0 + 1.0))
