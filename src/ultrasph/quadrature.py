"""Quadrature for the angular measure dOmega_d.

The measure factorizes over the angle chain,

    dOmega_d = sin^(d-2)(theta_d) ... sin(theta_3) dtheta_d ... dtheta_3 dphi,

so a product rule needs one Gauss rule per polar angle (weight
sin^alpha(theta) on [0, pi], i.e. the Gegenbauer weight (1-x^2)^((alpha-1)/2)
on x = cos(theta)) plus a uniform rule in phi, which is exact for
e^(i k phi) with |k| < n_phi.

Gauss nodes are the roots of the monic orthogonal polynomial of the
weight, located by bisection-bracketed Newton iteration on the three-term
recurrence (interlacing gives the brackets, so no deflation is needed);
weights come from the standard h_{n-1} / (p_{n-1}(x) p_n'(x)) formula.
Nodes and weights are mirrored around the midpoint by construction.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import UltrasphericalPoint

__all__ = [
    "SphereGrid",
    "ThetaRule",
    "grid_shape",
    "inner_product",
    "sphere_grid",
    "theta_rule",
]

_X_TOL = 1e-14


def _recurrence_b(k, delta):
    """Monic recurrence coefficient b_k for the weight (1-x^2)^delta."""
    return k * (k + 2.0 * delta) / ((2.0 * k + 2.0 * delta) ** 2 - 1.0)


def _weight_mass(delta):
    """mu_0 = integral of (1-x^2)^delta over [-1, 1]."""
    return 2.0 ** (2.0 * delta + 1.0) * math.gamma(delta + 1.0) ** 2 / math.gamma(
        2.0 * delta + 2.0
    )


def _eval_monic(n, delta, x):
    """Value and x-derivative of the monic orthogonal polynomial p_n."""
    p_prev, p = 1.0, x
    dp_prev, dp = 0.0, 1.0
    if n == 0:
        return 1.0, 0.0
    for k in range(1, n):
        b = _recurrence_b(k, delta)
        p_prev, p = p, x * p - b * p_prev
        dp_prev, dp = dp, p_prev + x * dp - b * dp_prev
    return p, dp


def _root_in(n, delta, lo, hi):
    """The single root of p_n inside (lo, hi), to 1e-14 in x."""
    flo, _ = _eval_monic(n, delta, lo)
    x = 0.5 * (lo + hi)
    for _ in range(200):
        f, df = _eval_monic(n, delta, x)
        if f == 0.0:
            return x
        if (f > 0.0) == (flo > 0.0):
            lo = x
        else:
            hi = x
        step = f / df if df != 0.0 else math.inf
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)  # Newton left the bracket: bisect
        if abs(x_new - x) <= _X_TOL:
            return x_new
        x = x_new
    return x


def _gauss_nodes(n, delta):
    """Interlacing build-up of the roots of p_1, p_2, ..., p_n."""
    roots = [0.0]
    for k in range(2, n + 1):
        brackets = [-1.0] + roots + [1.0]
        roots = [
            _root_in(k, delta, brackets[i], brackets[i + 1]) for i in range(k)
        ]
    # enforce exact mirror symmetry of the computed roots
    roots = np.sort(np.asarray(roots))
    sym = 0.5 * (roots - roots[::-1])
    if n % 2 == 1:
        sym[n // 2] = 0.0
    return sym


def _gauss_weights(n, delta, nodes):
    h = _weight_mass(delta)
    for k in range(1, n):
        h *= _recurrence_b(k, delta)
    w = np.empty(n)
    for i, x in enumerate(nodes):
        pm1, _ = _eval_monic(n - 1, delta, x)
        _, dpn = _eval_monic(n, delta, x)
        w[i] = h / (pm1 * dpn)
    # mirror-average so paired weights are bitwise equal
    w = 0.5 * (w + w[::-1])
    return w


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
    """Construct the n-point rule for weight sin^alpha(theta), alpha >= 1."""
    if not isinstance(alpha, (int, np.integer)) or alpha < 1:
        raise ValueError(f"weight exponent alpha must be an integer >= 1, got {alpha!r}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"node count must be a positive integer, got {n!r}")
    alpha, n = int(alpha), int(n)
    delta = (alpha - 1) / 2.0
    x = _gauss_nodes(n, delta)
    w = _gauss_weights(n, delta, x)
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
    return ThetaRule(alpha, theta, weights)


class SphereGrid:
    """Tensor-product quadrature realizing dOmega_d.

    Polar axis j (j = d, ..., 3) carries the rule for sin^(j-2)(theta_j)
    with lmax+2 points; phi carries 2*lmax+2 uniform points of weight
    2*pi/n_phi.  The grid integrates products of two harmonics of level
    <= lmax exactly up to roundoff.

    ``points``/``weights`` expose the flattened node tensor for vectorized
    consumers (built lazily and cached); ``iter_nodes`` streams scalar
    nodes with O(sum n_j) memory instead.
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

    def iter_nodes(self):
        """Yield (UltrasphericalPoint, weight) node by node."""
        axes = [list(zip(r.nodes, r.weights)) for r in self.theta_rules]
        axes.append([(p, self.phi_weight) for p in self.phi_nodes])
        for combo in itertools.product(*axes):
            thetas = tuple(c[0] for c in combo[:-1])
            phi = combo[-1][0]
            w = 1.0
            for c in combo:
                w *= c[1]
            yield UltrasphericalPoint(self.d, 1.0, thetas, phi), w

    def total_weight(self):
        return float(np.sum(self.weights))


def grid_shape(d, lmax):
    """Node counts (n_d, ..., n_3, n_phi) of the product grid sphere_grid(d, lmax).

    Each polar axis has lmax+2 Gauss nodes and phi has 2*lmax+2 uniform
    nodes; samples in canonical grid order are this tensor, row-major.
    """
    if not isinstance(d, (int, np.integer)) or d < 3:
        raise ValueError(f"dimension must be an integer >= 3, got {d!r}")
    if not isinstance(lmax, (int, np.integer)) or lmax < 0:
        raise ValueError(f"lmax must be a nonnegative integer, got {lmax!r}")
    return (int(lmax) + 2,) * (int(d) - 2) + (2 * int(lmax) + 2,)


def sphere_grid(d, lmax):
    """Build the product grid for dimension d and harmonic band limit lmax."""
    shape = grid_shape(d, lmax)
    d, lmax = int(d), int(lmax)
    rules = [theta_rule(j - 2, n) for j, n in zip(range(d, 2, -1), shape[:-1])]
    n_phi = shape[-1]
    phi_nodes = 2.0 * math.pi * np.arange(n_phi) / n_phi
    return SphereGrid(d, lmax, rules, phi_nodes, 2.0 * math.pi / n_phi)


def inner_product(f, g, grid):
    """<f, g> = sum w f conj(g) over the grid (pairwise summation).

    ``f`` and ``g`` may be callables taking the grid's array-valued
    UltrasphericalPoint, or precomputed value arrays of length grid.size.
    """
    fv = np.asarray(f(grid.points)) if callable(f) else np.asarray(f).reshape(-1)
    gv = np.asarray(g(grid.points)) if callable(g) else np.asarray(g).reshape(-1)
    if fv.size != grid.size or gv.size != grid.size:
        raise ValueError("value arrays do not match the grid size")
    return complex(np.sum(grid.weights * fv.reshape(-1) * np.conj(gv.reshape(-1))))


def weight_total(alpha):
    """Analytic int_0^pi sin^alpha(theta) dtheta."""
    return math.sqrt(math.pi) * math.gamma((alpha + 1) / 2.0) / math.gamma(alpha / 2.0 + 1.0)
