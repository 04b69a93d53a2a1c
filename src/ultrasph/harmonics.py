"""Orthonormal hyperspherical harmonics and their index algebra.

A harmonic on the (d-1)-sphere is labeled by the integer chain
(l, m_{d-2}, ..., m_2, m_1) with

    l >= m_{d-2} >= ... >= m_2 >= |m_1|,

all entries nonnegative except m_1, whose negative branch is the complex
conjugate of the positive one.  The unnormalized eigenfunction is the
product over the angle chain

    Psi = P^{m_{d-2}}_{l,d}(cos theta_d)
          P^{m_{d-3}}_{m_{d-2},d-1}(cos theta_{d-1}) ...
          P^{m_1}_{m_2,3}(cos theta_3) e^{i m_1 phi},

an eigenfunction of the angular Laplacian with eigenvalue -l(l+d-2).
Y = norm_coeff * Psi is orthonormal against dOmega_d; the normalization
carries an explicit (2 pi)^(-1/2) azimuthal factor so that the Gram matrix
is exactly the identity (the chained 1-D factors alone leave a residual
2 pi from the phi integral).

All bulk evaluation takes one table path: Y_idx is (2 pi)^(-1/2)
e^(i m_1 phi) times one normalized factor per polar axis, read from the
per-axis tables of :func:`axis_factors`.  :func:`harmonic_values` (and
through it :func:`addition_sum` and the verify Gram check) and
``solver.eval_expansion`` share one chain-product loop over those tables;
``solver.project_boundary`` contracts grid samples against the same
tables.  :func:`eval_harmonic` (norm_coeff times eval_psi, index by index)
is the independent reference the tests compare the table path to.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gegenbauer import _recurrence, alpha_factor, assoc, norm_factor, poly
from .geometry import CartesianPoint, UltrasphericalPoint, _check_int, solid_angle, to_cartesian, to_ultraspherical

__all__ = [
    "MultiIndex",
    "addition_reduced",
    "addition_sum",
    "axis_factors",
    "count",
    "enumerate_indices",
    "eval_harmonic",
    "eval_psi",
    "harmonic_values",
    "harmonicity_residual",
    "norm_coeff",
]


@dataclass(frozen=True)
class MultiIndex:
    """Harmonic label (l, m_{d-2}, ..., m_2, m_1) for dimension d.

    ``m`` is ordered outermost first, so m[0] = m_{d-2} and m[-1] = m_1;
    only m_1 may be negative.
    """

    d: int
    l: int
    m: tuple

    def __post_init__(self):
        d = _check_int(self.d, "dimension", 3)
        l = _check_int(self.l, "level", 0)
        # no entry of a chain is below -l, whatever its place
        m = tuple(_check_int(v, "chain entry", -l) for v in self.m)
        if len(m) != d - 2:
            raise ValueError(f"expected {d - 2} chain entries for d={d}, got {len(m)}")
        bound = l
        for v in m[:-1]:
            if not 0 <= v <= bound:
                raise ValueError(f"chain violation in {m}: {v} not in [0, {bound}]")
            bound = v
        if abs(m[-1]) > bound:
            raise ValueError(f"chain violation in {m}: |{m[-1]}| > {bound}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "m", m)

    def axis_terms(self):
        """Per-axis factors as (dimension k, degree, order), k = d, ..., 3."""
        degrees = (self.l,) + self.m[:-1]
        orders = self.m[:-1] + (abs(self.m[-1]),)
        return tuple(
            (self.d - i, degrees[i], orders[i]) for i in range(self.d - 2)
        )

    def conjugate(self):
        """The label with m_1 negated."""
        return MultiIndex(self.d, self.l, self.m[:-1] + (-self.m[-1],))


def count(d, l):
    """Number of independent harmonics at level l: (d+2l-2)(d+l-3)!/((d-2)! l!)."""
    d = _check_int(d, "dimension", 3)
    l = _check_int(l, "level", 0)
    num = (d + 2 * l - 2) * math.factorial(d + l - 3)
    den = math.factorial(d - 2) * math.factorial(l)
    assert num % den == 0
    return num // den


def _chains(bound, length):
    if length == 1:
        for m1 in range(-bound, bound + 1):
            yield (m1,)
        return
    for v in range(bound + 1):
        for rest in _chains(v, length - 1):
            yield (v,) + rest


def enumerate_indices(d, l):
    """All MultiIndex at level l, in deterministic lexicographic order.

    The outer entries ascend from 0 to their chain bound and m_1 ascends
    over [-m_2, m_2]; the result has length count(d, l).
    """
    return [MultiIndex(d, l, m) for m in _chains(l, d - 2)]


def eval_psi(idx, angles):
    """Unnormalized eigenfunction Psi at the given angles (m_1 >= 0 branch)."""
    if idx.m[-1] < 0:
        raise ValueError("eval_psi handles m_1 >= 0; use eval_harmonic for m_1 < 0")
    if angles.d != idx.d:
        raise ValueError(f"dimension mismatch: index d={idx.d}, point d={angles.d}")
    val = np.exp(1j * idx.m[-1] * np.asarray(angles.phi))
    for (k, degree, order), theta in zip(idx.axis_terms(), angles.theta):
        val = val * np.asarray(assoc(degree, order, k, theta))
    return complex(val) if np.ndim(val) == 0 else val


def norm_coeff(idx):
    """Chained normalization constant, including the (2 pi)^(-1/2) factor."""
    out = 1.0 / math.sqrt(2.0 * math.pi)
    for k, degree, order in idx.axis_terms():
        out *= norm_factor(degree, order, k)
    return out


def axis_factors(k, lmax, theta):
    """Table T[deg, ord] = norm_factor(deg, ord, k) assoc(deg, ord, k, theta).

    These are the normalized per-axis factors of the chain product for the
    polar angle theta_k, for all 0 <= ord <= deg <= lmax; entries with
    ord > deg are zero.  The result has shape (lmax+1, lmax+1) + shape of
    theta.  Y_idx is (2 pi)^(-1/2) e^(i m_1 phi) times the product of
    T_k[deg, ord] over idx.axis_terms().

    Column ord is sin^ord(theta) alpha(ord, k) P_{deg-ord, k+2 ord}(cos theta),
    so one walk of gegenbauer's degree recurrence per column fills it, with
    the operations of :func:`~ultrasph.gegenbauer.assoc` in the same order:
    the table is bitwise equal to the entry-by-entry product.
    """
    theta = np.asarray(theta, dtype=float)
    table = np.zeros((lmax + 1, lmax + 1) + theta.shape)
    x = np.cos(theta)
    for order in range(lmax + 1):
        scale = np.sin(theta) ** order
        alpha = alpha_factor(order, k)
        for j, p in enumerate(_recurrence(lmax - order, k + 2 * order, x)):
            table[order + j, order] = norm_factor(order + j, order, k) * (scale * (alpha * p))
    return table


def _chain_products(indices, angles):
    """Yield Y_idx(angles) for each idx of ``indices``, in order.

    The one chain-product loop behind :func:`harmonic_values` and
    ``solver.eval_expansion``: the per-axis tables and the
    e^(i m_1 phi) / sqrt(2 pi) rows are built once, up to the top level
    of ``indices``, and each Y_idx is a product of their entries.
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


def harmonic_values(angles, lmax, lmin=0):
    """Values of every Y_idx with lmin <= l <= lmax at ``angles``.

    Rows follow enumerate_indices(d, lmin), ..., enumerate_indices(d, lmax);
    the result has shape (rows,) + the broadcast shape of the angles, so a
    scalar point gives a vector.  Equal to :func:`eval_harmonic` per index
    up to roundoff, from one set of per-axis tables.
    """
    indices = [idx for l in range(lmin, lmax + 1) for idx in enumerate_indices(angles.d, l)]
    shape = np.broadcast_shapes(*(np.shape(t) for t in angles.theta), np.shape(angles.phi))
    out = np.empty((len(indices),) + shape, dtype=complex)
    for i, y in enumerate(_chain_products(indices, angles)):
        out[i] = y
    return out


def eval_harmonic(idx, angles):
    """Orthonormal harmonic Y at the given angles.

    For m_1 < 0 this is norm_coeff times the conjugate of the
    positive-m_1 eigenfunction.
    """
    if idx.m[-1] >= 0:
        return norm_coeff(idx) * eval_psi(idx, angles)
    pos = idx.conjugate()
    val = norm_coeff(idx) * np.conj(eval_psi(pos, angles))
    return complex(val) if np.ndim(val) == 0 else val


def addition_sum(d, l, angles_a, angles_b):
    """Level-l harmonic product sum, equal to P_{l,d}(cos gamma).

    Computes (d-2) Omega_d / (2l+d-2) * sum_idx Y(idx, a) conj(Y(idx, b));
    the imaginary part cancels (conjugate m_1 pairs) and is dropped.
    Array-valued points give one sum per broadcast element.
    """
    if angles_a.d != d or angles_b.d != d:
        raise ValueError(f"dimension mismatch: d={d}, points d={angles_a.d}, {angles_b.d}")
    ya = harmonic_values(angles_a, l, l)
    yb = harmonic_values(angles_b, l, l)
    total = np.sum(ya * np.conj(yb), axis=0).real
    val = ((d - 2) * solid_angle(d) / (2 * l + d - 2)) * total
    return float(val) if np.ndim(val) == 0 else val


def addition_reduced(d, l, theta_a, theta_b, cos_gamma_lower):
    """Single-sum addition theorem over the outermost order only.

    K_{l,d} sum_{m=0}^{l} (2m+d-3) N_{lm}^2 P^m_{l,d}(cos theta_a)
    P^m_{l,d}(cos theta_b) P_{m,d-1}(cos gamma_{d-1}), which again equals
    P_{l,d}(cos gamma_d).  Undefined at d = 3, where K divides by d-3.
    """
    d = _check_int(d, "addition_reduced dimension", 4)
    k_factor = (
        solid_angle(d) / solid_angle(d - 1) * (d - 2) / ((2 * l + d - 2) * (d - 3))
    )
    total = 0.0
    for m in range(l + 1):
        total += (
            (2 * m + d - 3)
            * norm_factor(l, m, d) ** 2
            * assoc(l, m, d, theta_a)
            * assoc(l, m, d, theta_b)
            * poly(m, d - 1, cos_gamma_lower)
        )
    return k_factor * total


def harmonicity_residual(idx, r, angles, h=1e-3, branch="interior"):
    """Relative finite-difference Laplacian residual of a solid harmonic.

    Evaluates u = r^l Y (or u = r^-(l+d-2) Y for ``branch="exterior"``) on
    the 2d+1 point central stencil around the Cartesian image of
    (r, angles) and returns |sum_j D2_j u| / max(1, sum_j |D2_j u|), where
    D2_j is the second difference along axis j.  The residual of an exact
    harmonic is O(h^2) times the local fourth-derivative scale.

    Raises if the stencil comes within sin(theta_j) < 1e-6 of a chart
    singularity.
    """
    if not 1e-4 <= h <= 1e-2:
        raise ValueError(f"step h must lie in [1e-4, 1e-2], got {h!r}")
    if branch not in ("interior", "exterior"):
        raise ValueError(f"unknown branch {branch!r}")
    d = idx.d
    center = UltrasphericalPoint(d, r, angles.theta, angles.phi)
    x0 = to_cartesian(center).x
    stencil = np.tile(x0[:, None], (1, 2 * d + 1))
    for j in range(d):
        stencil[j, 1 + 2 * j] += h
        stencil[j, 2 + 2 * j] -= h
    sp = to_ultraspherical(CartesianPoint(d, stencil))
    for t in sp.theta:
        if np.any(np.sin(t) < 1e-6):
            raise ValueError("stencil too close to a coordinate-axis singularity")
    if branch == "interior":
        radial = np.asarray(sp.r) ** idx.l
    else:
        radial = np.asarray(sp.r) ** (-(idx.l + d - 2))
    u = radial * eval_harmonic(idx, sp)
    second = (u[1::2] - 2.0 * u[0] + u[2::2]) / h**2
    resid = abs(np.sum(second))
    scale = float(np.sum(np.abs(second)))
    return float(resid / max(1.0, scale))
