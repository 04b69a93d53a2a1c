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
per-axis tables of :func:`axis_factors`, which one orthonormal recurrence
fills with no normalization constant.  :func:`harmonic_values` (and
through it :func:`addition_sum` and the verify Gram check) and
``solver.eval_expansion`` share one block gather over those tables
(_chain_blocks) on integer label rows (_labels); a block of about 2^16
rows x points entries bounds the memory beyond the tables.
``solver.project_boundary`` contracts grid samples against the same
tables.  :func:`eval_harmonic` (norm_coeff times eval_psi, index by index)
is the independent reference the tests compare the table path to.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gegenbauer import _jacobi_b, _log_mass, assoc, norm_factor, poly
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
        # _check_int only where a value is not already a plain int in range
        d, l = self.d, self.l
        if type(d) is not int or d < 3:
            d = _check_int(d, "dimension", 3)
        if type(l) is not int or l < 0:
            l = _check_int(l, "level", 0)
        # no entry of a chain is below -l, whatever its place
        m = self.m
        if type(m) is not tuple or not all([type(v) is int and v >= -l for v in m]):
            m = tuple(_check_int(v, "chain entry", -l) for v in m)
        if len(m) != d - 2:
            raise ValueError(f"expected {d - 2} chain entries for d={d}, got {len(m)}")
        bound = l
        for v in m[:-1]:
            if not 0 <= v <= bound:
                raise ValueError(f"chain violation in {m}: {v} not in [0, {bound}]")
            bound = v
        if abs(m[-1]) > bound:
            raise ValueError(f"chain violation in {m}: |{m[-1]}| > {bound}")
        if d is not self.d or l is not self.l or m is not self.m:
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
    """Number of independent harmonics at level l: C(l+d-2, d-2) + C(l+d-3, d-2), an exact int."""
    d = _check_int(d, "dimension", 3)
    l = _check_int(l, "level", 0)
    return math.comb(l + d - 2, d - 2) + math.comb(l + d - 3, d - 2)


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
    """Chained normalization constant, including the (2 pi)^(-1/2) factor.

    Raises ValueError once a per-axis factor falls below sqrt(tiny) (its
    rational part subnormal: from l = 86 at d = 3) or the product below tiny.
    """
    out = 1.0 / math.sqrt(2.0 * math.pi)
    for k, degree, order in idx.axis_terms():
        factor = norm_factor(degree, order, k)
        out *= factor
        if factor < math.sqrt(sys.float_info.min) or out < sys.float_info.min:
            raise ValueError(f"the normalization of {idx} underflows; use harmonic_values")
    return out


def axis_factors(k, lmax, theta):
    """Table T[deg, ord] = norm_factor(deg, ord, k) assoc(deg, ord, k, theta).

    These are the normalized per-axis factors of the chain product for the
    polar angle theta_k, for all 0 <= ord <= deg <= lmax; entries with
    ord > deg are zero.  The result has shape (lmax+1, lmax+1) + shape of
    theta.  Y_idx is (2 pi)^(-1/2) e^(i m_1 phi) times the product of
    T_k[deg, ord] over idx.axis_terms().

    Column ord is sin^ord(theta) q_n(cos theta), n = deg - ord, with q_n
    orthonormal for the weight (1-x^2)^delta, delta = ord + (k-3)/2.  All
    columns step together through x q_n = a_{n+1} q_{n+1} + a_n q_{n-1},
    a_n = sqrt(b_n), from q_0 = mu_0^(-1/2) (gegenbauer._jacobi_b,
    _log_mass): no normalization constant is formed, and only the start
    factor sin^ord(theta) can underflow (the weight-sin^(k-2) form of
    Holmes & Featherstone 2002, J. Geodesy 76:279, without their scaling).
    The steps a_n and starts mu_0^(-1/2) are formed once per (k, lmax)
    (_steps), so a call runs only the recurrence over theta.
    """
    k = _check_int(k, "dimension", 3)
    lmax = _check_int(lmax, "lmax", 0)
    a, start = _steps(k, lmax)
    theta = np.asarray(theta, dtype=float)
    x, ones = np.cos(theta), (1,) * theta.ndim
    orders = np.arange(lmax + 1)
    a = a.reshape(a.shape + ones)  # a[n-1] = a_n, one column per order, broadcast over theta
    q = start.reshape((-1,) + ones) * np.sin(theta) ** orders.reshape((-1,) + ones)
    q_prev, a_n = 0.0, 0.0
    table = np.zeros((lmax + 1, lmax + 1) + theta.shape)
    for n in range(lmax + 1):
        live = orders[: lmax + 1 - n]  # the columns whose degree ord + n is in the table
        table[live + n, live] = q[: lmax + 1 - n]
        q_prev, q, a_n = q, (x * q - a_n * q_prev) / a[n], a[n]
    return table


@lru_cache(maxsize=64)
def _steps(k, lmax):
    """The recurrence steps a[n-1, ord] = a_n and the starts mu_0^(-1/2) per order, read-only.

    Keyed on the validated plain ints of :func:`axis_factors`.
    """
    delta = np.arange(lmax + 1) + (k - 3) / 2.0  # per column
    a = np.sqrt(_jacobi_b(np.arange(1, lmax + 2).reshape(-1, 1), delta))
    start = np.exp([-0.5 * _log_mass(v) for v in delta])
    a.flags.writeable = start.flags.writeable = False  # shared by every later call
    return a, start


# rows x points entries of one block of the chain-product gather (1 MiB of complex)
_BLOCK = 1 << 16


@lru_cache(maxsize=64)
def _labels(d, lmax, lmin):
    """Int label rows (l, m_{d-2}, ..., m_1) of levels lmin..lmax, in enumerate_indices order.

    Built once per (d, lmax, lmin) and shared, so the array is read-only.
    """
    rows = [(l, *m) for l in range(lmin, lmax + 1) for m in _chains(l, d - 2)]
    labels = np.array(rows, dtype=int).reshape(-1, d - 1)
    labels.flags.writeable = False
    return labels


def _indices(d, labels):
    """The MultiIndex of each label row, for callers that key by MultiIndex."""
    return [MultiIndex(d, l, tuple(m)) for l, *m in labels.tolist()]


def _point_shape(angles):
    """The broadcast shape of the angles of ``angles``."""
    return np.broadcast_shapes(*(np.shape(t) for t in angles.theta), np.shape(angles.phi))


def _chain_blocks(labels, angles, shape):
    """Yield (start, Y): Y_idx(angles) of the label rows from start on, as (rows,) + shape.

    ``shape`` is one the angles broadcast to.  Each block starts as its
    rows' e^(i m_1 phi) / sqrt(2 pi) and is multiplied by the gathered
    T_k[deg_k, ord_k] for k = d, ..., 3, the order of the per-index chain
    product, so each row is bitwise that product.  A block grows by
    broadcasting until it has its full shape (an open mesh grows from the
    phase outward) and is then multiplied in place, so scattered points
    allocate nothing beyond the block.
    """

    def full(a):  # an angle array with the ndim of ``shape``, for gathers over rows
        a = np.asarray(a, dtype=float)
        return a.reshape((1,) * (len(shape) - a.ndim) + a.shape)

    top = int(labels[:, 0].max(initial=0))
    tables = [
        axis_factors(k, top, full(t)) for k, t in zip(range(angles.d, 2, -1), angles.theta)
    ]
    phi = full(angles.phi)
    phases = np.stack(
        [np.exp(1j * m1 * phi) / math.sqrt(2.0 * math.pi) for m1 in range(-top, top + 1)]
    )
    step = max(1, _BLOCK // max(1, math.prod(shape)))
    for start in range(0, len(labels), step):
        rows = labels[start : start + step]
        block = (len(rows),) + shape
        y = phases[rows[:, -1] + top]
        orders = np.abs(rows)  # only m_1 may be negative; its axis has order |m_1|
        for i, table in enumerate(tables):
            factor = table[orders[:, i], orders[:, i + 1]]
            if y.shape == block:
                y *= factor
            else:
                y = y * factor
        if y.shape != block:  # angles that do not span ``shape``
            y = np.broadcast_to(y, block).copy()
        yield start, y


def harmonic_values(angles, lmax, lmin=0):
    """Values of every Y_idx with lmin <= l <= lmax at ``angles``.

    Rows follow enumerate_indices(d, lmin), ..., enumerate_indices(d, lmax);
    the result has shape (rows,) + the broadcast shape of the angles, so a
    scalar point gives a vector.  Equal to :func:`eval_harmonic` per index
    up to roundoff, from one set of per-axis tables.
    """
    lmax = _check_int(lmax, "lmax", 0)
    lmin = _check_int(lmin, "lmin", 0)
    d, shape = angles.d, _point_shape(angles)
    labels = _labels(d, lmax, lmin)
    out = np.empty((len(labels),) + shape, dtype=complex)
    for start, y in _chain_blocks(labels, angles, shape):
        out[start : start + len(y)] = y
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
    d = _check_int(d, "dimension", 3)
    l = _check_int(l, "level", 0)
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
    The products N_{lm} P^m_{l,d} are row l of :func:`axis_factors`.
    """
    d = _check_int(d, "addition_reduced dimension", 4)
    l = _check_int(l, "level", 0)
    k_factor = (
        solid_angle(d) / solid_angle(d - 1) * (d - 2) / ((2 * l + d - 2) * (d - 3))
    )
    a, b = axis_factors(d, l, theta_a)[l], axis_factors(d, l, theta_b)[l]
    total = sum((2 * m + d - 3) * a[m] * b[m] * poly(m, d - 1, cos_gamma_lower) for m in range(l + 1))
    return k_factor * total


def harmonicity_residual(idx, r, angles, h=1e-3, branch="interior"):
    """Relative finite-difference Laplacian residual of a solid harmonic.

    Evaluates u = r^l Y (or u = r^-(l+d-2) Y for ``branch="exterior"``) on
    the 2d+1 point central stencil around the Cartesian image of
    (r, angles) and returns |sum_j D2_j u| / max(1, sum_j |D2_j u|), where
    D2_j is the second difference along axis j.  The residual of an exact
    harmonic is O(h^2) times the local fourth-derivative scale.

    ``r`` and the fields of ``angles`` broadcast against each other, as in
    :mod:`~ultrasph.geometry`: a scalar point gives a float, array points
    an array of the broadcast shape, one residual per point.  All stencils
    form one (d, *shape, 2d+1) array, so every point shares one
    coordinate conversion and one :func:`eval_harmonic` call.

    Raises if any stencil point comes within sin(theta_j) < 1e-6 of a chart
    singularity.
    """
    if not 1e-4 <= h <= 1e-2:
        raise ValueError(f"step h must lie in [1e-4, 1e-2], got {h!r}")
    if branch not in ("interior", "exterior"):
        raise ValueError(f"unknown branch {branch!r}")
    d = idx.d
    center = UltrasphericalPoint(d, r, angles.theta, angles.phi)
    x0 = to_cartesian(center).x
    stencil = np.repeat(x0[..., None], 2 * d + 1, axis=-1)
    for j in range(d):
        stencil[j, ..., 1 + 2 * j] += h
        stencil[j, ..., 2 + 2 * j] -= h
    sp = to_ultraspherical(CartesianPoint(d, stencil))
    for t in sp.theta:
        if np.any(np.sin(t) < 1e-6):
            raise ValueError("stencil too close to a coordinate-axis singularity")
    if branch == "interior":
        radial = np.asarray(sp.r) ** idx.l
    else:
        radial = np.asarray(sp.r) ** (-(idx.l + d - 2))
    u = radial * eval_harmonic(idx, sp)
    second = (u[..., 1::2] - 2.0 * u[..., :1] + u[..., 2::2]) / h**2
    resid = np.abs(np.sum(second, axis=-1))
    scale = np.sum(np.abs(second), axis=-1)
    val = resid / np.maximum(1.0, scale)
    return float(val) if np.ndim(val) == 0 else val
