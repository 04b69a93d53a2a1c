"""Orthonormal hyperspherical harmonics and their index algebra.

A harmonic on the (d-1)-sphere is labeled by the integer chain
(l, m_{d-2}, ..., m_2, m_1) with

    l >= m_{d-2} >= ... >= m_2 >= |m_1|,

all entries nonnegative except m_1, whose negative branch is the complex
conjugate of the positive one.  This module alone builds label rows
(_labels) and checks them, in bulk (_chain_ok) or one MultiIndex at a
time, by one rule.  The unnormalized eigenfunction is the product over
the angle chain

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
per-axis tables of :func:`axis_factors`, which gegenbauer's orthonormal
recurrence (the one the Gauss rules run) fills with no normalization
constant.  :func:`harmonic_values` (and through it :func:`addition_sum`)
and ``solver.eval_expansion`` share one block gather over those tables
(_chain_blocks) on integer label rows (_labels).  It broadcasts each
angle field to the full point shape, an open mesh's too, and takes the
points one chunk of the leading axis at a time, sized so that the
chunk's phases and tables fit one working budget (_BUDGET, split by
_slices), and the label rows one block at a time, sized so that the
block's temporaries, the caller's included, fit a cache budget
(_CACHE).  Each block is built in place in its destination, its rows
of the result or one buffer of the chunk, so only the caller's result
grows with the point count.  A point set with no entries gives blocks
with no entries.
``solver.project_boundary`` contracts grid samples against the same
tables, and the verify Gram check multiplies their per-axis Gram
matrices.  :func:`eval_harmonic` (norm_coeff times eval_psi, index by
index) is the independent reference the tests compare the table path to.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gegenbauer import _orthonormal, _steps, assoc, norm_factor, poly
from .geometry import CartesianPoint, UltrasphericalPoint, _check_int, solid_angle, to_cartesian, to_ultraspherical
from .quadrature import _FIT_BUDGET

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
        d, l = _check_int(self.d, "dimension", 3), _check_int(self.l, "level", 0)
        m = tuple([_check_int(v, "chain entry", -l) for v in self.m])  # no entry is below -l
        if len(m) != d - 2:
            raise ValueError(f"expected {d - 2} chain entries for d={d}, got {len(m)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "m", m)
        # the rule of _chain_ok, one polar axis at a time
        for degree, order in zip((l,) + m[:-1], m[:-1] + (abs(m[-1]),)):
            if not 0 <= order <= degree:
                raise ValueError(f"chain violation in {m}: order {order} not in [0, {degree}]")

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


def enumerate_indices(d, l):
    """All MultiIndex at level l, in deterministic lexicographic order.

    The outer entries ascend from 0 to their chain bound and m_1 ascends
    over [-m_2, m_2]; the result has length count(d, l).
    """
    d = _check_int(d, "dimension", 3)
    l = _check_int(l, "level", 0)
    return _indices(d, _labels(d, l, l))


def _chain_ok(labels):
    """Mask of the int64 or object (beyond int64) label rows that obey the chain rule.

    Every polar axis i has 0 <= order |labels[:, i + 1]| <= degree labels[:, i];
    orders[:, -1] >= 0 fails abs(-2**63), which stays negative in int64.
    """
    orders = np.abs(labels[:, 1:])
    return (labels[:, :-1] >= orders).all(axis=1) & (orders[:, -1] >= 0)


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
    columns step together through gegenbauer's _orthonormal, the recurrence
    the Gauss rules run, from q_0 = mu_0^(-1/2) sin^ord(theta): no
    normalization constant is formed, and only sin^ord(theta) can underflow
    (the weight-sin^(k-2) form of Holmes & Featherstone 2002, J. Geodesy
    76:279, without their scaling).  The steps and starts are formed once
    per (k, lmax) (gegenbauer._steps), so a call runs only the recurrence.
    """
    k = _check_int(k, "dimension", 3)
    lmax = _check_int(lmax, "lmax", 0)
    a, start = _steps(k, lmax)
    theta = np.asarray(theta, dtype=float)
    x, ones = np.cos(theta), (1,) * theta.ndim
    orders = np.arange(lmax + 1)
    a = a.reshape(a.shape + ones)  # one step per order, broadcast over theta
    q0 = start.reshape((-1,) + ones) * np.sin(theta) ** orders.reshape((-1,) + ones)
    table = np.zeros((lmax + 1, lmax + 1) + theta.shape)
    # entry (ord + n, ord) is flat row n (lmax + 1) + ord (lmax + 2), so the
    # columns whose degree ord + n is in the table are one strided slice
    diagonals = table.reshape(((lmax + 1) ** 2,) + theta.shape)
    for n, q in enumerate(_orthonormal(x, q0, a)):
        diagonals[n * (lmax + 1) :: lmax + 2] = q[: lmax + 1 - n]
    return table


# bytes of temporaries one block of the chain-product gather may hold, its
# caller's included: half of a core's 2 MiB L2 cache on the host it was tuned
# on, the rest left to the chunk's tables and phases
_CACHE = 1 << 20
# working bytes one chunk of the leading point axis may hold, its phases and
# per-axis tables (3 MiB, so that a chunk at d = 3, lmax = 300 still holds 4 points)
_BUDGET = 3 << 20


def _slices(n, nbytes):
    """The fewest near-equal slices of range(n) whose share of ``nbytes`` fits _BUDGET.

    One slice when all of nbytes fits, one index per slice when one index's
    share does not.  A point's value does not depend on the slice it is in.
    """
    step = max(1, _BUDGET * n // max(nbytes, 1))
    count = max(1, -(-n // step))
    return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]


@lru_cache(maxsize=8)
def _labels(d, lmax, lmin):
    """Int label rows (l, m_{d-2}, ..., m_1) of levels lmin..lmax, in enumerate_indices order.

    Built one chain entry at a time: each row is repeated once per value its
    last entry allows the next (0..bound above m_1, -bound..bound at m_1).
    A step keeps only its new entry and the row each new row extends; the
    entries are read out through those links at the end, so a row costs O(d)
    and no step copies the earlier entries.  Cached (the 8 most recently
    used, all a verify run reuses) and shared, so read-only.
    """
    columns, parents = [np.arange(lmin, lmax + 1)], []
    for j in range(d - 2):
        low = -columns[-1] if j == d - 3 else 0
        counts = columns[-1] - low + 1
        parent = np.repeat(np.arange(len(counts)), counts)  # the row each new row extends
        start = np.cumsum(counts) - counts - low  # each run's first row, less its first value
        columns.append(np.arange(len(parent)) - start[parent])
        parents.append(parent)
    labels, rows = np.empty((len(columns[-1]), d - 1), dtype=np.int64), slice(None)
    for j in range(d - 2, 0, -1):
        labels[:, j] = columns[j][rows]
        rows = parents[j - 1][rows]
    labels[:, 0] = columns[0][rows]
    labels.flags.writeable = False
    return labels


def _indices(d, labels):
    """The MultiIndex of each label row, for callers that key by MultiIndex."""
    return [MultiIndex(d, l, tuple(m)) for l, *m in labels.tolist()]


def _point_shape(angles):
    """The broadcast shape of the angles of ``angles``."""
    return np.broadcast_shapes(*(np.shape(t) for t in angles.theta), np.shape(angles.phi))


def _part(a, at, shape):
    """``a`` broadcast to ``shape`` as a float view, cut to the chunk ``at`` of the leading axis.

    ``at`` is () or a 1-tuple of a slice, cut from the view so only the
    chunk's entries are read; a scalar point's cut is a 0-d array, the
    route of every other shape.  A field of the full shape is cut as it
    is, sparing verify's one-point calls np.broadcast_to's ~3 us.
    """
    a = np.asarray(a, dtype=float)
    return (a if a.shape == shape else np.broadcast_to(a, shape))[at + (...,)]


def _chain_blocks(labels, angles, shape, out=None, spare=0):
    """Yield (at, start, Y): Y_idx at the points ``at`` of ``shape``, label rows from start on.

    ``shape`` is one the angles broadcast to.  The points are taken one
    chunk of the leading axis at a time (``at`` is () or (slice,)), as few
    as fit their phases and per-axis tables in _BUDGET (_slices); each
    chunk's are built for it alone from the fields cut by _part, so they
    do not grow with the point count, and Y is (rows,) + the chunk's
    shape.  Each block starts as its rows' e^(i m_1 phi) / sqrt(2 pi) and
    is multiplied by the gathered T_k[deg_k, ord_k] for k = d, ..., 3, the
    order of the per-index chain product, so each row is bitwise that
    product whatever the point shape, chunks and blocks.  Each block is
    built in place: given ``out``, an array of (len(labels),) + shape, in
    its rows of ``out``, and Y is that view.  Otherwise Y is a buffer of
    the chunk that the next block overwrites, so the caller may change it
    in place; ``spare`` is the bytes per entry the caller's own
    temporaries take beside it (_chunk_blocks).  A top level whose one-point
    tables and steps (_steps), 16 (top + 1)^2 bytes per axis, exceed
    _FIT_BUDGET raises ValueError before any is built.
    """
    top = int(labels[:, 0].max(initial=0))
    tables = 8 * (top + 1) ** 2 * (angles.d - 2)  # one point's; the steps take about as many
    if 2 * tables > _FIT_BUDGET:
        raise ValueError(f"harmonics of level {top} at d={angles.d} would take about "
                         f"{2 * tables / 2**20:.0f} MiB of tables per point, "
                         f"above the budget of {_FIT_BUDGET // 2**20} MiB")
    chunks = [()]
    if shape:
        # the tables and phases of all the points
        nbytes = (tables + 16 * (2 * top + 1)) * math.prod(shape)
        chunks = [(s,) for s in _slices(shape[0], nbytes)]
    for at in chunks:
        yield from _chunk_blocks(labels, top, angles, at, shape, out, spare)


def _chunk_blocks(labels, top, angles, at, shape, out, spare):
    """The blocks of _chain_blocks at the chunk ``at`` of ``shape``, from its own tables.

    A block takes as many rows as keep its temporaries within _CACHE
    bytes: per entry of a row, the product (complex), the gathered table
    factor (float), which has the row's full shape, and ``spare`` bytes
    of the caller's.  The blocks are near-equal, the first the largest.
    A block's phases are gathered into its rows of ``out`` or one complex
    buffer of the chunk, and its table factors multiplied in there, each
    by way of one float buffer of the chunk, so no block allocates more.
    """
    part = (at[0].stop - at[0].start,) + shape[1:] if at else shape
    m1 = np.arange(-top, top + 1).reshape((-1,) + (1,) * len(shape))
    # the phases, and each table with its (degree, order) axes as one
    phases = np.exp(1j * m1 * _part(angles.phi, at, shape)) / math.sqrt(2.0 * math.pi)
    tables = [axis_factors(k, top, _part(t, at, shape)).reshape(((top + 1) ** 2,) + part)
              for k, t in zip(range(angles.d, 2, -1), angles.theta)]
    # a row's temporaries: its product (complex), its gathered factor (float)
    # and the caller's spare bytes per entry
    row = (24 + spare) * math.prod(part)
    rows = len(labels)
    count = max(1, -(-rows // max(1, _CACHE // max(row, 1))))  # a row of no points takes 0 bytes
    step = max(1, -(-rows // count))
    # a block's destination: its rows of out, or the chunk's one buffer
    if out is not None:
        out = out[(slice(None),) + at]
    buffer = np.empty((step,) + part, dtype=complex) if out is None else None
    gathered = np.empty((step,) + part)
    for start in range(0, rows, step):
        block = labels[start : start + step]
        n = len(block)
        y = buffer[:n] if out is None else out[start : start + n]
        orders = np.abs(block)  # only m_1 may be negative; its axis has order |m_1|
        np.take(phases, block[:, -1] + top, axis=0, out=y, mode="clip")
        # each row's flat (degree, order) entry of each table, multiplied in the
        # order of the per-index chain product
        for table, i in zip(tables, (orders[:, :-1] * (top + 1) + orders[:, 1:]).T):
            y *= np.take(table, i, axis=0, out=gathered[:n], mode="clip")
        yield at, start, y


def harmonic_values(angles, lmax, lmin=0):
    """Values of every Y_idx with lmin <= l <= lmax at ``angles``.

    Rows follow enumerate_indices(d, lmin), ..., enumerate_indices(d, lmax);
    the result has shape (rows,) + the broadcast shape of the angles, so a
    scalar point gives a vector.  Equal to :func:`eval_harmonic` per index
    up to roundoff, from per-axis tables built one chunk of points at a
    time (_chain_blocks) and multiplied out in place in the result, so
    beyond it only one chunk's tables and one block's factor are held.
    A value beyond the double range raises ValueError, checked block by
    block as each is made (Y_0 = Omega_d^(-1/2) overflows from d = 751 on).
    """
    lmax = _check_int(lmax, "lmax", 0)
    lmin = _check_int(lmin, "lmin", 0)
    d, shape = angles.d, _point_shape(angles)
    labels = _labels(d, lmax, lmin)
    out = np.empty((len(labels),) + shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for _, _, y in _chain_blocks(labels, angles, shape, out):
            if not np.isfinite(y).all():
                raise ValueError(f"a harmonic value at d={d} is beyond the double range")
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
