"""Radial solutions, harmonic expansions, Dirichlet fits, and the
separable expansion of the |x - x'|^-(d-2) kernel.

A scalar Laplace solution with purely radial boundary conditions is

    Phi(r, Omega) = sum_idx (A_idx r^l + B_idx r^-(l+d-2)) Y_idx(Omega),

where the two radial branches solve the Euler equation with eigenvalue
-l(l+d-2).  Interior problems keep only the A branch (regular at the
origin), exterior problems only the B branch (decaying at infinity), and
annulus problems determine both.  One stacked solve covers the radial
system of every level, each applied to its level's whole coefficient
slice (_solve_levels, _BRANCHES).

Both transforms use the product form of Y_idx: (2 pi)^(-1/2) e^(i m_1 phi)
times one normalized factor T_k[deg, ord](theta_k) per polar axis
(harmonics.axis_factors, an orthonormal recurrence with no normalization
constant), the one table path that harmonics.harmonic_values and verify
also use.  Each table is built once per grid and lmax (_tables, which
keeps the last one: the calls of a verify run come in one run per key),
and sphere_grid shares one grid per (d, lmax), so repeated fits and
syntheses on a grid reuse its tables.

* Forward (project_boundary) is a staged contraction on the product grid.
  The samples, as the node tensor (n_d, ..., n_3, n_phi), are contracted
  first over phi against e^(-i m_1 phi) w_phi / sqrt(2 pi), then over
  theta_3, theta_4, ..., theta_d against T_k w_k.  Each stage swaps one
  node axis for a degree axis indexed by (degree, order of the axis
  below), so no intermediate is larger than the grid, and the last one
  holds c_idx at (l, m_{d-2}, ..., m_2, m_1).  A fit contracts all its
  spheres' samples as one tensor, through one set of d-2 tables: each
  sphere's phi stage is one 2-D matmul written into it, so no sample is
  copied, and each theta stage one matmul per order of the axis below,
  so BLAS sees few large products; every stage runs through the same two
  buffers (_stage).  _read_off gathers each label row's entries from the
  radial solve, the arrays HarmonicExpansion keeps.
* Inverse, two routes.  On a grid, _synthesize is the staged adjoint of
  the forward contraction without the weights: each row's A and B are
  weighted by its level's powers and scattered into the coefficient
  tensor in one step, which is contracted over theta_d, ..., theta_3
  against T_k, then over m_1 against e^(i m_1 phi) / sqrt(2 pi); each
  stage swaps a degree axis for a node axis, so again no intermediate is
  larger than the grid.  At scattered points, eval_expansion weights the
  row blocks of the gather it shares with harmonics.harmonic_values by
  A r^l + B r^-(l+d-2) and adds each block's rows, the running total
  first, in row order as (re, im) floats at every shape: a point's value
  does not depend on its shape or on the points evaluated with it, and is
  bitwise the index-by-index sum at array points.  The angles and r are
  broadcast to the full point shape and cut to one chunk of points at a
  time (harmonics._part); the chunk's phases and tables fit
  harmonics._BUDGET, and a block and its two weight buffers
  harmonics._CACHE, so beyond the output memory does not grow with the
  point count.  Scattered points share no grid structure, so staging
  there would carry a points x (lmax+1)^(d-3) x (2 lmax+1) intermediate,
  far larger than the output.

The radial factor depends on the level alone, so both inverse routes
and radial_eval form the powers of every level at once by one rule
(_radial_powers, on the mask _need makes in one pass over the rows): a
nonzero A needs r^l finite and a nonzero B needs r^-(l+d-2) finite,
else the call raises ValueError naming the first such level; a power no
coefficient of the level needs is left 0, so 0 * inf never appears.  A
sum that overflows although its powers are finite raises ValueError too
(_check_finite), so no route returns inf or NaN.
The label row -> tensor-position formula is written once (_positions),
for _read_off's gather and _synthesize's scatter, and the tables of
both contractions come from one helper (_tables).
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .gegenbauer import _recurrence
from .geometry import _check_int, cos_gamma, to_ultraspherical
from .harmonics import (
    MultiIndex, _chain_blocks, _indices, _labels, _part, _point_shape, axis_factors,
)
from .quadrature import sphere_grid

__all__ = [
    "BoundaryProblem",
    "HarmonicExpansion",
    "eval_expansion",
    "fit_annulus",
    "fit_exterior",
    "fit_interior",
    "green_expansion",
    "project_boundary",
    "radial_eval",
]


@dataclass(frozen=True, eq=False, init=False)
class HarmonicExpansion:
    """The pairs (A, B) of sum_idx (A r^l + B r^-(l+d-2)) Y_idx, as two read-only arrays.

    ``labels`` holds int rows (l, m_{d-2}, ..., m_1) and ``values`` rows
    (A, B), in one kept order; absent labels mean (0, 0).  The constructor
    checks a {MultiIndex: (A, B)} dict, A and B finite, and leaves it
    untouched; ``coeffs`` is a read-only view of that kind, made on first
    read.  _of, behind the fits and the file loader, checks nothing.
    """

    d: int
    lmax: int
    labels: np.ndarray
    values: np.ndarray

    def __init__(self, d, lmax, coeffs=MappingProxyType({})):
        d = _check_int(d, "dimension", 3)
        lmax = _check_int(lmax, "lmax", 0)
        for idx in coeffs:
            if not isinstance(idx, MultiIndex) or idx.d != d:
                raise ValueError(f"bad coefficient key {idx!r} for d={d}")
            if idx.l > lmax:
                raise ValueError(f"index level {idx.l} exceeds lmax={lmax}")
        labels = np.array([(idx.l, *idx.m) for idx in coeffs], dtype=int).reshape(-1, d - 1)
        values = np.array([(complex(a), complex(b)) for a, b in coeffs.values()],
                          dtype=complex).reshape(-1, 2)
        _check_pairs(values, list(coeffs))
        vars(self).update(vars(self._of(d, lmax, labels, values)))

    @classmethod
    def _of(cls, d, lmax, labels, values):
        """The expansion of label rows and (A, B) rows valid for (d, lmax), unchecked."""
        labels.flags.writeable = values.flags.writeable = False
        expansion = cls.__new__(cls)
        vars(expansion).update(d=d, lmax=lmax, labels=labels, values=values)
        return expansion

    @cached_property
    def coeffs(self):
        """{MultiIndex: (A, B)} in row order, read-only."""
        return MappingProxyType(dict(zip(_indices(self.d, self.labels),
                                         map(tuple, self.values.tolist()))))


@dataclass(frozen=True)
class BoundaryProblem:
    """Dirichlet data on one or two spheres.

    ``radii`` and ``data`` are aligned tuples: one entry for interior and
    exterior problems, two (inner, outer) for the annulus.  Each data
    entry is either a callable over an UltrasphericalPoint with array
    angles or an array of samples in the canonical grid order of
    sphere_grid(d, lmax).
    """

    d: int
    kind: str
    radii: tuple
    lmax: int
    data: tuple

    def __post_init__(self):
        object.__setattr__(self, "d", _check_int(self.d, "dimension", 3))
        object.__setattr__(self, "lmax", _check_int(self.lmax, "lmax", 0))
        if self.kind not in ("interior", "exterior", "annulus"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        radii = tuple(float(r) for r in self.radii)
        want = 2 if self.kind == "annulus" else 1
        if len(radii) != want or len(self.data) != want:
            raise ValueError(
                f"{self.kind} problem needs {want} radius/data entries, "
                f"got {len(radii)}/{len(self.data)}"
            )
        if not all(0.0 < r < math.inf for r in radii):
            raise ValueError(f"radii must be positive and finite, got {radii}")
        if self.kind == "annulus" and not radii[0] < radii[1]:
            raise ValueError("annulus requires R_inner < R_outer strictly")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "data", tuple(self.data))


def _radial_powers(d, r, need, first=0):
    """The powers (r^l, r^-(l+d-2)) of levels first, first + 1, ..., as (2, levels) + shape of r.

    ``need`` is a (2, levels) mask, "some A != 0" and "some B != 0" per
    level, and one rule holds: a needed r^l must be finite, and a needed
    r^-(l+d-2) too, so r > 0; else ValueError naming the first such
    level, A before B.  A power no coefficient needs is left 0, so
    0 * inf never appears.  Each power is r ** (a Python int), complex,
    as the callers' products cast it.  A negative or NaN r raises first.
    """
    if not (r >= 0).all():
        raise ValueError("radius must be nonnegative")
    powers = np.zeros(need.shape + np.shape(r), dtype=complex)
    with np.errstate(divide="ignore", over="ignore"):
        for j, branch in np.argwhere(need.T).tolist():
            l = first + j
            power = r ** (-(l + d - 2) if branch else l)
            if not np.isfinite(power).all():
                where = ("A != 0 where r^l", "B != 0 at r = 0 or where r^-(l+d-2)")[branch]
                raise ValueError(f"singular evaluation: {where} overflows (level {l})")
            powers[branch, j] = power
    return powers


def _need(levels, values, lmax):
    """The (2, lmax + 1) mask of _radial_powers: some A != 0, some B != 0 at each level."""
    return np.stack([np.bincount(levels, c != 0, minlength=lmax + 1) for c in values.T]) > 0


def _check_pairs(values, names):
    """Raise ValueError naming the first non-finite A or B of the (A, B) rows ``values``."""
    rows, branches = np.nonzero(~np.isfinite(values))
    if len(rows):
        i, j = rows[0], branches[0]
        raise ValueError(f"coefficient {'AB'[j]} of {names[i]} is not finite: {values[i, j]}")


def radial_eval(a, b, l, d, r):
    """A r^l + B r^-(l+d-2); A and B finite, and a nonzero one needs its power of r finite."""
    l = _check_int(l, "level", 0)
    d = _check_int(d, "dimension", 3)
    ra = np.asarray(r, dtype=float)
    a, b = complex(a), complex(b)
    _check_pairs(np.array([[a, b]]), [f"level {l}"])
    grow, decay = _radial_powers(d, ra, np.array([[a != 0], [b != 0]]), l)[:, 0]
    val = a * grow + b * decay
    return complex(val) if ra.ndim == 0 else val


def eval_expansion(expansion, r, angles):
    """Evaluate sum_idx radial(A, B, l; r) Y_idx(angles).

    ``r`` and the angles may be arrays of any common broadcast shape; a
    scalar evaluation returns a complex number, and an expansion without
    coefficients gives zeros of that shape.  A point's value is the same
    bytes whether it is a scalar, a one-point array or one of many.  The
    radial powers of every level up to the top one with rows (not lmax)
    are formed once per chunk of points, as the coefficients need them; a
    needed power that overflows raises ValueError naming its level, the
    first such level of the first chunk of points that has one.  Each
    block's weights take two buffers made once per chunk (the ``spare``
    bytes of harmonics._chain_blocks), within harmonics._CACHE.
    """
    if angles.d != expansion.d:
        raise ValueError(
            f"dimension mismatch: expansion d={expansion.d}, point d={angles.d}"
        )
    d, labels = expansion.d, expansion.labels
    r = np.asarray(r, dtype=float)
    shape = np.broadcast_shapes(r.shape, _point_shape(angles))
    # the coefficients as (rows, 1, ...), to broadcast over shape
    a, b = (c.reshape((-1,) + (1,) * len(shape)) for c in expansion.values.T)
    levels = labels[:, 0]
    # the mask, and so each chunk's powers, reach the top level with rows, not lmax
    need = _need(levels, expansion.values, int(levels.max(initial=0)))
    total = np.zeros(shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        # per entry, a gathered power (then the B term) and the weight
        for at, start, y in _chain_blocks(labels, angles, shape, spare=32):
            if start == 0:  # a new chunk of points: its powers as (level, ...), and buffers
                part = _part(r, at, shape)
                grow, decay = _radial_powers(d, part, need)
                power, weights = np.empty_like(y), np.empty_like(y)
            rows = slice(start, start + len(y))
            p, w = power[: len(y)], weights[: len(y)]
            np.multiply(a[rows], np.take(grow, levels[rows], axis=0, out=p, mode="clip"), out=w)
            np.multiply(b[rows], np.take(decay, levels[rows], axis=0, out=p, mode="clip"), out=p)
            np.add(w, p, out=w)
            np.multiply(w, y, out=y)  # weights first, as the per-index sum
            y[0] += total[at]  # the total leads the rows, summed in order as (re, im) floats
            total[at] = np.add.reduce(y[..., None].view(float), axis=0).view(complex)[..., 0]
    _check_finite(total)
    return complex(total) if np.ndim(total) == 0 else total


def _check_finite(values):
    """Raise ValueError where a sum of finite terms overflowed to inf or NaN."""
    if not np.isfinite(values).all():
        raise ValueError("singular evaluation: the expansion's value overflows")


def _tensor_shape(d, lmax):
    """Shape of the coefficient tensor of both transforms, axes (l, m_{d-2}, ..., m_2, m_1 + lmax)."""
    return (lmax + 1,) * (d - 2) + (2 * lmax + 1,)


def _positions(labels, lmax):
    """Flat positions of the label rows in the coefficient tensor: (l, *m[:-1], m_1 + lmax)."""
    shape = _tensor_shape(labels.shape[1] + 1, lmax)
    return np.ravel_multi_index((*labels[:, :-1].T, labels[:, -1] + lmax), shape)


@lru_cache(maxsize=1)
def _tables(grid, lmax):
    """The phase and per-axis tables of both transforms on ``grid``, up to lmax.

    The phase is e^(-i m_1 phi) as (n_phi, 2 lmax + 1), and the tables are
    T_k as (order, degree, n_k) for k = 3, ..., d, the layout of the
    contractions' matmul batched over the order, with the orders at
    theta_3 gathered as |m_1| for m_1 = -lmax, ..., lmax.  They carry
    neither the (2 pi)^(-1/2) factor nor quadrature weights; the callers
    apply those.  Each (grid, lmax) builds them once, shared read-only,
    and the last one is kept (442.8 MB at d = 3, lmax = 300).
    """
    m1 = np.arange(-lmax, lmax + 1)
    phase = np.exp(-1j * np.outer(grid.phi_nodes, m1))
    tables = []
    for k, rule in zip(range(3, grid.d + 1), reversed(grid.theta_rules)):
        table = axis_factors(k, lmax, rule.nodes)
        if k == 3:
            table = table[:, np.abs(m1)]  # the order on theta_3 is |m_1|
        tables.append(np.ascontiguousarray(table.transpose(1, 0, 2)))
    for array in (phase, *tables):
        array.flags.writeable = False
    return phase, tuple(tables)


def _stage(coef, steps, buffers):
    """The staged contractions: axis i of ``coef`` against ``table`` per (table, i) of ``steps``.

    ``table`` is (b, out, in), and axis i + 1 of ``coef`` (size b) is the
    order the table's matrix depends on.  A stage copies coef as (b, in,
    rest) into buffers[0], rest gathering every axis before i and after
    i + 1, and writes the matmul of each order, (out, in) @ (in, rest),
    into buffers[1], so BLAS sees b large products, not one per node.
    The two 1-D buffers, each the size of the largest tensor, serve every
    stage; ``coef`` may lie in buffers[1], and so does the result.
    """
    stack, product = buffers
    for table, i in steps:
        shape, (b, out, _) = coef.shape, table.shape
        axes = (i + 1, i, *range(i), *range(i + 2, len(shape)))
        moved = stack[: coef.size].reshape([shape[a] for a in axes])
        np.copyto(moved, coef.transpose(axes))
        result = product[: coef.size // shape[i] * out].reshape(b, out, -1)
        np.matmul(table, moved.reshape(b, shape[i], -1), out=result)
        # back to coef's axis order, with axis i now of size out
        coef = result.reshape((b, out) + shape[:i] + shape[i + 2 :]).transpose(
            *range(2, i + 2), 1, 0, *range(i + 2, len(shape)))
    return coef


def _project(datasets, grid, lmax):
    """Coefficients of the data sets, contracted against one set of tables.

    The tensor's axes are (data set, l, m_{d-2}, ..., m_2, m_1 + lmax).
    Each data set's phi stage is written into _stage's second buffer, so
    no sample is copied; no later stage's tensor is larger.
    """
    lmax = _check_int(lmax, "lmax", 0)
    if lmax > grid.lmax:
        raise ValueError(f"grid supports lmax <= {grid.lmax}, requested {lmax}")
    # the node mesh only for callable data, formed once and not kept by the grid
    points = grid.points if any(map(callable, datasets)) else None
    phase, tables = _tables(grid, lmax)
    phase = phase * (grid.phi_weight / math.sqrt(2.0 * math.pi))
    shape = (len(datasets),) + grid.shape[:-1] + (2 * lmax + 1,)
    buffers = [np.empty(math.prod(shape), dtype=complex) for _ in range(2)]
    coef = buffers[1].reshape(shape)
    for data, out in zip(datasets, coef):
        values = np.ascontiguousarray(data(points) if callable(data) else data)
        if values.size != grid.size:
            raise ValueError(
                f"expected {grid.size} boundary samples in grid order, got {values.size}"
            )
        # the phi stage as one 2-D matmul over every other node axis
        np.matmul(values.reshape(-1, grid.n_phi), phase, out=out.reshape(-1, 2 * lmax + 1))
    del points, values  # a callable's mesh and samples are not kept through the stages
    d = grid.d
    # coef axes are the data set, n_d, ..., n_k, then the orders m_{k-2},
    # ..., m_1 of the axes below; stage k turns n_k into the degree on
    # theta_k (l when k = d)
    return _stage(coef, [(table * rule.weights, d - k + 1) for k, table, rule
                         in zip(range(3, d + 1), tables, reversed(grid.theta_rules))], buffers)


def _synthesize(expansion, r, grid):
    """Values of ``expansion`` at radius r on the grid's nodes, in grid order.

    The adjoint of _project without the weights: each row's A and B are
    weighted by its level's powers (_radial_powers, formed once) and
    scattered into the coefficient tensor, which is contracted over
    theta_d, ..., theta_3 against T_k, each stage swapping a degree axis
    for a node axis, then over m_1 against e^(i m_1 phi) / sqrt(2 pi).
    The tensor and every stage lie in _stage's two buffers.
    """
    d, lmax = expansion.d, expansion.lmax
    if grid.d != d:
        raise ValueError(f"dimension mismatch: expansion d={d}, grid d={grid.d}")
    flat, shape = _positions(expansion.labels, lmax), _tensor_shape(d, lmax)
    a, b = expansion.values.T
    levels = expansion.labels[:, 0]
    # each stage turns a degree axis (lmax + 1) into a node axis (the
    # grid's n), so the largest tensor is the first or the last
    size = max(lmax + 1, grid.shape[0]) ** (d - 2) * shape[-1]
    buffers = [np.empty(size, dtype=complex) for _ in range(2)]
    coef = buffers[1][: math.prod(shape)]
    coef.fill(0)
    phase, tables = _tables(grid, lmax)
    with np.errstate(over="ignore", invalid="ignore"):
        grow, decay = _radial_powers(d, np.asarray(r, dtype=float), _need(levels, expansion.values, lmax))
        coef[flat] = a * grow[levels] + b * decay[levels]
        # coef axes are the nodes n_d, ..., n_{k+1}, the degree on theta_k,
        # then the orders below it; stage k turns the degree into the node n_k
        coef = _stage(coef.reshape(shape), [(table.transpose(0, 2, 1), d - k) for k, table
                                            in zip(range(d, 2, -1), reversed(tables))], buffers)
        # the orders m_1 last and contiguous, in the free buffer, for the phi stage
        rows = buffers[0][: coef.size].reshape(coef.shape)
        np.copyto(rows, coef)
        values = (rows.reshape(-1, 2 * lmax + 1)
                  @ (phase * (1.0 / math.sqrt(2.0 * math.pi))).conj().T).reshape(-1)
    _check_finite(values)
    return values


def _read_off(levels, d, lmax):
    """(labels, entries) of every level <= lmax, by one gather from ``levels``.

    ``levels`` is (lmax + 1, k, rest of the level's slice of the
    _tensor_shape tensor); row i of ``entries`` holds label row i's k entries.
    """
    labels = _labels(d, lmax, 0)
    return labels, levels[labels[:, 0], :, _positions(labels, lmax) % levels.shape[2]]


def project_boundary(data, grid, lmax):
    """Harmonic coefficients c_idx = <data, Y_idx> for all levels <= lmax.

    ``data`` is a callable on the grid's array point or an array of
    samples at the grid nodes.  Data beyond the grid's exactness band is
    aliased; callers control the band limit through the grid.
    """
    levels = _project((data,), grid, lmax).reshape(lmax + 1, 1, -1)
    labels, entries = _read_off(levels, grid.d, lmax)
    return dict(zip(_indices(grid.d, labels), entries[:, 0].tolist()))


# the columns of M_l each kind keeps: A r^l, regular at the origin, and
# B r^-(l+d-2), decaying at infinity
_BRANCHES = {"interior": [0], "exterior": [1], "annulus": [0, 1]}


def _solve_levels(d, radii, branches, rhs):
    """Solve M_l x_l = rhs[l] for every level l by one stacked solve, one row of rhs[l] per sphere.

    A zero or non-finite entry or determinant of M_l, or a non-finite
    solution, raises ValueError naming the first such level; |det| below
    1e-12 of its largest term warns, once per level below it.
    """
    with np.errstate(all="ignore"):
        m = np.stack([np.stack((radii**l, radii ** -(l + d - 2)), axis=1)[:, branches]
                      for l in range(len(rhs))])
        # the terms of det M_l: one for a single sphere, two for the annulus
        terms = np.stack([np.diagonal(m, axis1=1, axis2=2).prod(axis=1),
                          -np.diagonal(m[:, ::-1], axis1=1, axis2=2).prod(axis=1)])[: len(radii)]
        det = terms.sum(axis=0)
        ok = np.isfinite(m).all(axis=(1, 2)) & m.all(axis=(1, 2)) & np.isfinite(det) & (det != 0)
        x = np.zeros(rhs.shape, dtype=complex)
        x[ok] = np.linalg.solve(m[ok], rhs[ok])
    ok &= np.isfinite(x).all(axis=(1, 2))
    failed = len(ok) if ok.all() else int(ok.argmin())
    scale = np.abs(terms).max(axis=0)
    for l in np.flatnonzero(np.abs(det[:failed]) < 1e-12 * scale[:failed]).tolist():
        warnings.warn(f"radial system of level {l} for radii {tuple(radii.tolist())} is nearly "
                      f"singular: |det| = {abs(det[l]):.3e} against scale {scale[l]:.3e}",
                      stacklevel=4)
    if failed < len(ok):
        raise ValueError(f"radial system of level {failed} for radii {tuple(radii.tolist())} "
                         "leaves the double range")
    return x


def _fit(problem, kind):
    """(A, B) for every index, read straight from one stacked radial solve over the levels."""
    if problem.kind != kind:
        raise ValueError(f"expected an {kind} problem, got {problem.kind!r}")
    d, lmax = problem.d, problem.lmax
    branches, radii = _BRANCHES[kind], np.array(problem.radii)
    # the right-hand sides as (level, sphere, rest of the level's tensor
    # slice); the projection is not named, so its buffers go once copied out
    rhs = np.moveaxis(_project(problem.data, sphere_grid(d, lmax), lmax), 1, 0).reshape(
        lmax + 1, len(radii), -1)
    labels, entries = _read_off(_solve_levels(d, radii, branches, rhs), d, lmax)
    values = np.zeros((len(labels), 2), dtype=complex)
    values[:, branches] = entries  # a branch the kind does not keep is 0
    return HarmonicExpansion._of(d, lmax, labels, values)


def fit_interior(problem):
    """Regular-at-origin fit: B = 0, A_idx = c_idx / R^l."""
    return _fit(problem, "interior")


def fit_exterior(problem):
    """Decaying-at-infinity fit: A = 0, B_idx = c_idx R^(l+d-2)."""
    return _fit(problem, "exterior")


def fit_annulus(problem):
    """Two-branch fit from data on both spheres, one 2x2 solve per level.

    The determinant R1^l R2^-(l+d-2) - R2^l R1^-(l+d-2) is nonzero for
    R1 != R2; a warning is emitted once per level where it is small
    against its terms.
    """
    return _fit(problem, "annulus")


def green_expansion(x_a, x_b, lmax):
    """Truncated separable expansion of |x_a - x_b|^-(d-2).

    sum_{l=0}^{lmax} r_<^l / r_>^(l+d-2) P_{l,d}(cos gamma); converges
    geometrically with ratio r_</r_>, so equal radii are rejected.  With
    x_a at the origin only the l = 0 term survives.
    """
    lmax = _check_int(lmax, "lmax", 0)
    if x_a.d != x_b.d:
        raise ValueError(f"dimension mismatch: {x_a.d} vs {x_b.d}")
    if x_a.x.ndim != 1 or x_b.x.ndim != 1:
        raise ValueError("green_expansion takes single points, of shape (d,)")
    d = x_a.d
    ra, rb = x_a.norm(), x_b.norm()
    if ra == rb:
        raise ValueError("expansion does not converge for |x_a| = |x_b|")
    r_lo, r_hi = min(ra, rb), max(ra, rb)
    if r_lo == 0.0:
        return r_hi ** (-(d - 2))
    cg = cos_gamma(to_ultraspherical(x_a), to_ultraspherical(x_b))
    total = 0.0
    for l, p in enumerate(_recurrence(lmax, d, np.float64(cg))):
        total += r_lo**l / r_hi ** (l + d - 2) * float(p)
    return total
