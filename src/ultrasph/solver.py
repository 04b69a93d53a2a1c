"""Radial solutions, harmonic expansions, Dirichlet fits, and the
separable expansion of the |x - x'|^-(d-2) kernel.

A scalar Laplace solution with purely radial boundary conditions is

    Phi(r, Omega) = sum_idx (A_idx r^l + B_idx r^-(l+d-2)) Y_idx(Omega),

where the two radial branches solve the Euler equation with eigenvalue
-l(l+d-2).  Interior problems keep only the A branch (regular at the
origin), exterior problems only the B branch (decaying at infinity), and
annulus problems determine both, by one radial solve per level applied to
the level's whole coefficient slice (_solve_level, _BRANCHES).

Both transforms use the product form of Y_idx: (2 pi)^(-1/2) e^(i m_1 phi)
times one normalized factor T_k[deg, ord](theta_k) per polar axis
(harmonics.axis_factors, an orthonormal recurrence with no normalization
constant), the one table path that harmonics.harmonic_values and verify
also use.  Each table is built once per grid and lmax (_tables), and
sphere_grid shares one grid per (d, lmax), so repeated fits and
syntheses on a grid reuse its tables.

* Forward (project_boundary) is a staged contraction on the product grid.
  The samples, as the node tensor (n_d, ..., n_3, n_phi), are contracted
  first over phi against e^(-i m_1 phi) w_phi / sqrt(2 pi), then over
  theta_3, theta_4, ..., theta_d against T_k w_k.  Each stage swaps one
  node axis for a degree axis indexed by (degree, order of the axis
  below), so no intermediate is larger than the grid, and the last one
  holds c_idx at (l, m_{d-2}, ..., m_2, m_1).  A fit contracts all its
  spheres' samples as one stacked tensor, through one set of d-2 tables;
  the phi stage is one 2-D matmul and each theta stage one matmul per
  order of the axis below (_stage), so BLAS sees few large products;
  _read_off gathers each label row's entries, the arrays HarmonicExpansion keeps.
* Inverse, two routes.  On a grid, _synthesize is the staged adjoint of
  the forward contraction without the weights: A and B are combined per
  level with the radial pair, scattered into the coefficient tensor, and
  contracted over theta_d, ..., theta_3 against T_k, then over m_1
  against e^(i m_1 phi) / sqrt(2 pi); each stage swaps a degree axis for
  a node axis, so again no intermediate is larger than the grid.  At
  scattered points, eval_expansion weights the row blocks of the gather
  it shares with harmonics.harmonic_values by A r^l + B r^-(l+d-2) and
  adds each block's row sum, the running total first (in row order, so
  bitwise the index-by-index sum at array points), in O(points) memory
  beyond the tables.  Scattered points share no grid structure, so
  staging there would carry a points x (lmax+1)^(d-3) x (2 lmax+1)
  intermediate, far larger than the output.

Both inverse routes and radial_eval form the radial powers once per
level by one rule (_radial_powers): a nonzero A needs r^l finite and a
nonzero B needs r^-(l+d-2) finite, else the call raises ValueError; a
power no coefficient of the level needs is replaced by 0, so 0 * inf
never appears.  A sum that overflows although its powers are finite
raises ValueError too (_check_finite), so no route returns inf or NaN.
The label row -> tensor-position formula is written once (_positions),
for _read_off's gather and _synthesize's scatter, and the tables of
both contractions come from one helper (_tables).
"""

import math
import warnings
import weakref
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .gegenbauer import _recurrence
from .geometry import _check_int, cos_gamma, to_ultraspherical
from .harmonics import MultiIndex, _chain_blocks, _indices, _labels, _point_shape, axis_factors
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
    checks a {MultiIndex: (A, B)} dict and leaves it untouched; ``coeffs``
    is a read-only view of that kind, made on first read.
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
        values = np.array([(complex(a), complex(b)) for a, b in coeffs.values()], dtype=complex)
        vars(self).update(vars(self._of(d, lmax, labels, values.reshape(-1, 2))))

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


def _radial_pair(l, d, r):
    """(r^l, r^-(l+d-2)) for an array r; inf where a power overflows (the second also at r = 0)."""
    with np.errstate(divide="ignore", over="ignore"):
        return r**l, r ** -(l + d - 2)


def _radial_powers(l, d, r, need_a, need_b):
    """The powers (r^l, r^-(l+d-2)) a level's coefficients need, by one finiteness rule.

    Some A != 0 (``need_a``) needs r^l finite and some B != 0
    (``need_b``) needs r^-(l+d-2) finite, so r > 0; else ValueError.  A
    power no coefficient needs is returned as 0, so 0 * inf never appears.
    """
    grow, decay = _radial_pair(l, d, r)
    for need, power, where in ((need_a, grow, "A != 0 where r^l"),
                               (need_b, decay, "B != 0 at r = 0 or where r^-(l+d-2)")):
        if need and not np.isfinite(power).all():
            raise ValueError(f"singular evaluation: {where} overflows (level {l})")
    return (grow if need_a else 0.0), (decay if need_b else 0.0)


def radial_eval(a, b, l, d, r):
    """A r^l + B r^-(l+d-2); a nonzero coefficient needs its power of r finite."""
    l = _check_int(l, "level", 0)
    d = _check_int(d, "dimension", 3)
    ra = np.asarray(r, dtype=float)
    a, b = complex(a), complex(b)
    grow, decay = _radial_powers(l, d, ra, a != 0, b != 0)
    val = a * grow + b * decay
    return complex(val) if ra.ndim == 0 else val


def eval_expansion(expansion, r, angles):
    """Evaluate sum_idx radial(A, B, l; r) Y_idx(angles).

    ``r`` and the angles may be arrays of any common broadcast shape; a
    scalar evaluation returns a complex number, and an expansion without
    coefficients gives zeros of that shape.  The radial powers are formed
    once per level, as the level's coefficients need them.
    """
    if angles.d != expansion.d:
        raise ValueError(
            f"dimension mismatch: expansion d={expansion.d}, point d={angles.d}"
        )
    d, labels = expansion.d, expansion.labels
    r = np.asarray(r, dtype=float)
    shape = np.broadcast_shapes(r.shape, _point_shape(angles))
    # the coefficients as (rows, 1, ...) and the powers as (level, ...), to broadcast over shape
    a, b = (c.reshape((-1,) + (1,) * len(shape)) for c in expansion.values.T)
    levels = labels[:, 0]
    grow, decay = np.zeros((2, levels.max(initial=0) + 1) + (1,) * (len(shape) - r.ndim) + r.shape)
    for l in range(len(grow)):
        at = levels == l
        grow[l], decay[l] = _radial_powers(l, d, r, a[at].any(), b[at].any())
    total = np.zeros(shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for start, y in _chain_blocks(labels, angles, shape):
            rows = slice(start, start + len(y))
            weights = a[rows] * grow[levels[rows]] + b[rows] * decay[levels[rows]]
            np.multiply(weights, y, out=y)  # weights first, as the per-index sum
            y[0] += total  # the running total leads the block's row sum
            total = np.sum(y, axis=0)
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


# the phase and tables of each grid, by lmax, kept while the grid lives
_GRID_TABLES = weakref.WeakKeyDictionary()


def _tables(grid, lmax):
    """The phase and per-axis tables of both transforms on ``grid``, up to lmax.

    The phase is e^(-i m_1 phi) as (n_phi, 2 lmax + 1), and the tables are
    T_k as (order, degree, n_k) for k = 3, ..., d, the layout of the
    contractions' matmul batched over the order, with the orders at
    theta_3 gathered as |m_1| for m_1 = -lmax, ..., lmax.  They carry
    neither the (2 pi)^(-1/2) factor nor quadrature weights; the callers
    apply those.  Each grid builds them once per lmax and shares them
    read-only.
    """
    by_lmax = _GRID_TABLES.setdefault(grid, {})
    if lmax not in by_lmax:
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
        by_lmax[lmax] = phase, tuple(tables)
    return by_lmax[lmax]


def _stage(table, coef, i):
    """One stage of the staged contractions: axis i of ``coef`` against ``table``.

    ``table`` is (b, out, in), and axis i + 1 of ``coef`` (size b) is the
    order the table's matrix depends on.  The stage is one matmul per
    order, (out, in) @ (in, rest), where rest gathers every axis before i
    and after i + 1, so BLAS sees b large products, not one per node.
    """
    shape, out = coef.shape, table.shape[1]
    # axes (b, in, before, after), contiguous, so rest is one axis
    stack = np.ascontiguousarray(
        coef.reshape(math.prod(shape[:i]), shape[i], shape[i + 1], -1).transpose(2, 1, 0, 3))
    product = table @ stack.reshape(shape[i + 1], shape[i], -1)
    product = product.reshape(shape[i + 1], out, stack.shape[2], -1).transpose(2, 1, 0, 3)
    return product.reshape(shape[:i] + (out,) + shape[i + 1 :])


def _project(datasets, grid, lmax):
    """Coefficients of the data sets, contracted against one set of tables.

    The tensor's axes are (data set, l, m_{d-2}, ..., m_2, m_1 + lmax).
    """
    lmax = _check_int(lmax, "lmax", 0)
    if lmax > grid.lmax:
        raise ValueError(f"grid supports lmax <= {grid.lmax}, requested {lmax}")
    # the node mesh only for callable data, formed once and not kept by the grid
    points = grid.points if any(map(callable, datasets)) else None
    samples = []
    for data in datasets:
        values = np.asarray(data(points)) if callable(data) else np.asarray(data)
        if values.size != grid.size:
            raise ValueError(
                f"expected {grid.size} boundary samples in grid order, got {values.size}"
            )
        samples.append(values.reshape(grid.shape))
    phase, tables = _tables(grid, lmax)
    # the phi stage as one 2-D matmul over every other node axis
    coef = (np.stack(samples).reshape(-1, grid.n_phi)
            @ (phase * (grid.phi_weight / math.sqrt(2.0 * math.pi)))
            ).reshape((len(samples),) + grid.shape[:-1] + (2 * lmax + 1,))
    d = grid.d
    for k, table, rule in zip(range(3, d + 1), tables, reversed(grid.theta_rules)):
        # coef axes are the data set, n_d, ..., n_k, then the orders
        # m_{k-2}, ..., m_1 of the axes below; n_k becomes the degree on
        # theta_k (l when k = d)
        coef = _stage(table * rule.weights, coef, d - k + 1)
    return coef


def _synthesize(expansion, r, grid):
    """Values of ``expansion`` at radius r on the grid's nodes, in grid order.

    The adjoint of _project without the weights: each level's A and B
    are combined with the radial pair (_radial_powers) and scattered into the
    coefficient tensor, which is contracted over theta_d, ..., theta_3
    against T_k, each stage swapping a degree axis for a node axis, then
    over m_1 against e^(i m_1 phi) / sqrt(2 pi).
    """
    d, lmax = expansion.d, expansion.lmax
    if grid.d != d:
        raise ValueError(f"dimension mismatch: expansion d={d}, grid d={grid.d}")
    flat, shape = _positions(expansion.labels, lmax), _tensor_shape(d, lmax)
    a, b = expansion.values.T
    levels = expansion.labels[:, 0]
    coef = np.zeros(math.prod(shape), dtype=complex)
    phase, tables = _tables(grid, lmax)
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(lmax + 1):
            at = levels == l
            grow, decay = _radial_powers(l, d, np.float64(r), a[at].any(), b[at].any())
            coef[flat[at]] = a[at] * grow + b[at] * decay
        coef = coef.reshape(shape)
        for k, table in zip(range(d, 2, -1), reversed(tables)):
            # coef axes are the nodes n_d, ..., n_{k+1}, the degree on theta_k,
            # then the orders below it; the degree becomes the node n_k
            coef = _stage(table.transpose(0, 2, 1), coef, d - k)
        values = coef.reshape(-1, 2 * lmax + 1) @ (phase * (1.0 / math.sqrt(2.0 * math.pi))).conj().T
        values = values.reshape(-1)
    _check_finite(values)
    return values


def _read_off(tensor, d, lmax):
    """(labels, entries) of every level <= lmax, by one gather from ``tensor``.

    ``tensor`` ends in the axes of _tensor_shape; row i of ``entries``
    holds label row i's entries over the leading axes of ``tensor``.
    """
    labels = _labels(d, lmax, 0)
    entries = tensor.reshape(tensor.shape[: 1 - d] + (-1,))[..., _positions(labels, lmax)]
    return labels, np.moveaxis(entries, -1, 0)


def project_boundary(data, grid, lmax):
    """Harmonic coefficients c_idx = <data, Y_idx> for all levels <= lmax.

    ``data`` is a callable on the grid's array point or an array of
    samples at the grid nodes.  Data beyond the grid's exactness band is
    aliased; callers control the band limit through the grid.
    """
    labels, entries = _read_off(_project((data,), grid, lmax)[0], grid.d, lmax)
    return dict(zip(_indices(grid.d, labels), entries.tolist()))


# the columns of M_l each kind keeps: A r^l, regular at the origin, and
# B r^-(l+d-2), decaying at infinity
_BRANCHES = {"interior": [0], "exterior": [1], "annulus": [0, 1]}


def _solve_level(l, d, radii, branches, rhs):
    """Solve M_l x = rhs for a level's tensor slice, one row of rhs per sphere.

    A zero or non-finite entry or determinant of M_l, or a non-finite
    solution, raises ValueError; |det| below 1e-12 of its largest term warns.
    """
    where = f"radial system of level {l} for radii {tuple(radii.tolist())}"
    with np.errstate(all="ignore"):
        m = np.stack(_radial_pair(l, d, radii), axis=1)[:, branches]
        # the terms of det M_l: one for a single sphere, two for the annulus
        terms = np.array([m.diagonal().prod(), -m[::-1].diagonal().prod()])[: len(m)]
        det = terms.sum()
        if not (np.isfinite(m).all() and m.all() and np.isfinite(det) and det != 0):
            raise ValueError(f"{where} leaves the double range")
        x = np.linalg.solve(m, rhs.reshape(len(m), -1)).reshape(rhs.shape)
    if not np.isfinite(x).all():
        raise ValueError(f"{where} leaves the double range")
    scale = np.abs(terms).max()
    if abs(det) < 1e-12 * scale:
        warnings.warn(f"{where} is nearly singular: |det| = {abs(det):.3e} against scale "
                      f"{scale:.3e}", stacklevel=4)
    return x


def _fit(problem, kind):
    """(A, B) for every index, by one radial solve per level."""
    if problem.kind != kind:
        raise ValueError(f"expected an {kind} problem, got {problem.kind!r}")
    d, lmax = problem.d, problem.lmax
    coef = _project(problem.data, sphere_grid(d, lmax), lmax)
    branches, radii = _BRANCHES[kind], np.array(problem.radii)
    solved = np.zeros((2,) + coef.shape[1:], dtype=complex)
    for l in range(lmax + 1):
        solved[branches, l] = _solve_level(l, d, radii, branches, coef[:, l])
    return HarmonicExpansion._of(d, lmax, *_read_off(solved, d, lmax))


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
    d = x_a.d
    ra, rb = x_a.norm(), x_b.norm()
    if ra == rb:
        raise ValueError("expansion does not converge for |x_a| = |x_b|")
    r_lo, r_hi = min(ra, rb), max(ra, rb)
    if r_lo == 0.0:
        return r_hi ** (-(d - 2))
    cg = cos_gamma(to_ultraspherical(x_a), to_ultraspherical(x_b))
    total = 0.0
    for l, p in enumerate(_recurrence(lmax, d, np.asarray(cg))):
        total += r_lo**l / r_hi ** (l + d - 2) * float(p)
    return total
