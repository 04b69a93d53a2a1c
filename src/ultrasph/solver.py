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
(harmonics.axis_factors), the one table path that harmonics.harmonic_values
and verify also use; each table is built once per call.

* Forward (project_boundary) is a staged contraction on the product grid.
  The samples, as the node tensor (n_d, ..., n_3, n_phi), are contracted
  first over phi against e^(-i m_1 phi) w_phi / sqrt(2 pi), then over
  theta_3, theta_4, ..., theta_d against T_k w_k.  Each stage swaps one
  node axis for a degree axis indexed by (degree, order of the axis
  below), so no intermediate is larger than the grid, and the last one
  holds c_idx at (l, m_{d-2}, ..., m_2, m_1).  A fit contracts all its
  spheres' samples as one stacked tensor, through one set of d-2 tables;
  _read_off turns tensors into {idx: ...} dicts by one gather.
* Inverse (eval_expansion) accumulates radial_eval(A, B, l; r) times the
  product of table entries index by index over the whole point array, in
  O(points) memory, through the chain-product loop it shares with
  harmonics.harmonic_values.  Scattered points share no grid structure,
  so staging the inverse would carry a points x (lmax+1)^(d-3) x
  (2 lmax+1) intermediate, far larger than the output.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gegenbauer import _recurrence
from .geometry import _check_int, cos_gamma, to_ultraspherical
from .harmonics import MultiIndex, _chain_products, axis_factors, enumerate_indices
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


@dataclass
class HarmonicExpansion:
    """Map from MultiIndex to the radial coefficient pair (A, B).

    Absent keys mean (0, 0).  Coefficient order is preserved, so files
    written from an expansion are deterministic.
    """

    d: int
    lmax: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.d = _check_int(self.d, "dimension", 3)
        self.lmax = _check_int(self.lmax, "lmax", 0)
        for idx, (a, b) in self.coeffs.items():
            if not isinstance(idx, MultiIndex) or idx.d != self.d:
                raise ValueError(f"bad coefficient key {idx!r} for d={self.d}")
            if idx.l > self.lmax:
                raise ValueError(f"index level {idx.l} exceeds lmax={self.lmax}")
            self.coeffs[idx] = (complex(a), complex(b))


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
    """(r^l, r^-(l+d-2)) for an array r; the second is inf where it overflows or r = 0."""
    with np.errstate(divide="ignore", over="ignore"):
        decay = r ** -(l + d - 2)
    return r**l, decay


def radial_eval(a, b, l, d, r):
    """A r^l + B r^-(l+d-2); B != 0 needs r^-(l+d-2) finite, so r > 0."""
    ra = np.asarray(r, dtype=float)
    a, b = complex(a), complex(b)
    grow, decay = _radial_pair(l, d, ra)
    if b == 0:
        val = a * grow + 0j
    elif np.isfinite(decay).all():
        val = a * grow + b * decay
    else:
        raise ValueError("singular evaluation: B != 0 at r = 0 or where r^-(l+d-2) overflows")
    return complex(val) if ra.ndim == 0 else val


def eval_expansion(expansion, r, angles):
    """Evaluate sum_idx radial(A, B, l; r) Y_idx(angles).

    ``r`` and the angles may be arrays of any common broadcast shape; a
    scalar evaluation returns a complex number.
    """
    if angles.d != expansion.d:
        raise ValueError(
            f"dimension mismatch: expansion d={expansion.d}, point d={angles.d}"
        )
    total = 0.0 + 0.0j
    for (idx, (a, b)), y in zip(
        expansion.coeffs.items(), _chain_products(expansion.coeffs, angles)
    ):
        total = total + radial_eval(a, b, idx.l, expansion.d, r) * y
    return complex(total) if np.ndim(total) == 0 else total


def _project(datasets, grid, lmax):
    """Coefficients of the data sets, contracted against one set of tables.

    The tensor's axes are (data set, l, m_{d-2}, ..., m_2, m_1 + lmax).
    """
    if lmax > grid.lmax:
        raise ValueError(f"grid supports lmax <= {grid.lmax}, requested {lmax}")
    samples = []
    for data in datasets:
        values = np.asarray(data(grid.points)) if callable(data) else np.asarray(data)
        if values.size != grid.size:
            raise ValueError(
                f"expected {grid.size} boundary samples in grid order, got {values.size}"
            )
        samples.append(values.reshape(grid.shape))
    m1 = np.arange(-lmax, lmax + 1)
    phase = np.exp(-1j * np.outer(grid.phi_nodes, m1))
    phase *= grid.phi_weight / math.sqrt(2.0 * math.pi)
    coef = np.stack(samples) @ phase
    d = grid.d
    for k, rule in zip(range(3, d + 1), reversed(grid.theta_rules)):
        table = axis_factors(k, lmax, rule.nodes) * rule.weights
        if k == 3:
            table = table[:, np.abs(m1)]  # the order on theta_3 is |m_1|
        # coef axes are the data set, n_d, ..., n_k, then the orders
        # m_{k-2}, ..., m_1 of the axes below; n_k becomes the degree on
        # theta_k (l when k = d)
        shape, i = coef.shape, d - k + 1
        coef = np.einsum(
            "pnbr,abn->pabr",
            coef.reshape(math.prod(shape[:i]), shape[i], shape[i + 1], -1),
            table,
        ).reshape(shape[:i] + (lmax + 1,) + shape[i + 1 :])
    return coef


def _read_off(tensor, d, lmax):
    """{idx: entries} for every level <= lmax, in enumerate_indices order, by one gather.

    ``tensor`` ends in the axes of _project after the data set; the entries
    of idx are Python numbers, a list of them over any leading axes.
    """
    indices = [idx for l in range(lmax + 1) for idx in enumerate_indices(d, l)]
    positions = [(idx.l,) + idx.m[:-1] + (idx.m[-1] + lmax,) for idx in indices]
    flat = np.ravel_multi_index(tuple(zip(*positions)), tensor.shape[1 - d :])
    entries = tensor.reshape(tensor.shape[: 1 - d] + (-1,))[..., flat]
    return dict(zip(indices, np.moveaxis(entries, -1, 0).tolist()))


def project_boundary(data, grid, lmax):
    """Harmonic coefficients c_idx = <data, Y_idx> for all levels <= lmax.

    ``data`` is a callable on the grid's array point or an array of
    samples at the grid nodes.  Data beyond the grid's exactness band is
    aliased; callers control the band limit through the grid.
    """
    return _read_off(_project((data,), grid, lmax)[0], grid.d, lmax)


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
    return HarmonicExpansion(d, lmax, _read_off(solved, d, lmax))


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
