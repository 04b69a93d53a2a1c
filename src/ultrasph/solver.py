"""Radial solutions, harmonic expansions, Dirichlet fits, and the
separable expansion of the |x - x'|^-(d-2) kernel.

A scalar Laplace solution with purely radial boundary conditions is

    Phi(r, Omega) = sum_idx (A_idx r^l + B_idx r^-(l+d-2)) Y_idx(Omega),

where the two radial branches solve the Euler equation with eigenvalue
-l(l+d-2).  Interior problems keep only the A branch (regular at the
origin), exterior problems only the B branch (decaying at infinity), and
annulus problems determine both from a 2x2 system per index.

Both transforms use the product form of Y_idx: (2 pi)^(-1/2) e^(i m_1 phi)
times one normalized factor T_k[deg, ord](theta_k) per polar axis
(harmonics.axis_factors), each table built once per call.

* Forward (project_boundary) is a staged contraction on the product grid.
  The samples, as the node tensor (n_d, ..., n_3, n_phi), are contracted
  first over phi against e^(-i m_1 phi) w_phi / sqrt(2 pi), then over
  theta_3, theta_4, ..., theta_d against T_k w_k.  Each stage swaps one
  node axis for a degree axis indexed by (degree, order of the axis
  below), so no intermediate is larger than the grid, and the last one
  holds c_idx at (l, m_{d-2}, ..., m_2, m_1).
* Inverse (eval_expansion) accumulates radial_eval(A, B, l; r) times the
  product of table entries index by index over the whole point array, in
  O(points) memory.  Scattered points share no grid structure, so staging
  the inverse would carry a points x (lmax+1)^(d-3) x (2 lmax+1)
  intermediate, far larger than the output.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gegenbauer import poly
from .geometry import cos_gamma, to_ultraspherical
from .harmonics import MultiIndex, axis_factors, enumerate_indices
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
        if self.kind not in ("interior", "exterior", "annulus"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        radii = tuple(float(r) for r in self.radii)
        if any(r <= 0 for r in radii):
            raise ValueError("all radii must be positive")
        want = 2 if self.kind == "annulus" else 1
        if len(radii) != want or len(self.data) != want:
            raise ValueError(
                f"{self.kind} problem needs {want} radius/data entries, "
                f"got {len(radii)}/{len(self.data)}"
            )
        if self.kind == "annulus" and not radii[0] < radii[1]:
            raise ValueError("annulus requires R_inner < R_outer strictly")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "data", tuple(self.data))


def radial_eval(a, b, l, d, r):
    """A r^l + B r^-(l+d-2); r = 0 is allowed only when B = 0."""
    ra = np.asarray(r, dtype=float)
    scalar_in = ra.ndim == 0
    a, b = complex(a), complex(b)
    if b == 0:
        val = a * ra**l + 0j
    else:
        if np.any(ra == 0.0):
            raise ValueError("singular evaluation: r = 0 with B != 0")
        val = a * ra**l + b * ra ** (-(l + d - 2))
    return complex(val) if scalar_in else val


def eval_expansion(expansion, r, angles):
    """Evaluate sum_idx radial(A, B, l; r) Y_idx(angles).

    ``r`` and the angles may be arrays of any common broadcast shape; a
    scalar evaluation returns a complex number.
    """
    if angles.d != expansion.d:
        raise ValueError(
            f"dimension mismatch: expansion d={expansion.d}, point d={angles.d}"
        )
    d = expansion.d
    top = max((idx.l for idx in expansion.coeffs), default=0)
    tables = [axis_factors(k, top, t) for k, t in zip(range(d, 2, -1), angles.theta)]
    phi = np.asarray(angles.phi)
    phases = {
        m1: np.exp(1j * m1 * phi) / math.sqrt(2.0 * math.pi)
        for m1 in range(-top, top + 1)
    }
    total = 0.0 + 0.0j
    for idx, (a, b) in expansion.coeffs.items():
        y = phases[idx.m[-1]]
        for table, (_, degree, order) in zip(tables, idx.axis_terms()):
            y = y * table[degree, order]
        total = total + radial_eval(a, b, idx.l, d, r) * y
    return complex(total) if np.ndim(total) == 0 else total


def project_boundary(data, grid, lmax):
    """Harmonic coefficients c_idx = <data, Y_idx> for all levels <= lmax.

    ``data`` is a callable on the grid's array point or an array of
    samples at the grid nodes.  Data beyond the grid's exactness band is
    aliased; callers control the band limit through the grid.
    """
    if lmax > grid.lmax:
        raise ValueError(f"grid supports lmax <= {grid.lmax}, requested {lmax}")
    values = np.asarray(data(grid.points)) if callable(data) else np.asarray(data)
    if values.size != grid.size:
        raise ValueError(
            f"expected {grid.size} boundary samples in grid order, got {values.size}"
        )
    m1 = np.arange(-lmax, lmax + 1)
    phase = np.exp(-1j * np.outer(grid.phi_nodes, m1))
    phase *= grid.phi_weight / math.sqrt(2.0 * math.pi)
    coef = values.reshape(grid.shape) @ phase
    d = grid.d
    for k, rule in zip(range(3, d + 1), reversed(grid.theta_rules)):
        table = axis_factors(k, lmax, rule.nodes) * rule.weights
        if k == 3:
            table = table[:, np.abs(m1)]  # the order on theta_3 is |m_1|
        # coef axes are n_d, ..., n_k, then the orders m_{k-2}, ..., m_1 of
        # the axes below; n_k becomes the degree on theta_k (l when k = d)
        shape, i = coef.shape, d - k
        coef = np.einsum(
            "pnbr,abn->pabr",
            coef.reshape(math.prod(shape[:i]), shape[i], shape[i + 1], -1),
            table,
        ).reshape(shape[:i] + (lmax + 1,) + shape[i + 1 :])
    out = {}
    for l in range(lmax + 1):
        for idx in enumerate_indices(d, l):
            out[idx] = complex(coef[(l,) + idx.m[:-1] + (idx.m[-1] + lmax,)])
    return out


def fit_interior(problem):
    """Regular-at-origin fit: B = 0, A_idx = c_idx / R^l."""
    if problem.kind != "interior":
        raise ValueError(f"expected an interior problem, got {problem.kind!r}")
    radius = problem.radii[0]
    grid = sphere_grid(problem.d, problem.lmax)
    coeffs = project_boundary(problem.data[0], grid, problem.lmax)
    return HarmonicExpansion(
        problem.d,
        problem.lmax,
        {idx: (c / radius**idx.l, 0.0j) for idx, c in coeffs.items()},
    )


def fit_exterior(problem):
    """Decaying-at-infinity fit: A = 0, B_idx = c_idx R^(l+d-2)."""
    if problem.kind != "exterior":
        raise ValueError(f"expected an exterior problem, got {problem.kind!r}")
    radius = problem.radii[0]
    grid = sphere_grid(problem.d, problem.lmax)
    coeffs = project_boundary(problem.data[0], grid, problem.lmax)
    return HarmonicExpansion(
        problem.d,
        problem.lmax,
        {
            idx: (0.0j, c * radius ** (idx.l + problem.d - 2))
            for idx, c in coeffs.items()
        },
    )


def fit_annulus(problem):
    """Two-branch fit from data on both spheres, solved per index by Cramer.

    The 2x2 determinant R1^l R2^-(l+d-2) - R2^l R1^-(l+d-2) is nonzero for
    R1 != R2; a warning is emitted if it is small against its terms.
    """
    if problem.kind != "annulus":
        raise ValueError(f"expected an annulus problem, got {problem.kind!r}")
    r1, r2 = problem.radii
    grid = sphere_grid(problem.d, problem.lmax)
    inner = project_boundary(problem.data[0], grid, problem.lmax)
    outer = project_boundary(problem.data[1], grid, problem.lmax)
    coeffs = {}
    for idx in inner:
        s = idx.l + problem.d - 2
        t11, t12 = r1**idx.l, r1 ** (-s)
        t21, t22 = r2**idx.l, r2 ** (-s)
        det = t11 * t22 - t21 * t12
        scale = max(abs(t11 * t22), abs(t21 * t12))
        if abs(det) < 1e-12 * scale:
            warnings.warn(
                f"annulus system nearly singular at index {idx}: "
                f"|det| = {abs(det):.3e} against scale {scale:.3e}",
                stacklevel=2,
            )
        c1, c2 = inner[idx], outer[idx]
        a = (c1 * t22 - c2 * t12) / det
        b = (t11 * c2 - t21 * c1) / det
        coeffs[idx] = (a, b)
    return HarmonicExpansion(problem.d, problem.lmax, coeffs)


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
    for l in range(lmax + 1):
        total += r_lo**l / r_hi ** (l + d - 2) * poly(l, d, cg)
    return total
