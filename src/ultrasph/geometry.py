"""Ultraspherical (hyperspherical polar) coordinates in d >= 3 dimensions.

The chart is the recursive polar chain

    x_d = r cos(theta_d),       r_{d-1} = r sin(theta_d),
    x_j = r_j cos(theta_j),     r_{j-1} = r_j sin(theta_j)   (j = d, ..., 3),
    x_1 = r_2 cos(phi),         x_2  = r_2 sin(phi),

with theta_j in [0, pi] and phi in [0, 2*pi).  Cartesian components are
stored in the order (x_1, ..., x_d), so x_d is the polar axis of the
outermost angle theta_d.

Angle and radius fields may be numpy arrays of a common broadcast shape;
all operations then act elementwise ("structure of arrays").  Degenerate
angles (any intermediate radius r_j = 0) are canonicalized to 0 so that
the Cartesian -> ultraspherical inverse is well defined everywhere.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CartesianPoint",
    "UltrasphericalPoint",
    "cos_gamma",
    "solid_angle",
    "to_cartesian",
    "to_ultraspherical",
]

TWO_PI = 2.0 * math.pi


def _as_field(value):
    """Coerce a coordinate field to float or float ndarray."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr)
    return arr


def _check_int(value, name, minimum):
    """``value`` as an int; a bool, a non-integer or a value below ``minimum`` raises.

    The one integer check behind every dimension, degree, order, level and
    node count the package accepts.
    """
    if not (type(value) is int or isinstance(value, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class UltrasphericalPoint:
    """A point (r, theta_d, ..., theta_3, phi) in d-dimensional space.

    ``theta`` holds the d-2 polar angles ordered outermost first:
    theta[0] = theta_d, ..., theta[-1] = theta_3.
    """

    d: int
    r: object
    theta: tuple
    phi: object

    def __post_init__(self):
        d = _check_int(self.d, "dimension", 3)
        object.__setattr__(self, "d", d)
        if len(self.theta) != d - 2:
            raise ValueError(
                f"expected {d - 2} polar angles for d={d}, got {len(self.theta)}"
            )
        r = _as_field(self.r)
        theta = tuple(_as_field(t) for t in self.theta)
        phi = _as_field(self.phi)
        if not np.all(np.asarray(r) >= 0):
            raise ValueError("radius must be nonnegative")
        for t in theta:
            ta = np.asarray(t)
            if not (np.all(ta >= 0.0) and np.all(ta <= math.pi)):
                raise ValueError("polar angles must lie in [0, pi]")
        pa = np.asarray(phi)
        if not (np.all(pa >= 0.0) and np.all(pa < TWO_PI)):
            raise ValueError("azimuth must lie in [0, 2*pi)")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class CartesianPoint:
    """Cartesian components (x_1, ..., x_d); ``x`` has shape (d, ...)."""

    d: int
    x: object

    def __post_init__(self):
        d = _check_int(self.d, "dimension", 3)
        object.__setattr__(self, "d", d)
        x = np.asarray(self.x, dtype=float)
        if x.shape[0] != d:
            raise ValueError(f"expected {d} components, got shape {x.shape}")
        object.__setattr__(self, "x", x)

    def norm(self):
        """Euclidean length |x| (elementwise for array-valued points)."""
        n = np.sqrt(np.sum(self.x * self.x, axis=0))
        return float(n) if np.ndim(n) == 0 else n


def to_cartesian(p):
    """Map an UltrasphericalPoint to Cartesian coordinates.

    Walks the chain x_j = r_j cos(theta_j), r_{j-1} = r_j sin(theta_j)
    from j = d down to 3, then closes with the planar pair
    x_1 = r_2 cos(phi), x_2 = r_2 sin(phi).
    """
    rj = p.r
    upper = []  # x_d, x_{d-1}, ..., x_3
    for t in p.theta:
        upper.append(rj * np.cos(t))
        rj = rj * np.sin(t)
    x1 = rj * np.cos(p.phi)
    x2 = rj * np.sin(p.phi)
    comps = np.broadcast_arrays(*([x1, x2] + upper[::-1]))
    return CartesianPoint(p.d, np.stack(comps))


def to_ultraspherical(c):
    """Invert :func:`to_cartesian`.

    Whenever an intermediate radius r_j vanishes, the undetermined angle
    (theta_j or phi) is set to 0, so the origin maps to r = 0 with all
    angles 0 and the roundtrip is exact away from those degeneracies.
    """
    x = c.x
    rj = np.hypot(x[0], x[1])
    phi = np.mod(np.arctan2(x[1], x[0]), TWO_PI)
    # mod can round a tiny negative angle up to exactly 2*pi
    phi = np.where(phi >= TWO_PI, 0.0, phi)
    phi = np.where(rj == 0.0, 0.0, phi)
    thetas_up = []  # theta_3, theta_4, ..., theta_d
    for j in range(2, c.d):
        xj = x[j]
        theta = np.arctan2(rj, xj)
        rj = np.hypot(rj, xj)
        thetas_up.append(np.where(rj == 0.0, 0.0, theta))
    return UltrasphericalPoint(c.d, rj, tuple(thetas_up[::-1]), phi)


def solid_angle(d):
    """Surface measure of the unit (d-1)-sphere: 2 pi^(d/2) / Gamma(d/2)."""
    d = _check_int(d, "dimension", 2)
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def cos_gamma(a, b):
    """Cosine of the angle between the directions of two points.

    Uses the recursion
    cos(gamma_j) = cos(theta_j) cos(theta_j') + sin(theta_j) sin(theta_j') cos(gamma_{j-1})
    with base cos(gamma_2) = cos(phi - phi'); the result is clamped to
    [-1, 1] against roundoff and is exactly symmetric in its arguments.
    """
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    cg = np.cos(np.abs(np.asarray(a.phi) - np.asarray(b.phi)))
    for ta, tb in zip(a.theta[::-1], b.theta[::-1]):  # theta_3 upward
        cg = np.cos(ta) * np.cos(tb) + np.sin(ta) * np.sin(tb) * cg
    cg = np.clip(cg, -1.0, 1.0)
    return float(cg) if np.ndim(cg) == 0 else cg
