"""Closed-form harmonic test data for the benchmark, built with numpy only.

Nothing here imports ultrasph: the program receives the files written from
these functions and its answers are checked against the same closed forms.

A test function is a sum of terms

    (A + B |x|^-(2k+d-2)) (w . x)^k,

where w is a complex null vector (w . w = 0).  Then (w . x)^k is a harmonic
homogeneous polynomial of degree k and the B form is its Kelvin transform,
so every term is harmonic away from the origin and is a single level-k
spherical harmonic on any sphere about it.  Data built from terms with
k <= lmax are therefore exactly band-limited and carry both radial branches.
"""

import json
import math

import numpy as np

TOL = 1e-9  # relative tolerance of every oracle check
KINDS = {"interior": (1.0,), "exterior": (1.0,), "annulus": (0.5, 2.0)}
# radii of the seeded check points, strictly inside each kind's domain
CHECK_SHELL = {"interior": (0.2, 0.95), "exterior": (1.05, 3.0), "annulus": (0.55, 1.95)}


def null_vector(rng, d):
    """A random complex w = (a + i b)/sqrt(2) with |a| = |b| = 1, a . b = 0."""
    a, b = rng.normal(size=(2, d))
    a /= np.linalg.norm(a)
    b -= (a @ b) * a
    b /= np.linalg.norm(b)
    return (a + 1j * b) / math.sqrt(2.0)


class Harmonic:
    """Sum of terms (A + B |x|^-(2k+d-2)) (w . x)^k; ``terms`` holds (k, w, A, B)."""

    def __init__(self, d, terms):
        self.d = d
        self.terms = list(terms)

    def __call__(self, x):
        """Values at Cartesian points ``x`` of shape (d, n)."""
        x = np.asarray(x, dtype=float)
        r = np.sqrt(np.sum(x * x, axis=0))
        out = np.zeros(x.shape[1:], dtype=complex)
        for k, w, a, b in self.terms:
            wx = (w @ x) ** k
            if a:
                out += a * wx
            if b:
                out += b * r ** -(2 * k + self.d - 2) * wx
        return out


def boundary_function(rng, d, lmax):
    """Seeded f = sum_{k<=lmax} c_k (u_k.x)^k + b_k |x|^-(2k+d-2) (v_k.x)^k."""
    terms = []
    for k in range(lmax + 1):
        c, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        terms.append((k, null_vector(rng, d), c, 0j))
        terms.append((k, null_vector(rng, d), 0j, b))
    return Harmonic(d, terms)


def solution(f, kind, radii):
    """The harmonic function a solver must return for data f on ``radii``.

    On |x| = R each term of f is a level-k harmonic, so the interior
    solution keeps the regular form with the singular coefficient scaled by
    R^-(2k+d-2), and the exterior one keeps the decaying form with the
    regular coefficient scaled by R^(2k+d-2).  On an annulus, f itself is
    harmonic in the shell and matches both spheres.
    """
    if kind == "annulus":
        return f
    (radius,) = radii
    terms = []
    for k, w, a, b in f.terms:
        s = radius ** (2 * k + f.d - 2)
        if kind == "interior":
            terms.append((k, w, a + b / s, 0j))
        else:
            terms.append((k, w, 0j, b + a * s))
    return Harmonic(f.d, terms)


def gauss_thetas(alpha, n):
    """Nodes of the n-point Gauss rule for sin^alpha(theta) on [0, pi], ascending.

    Golub-Welsch: eigenvalues of the Jacobi matrix of the Gegenbauer weight
    (1 - x^2)^((alpha-1)/2) on x = cos(theta).
    """
    delta = (alpha - 1) / 2.0
    k = np.arange(1, n)
    b = k * (k + 2.0 * delta) / ((2.0 * k + 2.0 * delta) ** 2 - 1.0)
    jacobi = np.diag(np.sqrt(b), 1) + np.diag(np.sqrt(b), -1)
    x = np.clip(np.linalg.eigvalsh(jacobi), -1.0, 1.0)
    return np.sort(np.arccos(x))


def to_cartesian(r, thetas, phi):
    """(r, theta_d, ..., theta_3, phi) -> Cartesian (x_1, ..., x_d), shape (d, ...)."""
    rj = np.asarray(r, dtype=float)
    upper = []  # x_d, ..., x_3
    for t in thetas:
        upper.append(rj * np.cos(t))
        rj = rj * np.sin(t)
    comps = [rj * np.cos(phi), rj * np.sin(phi)] + upper[::-1]
    return np.stack(np.broadcast_arrays(*comps))


def to_ultraspherical(x):
    """Inverse of :func:`to_cartesian` for points off the coordinate axes."""
    rj = np.hypot(x[0], x[1])
    phi = np.mod(np.arctan2(x[1], x[0]), 2.0 * math.pi)
    thetas = []  # theta_3, ..., theta_d
    for j in range(2, x.shape[0]):
        thetas.append(np.arctan2(rj, x[j]))
        rj = np.hypot(rj, x[j])
    return rj, thetas[::-1], phi


def grid_directions(d, lmax):
    """Unit vectors at the nodes of the product grid, in the CLI's sample order.

    Polar axis j = d, ..., 3 carries lmax+2 Gauss nodes for sin^(j-2), phi
    carries 2 lmax + 2 uniform nodes; the order is row-major over
    (theta_d, ..., theta_3, phi).
    """
    axes = [gauss_thetas(j - 2, lmax + 2) for j in range(d, 2, -1)]
    n_phi = 2 * lmax + 2
    axes.append(2.0 * math.pi * np.arange(n_phi) / n_phi)
    mesh = [m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")]
    return to_cartesian(1.0, mesh[:-1], mesh[-1])


def random_points(rng, d, n, r_lo, r_hi):
    """n seeded points with radius uniform in [r_lo, r_hi], shape (d, n)."""
    v = rng.normal(size=(d, n))
    v /= np.linalg.norm(v, axis=0)
    return v * rng.uniform(r_lo, r_hi, size=n)


def pairs(values):
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).reshape(-1)]


def write_json(path, obj):
    with open(path, "w") as fp:
        json.dump(obj, fp)


def points_doc(x, ultraspherical_every=0):
    """A points file; every ``ultraspherical_every``-th point uses angles."""
    entries = []
    r, thetas, phi = to_ultraspherical(x)
    for i in range(x.shape[1]):
        if ultraspherical_every and i % ultraspherical_every == 1:
            entries.append({"ultraspherical": {
                "r": float(r[i]), "theta": [float(t[i]) for t in thetas],
                "phi": float(phi[i])}})
        else:
            entries.append({"cartesian": [float(v) for v in x[:, i]]})
    return {"points": entries}


def points_from_doc(doc):
    """Cartesian coordinates of a points file, as the oracle evaluates them."""
    cols = []
    for entry in doc["points"]:
        if "cartesian" in entry:
            cols.append(np.asarray(entry["cartesian"], dtype=float))
        else:
            rec = entry["ultraspherical"]
            cols.append(to_cartesian(rec["r"], rec["theta"], rec["phi"]))
    return np.stack(cols, axis=1)


def read_values(path):
    """Complex values from a values file, or None if it is unreadable."""
    try:
        with open(path) as fp:
            raw = np.asarray(json.load(fp)["values"], dtype=float)
        return raw[:, 0] + 1j * raw[:, 1]
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return None


def relative_error(got, ref):
    """max |got - ref| / max |ref|, or inf when the shapes disagree."""
    if got is None or np.shape(got) != np.shape(ref):
        return math.inf
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


STENCIL = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560])


def laplacian_residual(f, x, h):
    """|FD Laplacian| / sum_j |D2_j f| at points x (d, n), worst point.

    The nine-point central stencil is exact for polynomials of degree <= 9
    along each axis, so on the regular terms only roundoff remains.
    """
    d = x.shape[0]
    total = np.zeros(x.shape[1], dtype=complex)
    scale = np.zeros(x.shape[1])
    for j in range(d):
        d2 = np.zeros(x.shape[1], dtype=complex)
        for s, c in zip(range(-4, 5), STENCIL):
            xs = x.copy()
            xs[j] += s * h
            d2 += c * f(xs)
        d2 /= h * h
        total += d2
        scale += np.abs(d2)
    return float(np.max(np.abs(total) / scale))
