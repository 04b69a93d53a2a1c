"""Ultraspherical polynomials, derivatives, and associated functions.

P_{l,d}(x) is the coefficient of r^l in the expansion of

    (1 + r^2 - 2 r x)^(-(d-2)/2) = sum_l r^l P_{l,d}(x),   r < 1,

so P_{l,3} are the Legendre polynomials.  The family obeys the three-term
recurrence

    l P_{l,d}(x) = (2l + d - 4) x P_{l-1,d}(x) - (l + d - 4) P_{l-2,d}(x)

with P_{0,d} = 1 and P_{1,d} = (d-2) x, which is what :func:`poly` runs;
:func:`poly_reference` expands the generating function by generalized
binomials instead, exactly in integers and rounded once, and serves as an
independent cross-check.

Derivatives never differentiate symbolically: the m-th x-derivative of
P_{l,d} equals alpha(m,d) P_{l-m,d+2m} with
alpha(m,d) = (d-2) d (d+2) ... (d+2m-4), which is exact at x = +-1 and
O(l) to evaluate.

The associated function

    assoc(l, m, d, theta) = sin^m(theta) * (d^m/dx^m) P_{l,d}(x) |_{x=cos(theta)}

generalizes the associated Legendre functions (no Condon-Shortley phase)
and is orthogonal over [0, pi] with weight sin^(d-2)(theta) for fixed m.

All evaluation routines accept scalars or numpy arrays for the
x/theta argument.
"""

import math
from fractions import Fraction

import numpy as np

from .geometry import _check_int, solid_angle

__all__ = [
    "assoc",
    "deriv_at_one",
    "norm_factor",
    "ode_residual",
    "poly",
    "poly_deriv",
    "poly_reference",
]


def _maybe_scalar(values, scalar_in):
    return float(values) if scalar_in else values


def _recurrence(lmax, d, x):
    """Yield P_{0,d}(x), ..., P_{lmax,d}(x) for an array x; the one copy of the recurrence."""
    p_prev, p = None, np.ones_like(x)
    for k in range(lmax + 1):
        if k == 1:
            p_prev, p = p, (d - 2) * x
        elif k > 1:
            p_prev, p = p, ((2 * k + d - 4) * x * p - (k + d - 4) * p_prev) / k
        yield p


def _jacobi_b(n, delta):
    """b_n (n >= 1) of the monic recurrence p_{n+1} = x p_n - b_n p_{n-1} for (1-x^2)^delta."""
    return n * (n + 2.0 * delta) / ((2.0 * n + 2.0 * delta) ** 2 - 1.0)


def _log_mass(delta):
    """log mu_0, mu_0 = int_{-1}^{1} (1-x^2)^delta dx = sqrt(pi) Gamma(delta+1) / Gamma(delta+3/2)."""
    return 0.5 * math.log(math.pi) + math.lgamma(delta + 1.0) - math.lgamma(delta + 1.5)


def poly(l, d, x):
    """Ultraspherical polynomial P_{l,d}(x) by three-term recurrence."""
    l = _check_int(l, "degree", 0)
    d = _check_int(d, "dimension", 3)
    xa = np.asarray(x, dtype=float)
    for p in _recurrence(l, d, xa):
        pass
    return _maybe_scalar(p, xa.ndim == 0)


def _binomial_series(l, d):
    """The generalized-binomial sum as integers (D, [a_0, ..., a_{l//2}]).

    P_{l,d}(x) = (2x)^(l mod 2) sum_p (a_p / D) (2x)^(2p); the
    coefficients are exact rationals, put over one common denominator D.
    """
    lam = Fraction(d - 2, 2)
    k0 = (l + 1) // 2
    cb = Fraction(1)  # generalized binomial C(lambda+k-1, k)
    for i in range(1, k0 + 1):
        cb *= (lam + i - 1) / i
    terms = []  # the coefficient of (2x)^(2k-l)
    for k in range(k0, l + 1):
        j = l - k
        terms.append(cb * math.comb(k, j) * (-1) ** j)
        cb *= (lam + k) / (k + 1)
    den = math.lcm(*(t.denominator for t in terms))
    return den, [t.numerator * (den // t.denominator) for t in terms]


def _series_at(l, den, nums, x):
    """The series at the double x = n/q by integer Horner in x^2, rounded once.

    With u = (2n)^2 and w = q^2 the sum times D q^l is the integer
    (2n)^(l mod 2) sum_p a_p u^p w^(l//2 - p).
    """
    n, q = x.as_integer_ratio()
    u, w = (2 * n) ** 2, q * q
    acc, wp = 0, 1
    for a in reversed(nums):
        acc = acc * u + a * wp
        wp *= w
    return (2 * n) ** (l % 2) * acc / (den * q**l)


def poly_reference(l, d, x):
    """P_{l,d}(x) from the generating function, independently of :func:`poly`.

    Expands (1 - r(2x - r))^(-lambda) with lambda = (d-2)/2 by the
    generalized binomial series and collects the coefficient of r^l:

        P_{l,d}(x) = sum_{k=ceil(l/2)}^{l} C(lambda+k-1, k) C(k, l-k)
                     (2x)^(2k-l) (-1)^(l-k).

    The sum cancels catastrophically for large l, so it runs exactly: the
    coefficients are built once per call as rationals over one common
    denominator, each x enters as the rational it is (a double is n/q),
    the sum is evaluated in integers and rounded once by one correctly
    rounded integer division; the result is the correctly rounded
    coefficient.
    """
    l = _check_int(l, "degree", 0)
    d = _check_int(d, "dimension", 3)
    xa = np.asarray(x, dtype=float)
    den, nums = _binomial_series(l, d)
    flat = [_series_at(l, den, nums, float(v)) for v in np.atleast_1d(xa).ravel()]
    if xa.ndim == 0:
        return flat[0]
    return np.asarray(flat).reshape(xa.shape)


def poly_deriv(l, m, d, x):
    """m-th x-derivative of P_{l,d} via the dimension shift.

    d^m P_{l,d} / dx^m = alpha(m,d) P_{l-m, d+2m}(x); zero when m > l.
    """
    l = _check_int(l, "degree", 0)
    m = _check_int(m, "order", 0)
    d = _check_int(d, "dimension", 3)
    xa = np.asarray(x, dtype=float)
    scalar_in = xa.ndim == 0
    if m > l:
        return _maybe_scalar(np.zeros_like(xa), scalar_in)
    if m == 0:
        return poly(l, d, x)
    alpha = float(math.prod(range(d - 2, d + 2 * m - 2, 2)))  # exact, rounded once
    val = alpha * np.asarray(poly(l - m, d + 2 * m, xa))
    return _maybe_scalar(val, scalar_in)


def deriv_at_one(l, n, d):
    """n-th derivative of P_{l,d} at x = 1, exactly, rounded once.

    Equals alpha(n,d) (d+n+l-3)! / ((l-n)! (d+2n-3)!); returns 0 for n > l.
    Python integers do not overflow, and the quotient of two of them is
    correctly rounded, so one integer division returns the nearest double
    at every size (OverflowError past the double range).
    """
    l = _check_int(l, "degree", 0)
    n = _check_int(n, "order", 0)
    d = _check_int(d, "dimension", 3)
    if n > l:
        return 0.0
    num = math.prod(range(d - 2, d + 2 * n - 2, 2)) * math.factorial(d + n + l - 3)
    den = math.factorial(l - n) * math.factorial(d + 2 * n - 3)
    return num / den


def assoc(l, m, d, theta):
    """Associated function sin^m(theta) d^m P_{l,d}/dx^m at x = cos(theta).

    Reduces to the (phase-free) associated Legendre function for d = 3;
    identically zero when m > l.
    """
    l = _check_int(l, "degree", 0)
    m = _check_int(m, "order", 0)
    d = _check_int(d, "dimension", 3)
    ta = np.asarray(theta, dtype=float)
    scalar_in = ta.ndim == 0
    if m > l:
        return _maybe_scalar(np.zeros_like(ta), scalar_in)
    val = np.sin(ta) ** m * np.asarray(poly_deriv(l, m, d, np.cos(ta)))
    return _maybe_scalar(val, scalar_in)


def norm_factor(l, n, d):
    """Normalization N with N^2 int_0^pi sin^(d-2)(t) assoc(l,n,d,t)^2 dt = 1.

    N = sqrt( (2l+d-2)/(d-2) * Omega_{d-1}/Omega_d
              * (d-3)! (l-n)! / (d+l+n-3)! ).

    The rational part is one correctly rounded integer division, the
    nearest double to its exact value (0.0 once it underflows).
    """
    l = _check_int(l, "degree", 0)
    n = _check_int(n, "order", 0)
    d = _check_int(d, "dimension", 3)
    if n > l:
        raise ValueError(f"order n={n} exceeds degree l={l}")
    ratio = (2 * l + d - 2) * math.factorial(d - 3) * math.factorial(l - n) / (
        (d - 2) * math.factorial(d + l + n - 3)
    )
    return math.sqrt(ratio * solid_angle(d - 1) / solid_angle(d))


def ode_residual(l, m, d, theta):
    """Left side of the Sturm-Liouville equation satisfied by assoc(l,m,d).

    Evaluates, with P = assoc(l, m, d, theta) and analytic derivatives
    built from :func:`poly_deriv`,

        P'' + (d-2) cot(theta) P'
        + ( l(l+d-2) - m(m+d-3)/sin^2(theta) ) P,

    which vanishes identically in exact arithmetic.  theta must stay at
    least 1e-3 away from the endpoint singularities.
    """
    l = _check_int(l, "degree", 0)
    m = _check_int(m, "order", 0)
    d = _check_int(d, "dimension", 3)
    if m > l:
        raise ValueError(f"order m={m} exceeds degree l={l}")
    ta = np.asarray(theta, dtype=float)
    scalar_in = ta.ndim == 0
    if np.any(ta < 1e-3) or np.any(ta > math.pi - 1e-3):
        raise ValueError("theta too close to the singular endpoints 0, pi")
    s = np.sin(ta)
    c = np.cos(ta)
    x = c
    g = np.asarray(poly_deriv(l, m, d, x))
    g1 = np.asarray(poly_deriv(l, m + 1, d, x))
    g2 = np.asarray(poly_deriv(l, m + 2, d, x))
    p = s**m * g
    p1 = m * s ** (m - 1) * c * g - s ** (m + 1) * g1
    p2 = (
        m * (m - 1) * s ** (m - 2) * c * c * g
        - m * s**m * g
        - (2 * m + 1) * s**m * c * g1
        + s ** (m + 2) * g2
    )
    resid = p2 + (d - 2) * (c / s) * p1 + (l * (l + d - 2) - m * (m + d - 3) / s**2) * p
    return _maybe_scalar(resid, scalar_in)
