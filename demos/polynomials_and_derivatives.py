"""Walk through the polynomial layer: the generating function, the
three-term recurrence, closed-form derivatives, and endpoint values.

Run:  python demos/polynomials_and_derivatives.py
"""

import numpy as np

from ultrasph import deriv_at_one, poly, poly_deriv, poly_reference

print("=" * 70)
print("Ultraspherical polynomials P_{l,d}")
print("=" * 70)

# P_{l,d} is the coefficient of r^l in (1 + r^2 - 2 r x)^(-(d-2)/2).
# Summing r^l P_{l,d}(x) back up must reproduce the closed form.
r, x = 0.35, 0.6
for d in (3, 4, 6):
    closed = (1 + r * r - 2 * r * x) ** (-(d - 2) / 2)
    partial = sum(r**l * poly(l, d, x) for l in range(80))
    print(f"d={d}: closed form {closed:.15f}, 80-term sum {partial:.15f}, "
          f"diff {abs(closed - partial):.2e}")

print()
print("For d=3 these are the Legendre polynomials:")
xs = np.linspace(-1, 1, 5)
for l in range(4):
    print(f"  P_{l},3 on {xs}: {np.asarray(poly(l, 3, xs))}")

print()
print("The recurrence route agrees with the exact binomial expansion:")
worst = 0.0
for d in range(3, 9):
    for l in range(11):
        a = np.asarray(poly(l, d, xs))
        b = np.asarray(poly_reference(l, d, xs))
        worst = max(worst, float(np.max(np.abs(a - b))))
print(f"  max |recurrence - binomial| over l<=10, d<=8: {worst:.2e}")

print()
print("=" * 70)
print("Derivatives by dimension shift: d^m/dx^m P_{l,d} = alpha(m,d) P_{l-m,d+2m}")
print("=" * 70)
l, m, d = 5, 2, 4
h = 1e-4
xs = np.array([-0.5, 0.0, 0.4])
shift = np.asarray(poly_deriv(l, m, d, xs))
fd = (np.asarray(poly_deriv(l, 1, d, xs + h))
      - np.asarray(poly_deriv(l, 1, d, xs - h))) / (2 * h)
# alpha(m,d) is the constant m-th derivative of P_{m,d}
print(f"alpha({m},{d}) = {deriv_at_one(m, m, d)}")
print(f"closed form      : {shift}")
print(f"finite difference: {fd}")

print()
print("Endpoint derivatives are exact rationals:")
for (l, n, d) in ((4, 1, 3), (2, 0, 5), (6, 3, 4)):
    print(f"  P'_({l},{d})^({n})(1) = {deriv_at_one(l, n, d)} "
          f"(recurrence gives {poly_deriv(l, n, d, 1.0):.12f})")
