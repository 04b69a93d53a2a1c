"""verify's stacked loops against the per-call forms they replace."""

import numpy as np
import pytest

import ultrasph.gegenbauer
from ultrasph import quadrature, verify
from ultrasph.gegenbauer import poly_deriv


def _fd4(f, x, h=verify._FD_STEP):
    """Fourth-order central first derivative, one call per stencil point."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def _derivative_identity_per_call(d, lmax):
    xs = np.array([-0.7, -0.2, 0.3, 0.8])
    worst = 0.0
    for l in range(min(lmax, 6) + 1):
        for m in range(1, min(l, 3) + 1):
            got = np.asarray(poly_deriv(l, m, d, xs))
            fd = _fd4(lambda t: np.asarray(poly_deriv(l, m - 1, d, t)), xs)
            worst = max(worst, float(np.max(np.abs(got - fd) / np.maximum(1.0, np.abs(got)))))
    return worst


def _theta_rule_per_call():
    worst = 0.0
    for alpha in range(1, 7):
        for n in range(1, 13):
            rule = quadrature.theta_rule(alpha, n)
            cos_t = np.cos(rule.nodes)
            for k in range(2 * n):
                exact = verify._moment(k, alpha)
                got = rule.integrate(cos_t**k)
                worst = max(worst, abs(got - exact) / max(1.0, abs(exact)))
    return worst


@pytest.mark.parametrize("d", range(3, 9))
def test_derivative_stencil_in_one_call_is_bitwise_the_per_call_form(d):
    got = verify._derivative_identity_residual(d, 8)
    assert type(got) is float and got.hex() == _derivative_identity_per_call(d, 8).hex()


def test_monomial_sums_in_one_call_are_bitwise_the_per_call_form():
    got = verify._theta_rule_residual()
    assert type(got) is float and got.hex() == _theta_rule_per_call().hex()


def test_derivative_check_calls_poly_deriv_twice_per_pair(monkeypatch):
    # one call for the shift, one for the four rows of its stencil: 15 (l, m) pairs at d = 3
    calls = []
    deriv = ultrasph.gegenbauer.poly_deriv
    monkeypatch.setattr(ultrasph.gegenbauer, "poly_deriv",
                        lambda *args: calls.append(args) or deriv(*args))
    verify._derivative_identity_residual(3, 8)
    assert len(calls) == 30
