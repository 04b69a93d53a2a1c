import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ultrasph.geometry import (
    CartesianPoint,
    UltrasphericalPoint,
    cos_gamma,
    solid_angle,
    to_cartesian,
    to_ultraspherical,
)


def random_point(rng, d, r=None):
    return UltrasphericalPoint(
        d,
        rng.uniform(0.1, 2.0) if r is None else r,
        tuple(rng.uniform(0.0, math.pi) for _ in range(d - 2)),
        rng.uniform(0.0, 2.0 * math.pi),
    )


class TestToCartesian:
    def test_polar_axis_d4(self):
        # theta_4 = 0 puts the point on the x_4 axis whatever the rest is
        p = UltrasphericalPoint(4, 1.0, (0.0, 1.1), 2.3)
        assert_allclose(to_cartesian(p).x, [0.0, 0.0, 0.0, 1.0], atol=1e-15)

    def test_zero_radius(self):
        p = UltrasphericalPoint(5, 0.0, (0.4, 1.0, 2.0), 3.0)
        assert_allclose(to_cartesian(p).x, np.zeros(5), atol=0)

    def test_norm_identity_d5(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            p = random_point(rng, 5)
            x = to_cartesian(p).x
            # independent oracle: direct summation of squares
            assert abs(math.sqrt(sum(v * v for v in x)) - p.r) <= 1e-12 * p.r

    @pytest.mark.parametrize("d", range(3, 8))
    def test_norm_preservation(self, d):
        rng = np.random.default_rng(200 + d)
        for _ in range(200):
            p = random_point(rng, d)
            assert abs(to_cartesian(p).norm() - p.r) <= 1e-12 * p.r

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            UltrasphericalPoint(4, 1.0, (0.5,), 0.0)


class TestToUltraspherical:
    def test_equatorial_axis_point(self):
        p = to_ultraspherical(CartesianPoint(3, np.array([1.0, 0.0, 0.0])))
        assert_allclose([p.r, p.theta[0], p.phi], [1.0, math.pi / 2, 0.0])

    def test_polar_axis_degenerate_angles(self):
        p = to_ultraspherical(CartesianPoint(4, np.array([0.0, 0.0, 0.0, 1.0])))
        assert p.r == 1.0
        assert p.theta == (0.0, 0.0)
        assert p.phi == 0.0

    def test_origin(self):
        p = to_ultraspherical(CartesianPoint(5, np.zeros(5)))
        assert p.r == 0.0
        assert p.theta == (0.0, 0.0, 0.0)
        assert p.phi == 0.0

    @pytest.mark.parametrize("d", range(3, 8))
    def test_roundtrip(self, d):
        rng = np.random.default_rng(300 + d)
        for _ in range(100):
            x = rng.normal(size=d)
            back = to_cartesian(to_ultraspherical(CartesianPoint(d, x)))
            assert np.max(np.abs(back.x - x)) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("d", range(3, 7))
    def test_angle_roundtrip_interior(self, d):
        # points with all intermediate radii positive recover their angles
        rng = np.random.default_rng(400 + d)
        for _ in range(50):
            p = UltrasphericalPoint(
                d,
                rng.uniform(0.5, 1.5),
                tuple(rng.uniform(0.2, math.pi - 0.2) for _ in range(d - 2)),
                rng.uniform(0.1, 2 * math.pi - 0.1),
            )
            q = to_ultraspherical(to_cartesian(p))
            assert_allclose(q.r, p.r, rtol=1e-12)
            assert_allclose(q.theta, p.theta, atol=1e-12)
            assert_allclose(q.phi, p.phi, atol=1e-12)

    def test_vectorized(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 30))
        back = to_cartesian(to_ultraspherical(CartesianPoint(4, x)))
        assert_allclose(back.x, x, atol=1e-13)


class TestSolidAngle:
    def test_classic_values(self):
        assert_allclose(solid_angle(3), 4 * math.pi, rtol=1e-15)
        assert_allclose(solid_angle(4), 2 * math.pi**2, rtol=1e-15)
        assert_allclose(solid_angle(2), 2 * math.pi, rtol=1e-15)

    def test_recursion(self):
        for d in range(3, 13):
            step = math.sqrt(math.pi) * math.gamma((d - 1) / 2) / math.gamma(d / 2)
            assert_allclose(solid_angle(d), step * solid_angle(d - 1), rtol=1e-12)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            solid_angle(1)


class TestCosGamma:
    def test_identical_directions(self):
        rng = np.random.default_rng(55)
        a = random_point(rng, 5, r=1.0)
        assert cos_gamma(a, a) == 1.0

    def test_antipodal_on_polar_axis(self):
        a = UltrasphericalPoint(4, 1.0, (0.0, 0.3), 0.1)
        b = UltrasphericalPoint(4, 1.0, (math.pi, 0.9), 4.0)
        assert cos_gamma(a, b) == -1.0

    @pytest.mark.parametrize("d", range(3, 8))
    def test_matches_cartesian_dot(self, d):
        rng = np.random.default_rng(60 + d)
        for _ in range(30):
            a = random_point(rng, d, r=1.0)
            b = random_point(rng, d, r=1.0)
            dot = float(np.dot(to_cartesian(a).x, to_cartesian(b).x))
            assert abs(cos_gamma(a, b) - dot) <= 1e-12

    def test_symmetry_exact(self):
        rng = np.random.default_rng(77)
        for d in (3, 5, 7):
            a = random_point(rng, d, r=1.0)
            b = random_point(rng, d, r=1.0)
            assert cos_gamma(a, b) == cos_gamma(b, a)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            cos_gamma(random_point(rng, 4), random_point(rng, 5))


# each rule of UltrasphericalPoint, for scalar and array fields, NaN included:
# (field, bad value, message)
_POINT_RULES = [
    ("r", -0.5, "radius must be nonnegative"),
    ("r", math.nan, "radius must be nonnegative"),
    ("r", -1e-300, "radius must be nonnegative"),
    ("theta", -0.1, "polar angles must lie in"),
    ("theta", math.pi + 1e-9, "polar angles must lie in"),
    ("theta", math.pi + 1e-15, "polar angles must lie in"),
    ("theta", math.nan, "polar angles must lie in"),
    ("phi", -1e-12, "azimuth must lie in"),
    ("phi", 2.0 * math.pi, "azimuth must lie in"),
    ("phi", math.nan, "azimuth must lie in"),
]


def _point_with(field, value, as_array):
    fields = {"r": 1.0, "theta": 0.5, "phi": 1.0}
    fields[field] = value
    if as_array:  # the bad value as one entry among good ones
        good = {"r": 1.0, "theta": 0.5, "phi": 1.0}[field]
        fields[field] = np.array([good, fields[field], good])
    return UltrasphericalPoint(4, fields["r"], (1.0, fields["theta"]), fields["phi"])


class TestPointRules:
    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    @pytest.mark.parametrize("field,value,message", _POINT_RULES)
    def test_rejects(self, field, value, message, as_array):
        with pytest.raises(ValueError, match=message):
            _point_with(field, value, as_array)

    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    def test_accepts_closed_ends(self, as_array):
        for field, value in (("r", 0.0), ("r", math.inf), ("theta", 0.0),
                             ("theta", math.pi), ("phi", 0.0)):
            _point_with(field, value, as_array)

    def test_scalar_fields_become_floats(self):
        p = UltrasphericalPoint(3, 1, (np.float64(0.5),), np.int64(2))
        assert type(p.r) is float and type(p.theta[0]) is float and type(p.phi) is float
        assert p == UltrasphericalPoint(3, 1.0, (0.5,), 2.0)

    def test_array_fields_become_float_arrays(self):
        p = UltrasphericalPoint(3, [1, 2], ([0.5, 1.0],), 0)
        assert p.r.dtype == float and p.theta[0].dtype == float and p.phi == 0.0
