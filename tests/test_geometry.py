import math

import pytest
from hypothesis import given, strategies as st

from pwesim.geometry import Circle, Ray, Vec2, angle_between, reflect


def unit(x, y):
    return Vec2(x, y).normalized()


angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False)


class TestVec2:
    def test_arithmetic(self):
        a = Vec2(1.0, 2.0)
        b = Vec2(-3.0, 0.5)
        assert a + b == Vec2(-2.0, 2.5)
        assert a - b == Vec2(4.0, 1.5)
        assert a.dot(b) == -2.0
        assert a.cross(b) == 1.0 * 0.5 - 2.0 * (-3.0)

    def test_norm_and_normalized(self):
        v = Vec2(3.0, 4.0)
        assert v.norm == 5.0
        n = v.normalized()
        assert n.is_unit()
        assert n == Vec2(0.6, 0.8)

    def test_normalized_zero_raises(self):
        with pytest.raises(ValueError):
            Vec2(0.0, 0.0).normalized()


class TestRay:
    def test_requires_unit_direction(self):
        with pytest.raises(ValueError):
            Ray(Vec2(0.0, 0.0), Vec2(1.0, 1.0))

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            Ray(Vec2(0.0, 0.0), Vec2(0.0, 1.0), power=-0.1)


class TestReflect:
    def test_floor_mirror(self):
        # downward ray off a horizontal mirror: y flips, x unchanged
        r = reflect(Vec2(0.6, -0.8), Vec2(0.0, 1.0))
        assert r.x == pytest.approx(0.6, abs=1e-15)
        assert r.y == pytest.approx(0.8, abs=1e-15)

    def test_normal_incidence_reverses(self):
        r = reflect(Vec2(0.0, 1.0), Vec2(0.0, -1.0))
        assert r == Vec2(0.0, -1.0)

    def test_requires_unit_inputs(self):
        with pytest.raises(ValueError):
            reflect(Vec2(0.0, 2.0), Vec2(0.0, 1.0))
        with pytest.raises(ValueError):
            reflect(Vec2(0.0, 1.0), Vec2(0.0, 0.5))

    @given(angles, angles)
    def test_preserves_length_and_involutes(self, a, b):
        d = Vec2(math.cos(a), math.sin(a))
        n = Vec2(math.cos(b), math.sin(b))
        r = reflect(d, n)
        assert abs(r.norm - 1.0) < 1e-12
        back = reflect(r, n)
        assert abs(back.x - d.x) < 1e-12 and abs(back.y - d.y) < 1e-12

    @given(angles, angles)
    def test_specular_symmetry(self, a, b):
        # incident and reflected make equal angles with the normal
        d = Vec2(math.cos(a), math.sin(a))
        n = Vec2(math.cos(b), math.sin(b))
        r = reflect(d, n)
        assert abs(d.dot(n) + r.dot(n)) < 1e-12


class TestRayCircle:
    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            Circle(Vec2(0.0, 0.0), 0.0)


class TestAngleBetween:
    def test_identical_is_zero(self):
        v = unit(0.3, 0.7)
        assert angle_between(v, v) == 0.0

    def test_orthogonal(self):
        assert angle_between(Vec2(1.0, 0.0), Vec2(0.0, 1.0)) == pytest.approx(
            math.pi / 2, abs=1e-15)

    def test_opposite(self):
        assert angle_between(Vec2(1.0, 0.0), Vec2(-1.0, 0.0)) == pytest.approx(
            math.pi, abs=1e-15)

    def test_small_angle_resolution(self):
        # atan2 form keeps precision where arccos loses it
        eps = 1e-8
        a = Vec2(math.cos(eps), math.sin(eps))
        assert angle_between(a, Vec2(1.0, 0.0)) == pytest.approx(eps,
                                                                 rel=1e-6)

    @given(angles, angles)
    def test_symmetric(self, a, b):
        u = Vec2(math.cos(a), math.sin(a))
        v = Vec2(math.cos(b), math.sin(b))
        assert angle_between(u, v) == angle_between(v, u)
        assert 0.0 <= angle_between(u, v) <= math.pi + 1e-12

    def test_requires_unit_inputs(self):
        with pytest.raises(ValueError):
            angle_between(Vec2(2.0, 0.0), Vec2(1.0, 0.0))
