"""2D vector and ray primitives for corridor-scale geometric optics.

All lengths are meters. Directions are unit-norm vectors; operations that
expect a direction validate the norm rather than silently normalizing,
because a non-unit direction upstream is a caller bug worth surfacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Accepted deviation from unit norm for direction arguments.
UNIT_TOL = 1e-9


@dataclass(frozen=True)
class Vec2:
    """Point or direction in the corridor plane."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """z-component of the 3D cross product; signed parallelogram area."""
        return self.x * other.y - self.y * other.x

    @property
    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def normalized(self) -> "Vec2":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return Vec2(self.x / n, self.y / n)

    def is_unit(self) -> bool:
        return abs(self.norm - 1.0) <= UNIT_TOL


def _require_unit(v: Vec2, name: str) -> None:
    if not v.is_unit():
        raise ValueError(f"{name} must be unit-norm, got |{name}| = {v.norm!r}")


@dataclass(frozen=True)
class Ray:
    """Half-line with bookkeeping for power transport."""

    origin: Vec2
    direction: Vec2  # unit-norm
    power: float = 1.0  # watts

    def __post_init__(self) -> None:
        _require_unit(self.direction, "direction")
        if self.power < 0.0:
            raise ValueError(f"power must be >= 0, got {self.power!r}")


@dataclass(frozen=True)
class Circle:
    """Disc used as the receive aperture."""

    center: Vec2
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError(f"radius must be > 0, got {self.radius!r}")


def reflect(incident: Vec2, normal: Vec2) -> Vec2:
    """Specular reflection of a unit direction about a unit surface normal.

    Returns incident - 2 (incident . normal) normal. Norm is preserved up to
    float rounding, so the result is again a valid direction.
    """
    _require_unit(incident, "incident")
    _require_unit(normal, "normal")
    k = 2.0 * incident.dot(normal)
    return Vec2(incident.x - k * normal.x, incident.y - k * normal.y)


def angle_between(a: Vec2, b: Vec2) -> float:
    """Angle in [0, pi] between two unit vectors.

    Uses atan2 of (cross, dot) rather than arccos of the clamped dot so tiny
    angles keep full precision instead of collapsing into arccos noise.
    """
    _require_unit(a, "a")
    _require_unit(b, "b")
    return math.atan2(abs(a.cross(b)), a.dot(b))
