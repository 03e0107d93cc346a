"""Corridor world model: metasurface-coated ceiling, mirror floor, antennas.

The corridor is a 2D vertical slice. The floor lies at y = 0, the ceiling
panel at y = ceiling_height, and the open ends at corridor_x_min/max let
rays escape. The mobile transmitter sits at user height on the floor axis
and fires a fan of rays upward; a wall-mounted receive antenna with a small
circular aperture collects whatever the ceiling redirects back down.
The reference corridor's dimensions are the defaults of
`experiment.ExperimentConfig`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Circle, Ray, Vec2, _require_unit


def _ceil_count(span: float, step: float) -> int:
    """ceil(span / step) with a guard against float drift.

    5.0 / 0.001 lands on 4999.999999999999; a bare ceil of a value one ulp
    above an integer would add a phantom cell instead. A quotient within a
    relative 1e-9 of an integer snaps to it; the snap never reaches past a
    quarter cell, so at spans of 1e9 cells and more it cannot eat a whole one.
    """
    q = span / step
    n = round(q)
    if abs(q - n) <= min(1e-9 * max(q, 1.0), 0.25):
        return n
    return math.ceil(q)


@dataclass(frozen=True)
class Antenna:
    """Ideal sectored antenna: unit gain inside the cone, nothing outside."""

    position: Vec2
    boresight: Vec2  # unit-norm
    beam_halfwidth: float  # radians, half the full cone width
    gain: float = 1.0

    def __post_init__(self) -> None:
        _require_unit(self.boresight, "boresight")
        if not 0.0 <= self.beam_halfwidth <= math.pi:
            raise ValueError(
                f"beam_halfwidth must be in [0, pi], got {self.beam_halfwidth!r}")
        if self.gain < 0.0:
            raise ValueError(f"gain must be >= 0, got {self.gain!r}")


class HsfPanel:
    """Ceiling panel split into fixed-length subunits with virtual normals.

    Each subunit reflects specularly about its own configured normal, which
    is how the metasurface emulates anomalous reflection. Normals must point
    into the corridor (negative y).
    """

    __slots__ = ("y_height", "x_start", "x_end", "subunit_length", "_cols",
                 "_mirror")

    def __init__(self, y_height: float, x_start: float, x_end: float,
                 subunit_length: float, normals) -> None:
        if subunit_length <= 0.0:
            raise ValueError(f"subunit_length must be > 0, got {subunit_length!r}")
        if x_end <= x_start:
            raise ValueError("x_end must exceed x_start")
        # one copy, stored as contiguous x and y columns for the tracer
        cols = np.array(np.asarray(normals, dtype=float).T, order="C")
        if cols.ndim != 2 or cols.shape[0] != 2:
            raise ValueError("normals must be an (N, 2) array")
        expected = _ceil_count(x_end - x_start, subunit_length)
        if cols.shape[1] != expected:
            raise ValueError(
                f"panel spans {x_end - x_start!r} m at {subunit_length!r} m per "
                f"subunit and needs {expected} normals, got {cols.shape[1]}")
        # written so that a NaN fails both checks
        norms = np.hypot(cols[0], cols[1])
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValueError("every panel normal must be unit-norm")
        if not np.all(cols[1] < 0.0):
            raise ValueError("every panel normal must point downward (y < 0)")
        self.y_height = float(y_height)
        self.x_start = float(x_start)
        self.x_end = float(x_end)
        self.subunit_length = float(subunit_length)
        cols.flags.writeable = False
        self._cols = cols
        # every normal (0, -1): the tracer counts such a ceiling from
        # events; a steered panel fails on its first normal, for free
        self._mirror = bool(cols[0, 0] == 0.0 and not cols[0].any()
                            and (cols[1] == -1.0).all())

    @property
    def subunit_count(self) -> int:
        return self._cols.shape[1]

    def normals_array(self) -> np.ndarray:
        """Read-only (N, 2) float view of the normals; its transpose is the
        (2, N) array of contiguous x and y columns that the tracer reads."""
        return self._cols.T

    def centers(self) -> np.ndarray:
        """x of every subunit midpoint, in index order."""
        return (self.x_start
                + (np.arange(self.subunit_count) + 0.5) * self.subunit_length)

    def index_at(self, x):
        """Subunit index owning ceiling coordinate x (a float or an array),
        truncated to whole subunits and clipped to the panel."""
        i = ((np.asarray(x, dtype=float) - self.x_start)
             / self.subunit_length).astype(int)
        # np.clip costs several times these two ufuncs on a kernel step
        i = np.minimum(np.maximum(i, 0), self.subunit_count - 1)
        return int(i) if i.ndim == 0 else i

    def __repr__(self) -> str:
        return (f"HsfPanel(y={self.y_height}, x=[{self.x_start}, {self.x_end}], "
                f"subunits={self.subunit_count} x {self.subunit_length} m)")


def mirror_panel(y_height: float, x_start: float, x_end: float,
                 subunit_length: float) -> HsfPanel:
    """Panel with every normal straight down: a plain specular ceiling."""
    count = _ceil_count(x_end - x_start, subunit_length)
    xy = np.tile([0.0, -1.0], (count, 1))
    return HsfPanel(y_height, x_start, x_end, subunit_length, xy)


@dataclass(frozen=True)
class Scene:
    """Complete corridor: surfaces, both antennas, and the capture aperture."""

    ceiling: HsfPanel
    floor_y: float
    corridor_x_min: float
    corridor_x_max: float
    tx: Antenna
    rx: Antenna
    rx_aperture: Circle
    user_height: float
    ceiling_height: float

    def __post_init__(self) -> None:
        # the tracer needs no forward filter on a floor-to-ceiling leg
        if not self.ceiling_height > self.floor_y:
            raise ValueError("the ceiling must lie above the floor")
        if not self.floor_y < self.user_height < self.ceiling_height:
            raise ValueError(
                f"user_height must sit strictly between floor and ceiling, "
                f"got {self.user_height!r} vs {self.floor_y!r} and "
                f"{self.ceiling_height!r}")
        if self.corridor_x_max <= self.corridor_x_min:
            raise ValueError("corridor_x_max must exceed corridor_x_min")
        c = self.rx_aperture.center
        r = self.rx_aperture.radius
        if not self.corridor_x_min < c.x < self.corridor_x_max:
            raise ValueError("rx_aperture center must lie strictly inside the corridor")
        if not (self.floor_y < c.y - r and c.y + r < self.ceiling_height):
            raise ValueError(
                "rx_aperture must lie strictly between the floor and the ceiling")
        self.tx_origin(0.0)
        if self.tx.position.y != self.user_height:
            raise ValueError("tx antenna must sit at user_height")
        if self.ceiling.y_height != self.ceiling_height:
            raise ValueError("ceiling panel height must match ceiling_height")
        # `index_at` clips to the panel, so a short panel's edge subunits
        # would silently cover the rest of the corridor
        if (self.ceiling.x_start, self.ceiling.x_end) != (
                self.corridor_x_min, self.corridor_x_max):
            raise ValueError("the ceiling panel must span the corridor")

    def tx_origin(self, dislocation: float) -> Vec2:
        """Transmitter position after the user walks `dislocation` meters;
        ValueError if it is not finite, not strictly between the open ends
        of the corridor, or inside the receive aperture, where a ray would
        be captured at a negative entry distance."""
        origin = Vec2(self.tx.position.x + dislocation, self.tx.position.y)
        if not math.isfinite(origin.x):
            raise ValueError(f"dislocation must be finite, got {dislocation!r}")
        if not self.corridor_x_min < origin.x < self.corridor_x_max:
            raise ValueError(
                f"dislocation {dislocation!r} puts the transmitter outside"
                " the corridor")
        if (origin - self.rx_aperture.center).norm <= self.rx_aperture.radius:
            raise ValueError(
                f"dislocation {dislocation!r} puts the transmitter inside"
                " the receive aperture")
        return origin


def fan_directions(boresight: Vec2, beam_halfwidth: float,
                   n_rays: int) -> np.ndarray:
    """(n, 2) unit directions uniformly spaced in angle across the beam cone.

    Endpoints included; directions come out in increasing-angle order, so the
    fan is symmetric about the boresight pair by pair.
    """
    if n_rays < 2:
        raise ValueError(f"n_rays must be >= 2, got {n_rays}")
    base = math.atan2(boresight.y, boresight.x)
    ang = base + np.linspace(-beam_halfwidth, beam_halfwidth, n_rays)
    return np.column_stack((np.cos(ang), np.sin(ang)))


@functools.lru_cache(maxsize=8)
def _fan(boresight: Vec2, beam_halfwidth: float,
         n_rays: int) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous, read-only x and y components of `fan_directions`."""
    dirs = fan_directions(boresight, beam_halfwidth, n_rays)
    parts = tuple(np.ascontiguousarray(dirs[:, i]) for i in (0, 1))
    for a in parts:
        a.flags.writeable = False
    return parts


@functools.lru_cache(maxsize=8)
def _fan_heads_up(boresight: Vec2, beam_halfwidth: float,
                  n_rays: int) -> bool:
    """Whether every ray of the cached `_fan` has dy > 0."""
    return bool(_fan(boresight, beam_halfwidth, n_rays)[1].min() > 0.0)


def _require_power(total_power: float) -> None:
    if not 0.0 <= total_power < math.inf:
        raise ValueError(
            f"total_power must be finite and >= 0, got {total_power!r}")


def tx_ray_fan(scene: Scene, dislocation: float, n_rays: int,
               total_power: float) -> list[Ray]:
    """Launch fan for the transmitter displaced by `dislocation` meters.

    Every ray carries an equal share of total_power * gain; the share is one
    multiply and one divide, so summing the fan reproduces the total without
    accumulation drift.
    """
    _require_power(total_power)
    origin = scene.tx_origin(dislocation)
    dirs = fan_directions(scene.tx.boresight, scene.tx.beam_halfwidth, n_rays)
    per_ray = total_power * scene.tx.gain / n_rays
    return [Ray(origin, Vec2(float(dx), float(dy)), per_ray)
            for dx, dy in dirs]

