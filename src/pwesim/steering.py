"""Steering schedules: which user position each ceiling subunit serves.

A schedule assigns every subunit i an index j into the grid of candidate
user positions x_j = j * tx_step. Materializing a schedule turns those
assignments into per-subunit virtual normals that bounce a ray arriving
from position j straight into the receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Vec2
from .scene import HsfPanel, Scene, _ceil_count, _require_subunits


@dataclass(frozen=True)
class Static:
    """Every subunit serves position 0 (the last sensing snapshot)."""


@dataclass(frozen=True)
class Unbiased:
    """Round-robin over all candidate positions, no favourite."""


@dataclass(frozen=True)
class Biased:
    """Favour position j_c with confidence bias_p, round-robin the rest."""

    bias_p: float
    j_c: int

    def __post_init__(self) -> None:
        if not 0.0 < self.bias_p < 1.0:
            raise ValueError(f"bias_p must be in (0, 1), got {self.bias_p!r}")
        if self.j_c < 0:
            raise ValueError(f"j_c must be >= 0, got {self.j_c!r}")


SteeringMode = Static | Unbiased | Biased


@dataclass(frozen=True)
class Schedule:
    """Subunit-to-position assignment plus the grid it indexes into."""

    assignment: tuple[int, ...]
    tx_step: float  # meters between adjacent candidate positions
    max_dislocation: float  # meters of user travel the grid covers

    def __post_init__(self) -> None:
        self._check_grid()
        self._check_entries()

    @classmethod
    def _in_range(cls, assignment: tuple[int, ...], j_max: int,
                  tx_step: float) -> Schedule:
        """Schedule over positions 0..j_max whose entries lie in [0, j_max].

        The caller guarantees the entry bounds, so the O(n) entry scan runs
        only if float drift left the grid with fewer than j_max + 1
        positions; the O(1) grid checks always run.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "tx_step", tx_step)
        object.__setattr__(self, "max_dislocation", j_max * tx_step)
        self._check_grid()
        if self.position_count <= j_max:
            self._check_entries()
        return self

    def _check_grid(self) -> None:
        if self.tx_step <= 0.0:
            raise ValueError(f"tx_step must be > 0, got {self.tx_step!r}")
        if self.max_dislocation < 0.0:
            raise ValueError(
                f"max_dislocation must be >= 0, got {self.max_dislocation!r}")

    def _check_entries(self) -> None:
        j_max = self.position_count - 1
        if self.assignment and not (0 <= min(self.assignment)
                                    and max(self.assignment) <= j_max):
            bad = [j for j in self.assignment if not 0 <= j <= j_max]
            raise ValueError(
                f"assignment entries must lie in [0, {j_max}], got {bad[:3]}")

    @property
    def position_count(self) -> int:
        """Number of candidate positions, indices 0..J inclusive."""
        if self.max_dislocation == 0.0:
            return 1
        return _ceil_count(self.max_dislocation, self.tx_step) + 1


def optimal_normal(hsf_point: Vec2, user_pos: Vec2, rx_target: Vec2) -> Vec2:
    """Virtual normal that reflects user_pos -> hsf_point onto rx_target.

    Half-vector construction: with unit incident i (user to panel) and unit
    desired reflection r (panel to receiver), n = normalize(r - i) satisfies
    the specular law exactly.
    """
    if hsf_point.y <= user_pos.y:
        raise ValueError("hsf_point must sit above the user position")
    inc = (hsf_point - user_pos).normalized()
    out = (rx_target - hsf_point)
    if out.x == 0.0 and out.y == 0.0:
        raise ValueError("rx_target coincides with hsf_point")
    out = out.normalized()
    half = out - inc
    if half.norm < 1e-12:
        raise ValueError(
            "degenerate geometry: desired reflection equals the incident ray")
    return half.normalized()


def _delta_i(bias_p: float) -> int:
    """Anchor spacing for a biased schedule: every delta_i-th subunit."""
    # round half away from zero; Python's round() would go to even
    return max(1, int(math.floor(1.0 / bias_p + 0.5)))


def build_schedule(mode: SteeringMode, i_max: int, j_max: int,
                   tx_step: float) -> Schedule:
    """Assignment for subunits 0..i_max over positions 0..j_max."""
    if i_max < 0:
        raise ValueError(f"i_max must be >= 0, got {i_max}")
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    n = i_max + 1
    if isinstance(mode, Static):
        return Schedule._in_range((0,) * n, j_max, tx_step)
    if isinstance(mode, Unbiased):
        base = tuple(range(j_max + 1))
        q, r = divmod(n, j_max + 1)
        return Schedule._in_range(base * q + base[:r], j_max, tx_step)
    if isinstance(mode, Biased):
        if mode.j_c > j_max:
            raise ValueError(f"j_c = {mode.j_c} exceeds j_max = {j_max}")
        assignment = np.empty(n, dtype=int)
        anchor = (np.arange(n) % _delta_i(mode.bias_p)) == 0
        assignment[anchor] = mode.j_c
        others = [j for j in range(j_max + 1) if j != mode.j_c]
        rest = int(n - anchor.sum())
        if rest > 0:
            if not others:
                # single candidate position: everything serves j_c
                assignment[~anchor] = mode.j_c
            else:
                reps = -(-rest // len(others))
                assignment[~anchor] = np.tile(others, reps)[:rest]
    else:
        raise TypeError(f"unknown steering mode: {mode!r}")
    return Schedule._in_range(tuple(assignment.tolist()), j_max, tx_step)


def materialize_normals(schedule: Schedule, scene: Scene) -> HsfPanel:
    """Panel whose subunit i redirects position assignment[i] onto the Rx.

    `optimal_normal` on every subunit in one array pass; a valid Scene has
    none of its degenerate cases (every subunit is above user and Rx)."""
    _require_subunits(scene, len(schedule.assignment), "schedule")
    height = scene.ceiling_height
    target = scene.rx_aperture.center
    cx = scene.centers()
    # unit incident direction, from the served user (j * tx_step, h)
    ix = cx - np.array(schedule.assignment, dtype=float) * schedule.tx_step
    iy = height - scene.tx.position.y
    inc = np.hypot(ix, iy)
    # unit desired direction, to the aperture centre; then the half vector
    ox, oy = target.x - cx, target.y - height
    out = np.hypot(ox, oy)
    normals = np.stack((ox / out - ix / inc, oy / out - iy / inc))
    normals /= np.hypot(normals[0], normals[1])
    return HsfPanel(normals.T)
