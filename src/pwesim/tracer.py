"""Power transport through the corridor by specular ray tracing.

Rays launch from the transmitter fan and bounce between the configured
ceiling panel and the mirror floor until they are captured by the receive
aperture, escape through an open corridor end, or exhaust the bounce
budget. Capture is tested on every straight segment before the next
surface hit, so a ray cannot fly through the aperture unnoticed.

`received_power` makes one call to a vectorized kernel, which traces the
rays it is given and returns each one's fate, and `_tally` counts the
fates. Under geometric spreading, with every fan ray heading up, the
kernel traces one ray for each run of fan rays proven to share its fate,
weighted by the run's length. On a plain mirror ceiling the runs lie
between the launch angles where a fate can change, which the image method
gives in closed form. On a steered ceiling the runs are the pieces of the
fan that meet one subunit, each certified by interval bounds with a
derived float margin (module `pieces`, kept apart so that, with bytecode
writing off, no module costs more memory to compile than this one); the
rays of a piece that cannot be certified, such as one whose rays reach
the floor, are traced one by one. Inverse-square spreading, a fan with a
ray that does not head up, and a steered fan with too few rays per
subunit for the pieces to pay off are traced ray by ray throughout.
`trace_ray` follows a single ray with the same arithmetic in plain
floats and records its polyline; it is the kernel's per-ray reference.

The same single-bounce transport integral is also available as a midpoint
quadrature over the ceiling footprint; tracer and quadrature are two
independent discretizations of one integral and serve as mutual oracles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Ray, Vec2
from .pieces import _piece_rays
from .scene import HsfPanel, Scene, _fan, _fan_heads_up, _require_power

# Rays per kernel block. A float64 temporary of one block is 64 KiB, so a
# step's working set fits a 2 MiB per-core L2, and each temporary stays
# under glibc's default 128 KiB mmap threshold, which is the likely reason
# it is recycled from the heap instead of being mapped and page-faulted in
# afresh. At 16384 rays a temporary is exactly 128 KiB and the gain
# shrinks; smaller blocks pay for more Python per step.
_BLOCK = 8192


class Spreading(enum.Enum):
    """How captured power relates to the distance travelled.

    GEOMETRIC counts a captured ray at full strength, so results are pure
    capture fractions. INVERSE_SQUARE scales by (1 m / path length)^2 for
    free-space-style sensitivity studies.
    """

    GEOMETRIC = "geometric"
    INVERSE_SQUARE = "inverse_square"


@dataclass(frozen=True)
class TracerConfig:
    n_rays: int = 100001
    max_bounces: int = 16
    spreading: Spreading = Spreading.GEOMETRIC
    # Gate capture on the receive antenna cone as well as the aperture disc.
    # Off by default: an all-mirror corridor delivers rays almost vertically,
    # far outside the 60 degree receiver cone, and gating would zero the
    # uncontrolled baseline that steering is judged against.
    rx_cone_gate: bool = False

    def __post_init__(self) -> None:
        if self.n_rays < 2:
            raise ValueError(f"n_rays must be >= 2, got {self.n_rays}")
        if self.max_bounces < 1:
            raise ValueError(f"max_bounces must be >= 1, got {self.max_bounces}")


@dataclass(frozen=True)
class Captured:
    """Ray entered the aperture; power is the delivered amount."""

    power: float
    path: tuple[Vec2, ...]


@dataclass(frozen=True)
class Escaped:
    """Ray left through an open corridor end."""

    path: tuple[Vec2, ...]


@dataclass(frozen=True)
class Terminated:
    """Ray absorbed: bounce budget exhausted or unreflectable geometry."""

    path: tuple[Vec2, ...]


RayFate = Captured | Escaped | Terminated


@dataclass(frozen=True)
class TraceOutcome:
    """Power totals over a traced bundle, watts."""

    captured_power: float
    escaped_power: float
    terminated_power: float

    @property
    def total_power(self) -> float:
        return self.captured_power + self.escaped_power + self.terminated_power


def _require_ceiling(scene: Scene, panel: HsfPanel) -> None:
    """The panel must lie on the scene's ceiling: at its height and on its
    grid of subunits, which `Scene` makes span the corridor."""
    c = scene.ceiling
    if ((panel.y_height, panel.x_start, panel.subunit_length,
         panel.subunit_count) != (c.y_height, c.x_start, c.subunit_length,
                                  c.subunit_count)):
        raise ValueError("panel must sit at the scene's ceiling height and"
                         " share its subunit grid")


# Fate codes of `_trace_batch`, one per ray; `_tally` counts them.
_ESCAPED, _CAPTURED, _TERMINATED = 0, 1, 2


# A ray parallel to a surface, or on it, gets an inf or nan distance to it,
# and a dropped ray may advance to nan; the kernel filters or drops every
# such value before it can decide a fate.
@np.errstate(divide="ignore", invalid="ignore")
def _trace_batch(scene: Scene, panel: HsfPanel, ox, oy, dx, dy,
                 cfg: TracerConfig):
    """Trace unbounced rays; returns (fate, gain), one entry per ray.

    `fate` is each ray's `_CAPTURED`, `_ESCAPED` or `_TERMINATED`. It
    starts as `_ESCAPED` (code 0), and the kernel writes only captures and
    the three absorptions (no finite surface ahead, sent back up through
    the panel, bounce budget spent), so a ray never written left through
    an open end. `gain` is each ray's 1 / L^2, L its path length to the
    aperture, under inverse-square spreading (0 if not captured), and None
    under geometric spreading. Each ray is traced on its own, so the
    result does not depend on the block size.

    Each 8192-ray block (`_BLOCK`) is split by heading, unless every ray
    heads up, and each step is vectorized over a group's live rays: every
    live ray of a group is at the same surface at every step, ceiling and
    floor in turn, since a ceiling reflection that does not send a ray
    down absorbs it. A shared origin stays a pair of scalars through step
    0, and a step at which every ray lives on is not compacted. After step
    0 a group sits on the ceiling or the floor, so the distance to the
    other one is span / |dy| >= span > 0 (`Scene` checks the span, the
    panel sits at the scene's ceiling height, and a reflection keeps
    |dy| <= 1): it needs no forward filter. Directions must be unit
    vectors.
    """
    _require_ceiling(scene, panel)
    ceil_y, floor_y = panel.y_height, scene.floor_y
    x_min, x_max = scene.corridor_x_min, scene.corridor_x_max
    normal_x, normal_y = panel.normals_array().T  # contiguous columns
    rx = scene.rx_aperture.center
    r2 = scene.rx_aperture.radius ** 2
    inv_sq = cfg.spreading is Spreading.INVERSE_SQUARE
    if cfg.rx_cone_gate:
        cos_min = math.cos(scene.rx.beam_halfwidth)
        bs_x, bs_y = scene.rx.boresight.x, scene.rx.boresight.y

    rays = np.broadcast_arrays(
        *(np.asarray(a, float) for a in (ox, oy, dx, dy)))
    # one origin shared by every ray stays a pair of scalars through step 0
    origin = ((float(ox), float(oy)) if np.ndim(ox) == np.ndim(oy) == 0
              else None)
    n_rays = len(rays[0])
    fate = np.zeros(n_rays, np.intp)  # every ray _ESCAPED
    gain = np.zeros(n_rays) if inv_sq else None

    for lo in range(0, n_rays, _BLOCK):
        block = [a[lo:lo + _BLOCK] for a in rays]
        rising = block[3] > 0.0
        # split once by heading, unless every ray heads up: each group
        # meets one surface per step
        groups = (((True, ...),) if rising.all()
                  else ((True, rising), (False, ~rising)))
        index = np.arange(lo, lo + len(rising))
        for up, group in groups:
            ray = index[group]  # each live ray's index in the batch
            dx, dy = block[2][group], block[3][group]
            ox, oy = origin or (block[0][group], block[1][group])
            if inv_sq:
                cum_len = np.zeros(len(dx))
            # every live ray has made exactly `step` surface bounces so far
            for step in range(cfg.max_bounces + 1):
                if len(ray) == 0:
                    break
                # two candidate surfaces: the ceiling or floor ahead and the
                # wall ahead; a ray parallel to one, or on it, gets inf for it
                t_v = ((ceil_y if up else floor_y) - oy) / dy
                if step == 0:
                    t_v = np.where(t_v > 0.0, t_v, np.inf)
                t_w = (np.where(dx > 0.0, x_max, x_min) - ox) / dx
                t_w = np.where(t_w > 0.0, t_w, np.inf)

                # a ray whose wall is strictly nearer escapes through that
                # open end, and keeps its fate; the others hit the ceiling
                # or floor unless captured first
                gone = t_w < t_v
                # aperture capture on this segment, before the surface; the
                # disc test goes first, as nearly every ray fails it
                mx = rx.x - ox
                my = rx.y - oy
                s = mx * dx + my * dy
                h2 = mx * mx + my * my - s * s
                cap = h2 <= r2
                if cap.any():
                    cap &= (s > 0.0) & (s < np.minimum(t_v, t_w))
                    if cfg.rx_cone_gate:
                        cap &= (-dx) * bs_x + (-dy) * bs_y >= cos_min
                    hit = ray[cap]
                    fate[hit] = _CAPTURED
                    if inv_sq:
                        # 0 <= h2_cap <= r2, so the root is real
                        h2_cap = np.maximum(h2[cap], 0.0)
                        s_entry = s[cap] - np.sqrt(r2 - h2_cap)
                        gain[hit] = 1.0 / (cum_len[cap] + s_entry) ** 2
                    gone |= cap
                # no finite surface ahead (not for unit directions): absorbed;
                # t_v is inf only where step 0's filter put it or span / |dy|
                # overflowed, so only then is a stuck mask built
                if t_v.max() == np.inf:
                    stuck = (t_v == np.inf) & ~gone
                    fate[ray[stuck]] = _TERMINATED
                    gone |= stuck
                if step == cfg.max_bounces:
                    # bounce budget spent: absorb every ray still in flight
                    fate[ray[~gone]] = _TERMINATED
                    break

                # advance to the surface (t_v: a live ray's wall is no nearer),
                # then compact to the survivors unless every ray lives on;
                # advancing first serves a scalar origin and an array alike
                ox = ox + t_v * dx
                if inv_sq:
                    cum_len = cum_len + t_v
                if gone.any():
                    keep = np.flatnonzero(~gone)
                    ray, ox, dx, dy = ray[keep], ox[keep], dx[keep], dy[keep]
                    if inv_sq:
                        cum_len = cum_len[keep]
                if up:
                    idx = panel.index_at(ox)
                    nx, ny = normal_x[idx], normal_y[idx]
                    k = 2.0 * (dx * nx + dy * ny)
                    dx, dy = dx - k * nx, dy - k * ny
                    norm = np.hypot(dx, dy)
                    dx, dy = dx / norm, dy / norm
                    # a virtual normal may send the ray back out through the
                    # panel, which cannot transmit: absorb it
                    down = dy < 0.0
                    if not down.all():
                        fate[ray[~down]] = _TERMINATED
                        keep = np.flatnonzero(down)
                        ray, ox = ray[keep], ox[keep]
                        dx, dy = dx[keep], dy[keep]
                        if inv_sq:
                            cum_len = cum_len[keep]
                    oy, up = ceil_y, False
                else:
                    dy = -dy  # the floor is a plain mirror
                    oy, up = floor_y, True
    return fate, gain


def _tally(fate, gain, weight=None) -> tuple[float, float, float]:
    """(captured, escaped, terminated) of the kernel's per-ray result,
    each ray counted once or `weight` times (one traced ray may stand for
    a run of fan rays); float64 counts are exact to 2^53. Under
    inverse-square spreading `captured` is instead the exact, unweighted
    `math.fsum` of the captured rays' gains, which does not depend on
    their order.
    """
    escaped, captured, terminated = np.bincount(
        fate, weights=weight, minlength=3).tolist()
    if gain is not None:
        captured = math.fsum(gain[fate == _CAPTURED].tolist())
    return captured, escaped, terminated


def trace_ray(scene: Scene, panel: HsfPanel, ray: Ray,
              cfg: TracerConfig) -> RayFate:
    """Fate of a single ray, with its full polyline.

    The scalar reference for `_trace_batch`: the same surface distances,
    capture test, reflection and spreading, one ray at a time in plain
    floats, so a ray's fate and delivered power match the kernel exactly.
    """
    _require_ceiling(scene, panel)
    x_min, x_max = scene.corridor_x_min, scene.corridor_x_max
    normals = panel.normals_array()
    rx = scene.rx_aperture.center
    r2 = scene.rx_aperture.radius ** 2
    cos_min = math.cos(scene.rx.beam_halfwidth)
    bs = scene.rx.boresight
    ox, oy = ray.origin.x, ray.origin.y
    dx, dy = ray.direction.x, ray.direction.y
    path = [Vec2(ox, oy)]
    length = 0.0
    bounce = 0
    while True:
        ts = [(panel.y_height - oy) / dy if dy > 0.0 else math.inf,
              (scene.floor_y - oy) / dy if dy < 0.0 else math.inf,
              (x_max - ox) / dx if dx > 0.0 else math.inf,
              (x_min - ox) / dx if dx < 0.0 else math.inf]
        ts = [t if t > 0.0 else math.inf for t in ts]
        t_surf = min(ts)
        surf = ts.index(t_surf)

        mx, my = rx.x - ox, rx.y - oy
        s = mx * dx + my * dy
        h2 = max(mx * mx + my * my - s * s, 0.0)
        if (s > 0.0 and h2 <= r2 and s < t_surf
                and (not cfg.rx_cone_gate
                     or (-dx) * bs.x + (-dy) * bs.y >= cos_min)):
            s_entry = s - math.sqrt(max(r2 - h2, 0.0))
            path.append(Vec2(ox + s_entry * dx, oy + s_entry * dy))
            power = ray.power
            if cfg.spreading is Spreading.INVERSE_SQUARE:
                total = length + s_entry
                power = power * (1.0 / (total * total))
            return Captured(power, tuple(path))
        if t_surf == math.inf:
            return Terminated(tuple(path))

        hx, hy = ox + t_surf * dx, oy + t_surf * dy
        path.append(Vec2(hx, hy))
        if surf >= 2:
            return Escaped(tuple(path))
        if bounce >= cfg.max_bounces:
            return Terminated(tuple(path))
        if surf == 1:
            dy = -dy
            oy = scene.floor_y
        else:
            nx, ny = normals[panel.index_at(hx)].tolist()
            k = 2.0 * (dx * nx + dy * ny)
            rx_dir, ry_dir = dx - k * nx, dy - k * ny
            norm = float(np.hypot(rx_dir, ry_dir))
            dx, dy = rx_dir / norm, ry_dir / norm
            if dy >= 0.0:
                # reflected back out through the panel: absorbed
                return Terminated(tuple(path))
            oy = panel.y_height
        ox = hx
        length += t_surf
        bounce += 1


def _event_rays(scene: Scene, origin: Vec2,
                cfg: TracerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fan indices whose fates settle a mirror-corridor fan, and how many
    fan rays each one stands for.

    On a plain mirror ceiling every upward ray unfolds into a straight line
    from the origin through a stack of corridor images (Allen & Berkley,
    JASA 65(4), 1979): segment k, after k bounces, spans the unfolded
    heights [kS, (k+1)S] above the floor, and the aperture's image in it is
    the disc centred at c_k = (c.x, kS + b) for even k and
    (c.x, (k+1)S - b) for odd k. Segment k is captured if its line passes
    within r of c_k (h2 <= r2), the foot of the perpendicular from c_k lies
    before the wall (s < t_w) and, with the gate on, its direction lies in
    the receive cone; it escapes if the ray meets a wall inside band k.
    In exact arithmetic a fate can therefore change only at these launch
    angles, the events, for k = 0..max_bounces: the two tangents to disc
    k; the angles at which that foot sits on a wall; the corner angles, at
    which the ray meets a wall on a band edge; and, with the gate on, the
    four angles at which (dx, dy) or (dx, -dy) meets the edge of the cone.

    The capture test's other bounds never flip a fate. Where h2 <= r2 the
    foot lies in disc k, which the scene keeps strictly inside band k, so
    s < t_v holds; and since the scene keeps the origin outside the
    aperture, s can change sign only where h2 = |c_k - o|^2 > r2. Nor does
    pi/2: it decides which wall a ray heads for, but between the two
    outermost corners no ray reaches a wall within the budget.

    Every fan ray within two indices of an event is returned with
    weight 1. Between those windows lie runs of rays that no event
    separates, far from any event in float terms too, so each run is
    returned as one ray standing for the whole run.
    """
    n = cfg.n_rays
    span = scene.ceiling_height - scene.floor_y
    h = origin.y - scene.floor_y
    c = scene.rx_aperture.center
    b = c.y - scene.floor_y
    ks = np.arange(cfg.max_bounces + 1) * span
    # centre of each aperture image relative to the origin, unfolded
    cx = c.x - origin.x
    cy = ks + (b - h)
    cy[1::2] += span - 2.0 * b
    rho = np.hypot(cx, cy)
    phi = np.arctan2(cy, cx)
    tangent = np.arcsin(np.minimum(scene.rx_aperture.radius / rho, 1.0))
    walls = np.array([[scene.corridor_x_min - origin.x],
                      [scene.corridor_x_max - origin.x]])
    with np.errstate(invalid="ignore"):
        # the foot sits at x_wall where (rho/2) cos(2 theta - phi) equals
        # W - cx/2; where there is no root, arccos gives nan, and a nan
        # event matches no fan index; the roots repeat every pi
        wall_foot = np.arccos((2.0 * walls - cx) / rho)
    wall_foot = np.mod((phi + np.concatenate((wall_foot, -wall_foot))) / 2.0,
                       np.pi)
    events = [phi + tangent, phi - tangent,
              np.arctan2(ks + (span - h), walls)]
    if cfg.rx_cone_gate:
        rx = scene.rx
        beta = math.atan2(rx.boresight.y, rx.boresight.x)
        # -(dx, dy) and -(dx, -dy) at the cone edge, beta +- halfwidth
        events.append([beta - np.pi - rx.beam_halfwidth,
                       beta - np.pi + rx.beam_halfwidth,
                       np.pi - beta - rx.beam_halfwidth,
                       np.pi - beta + rx.beam_halfwidth])
    events = np.concatenate((np.mod(np.concatenate(events, axis=None),
                                    2.0 * np.pi), wall_foot.ravel()))

    tx = scene.tx
    first = math.atan2(tx.boresight.y, tx.boresight.x) - tx.beam_halfwidth
    with np.errstate(divide="ignore", invalid="ignore"):
        pos = (events - first) / (2.0 * tx.beam_halfwidth / (n - 1))
    # every ray within two fan steps of an event; out-of-fan and nan
    # positions become windows past either end
    pos = np.floor(np.fmin(np.fmax(pos, -9.0), n + 8.0)).astype(np.int64)
    traced = np.sort((pos[:, None] + np.arange(-1, 3)).ravel())
    traced = traced[(traced >= 0) & (traced < n)
                    & np.concatenate(([True], traced[1:] != traced[:-1]))]
    # one ray for each run of untraced rays between the windows
    edges = np.concatenate(([-1], traced, [n]))
    gaps = np.diff(edges) - 1
    runs = np.flatnonzero(gaps)
    index = np.concatenate((traced, edges[runs] + 1 + gaps[runs] // 2))
    weight = np.concatenate((np.ones(len(traced), np.int64), gaps[runs]))
    return index, weight


def received_power(scene: Scene, panel: HsfPanel, dislocation: float,
                   cfg: TracerConfig, total_power: float = 1.0) -> TraceOutcome:
    """Ray counts per fate of the transmit fan at the given dislocation.

    Every ray carries total_power * tx.gain / n_rays; one kernel call
    gives the fate of each traced ray and `_tally` counts them, so each
    total is that share times one count (or, under inverse-square
    spreading, one exact sum of gains).

    Under geometric spreading, with every fan ray heading up, the kernel
    traces only some rays, each weighted by the run of fan rays it stands
    for, and the counts are those of the whole fan: on a plain mirror
    ceiling (every normal (0, -1)) the rays `_event_rays` picks, on a
    steered one those `_piece_rays` picks, which returns with weight 1
    the rays of every piece it cannot certify, among them every piece
    that reaches the floor. Inverse-square spreading, a fan with a ray
    that does not head up and a steered fan too coarse for its pieces to
    pay off are traced ray by ray.
    """
    _require_power(total_power)
    tx = scene.tx
    dx, dy = _fan(tx.boresight, tx.beam_halfwidth, cfg.n_rays)
    per_ray = total_power * tx.gain / cfg.n_rays
    origin = scene.tx_origin(dislocation)
    weight = None
    if (cfg.spreading is Spreading.GEOMETRIC
            and _fan_heads_up(tx.boresight, tx.beam_halfwidth, cfg.n_rays)):
        rays = (_event_rays(scene, origin, cfg) if panel._mirror
                else _piece_rays(scene, panel, origin, cfg))
        if rays is not None:
            index, weight = rays
            dx, dy = dx[index], dy[index]
    captured, escaped, terminated = _tally(
        *_trace_batch(scene, panel, origin.x, origin.y, dx, dy, cfg), weight)
    return TraceOutcome(per_ray * captured, per_ray * escaped,
                        per_ray * terminated)


def analytic_received_power(scene: Scene, panel: HsfPanel, dislocation: float,
                            quad_points: int,
                            total_power: float = 1.0) -> float:
    """Single-bounce received power by midpoint quadrature over the ceiling.

    Integrates capture over the beam footprint [d - x_b, d + x_b] with
    x_b = (H - h) tan(halfwidth), weighting each ceiling point by the angular
    density of the uniform fan. Independent of the ray tracer: same integral,
    different discretization.
    """
    if quad_points < 10:
        raise ValueError(f"quad_points must be >= 10, got {quad_points}")
    _require_ceiling(scene, panel)
    _require_power(total_power)
    tx = scene.tx
    if abs(tx.boresight.x) > 1e-12 or tx.boresight.y <= 0.0:
        raise ValueError("quadrature assumes an upward-pointing transmitter")
    if tx.beam_halfwidth >= math.pi / 2:
        raise ValueError("beam_halfwidth must be < pi/2 for a finite footprint")
    height = panel.y_height - tx.position.y
    x_b = height * math.tan(tx.beam_halfwidth)
    tx_x = tx.position.x + dislocation

    edges = np.linspace(tx_x - x_b, tx_x + x_b, quad_points + 1)
    xs = 0.5 * (edges[:-1] + edges[1:])
    dx_cell = 2.0 * x_b / quad_points

    rel_x = xs - tx_x
    dist2 = rel_x * rel_x + height * height
    density = height / dist2  # d(angle)/dx of the fan
    dist = np.sqrt(dist2)
    ix = rel_x / dist
    iy = height / dist

    idx = panel.index_at(xs)
    normals = panel.normals_array()
    nx = normals[idx, 0]
    ny = normals[idx, 1]
    k = 2.0 * (ix * nx + iy * ny)
    rx_dir = ix - k * nx
    ry_dir = iy - k * ny
    norm = np.hypot(rx_dir, ry_dir)
    rx_dir /= norm
    ry_dir /= norm

    # capture test identical to the tracer's segment test
    rx_c = scene.rx_aperture.center
    mx = rx_c.x - xs
    my = rx_c.y - panel.y_height
    s = mx * rx_dir + my * ry_dir
    h2 = np.maximum(mx * mx + my * my - s * s, 0.0)
    r2 = scene.rx_aperture.radius ** 2

    inf = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        t_floor = np.where(ry_dir < 0.0, (scene.floor_y - panel.y_height)
                           / ry_dir, inf)
        t_right = np.where(rx_dir > 0.0, (scene.corridor_x_max - xs)
                           / rx_dir, inf)
        t_left = np.where(rx_dir < 0.0, (scene.corridor_x_min - xs)
                          / rx_dir, inf)
    t_surf = np.minimum(np.minimum(t_floor, t_right), t_left)

    cap = (ry_dir < 0.0) & (s > 0.0) & (h2 <= r2) & (s < t_surf)

    weight = total_power * tx.gain / (2.0 * tx.beam_halfwidth)
    return float(weight * dx_cell * np.sum(density[cap]))
