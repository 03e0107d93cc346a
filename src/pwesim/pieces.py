"""Counting a steered fan by certified pieces.

On a steered ceiling the fan rays that meet one subunit at the first
ceiling hit form one piece of the fan. `_piece_rays` cuts the fan into
its pieces with the step-0 arithmetic of the tracer's kernel,
`tracer._trace_batch`, and `_settled` proves, by interval bounds with a
derived float margin, which pieces the kernel gives one fate (Moore, "Interval Analysis", 1966; Snyder,
"Interval analysis for computer graphics", SIGGRAPH 1992). The tracer
then traces one ray for each settled piece, standing for the whole
piece, and every other ray on its own.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from .geometry import Vec2
from .scene import HsfPanel, Scene, _fan

if TYPE_CHECKING:
    from .tracer import TracerConfig

# Unit roundoff of float64: a correctly rounded +, -, * or / returns
# (a op b)(1 + delta) with |delta| <= _U (Higham, "Accuracy and Stability
# of Numerical Algorithms", 2nd ed., 2002, ch. 2-3).
_U = 2.0 ** -53
# Fan rays evaluated on each side of an estimated cut.
_WINDOW = 3


def _hull(*corners):
    """Elementwise [min, max] over the given corner values."""
    return (functools.reduce(np.minimum, corners),
            functools.reduce(np.maximum, corners))


def _mul(alo, ahi, blo, bhi):
    """[lo, hi] of a * b over a in [alo, ahi] and b in [blo, bhi], before
    any margin; a may be one float."""
    if np.ndim(alo) == 0 and alo == ahi:
        return (alo * blo, alo * bhi) if alo >= 0.0 else (alo * bhi, alo * blo)
    return _hull(alo * blo, alo * bhi, ahi * blo, ahi * bhi)


def _segment(scene: Scene, cfg: TracerConfig, oxlo, oxhi, oy: float,
             surf_y: float, dxlo, dxhi, dylo, dyhi, scale: float):
    """One kernel step in interval form, for boxes of segments from
    (x in [oxlo, oxhi], oy) along directions in [dxlo, dxhi] x [dylo, dyhi]
    toward the ceiling or floor line y = surf_y; `scale` is the S of
    `_settled`.

    Returns masks (captured, not captured, escaped, not escaped, known)
    that each hold for every segment of a box, and [lo, hi] of the
    distance to the line, t_v. A box is `known` when dy has the sign that
    reaches the line, t_v is finite and positive, and the sign of dx, and
    so the wall ahead, is fixed, as is the sign of the wall distance: the
    kernel drops a distance <= 0, and bounds of one sign fix that verdict
    for every ray of the box. Every quantity is the
    kernel's own formula, bounded over the box and grown by the margins of
    `_settled`, except the aperture test, which bounds h = (c - p) x d
    instead of the kernel's h2 = |m|^2 - s^2.
    """
    grow_lo, grow_hi = 1.0 - 4.0 * _U, 1.0 + 4.0 * _U
    margin = 32.0 * _U * scale
    rise = surf_y - oy  # the kernel's own scalar
    # where dy has rise's sign, t_v falls as |dy| grows
    tvlo, tvhi = ((rise / dyhi, rise / dylo) if rise > 0.0
                  else (rise / dylo, rise / dyhi))
    tvlo, tvhi = tvlo * grow_lo, tvhi * grow_hi
    right = dxlo > 0.0
    wall = np.where(right, scene.corridor_x_max, scene.corridor_x_min)
    cwlo, cwhi = wall - oxhi - margin, wall - oxlo + margin
    twlo, twhi = _hull(cwlo / dxlo, cwlo / dxhi, cwhi / dxlo, cwhi / dxhi)
    twlo, twhi = twlo * grow_lo, twhi * grow_hi
    # a wall distance <= 0 is filtered to inf
    no_wall = twhi <= 0.0
    twlo = np.where(no_wall, np.inf, twlo)
    twhi = np.where(no_wall, np.inf, twhi)
    known = (((dylo > 0.0) if rise > 0.0 else (dyhi < 0.0))
             & (right | (dxhi < 0.0)) & (no_wall | (twlo > 0.0))
             & (tvlo > 0.0) & (tvhi < np.inf))

    c = scene.rx_aperture.center
    mxlo, mxhi = c.x - oxhi - margin, c.x - oxlo + margin
    my = c.y - oy
    a, b = _mul(mxlo, mxhi, dxlo, dxhi), _mul(my, my, dylo, dyhi)
    slo, shi = a[0] + b[0] - margin, a[1] + b[1] + margin
    a, b = _mul(mxlo, mxhi, dylo, dyhi), _mul(my, my, dxlo, dxhi)
    hlo, hhi = a[0] - b[1] - margin, a[1] - b[0] + margin
    hlo2, hhi2 = hlo * hlo, hhi * hhi
    r2 = scene.rx_aperture.radius ** 2
    h2_margin = 64.0 * _U * scale * scale
    inside = np.maximum(hlo2, hhi2) <= r2 - h2_margin
    outside = ((hlo > 0.0) | (hhi < 0.0)) & (np.minimum(hlo2, hhi2)
                                             > r2 + h2_margin)
    cap = (inside & (slo > 0.0)
           & (shi < np.minimum(tvlo, twlo)))
    miss = (outside | (shi <= 0.0)
            | (slo >= np.minimum(tvhi, twhi)))
    if cfg.rx_cone_gate:
        bs = scene.rx.boresight
        cos_min = math.cos(scene.rx.beam_halfwidth)
        a = _mul(bs.x, bs.x, -dxhi, -dxlo)
        b = _mul(bs.y, bs.y, -dyhi, -dylo)
        cap &= a[0] + b[0] - 16.0 * _U >= cos_min
        miss |= a[1] + b[1] + 16.0 * _U < cos_min
    return cap, miss, twhi < tvlo, twlo >= tvhi, known, tvlo, tvhi


# a box across dy = 0 or dx = 0 gets inf or nan bounds, which no test keeps
@np.errstate(divide="ignore", invalid="ignore")
def _settled(scene: Scene, panel: HsfPanel, origin: Vec2, cfg: TracerConfig,
             first, last, sub) -> np.ndarray:
    """Mask of the fan pieces [first, last] (inclusive fan indices, all
    meeting the ceiling in subunit `sub` at step 0) whose rays the kernel
    certainly gives one fate.

    A piece's rays are pushed through the kernel's step 0 (capture on the
    way up, a wall before the ceiling), the reflection by the one normal,
    the test that the reflected ray heads down, and step 1 (capture, the
    cone gate, a wall before the floor), all at once as boxes. A piece is
    settled when the fate follows from predicates that each keep one sign
    over the box: captured on the way up; else escaped before the
    ceiling; else sent back up by the panel; else captured, or escaped
    before the floor, on the way down. Kleene's rule decides the capture
    conjunction: it is false as soon as one of its predicates is false
    over the whole box, true only when all are true, and otherwise
    unknown, so a piece whose capture is the AND of predicates that flip
    inside it stays unsettled. A ray that reaches the floor is not
    followed, so its piece stays unsettled.

    The margin: every bound must contain the value the kernel computes
    for every ray of the piece, in its own floats. It comes from running
    error analysis (Higham, ch. 3): a correctly rounded +, -, * or / of
    a and b returns (a op b)(1 + delta) with |delta| <= u = 2^-53, so a
    formula of k operations on terms whose magnitudes sum to M is off by
    at most about k u M, and the bound computed here from the box's
    corners by as much again. Inputs already enclose the kernel's inputs,
    so only each formula's own rounding is added:
    - Fan directions. The fan's angles are monotone and neighbours differ
      by far more than an ulp, and numpy's cos and sin are within a few
      ulps, so every ray's dx and dy lie within 16u of the box spanned by
      the end rays' own floats.
    - Distances t_v and t_w are one division of enclosed values: grown by
      4u of themselves (a distance the kernel filters, one <= 0, is
      caught by its sign, which rounding keeps).
    - Lengths. Every coordinate and distance that matters for a piece
      whose fate can be settled lies within the corridor, so every term
      of the hit x, of c - p, of s and of h is at most S = |x_min| +
      |x_max| + |floor| + |ceiling| + |c.x| + |c.y| in magnitude; with at
      most three operations each, 32u S bounds both roundings.
    - The cone's dot product has terms of at most 1: 16u.
    - The reflection is not bounded operation by operation: the exact
      reflection by one line maps the arc of directions between the end
      rays onto an arc, so its box comes from the two reflected end rays,
      and stretches to dy = -1 (or 1) where the arc crosses the vertical.
      The kernel's reflected ray differs from the exact one by at most
      33u (the dot product, the two updates, hypot and the division)
      plus 4e, where e = |nx^2 + ny^2 - 1| of the normal; the reflected
      end rays carry the same error, so the box grows by 128u + 8e.
    - The aperture test bounds h = (c - p) x d, whose interval is a few
      ulps wide, and not the kernel's h2, whose interval would be wider
      than r2 itself. h2 = h^2 + |m|^2 (1 - |d|^2) in exact arithmetic;
      |1 - |d|^2| <= 8u for a fan or reflected direction, and the
      kernel's products and sums add at most 16u |m|^2, so with |m| <= S
      the kernel's h2 is within 64u S^2 of h^2.
    No quantity comes near the underflow threshold at corridor scale.
    """
    c = scene.rx_aperture.center
    scale = (abs(scene.corridor_x_min) + abs(scene.corridor_x_max)
             + abs(scene.floor_y) + abs(panel.y_height) + abs(c.x) + abs(c.y))
    # both end rays of every piece, as rows
    ends = np.stack((first, last))
    dx, dy = (a[ends] for a in _fan(scene.tx.boresight,
                                    scene.tx.beam_halfwidth, cfg.n_rays))
    # a piece across the vertical leaves dx's sign open, so step 0 does
    # not settle it and dy's top value need not be an end ray's
    dxlo, dxhi = _hull(*dx)
    dylo, dyhi = _hull(*dy)
    dxlo, dxhi = dxlo - 16.0 * _U, dxhi + 16.0 * _U
    dylo, dyhi = dylo - 16.0 * _U, dyhi + 16.0 * _U
    cap0, miss0, out0, in0, known0, tvlo, tvhi = _segment(
        scene, cfg, origin.x, origin.x, origin.y, panel.y_height,
        dxlo, dxhi, dylo, dyhi, scale)
    # the kernel's hit x, ox + t_v * dx
    xlo, xhi = _mul(tvlo, tvhi, dxlo, dxhi)
    margin = 32.0 * _U * scale
    xlo, xhi = origin.x + xlo - margin, origin.x + xhi + margin

    # the kernel's reflection of both end rays by the piece's normal
    normals = panel.normals_array().T
    nx, ny = normals[0][sub], normals[1][sub]
    k = 2.0 * (dx * nx + dy * ny)
    rx, ry = dx - k * nx, dy - k * ny
    norm = np.hypot(rx, ry)
    rx, ry = rx / norm, ry / norm
    grow = 128.0 * _U + 8.0 * np.abs(nx * nx + ny * ny - 1.0)
    rxlo, rxhi = _hull(*rx)
    rylo, ryhi = _hull(*ry)
    rxlo, rxhi = rxlo - grow, rxhi + grow
    rylo, ryhi = rylo - grow, ryhi + grow
    across = rx[0] * rx[1] <= 0.0
    rylo = np.where(across & (ryhi < 0.0), -1.0 - grow, rylo)
    ryhi = np.where(across & (rylo >= 0.0), 1.0 + grow, ryhi)
    cap1, miss1, out1, _, known1, _, _ = _segment(
        scene, cfg, xlo, xhi, panel.y_height, scene.floor_y,
        rxlo, rxhi, rylo, ryhi, scale)
    return known0 & (cap0 | miss0 & out0 | miss0 & in0 & (
        (rylo >= 0.0) | (ryhi < 0.0) & known1 & (cap1 | miss1 & out1)))


def _piece_rays(scene: Scene, panel: HsfPanel, origin: Vec2,
                cfg: TracerConfig):
    """Fan indices whose fates settle a steered fan, and how many fan rays
    each one stands for; None where the fan is better traced densely.

    The rays that meet one subunit at step 0 form one contiguous piece of
    the fan, since the hit x falls with the launch angle, in the kernel's
    floats too: its fan's cos and sin are monotone at the fan's spacing,
    and each rounded operation of the hit x and of `index_at` is monotone
    in its inputs. The fan is cut
    at every subunit edge inside its footprint: atan2 estimates the edge's
    fan position, and the kernel's own step-0 arithmetic (t_v = (H - oy)
    / dy, x = ox + t_v * dx, `panel.index_at`) on the `_WINDOW` rays on
    each side of the estimate finds the exact cut. `_settled` certifies
    all pieces at once; each settled piece is returned as its middle ray,
    standing for the whole piece, and the kernel decides that ray's fate.
    The rays of every unsettled piece are returned one by one.

    Returns None, before allocating any array, when the fan holds fewer
    than 2 * `_WINDOW` + 1 rays per footprint subunit, where the cut
    costs more than tracing; and if a cut falls outside its window.
    """
    n = cfg.n_rays
    dx, dy = _fan(scene.tx.boresight, scene.tx.beam_halfwidth, n)
    rise = panel.y_height - origin.y
    footprint = rise * (dx[0] / dy[0] - dx[-1] / dy[-1]) / panel.subunit_length
    width = 2 * _WINDOW + 1
    if not n > width * (footprint + 1.0):
        return None

    def hit(k):  # the kernel's step-0 subunit of fan rays k
        return panel.index_at(origin.x + rise / dy[k] * dx[k])

    # the hit x falls along the fan: subunits top, top - 1, ..., bottom
    top, bottom = hit(0), hit(n - 1)
    edge = np.arange(top, bottom, -1)  # between subunits edge - 1 and edge
    tx = scene.tx
    first = math.atan2(tx.boresight.y, tx.boresight.x) - tx.beam_halfwidth
    step = 2.0 * tx.beam_halfwidth / (n - 1)
    pos = (np.arctan2(rise, panel.x_start + edge * panel.subunit_length
                      - origin.x) - first) / step
    start = np.clip(np.floor(pos).astype(np.int64) + 1 - _WINDOW,
                    0, n - width)
    above = hit(start[:, None] + np.arange(width)) >= edge[:, None]
    if not (above[:, 0].all() and not above[:, -1].any()):
        return None
    cut = start + np.count_nonzero(above, axis=1)
    lo = np.concatenate(([0], cut))
    hi = np.concatenate((cut, [n]))
    sub = top - np.arange(len(lo))

    full = hi > lo
    lo, hi, sub = lo[full], hi[full], sub[full]
    ok = _settled(scene, panel, origin, cfg, lo, hi - 1, sub)
    # every ray of an unsettled piece is traced on its own
    size = hi[~ok] - lo[~ok]
    rays = np.arange(size.sum()) + np.repeat(lo[~ok] - np.cumsum(size) + size,
                                             size)
    return (np.concatenate(((lo[ok] + hi[ok] - 1) // 2, rays)),
            np.concatenate((hi[ok] - lo[ok], np.ones(len(rays), np.int64))))
