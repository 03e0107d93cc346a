"""Image-source fate counts for an all-mirror corridor.

With a plain mirror ceiling and floor, unfolding every reflection turns a
ray's path into one straight line through a stack of corridor images
(Allen & Berkley, "Image method for efficiently simulating small-room
acoustics", JASA 65(4), 1979). Segment k of the line, after k bounces,
spans the unfolded heights [kH, (k+1)H] above the floor, and the
aperture's image in it sits at kH + b for even k and at (k+1)H - b for odd
k. Each ray's fate then has a closed form, which checks the tracer's
multi-bounce bookkeeping (the floor mirror, the bounce budget, the escape
rule) without sharing its step-by-step arithmetic. Segment k heads along
(dx, dy) for even k and along (dx, -dy) for odd k, which is all the receive
cone gate needs.
"""

import math

import numpy as np


def image_source_counts(scene, ox, oy, dx, dy, max_bounces,
                        rx_cone_gate=False):
    """(captured, escaped, terminated) counts of upward unit rays (dy > 0)
    from origins strictly inside the corridor, under geometric spreading."""
    ox, oy, dx, dy = np.broadcast_arrays(
        *(np.asarray(a, float) for a in (ox, oy, dx, dy)))
    span = scene.ceiling_height - scene.floor_y
    h = oy - scene.floor_y
    c = scene.rx_aperture.center
    b = c.y - scene.floor_y
    r2 = scene.rx_aperture.radius ** 2
    with np.errstate(divide="ignore"):
        t_wall = (np.where(dx > 0.0, scene.corridor_x_max,
                           scene.corridor_x_min) - ox) / dx
    t_wall = np.where(t_wall > 0.0, t_wall, np.inf)  # dx == 0: no wall
    bs = scene.rx.boresight
    cos_min = math.cos(scene.rx.beam_halfwidth)

    captured = np.zeros(len(dx), bool)
    escaped = np.zeros(len(dx), bool)
    for k in range(max_bounces + 1):
        t_start = np.maximum((k * span - h) / dy, 0.0)
        t_end = ((k + 1) * span - h) / dy
        image_y = k * span + b if k % 2 == 0 else (k + 1) * span - b
        mx, my = c.x - ox, image_y - h
        t_foot = mx * dx + my * dy
        h2 = mx * mx + my * my - t_foot * t_foot
        # the tracer's own capture test: the foot of the perpendicular lies
        # ahead on this segment, before its surface and before the wall
        in_cone = True
        if rx_cone_gate:
            seg_dy = dy if k % 2 == 0 else -dy
            in_cone = -dx * bs.x - seg_dy * bs.y >= cos_min
        captured |= ((h2 <= r2) & (t_foot - t_start > 0.0)
                     & (t_foot < t_end) & (t_foot < t_wall) & in_cone)
        # the wall escapes the ray on the segment strictly containing it; a
        # ray meeting it at a segment's end reflects in the corner, heads
        # on out of the corridor and never escapes
        escaped |= (t_start < t_wall) & (t_wall < t_end)
    escaped &= ~captured
    n_captured = int(np.count_nonzero(captured))
    n_escaped = int(np.count_nonzero(escaped))
    return n_captured, n_escaped, len(dx) - n_captured - n_escaped
