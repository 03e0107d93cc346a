import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from image_source import image_source_counts

from pwesim.experiment import ExperimentConfig, dbm_to_watts, run_sweep
from pwesim.geometry import Circle, Ray, Vec2
from pwesim.scene import (Antenna, HsfPanel, Scene, fan_directions,
                          mirror_panel, tx_ray_fan)
from pwesim.steering import Biased, Static, Unbiased, build_schedule, \
    materialize_normals
from pwesim.tracer import (_BLOCK, _CAPTURED, _ESCAPED, _TERMINATED,
                           Captured, Escaped, Spreading, Terminated,
                           TracerConfig, _fan, _piece_rays, _tally,
                           _trace_batch, analytic_received_power,
                           received_power, trace_ray)

# the kernel's fate code of each of `trace_ray`'s fates
CODE = {Captured: _CAPTURED, Escaped: _ESCAPED, Terminated: _TERMINATED}


def kernel_counts(*args) -> tuple:
    """(captured, escaped, terminated) of one kernel call."""
    return _tally(*_trace_batch(*args))


@pytest.fixture(scope="module")
def scene():
    return ExperimentConfig().scene()


@pytest.fixture(scope="module")
def static_panel(scene):
    sch = build_schedule(Static(), scene.ceiling.subunit_count - 1, 250,
                         0.002)
    return materialize_normals(sch, scene)


@pytest.fixture(scope="module")
def unbiased_panel(scene):
    sch = build_schedule(Unbiased(), scene.ceiling.subunit_count - 1, 250,
                         0.002)
    return materialize_normals(sch, scene)


class TestTracerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TracerConfig(n_rays=1)
        with pytest.raises(ValueError):
            TracerConfig(max_bounces=0)

    def test_defaults(self):
        cfg = TracerConfig()
        assert cfg.n_rays == 100001
        assert cfg.max_bounces == 16
        assert cfg.spreading is Spreading.GEOMETRIC
        assert not cfg.rx_cone_gate


class TestTraceRay:
    def test_mirror_zigzag_escapes_right(self, scene):
        # 45 degree launch: (0,1) -> ceiling (2,3) -> right edge (4,1)
        d = Vec2(1.0, 1.0).normalized()
        fate = trace_ray(scene, scene.ceiling, Ray(Vec2(0.0, 1.0), d),
                         TracerConfig(n_rays=2, max_bounces=8))
        assert isinstance(fate, Escaped)
        assert len(fate.path) == 3
        assert fate.path[1].x == pytest.approx(2.0, abs=1e-12)
        assert fate.path[1].y == 3.0
        assert fate.path[2].x == pytest.approx(4.0, abs=1e-12)
        assert fate.path[2].y == pytest.approx(1.0, abs=1e-12)

    def test_direct_hit_through_aperture(self, scene):
        ray = Ray(Vec2(3.6, 1.0), Vec2(0.0, 1.0), power=0.25)
        fate = trace_ray(scene, scene.ceiling, ray,
                         TracerConfig(n_rays=2, max_bounces=8))
        assert isinstance(fate, Captured)
        assert fate.power == 0.25  # geometric mode: full strength
        # entry point sits on the aperture rim below the center
        assert fate.path[-1].x == pytest.approx(3.6, abs=1e-12)
        assert fate.path[-1].y == pytest.approx(2.4 - 0.08, abs=1e-12)

    def test_inverse_square_scales_by_path_length(self, scene):
        ray = Ray(Vec2(3.6, 1.0), Vec2(0.0, 1.0), power=0.25)
        cfg = TracerConfig(n_rays=2, max_bounces=8,
                           spreading=Spreading.INVERSE_SQUARE)
        fate = trace_ray(scene, scene.ceiling, ray, cfg)
        assert isinstance(fate, Captured)
        s_entry = 1.4 - 0.08
        assert fate.power == pytest.approx(0.25 / s_entry ** 2, rel=1e-12)

    def test_bounce_budget_terminates_at_surface(self, scene):
        ray = Ray(Vec2(1.0, 1.0), Vec2(0.0, 1.0))
        fate = trace_ray(scene, scene.ceiling, ray,
                         TracerConfig(n_rays=2, max_bounces=1))
        assert isinstance(fate, Terminated)
        path = [(p.x, p.y) for p in fate.path]
        assert path == [(1.0, 1.0), (1.0, 3.0), (1.0, 0.0)]

    def test_upward_reflection_is_absorbed(self, scene):
        # a 60-degree virtual normal turns the vertical ray back upward;
        # the panel cannot transmit, so the ray ends at the ceiling
        tilted = Vec2(math.sin(math.radians(60)), -0.5)
        panel = HsfPanel(3.0, -1.0, 4.0, 0.001,
                         np.tile((tilted.x, tilted.y), (5000, 1)))
        ray = Ray(Vec2(0.0, 1.0), Vec2(0.0, 1.0))
        fate = trace_ray(scene, panel, ray,
                         TracerConfig(n_rays=2, max_bounces=8))
        assert isinstance(fate, Terminated)
        assert fate.path[-1].y == 3.0
        assert len(fate.path) == 2

    def test_left_escape(self, scene):
        d = Vec2(-1.0, 1.0).normalized()
        fate = trace_ray(scene, scene.ceiling, Ray(Vec2(0.0, 1.0), d),
                         TracerConfig(n_rays=2, max_bounces=8))
        assert isinstance(fate, Escaped)
        assert fate.path[-1].x == pytest.approx(-1.0, abs=1e-12)


class TestReceivedPower:
    def test_static_at_origin_captures_everything(self, scene, static_panel):
        cfg = TracerConfig(n_rays=2001, max_bounces=16)
        out = received_power(scene, static_panel, 0.0, cfg, total_power=0.1)
        assert out.captured_power == pytest.approx(0.1, rel=1e-12)
        assert out.escaped_power == 0.0
        assert out.terminated_power == 0.0
        assert out.captured_power / 0.1 == pytest.approx(1.0, rel=1e-12)

    def test_transmitter_inside_aperture_rejected(self):
        scn = ExperimentConfig(rx_x=1.0, rx_y_rel=0.05).scene()
        cfg = TracerConfig(n_rays=11)
        with pytest.raises(ValueError, match="aperture"):
            received_power(scn, scn.ceiling, 1.0, cfg, total_power=0.1)
        out = received_power(scn, scn.ceiling, 0.9, cfg, total_power=0.1)
        assert out.total_power == pytest.approx(0.1, rel=1e-12)

    def test_power_ledger_balances(self, scene, unbiased_panel):
        cfg = TracerConfig(n_rays=4001, max_bounces=16)
        for d in (0.0, 0.13, 0.37):
            out = received_power(scene, unbiased_panel, d, cfg,
                                 total_power=0.1)
            assert out.total_power == pytest.approx(0.1, rel=1e-12)
            assert out.captured_power > 0.0
            assert out.escaped_power > 0.0

    def test_matches_per_ray_tracing(self, scene, unbiased_panel):
        # batch engine and one-ray-at-a-time tracing agree ray for ray
        cfg = TracerConfig(n_rays=51, max_bounces=16)
        out = received_power(scene, unbiased_panel, 0.07, cfg,
                             total_power=0.1)
        singles = [trace_ray(scene, unbiased_panel, ray, cfg)
                   for ray in tx_ray_fan(scene, 0.07, 51, 0.1)]
        captured = math.fsum(f.power for f in singles
                             if isinstance(f, Captured))
        assert captured == pytest.approx(out.captured_power, rel=1e-12)
        escaped = math.fsum(0.1 / 51 for f in singles
                            if isinstance(f, Escaped))
        assert escaped == pytest.approx(out.escaped_power, rel=1e-12)

    def test_deterministic_across_calls(self, scene, unbiased_panel):
        cfg = TracerConfig(n_rays=1001, max_bounces=16)
        a = received_power(scene, unbiased_panel, 0.21, cfg, 0.1)
        b = received_power(scene, unbiased_panel, 0.21, cfg, 0.1)
        assert a.captured_power == b.captured_power
        assert a.escaped_power == b.escaped_power
        assert a.terminated_power == b.terminated_power

    def test_inverse_square_attenuates(self, scene, static_panel):
        geo = received_power(scene, static_panel, 0.0,
                             TracerConfig(n_rays=501, max_bounces=16), 0.1)
        inv = received_power(
            scene, static_panel, 0.0,
            TracerConfig(n_rays=501, max_bounces=16,
                         spreading=Spreading.INVERSE_SQUARE), 0.1)
        # every capture path is longer than 1 m here
        assert 0.0 < inv.captured_power < geo.captured_power

    @pytest.mark.parametrize("power", (-1.0, math.nan, math.inf))
    def test_bad_power_rejected(self, scene, power):
        with pytest.raises(ValueError, match="total_power must be finite"):
            received_power(scene, scene.ceiling, 0.0,
                           TracerConfig(n_rays=11), total_power=power)

    def test_wider_aperture_captures_more(self):
        small = ExperimentConfig(aperture=0.05).scene()
        large = ExperimentConfig(aperture=0.10).scene()
        cfg = TracerConfig(n_rays=20001, max_bounces=16)
        got_small = received_power(small, small.ceiling, 0.0, cfg, 0.1)
        got_large = received_power(large, large.ceiling, 0.0, cfg, 0.1)
        assert got_small.captured_power < got_large.captured_power


class TestRxConeGate:
    def test_gate_blocks_steep_mirror_arrivals(self, scene):
        # the all-mirror ceiling folds the near-vertical fan back down at
        # near-vertical angles, far outside the receiver cone
        gated = TracerConfig(n_rays=5001, max_bounces=16, rx_cone_gate=True)
        out = received_power(scene, scene.ceiling, 0.0, gated, 0.1)
        assert out.captured_power == 0.0

    def test_gate_keeps_steered_arrivals(self, scene, static_panel):
        gated = TracerConfig(n_rays=2001, max_bounces=16, rx_cone_gate=True)
        out = received_power(scene, static_panel, 0.0, gated, 0.1)
        assert out.captured_power / 0.1 == pytest.approx(1.0, rel=1e-12)

    def test_full_cone_gate_changes_nothing(self, scene):
        wide_rx = Antenna(scene.rx.position, scene.rx.boresight, math.pi)
        wide = Scene(ceiling=scene.ceiling, floor_y=0.0,
                     corridor_x_min=-1.0, corridor_x_max=4.0,
                     tx=scene.tx, rx=wide_rx, rx_aperture=scene.rx_aperture,
                     user_height=1.0, ceiling_height=3.0)
        plain = received_power(wide, wide.ceiling, 0.0,
                               TracerConfig(n_rays=3001, max_bounces=16), 0.1)
        gated = received_power(
            wide, wide.ceiling, 0.0,
            TracerConfig(n_rays=3001, max_bounces=16, rx_cone_gate=True), 0.1)
        assert gated.captured_power == plain.captured_power


class TestQuadratureOracle:
    def test_static_at_origin_matches_tracer(self, scene, static_panel):
        mc = received_power(scene, static_panel, 0.0,
                            TracerConfig(n_rays=10001, max_bounces=1), 0.1)
        quad = analytic_received_power(scene, static_panel, 0.0, 10001,
                                       total_power=0.1)
        assert quad == pytest.approx(mc.captured_power, rel=1e-9)

    def test_partial_capture_agrees(self, scene, static_panel):
        # dislocated user: only part of the fan still reaches the aperture
        mc = received_power(scene, static_panel, 0.05,
                            TracerConfig(n_rays=40001, max_bounces=1), 0.1)
        quad = analytic_received_power(scene, static_panel, 0.05, 40000,
                                       total_power=0.1)
        assert 0.0 < quad < 0.1
        assert quad == pytest.approx(mc.captured_power, rel=1e-3)

    def test_mirror_baseline_is_single_bounce_dark(self, scene):
        # one bounce off a flat mirror cannot reach the aperture from the
        # default fan, so the single-bounce integral vanishes
        quad = analytic_received_power(scene, scene.ceiling, 0.0, 5000,
                                       total_power=0.1)
        assert quad == 0.0

    def test_quad_points_floor(self, scene, static_panel):
        with pytest.raises(ValueError):
            analytic_received_power(scene, static_panel, 0.0, 9)

    @pytest.mark.parametrize("power", (-1.0, math.nan, math.inf))
    def test_bad_power_rejected(self, scene, static_panel, power):
        with pytest.raises(ValueError, match="total_power must be finite"):
            analytic_received_power(scene, static_panel, 0.0, 100,
                                    total_power=power)

    def test_requires_upward_transmitter(self, scene, static_panel):
        sideways = Antenna(Vec2(0.0, 1.0), Vec2(1.0, 0.0),
                           scene.tx.beam_halfwidth)
        tilted = Scene(ceiling=scene.ceiling, floor_y=0.0,
                       corridor_x_min=-1.0, corridor_x_max=4.0,
                       tx=sideways, rx=scene.rx,
                       rx_aperture=scene.rx_aperture,
                       user_height=1.0, ceiling_height=3.0)
        with pytest.raises(ValueError):
            analytic_received_power(tilted, static_panel, 0.0, 1000)

    def test_requires_finite_footprint(self, scene, static_panel):
        wide_tx = Antenna(Vec2(0.0, 1.0), Vec2(0.0, 1.0), math.pi / 2)
        wide = Scene(ceiling=scene.ceiling, floor_y=0.0,
                     corridor_x_min=-1.0, corridor_x_max=4.0,
                     tx=wide_tx, rx=scene.rx, rx_aperture=scene.rx_aperture,
                     user_height=1.0, ceiling_height=3.0)
        with pytest.raises(ValueError):
            analytic_received_power(wide, static_panel, 0.0, 1000)


def random_scene(rng: np.random.Generator) -> Scene:
    """Corridor of random size whose ceiling normals tilt at random."""
    height = rng.uniform(2.0, 4.0)
    length = rng.uniform(3.0, 8.0)
    offset = rng.uniform(0.5, 1.5)
    user_h = rng.uniform(0.3, height - 0.5)
    step = rng.choice((0.001, 0.0025, 0.005))
    x_min, x_max = -offset, length - offset
    count = mirror_panel(height, x_min, x_max, step).subunit_count
    tilts = rng.uniform(-1.2, 1.2, size=count)
    normals = np.column_stack((np.sin(tilts), -np.cos(tilts)))
    panel = HsfPanel(height, x_min, x_max, step, normals)
    rx_x = rng.uniform(x_min + 0.3, x_max - 0.3)
    # the disc may come within 1 cm of the ceiling, but not cross it
    radius = rng.uniform(0.02, 0.15)
    rx_y = rng.uniform(user_h + 0.2, height - radius - 0.01)
    return Scene(ceiling=panel, floor_y=0.0, corridor_x_min=x_min,
                 corridor_x_max=x_max,
                 tx=Antenna(Vec2(0.0, user_h), Vec2(0.0, 1.0),
                            rng.uniform(0.05, 0.6)),
                 rx=Antenna(Vec2(rx_x, rx_y), Vec2(0.0, 1.0),
                            rng.uniform(0.1, 1.0)),
                 rx_aperture=Circle(Vec2(rx_x, rx_y), radius),
                 user_height=user_h, ceiling_height=height)


class TestConservationRandomized:
    def test_random_scenes_balance(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            scn = random_scene(rng)
            cfg = TracerConfig(n_rays=501,
                               max_bounces=int(rng.integers(1, 12)))
            out = received_power(scn, scn.ceiling, 0.0, cfg, total_power=0.1)
            assert out.total_power == pytest.approx(0.1, rel=1e-12)


class TestScalarReference:
    """trace_ray is the kernel's reference: each ray of a fan gets the same
    fate from both, and under inverse-square spreading exactly the power
    the kernel's gain gives it."""

    @settings(max_examples=100, deadline=None)
    @given(panel_kind=st.sampled_from(("static", "unbiased", "mirror",
                                       "random")),
           seed=st.integers(0, 2**32 - 1),
           d=st.floats(0.0, 0.5),
           max_bounces=st.integers(1, 16),
           spreading=st.sampled_from(tuple(Spreading)),
           cone=st.booleans())
    def test_per_ray_fate_matches_kernel(self, scene, static_panel,
                                         unbiased_panel, panel_kind, seed, d,
                                         max_bounces, spreading, cone):
        if panel_kind == "random":
            scn = random_scene(np.random.default_rng(seed))
            panel = scn.ceiling
        else:
            scn = scene
            panel = {"static": static_panel, "unbiased": unbiased_panel,
                     "mirror": scene.ceiling}[panel_kind]
        cfg = TracerConfig(n_rays=2, max_bounces=max_bounces,
                           spreading=spreading, rx_cone_gate=cone)
        fan = tx_ray_fan(scn, d, 41, 0.1)
        fates = [trace_ray(scn, panel, ray, cfg) for ray in fan]
        o = fan[0].origin
        dx, dy = ([getattr(ray.direction, c) for ray in fan] for c in "xy")
        code, gain = _trace_batch(scn, panel, np.full(41, o.x),
                                  np.full(41, o.y), dx, dy, cfg)
        assert code.tolist() == [CODE[type(f)] for f in fates]
        if spreading is Spreading.GEOMETRIC:
            assert gain is None
        else:
            # a captured ray's power is its share times its gain 1 / L^2
            assert [ray.power * g for ray, g in zip(fan, gain.tolist())] \
                == [f.power if isinstance(f, Captured) else 0.0
                    for f in fates]
        assert all(f.path[0] == ray.origin for ray, f in zip(fan, fates))

    @settings(max_examples=60, deadline=None)
    @given(panel_kind=st.sampled_from(("static", "unbiased", "mirror",
                                       "random")),
           seed=st.integers(0, 2**32 - 1),
           max_bounces=st.integers(1, 16),
           spreading=st.sampled_from(tuple(Spreading)),
           cone=st.booleans())
    def test_mixed_batch_matches_per_ray(self, scene, static_panel,
                                         unbiased_panel, panel_kind, seed,
                                         max_bounces, spreading, cone):
        """One batch of rays, each from its own origin and heading any way
        (axis rays and dy == -0.0 included), so that both heading groups of
        the kernel run: each ray's fate and gain are those of the ray traced
        alone, and the counts are theirs, under inverse-square spreading
        with the fsum of the gains."""
        rng = np.random.default_rng(seed)
        if panel_kind == "random":
            scn = random_scene(rng)
            panel = scn.ceiling
        else:
            scn = scene
            panel = {"static": static_panel, "unbiased": unbiased_panel,
                     "mirror": scene.ceiling}[panel_kind]
        n = 200
        ox = rng.uniform(scn.corridor_x_min, scn.corridor_x_max, n)
        oy = rng.uniform(scn.floor_y, scn.ceiling_height, n)
        c, r = scn.rx_aperture.center, scn.rx_aperture.radius
        inside = ((ox > scn.corridor_x_min) & (oy > scn.floor_y)
                  & (np.hypot(ox - c.x, oy - c.y) > r))
        ox, oy = ox[inside], oy[inside]
        angle = rng.uniform(-math.pi, math.pi, len(ox))
        dx, dy = np.cos(angle), np.sin(angle)
        axis = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
                (1.0, -0.0), (-1.0, -0.0))
        dx[:len(axis)], dy[:len(axis)] = zip(*axis)
        cfg = TracerConfig(n_rays=2, max_bounces=max_bounces,
                           spreading=spreading, rx_cone_gate=cone)
        rays = zip(*(a.tolist() for a in (ox, oy, dx, dy)))
        fates = [trace_ray(scn, panel, Ray(Vec2(x, y), Vec2(u, v)), cfg)
                 for x, y, u, v in rays]
        code, gain = _trace_batch(scn, panel, ox, oy, dx, dy, cfg)
        assert code.tolist() == [CODE[type(f)] for f in fates]
        gains = [f.power for f in fates if isinstance(f, Captured)]
        if spreading is Spreading.INVERSE_SQUARE:
            # each ray carries 1 W, so trace_ray's power is the gain itself
            assert gain.tolist() == [f.power if isinstance(f, Captured)
                                     else 0.0 for f in fates]
        n_escaped = sum(isinstance(f, Escaped) for f in fates)
        want = (math.fsum(gains) if spreading is Spreading.INVERSE_SQUARE
                else len(gains),
                n_escaped, len(fates) - len(gains) - n_escaped)
        assert _tally(code, gain) == want


class TestKernelContract:
    def test_counts_close_as_integers(self):
        """Every ray ends in exactly one bucket: the counts add up to the
        fan size with no rounding, and the spreading changes no fate."""
        rng = np.random.default_rng(11)
        for _ in range(8):
            scn = random_scene(rng)
            n = 301
            dirs = fan_directions(scn.tx.boresight, scn.tx.beam_halfwidth, n)
            d = float(rng.uniform(0.0, 0.5))
            max_bounces = int(rng.integers(1, 12))
            counts = {}
            for spreading in Spreading:
                cfg = TracerConfig(n_rays=n, max_bounces=max_bounces,
                                   spreading=spreading)
                counts[spreading] = kernel_counts(
                    scn, scn.ceiling, scn.tx.position.x + d,
                    scn.tx.position.y, dirs[:, 0], dirs[:, 1], cfg)
            captured, escaped, terminated = counts[Spreading.GEOMETRIC]
            assert all(type(c) is int
                       for c in (captured, escaped, terminated))
            assert captured + escaped + terminated == n
            gain, inv_escaped, inv_terminated = \
                counts[Spreading.INVERSE_SQUARE]
            assert (inv_escaped, inv_terminated) == (escaped, terminated)
            assert all(type(c) is int for c in (inv_escaped, inv_terminated))
            assert (gain > 0.0) == (captured > 0)

    @pytest.mark.parametrize("kind", ("mirror", "unbiased"))
    def test_exact_across_block_boundaries(self, scene, unbiased_panel, kind):
        """The first n rays of one fan, for n just below, at and just above
        a block boundary, get exactly the fates and gains of their rays
        traced one by one, and the counts are theirs, under inverse-square
        spreading with the fsum of the gains."""
        panel = scene.ceiling if kind == "mirror" else unbiased_panel
        dirs = fan_directions(scene.tx.boresight, scene.tx.beam_halfwidth,
                              2 * _BLOCK + 1)
        # at d = 0.05 the unbiased panel captures rays in all three blocks
        # of the largest fan, and a sum of per-block fsums is one ulp off
        origin = scene.tx_origin(0.05)
        cfg = {s: TracerConfig(n_rays=2, max_bounces=6, spreading=s)
               for s in Spreading}
        ray_cfg = cfg[Spreading.INVERSE_SQUARE]
        fates = [trace_ray(scene, panel, Ray(origin, Vec2(float(x), float(y))),
                           ray_cfg) for x, y in dirs]
        codes = [CODE[type(f)] for f in fates]
        powers = [f.power if isinstance(f, Captured) else 0.0 for f in fates]
        for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
            args = (scene, panel, origin.x, origin.y, dirs[:n, 0],
                    dirs[:n, 1])
            code, gain = _trace_batch(*args, cfg[Spreading.GEOMETRIC])
            assert code.tolist() == codes[:n] and gain is None
            code, gain = _trace_batch(*args, cfg[Spreading.INVERSE_SQUARE])
            assert code.tolist() == codes[:n]
            assert gain.tolist() == powers[:n]
            want = (math.fsum(powers[:n]), codes[:n].count(_ESCAPED),
                    codes[:n].count(_TERMINATED))
            assert _tally(code, gain) == want

    def test_tie_goes_to_ceiling_or_floor(self, scene):
        # the ray meets the ceiling and the right wall at the same distance;
        # as with argmin over (ceiling, floor, right, left), it reflects at
        # the corner instead of escaping, and the bounce budget absorbs it
        s = math.sqrt(0.5)
        ray = Ray(Vec2(3.0, 2.0), Vec2(s, s))
        cfg = TracerConfig(n_rays=2, max_bounces=1)
        assert isinstance(trace_ray(scene, scene.ceiling, ray, cfg),
                          Terminated)
        code, _ = _trace_batch(scene, scene.ceiling, 3.0, 2.0, [s], [s], cfg)
        assert code.tolist() == [_TERMINATED]

    def test_ray_at_an_open_end_escapes(self, scene):
        """A ray 1e-10 m inside the right open end and heading out meets
        the wall first, so it escapes at once, in the kernel and in the
        scalar reference alike."""
        x = scene.corridor_x_max - 1e-10
        cfg = TracerConfig(n_rays=2)
        fate = trace_ray(scene, scene.ceiling,
                         Ray(Vec2(x, 1.0), Vec2(0.6, 0.8)), cfg)
        assert isinstance(fate, Escaped) and len(fate.path) == 2
        code, _ = _trace_batch(scene, scene.ceiling, x, 1.0, [0.6], [0.8],
                               cfg)
        assert code.tolist() == [_ESCAPED]

    @pytest.mark.parametrize("kind", ("static", "unbiased", "mirror"))
    def test_shared_origin_matches_per_ray_origins(self, scene, static_panel,
                                                   unbiased_panel, kind):
        """A scalar origin, kept scalar through step 0, gives exactly the
        fates and gains that the same origin repeated per ray gives; the
        last block is partial."""
        panel = {"static": static_panel, "unbiased": unbiased_panel,
                 "mirror": scene.ceiling}[kind]
        n = 2 * _BLOCK + 1
        dx, dy = _fan(scene.tx.boresight, scene.tx.beam_halfwidth, n)
        inv_sq = TracerConfig(spreading=Spreading.INVERSE_SQUARE)
        cfgs = (TracerConfig(), inv_sq,
                replace(inv_sq, rx_cone_gate=True, max_bounces=3))
        for d in (0.0, 0.07, 0.25, 0.5):
            o = scene.tx_origin(d)
            for cfg in cfgs:
                shared = _trace_batch(scene, panel, o.x, o.y, dx, dy, cfg)
                per_ray = _trace_batch(scene, panel, np.full(n, o.x),
                                       np.full(n, o.y), dx, dy, cfg)
                assert np.array_equal(shared[0], per_ray[0])
                assert (shared[1] is per_ray[1] is None
                        or np.array_equal(shared[1], per_ray[1]))

    @pytest.mark.parametrize("kind", ("unbiased", "random"))
    def test_tally_weight_counts_like_repeated_rays(self, scene,
                                                    unbiased_panel, kind):
        """A ray of weight m counts as m copies of itself, on a panel that
        sends some rays back up and with rays heading every way."""
        rng = np.random.default_rng(5)
        if kind == "unbiased":
            scn, panel = scene, unbiased_panel
        else:
            scn = random_scene(rng)
            panel = scn.ceiling
        n = 3 * _BLOCK // 2
        o = scn.tx_origin(0.1)
        angle = rng.uniform(-math.pi, math.pi, n)
        dx, dy = np.cos(angle), np.sin(angle)
        mult = rng.integers(1, 4, n)
        cfg = TracerConfig(n_rays=2, max_bounces=6, rx_cone_gate=True)
        got = _tally(*_trace_batch(scn, panel, o.x, o.y, dx, dy, cfg), mult)
        assert got == kernel_counts(scn, panel, o.x, o.y, np.repeat(dx, mult),
                                    np.repeat(dy, mult), cfg)
        assert got[2] > 0 and sum(got) == mult.sum()

    def test_panel_must_sit_at_ceiling_height(self, scene):
        # the kernel's floor-to-ceiling leg is the scene's checked span; the
        # scalar reference and the quadrature reject what it rejects
        low = mirror_panel(2.5, -1.0, 4.0, 0.001)
        cfg = TracerConfig()
        with pytest.raises(ValueError, match="ceiling height"):
            _trace_batch(scene, low, 0.0, 1.0, [0.0], [1.0], cfg)
        with pytest.raises(ValueError, match="ceiling height"):
            received_power(scene, low, 0.0, cfg)
        with pytest.raises(ValueError, match="ceiling height"):
            trace_ray(scene, low, Ray(Vec2(0.0, 1.0), Vec2(0.0, 1.0)), cfg)
        with pytest.raises(ValueError, match="ceiling height"):
            analytic_received_power(scene, low, 0.0, 1000)

    @pytest.mark.parametrize("grid", ((-1.0, 0.0, 0.001), (0.0, 5.0, 0.001),
                                      (-1.0, 4.0, 0.002)))
    def test_panel_must_share_the_ceiling_grid(self, scene, grid):
        # a 1 m panel in the 5 m corridor used to pass, and `index_at`
        # clipped every hit beyond it to its edge subunit
        other = mirror_panel(3.0, *grid)
        cfg = TracerConfig()
        with pytest.raises(ValueError, match="subunit grid"):
            _trace_batch(scene, other, 0.0, 1.0, [0.0], [1.0], cfg)
        with pytest.raises(ValueError, match="subunit grid"):
            received_power(scene, other, 0.0, cfg)
        with pytest.raises(ValueError, match="subunit grid"):
            trace_ray(scene, other, Ray(Vec2(0.0, 1.0), Vec2(0.0, 1.0)), cfg)
        with pytest.raises(ValueError, match="subunit grid"):
            analytic_received_power(scene, other, 0.0, 1000)

    def test_cached_fan_is_read_only(self, scene):
        dx, dy = _fan(scene.tx.boresight, scene.tx.beam_halfwidth, 101)
        dirs = fan_directions(scene.tx.boresight, scene.tx.beam_halfwidth,
                              101)
        assert np.array_equal(dx, dirs[:, 0])
        assert np.array_equal(dy, dirs[:, 1])
        for a in (dx, dy):
            assert a.flags.c_contiguous and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert _fan(scene.tx.boresight, scene.tx.beam_halfwidth, 101)[0] \
            is dx


class TestImageSourceOracle:
    """On an all-mirror corridor every fate has a closed form: the image
    method's counts equal the kernel's exactly."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           d=st.floats(0.0, 0.5),
           max_bounces=st.integers(1, 39))
    def test_random_mirror_corridors(self, seed, d, max_bounces):
        scn = random_scene(np.random.default_rng(seed))
        ceil = scn.ceiling
        panel = mirror_panel(ceil.y_height, ceil.x_start, ceil.x_end,
                             ceil.subunit_length)
        o = scn.tx_origin(d)
        dirs = fan_directions(scn.tx.boresight, scn.tx.beam_halfwidth, 2001)
        cfg = TracerConfig(n_rays=2001, max_bounces=max_bounces)
        got = kernel_counts(scn, panel, o.x, o.y, dirs[:, 0], dirs[:, 1], cfg)
        assert got == image_source_counts(scn, o.x, o.y, dirs[:, 0],
                                          dirs[:, 1], max_bounces)

    def test_default_sweep_baseline_rows(self, default_sweep):
        """Every baseline row of the default sweep is the image method's
        count times one ray's share of the emitted power."""
        cfg = ExperimentConfig()
        scn = cfg.scene()
        per_ray = dbm_to_watts(cfg.tx_power_dbm) * scn.tx.gain / cfg.n_rays
        dx, dy = _fan(scn.tx.boresight, scn.tx.beam_halfwidth, cfg.n_rays)
        rows = [r for r in default_sweep.rows if r.scheme == "baseline"]
        assert len(rows) == len(cfg.sweep_points()) == 51
        for row in rows:
            o = scn.tx_origin(row.d_x)
            counts = image_source_counts(scn, o.x, o.y, dx, dy,
                                         cfg.max_bounces)
            assert (row.captured_w, row.escaped_w, row.terminated_w) == \
                tuple(per_ray * c for c in counts), row

    @pytest.mark.parametrize("d", (0.0, 0.1, 0.3, 0.5))
    def test_default_corridor(self, scene, d):
        """The default fan, plus two rays that meet the ceiling exactly in
        a corner and so reflect there instead of escaping."""
        cfg = TracerConfig()
        o = scene.tx_origin(d)
        dx, dy = _fan(scene.tx.boresight, scene.tx.beam_halfwidth,
                      cfg.n_rays)
        c = math.sqrt(0.5)
        ox = np.concatenate((np.full(cfg.n_rays, o.x), (3.0, 0.0)))
        oy = np.concatenate((np.full(cfg.n_rays, o.y), (2.0, 2.0)))
        dx = np.concatenate((dx, (c, -c)))
        dy = np.concatenate((dy, (c, c)))
        want = image_source_counts(scene, ox, oy, dx, dy, cfg.max_bounces)
        assert kernel_counts(scene, scene.ceiling, ox, oy, dx, dy,
                             cfg) == want
        # the kernel's default sweep takes the fan from one shared origin
        head = image_source_counts(scene, o.x, o.y, dx[:-2], dy[:-2],
                                   cfg.max_bounces)
        assert kernel_counts(scene, scene.ceiling, o.x, o.y, dx[:-2],
                             dy[:-2], cfg) == head
        assert head[0] > 0 and head[1] > 0 and head[2] > 0
        assert want[2] == head[2] + 2  # the corner rays are absorbed


def random_mirror_corridor(rng: np.random.Generator,
                           max_bounces: int) -> Scene:
    """All-mirror corridor of random size, with the floor at a random
    height, the receive disc anywhere inside it (sometimes reaching through
    an open end) and a tilted receiver; the transmit fan points up. Half
    the time an edge of the receive cone crosses an aperture image in the
    fan, so that the gate splits the rays that reach that image."""
    height = rng.uniform(2.0, 5.0)
    floor_y = float(rng.choice((0.0, rng.uniform(-1.0, 1.0))))
    ceiling = floor_y + height
    x_min = -rng.uniform(0.5, 6.0)
    x_max = x_min + rng.uniform(3.0, 12.0)
    radius = rng.uniform(0.01, 0.2)
    if rng.random() < 0.3:
        # the disc reaches through an open end
        rx_x = float(rng.choice((x_min, x_max))) \
            + rng.uniform(-0.9, 0.9) * radius
    else:
        rx_x = rng.uniform(x_min, x_max)
    rx_x = min(max(rx_x, x_min + 1e-3), x_max - 1e-3)
    rx_y = rng.uniform(floor_y + radius + 1e-3, ceiling - radius - 1e-3)
    while True:
        tx_x = rng.uniform(x_min + 1e-3, x_max - 1e-3)
        user_h = rng.uniform(floor_y + 0.05, ceiling - 0.05)
        if math.hypot(tx_x - rx_x, user_h - rx_y) > radius:
            break
    tx_half = math.radians(rng.uniform(2.5, 60.0))
    tx_tilt = rng.uniform(-1.0, 1.0) * (math.pi / 2 - tx_half - 1e-3)
    rx_half = math.radians(rng.uniform(10.0, 90.0))
    rx_dir = math.radians(rng.uniform(0.0, 180.0))
    # launch angle of the ray through each aperture image, unfolded
    k = np.arange(max_bounces + 1)
    image_y = np.where(k % 2 == 0, k * height + rx_y - floor_y,
                       (k + 1) * height - rx_y + floor_y) + floor_y
    aim = np.arctan2(image_y - user_h, rx_x - tx_x)
    aim_k = np.flatnonzero(abs(aim - (math.pi / 2 + tx_tilt)) < tx_half)
    if len(aim_k) and rng.random() < 0.5:
        j = rng.choice(aim_k)
        # -(dx, dy) on an up segment, -(dx, -dy) on a down one
        edge = aim[j] + math.pi if j % 2 == 0 else math.pi - aim[j]
        rx_dir = edge + rng.choice((-rx_half, rx_half))
    rx = Antenna(Vec2(rx_x, rx_y), Vec2(math.cos(rx_dir), math.sin(rx_dir)),
                 rx_half)
    return Scene(ceiling=mirror_panel(ceiling, x_min, x_max, 0.01),
                 floor_y=floor_y, corridor_x_min=x_min, corridor_x_max=x_max,
                 tx=Antenna(Vec2(tx_x, user_h),
                            Vec2(-math.sin(tx_tilt), math.cos(tx_tilt)),
                            tx_half),
                 rx=rx, rx_aperture=Circle(rx.position, radius),
                 user_height=user_h, ceiling_height=ceiling)


class TestMirrorEvents:
    """On a mirror corridor `received_power` traces only the rays around
    the fan's events; its counts are exactly those of the whole fan traced
    ray by ray, and those of the image method."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           max_bounces=st.integers(1, 20),
           cone=st.booleans(),
           n_rays=st.sampled_from((2001, 20001)))
    def test_random_mirror_corridors(self, seed, max_bounces, cone, n_rays):
        scn = random_mirror_corridor(np.random.default_rng(seed), max_bounces)
        cfg = TracerConfig(n_rays=n_rays, max_bounces=max_bounces,
                           rx_cone_gate=cone)
        got, batches = counted_power(scn, scn.ceiling, 0.0, cfg)
        assert len(batches) == 1 and batches[0][0] < n_rays
        dense = dense_counts(scn, scn.ceiling, 0.0, cfg)
        assert got == dense
        o = scn.tx.position
        dx, dy = _fan(scn.tx.boresight, scn.tx.beam_halfwidth, n_rays)
        assert dense == image_source_counts(scn, o.x, o.y, dx, dy,
                                            max_bounces, cone)


def counted_power(scn: Scene, panel: HsfPanel, d: float,
                  cfg: TracerConfig) -> tuple[tuple, list[int]]:
    """`received_power`'s counts (each ray carries 1 W) and, per kernel
    call it made, the number of rays and whether `_tally` weighted them."""
    rays, weighted = [], []

    def trace(*args):
        rays.append(len(args[4]))
        return _trace_batch(*args)

    def tally(fate, gain, weight=None):
        weighted.append(weight is not None)
        return _tally(fate, gain, weight)

    with pytest.MonkeyPatch.context() as m:
        m.setattr("pwesim.tracer._trace_batch", trace)
        m.setattr("pwesim.tracer._tally", tally)
        out = received_power(scn, panel, d, cfg, cfg.n_rays)
    return (out.captured_power, out.escaped_power,
            out.terminated_power), list(zip(rays, weighted))


def dense_counts(scn: Scene, panel: HsfPanel, d: float,
                 cfg: TracerConfig) -> tuple:
    o = scn.tx_origin(d)
    dx, dy = _fan(scn.tx.boresight, scn.tx.beam_halfwidth, cfg.n_rays)
    return kernel_counts(scn, panel, o.x, o.y, dx, dy, cfg)


def first_bounce(scn: Scene, panel: HsfPanel, o: Vec2, dx, dy):
    """Step-0 subunit, hit x and reflected direction of upward rays, by the
    kernel's arithmetic."""
    x = o.x + (panel.y_height - o.y) / dy * dx
    sub = panel.index_at(x)
    nx, ny = panel.normals_array()[sub].T
    k = 2.0 * (dx * nx + dy * ny)
    rx, ry = dx - k * nx, dy - k * ny
    norm = np.hypot(rx, ry)
    return sub, x, rx / norm, ry / norm


def with_receiver(scn: Scene, center: Vec2, radius: float,
                  boresight_angle: float | None = None) -> Scene:
    """The same corridor with the receive disc (and, if given, the
    receiver's boresight) moved."""
    angle = (math.atan2(scn.rx.boresight.y, scn.rx.boresight.x)
             if boresight_angle is None else boresight_angle)
    rx = Antenna(center, Vec2(math.cos(angle), math.sin(angle)),
                 scn.rx.beam_halfwidth)
    return replace(scn, rx=rx, rx_aperture=Circle(center, radius))


def random_steered_corridor(rng: np.random.Generator, mode: str,
                            cone: bool) -> tuple[Scene, HsfPanel, float]:
    """A corridor of random size with the receive disc anywhere inside it,
    a tilted receiver, a steered panel of 1, 2 or 5 mm subunits, and a
    dislocation. With the cone gate on, half the time an edge of the
    receive cone points at the ceiling above the transmitter, where the
    steered rays come from, so that the gate splits the rays that reach
    the disc."""
    height = rng.uniform(2.0, 5.0)
    length = rng.uniform(3.0, 12.0)
    offset = rng.uniform(0.3, length - 0.8)
    user_h = rng.uniform(0.3, height - 0.3)
    radius = rng.uniform(0.01, 0.2)
    while True:
        rx_x = rng.uniform(1e-3 - offset, length - offset - 1e-3)
        rx_y = rng.uniform(radius + 1e-3, height - radius - 1e-3)
        d = rng.uniform(0.0, 0.5)
        if min(math.hypot(rx_x - d, rx_y - user_h),
               math.hypot(rx_x, rx_y - user_h)) > radius:
            break
    tilt = rng.uniform(-90.0, 90.0)
    if cone and rng.random() < 0.5:
        aim = math.degrees(math.atan2(height - rx_y, d - rx_x))
        tilt = aim + rng.choice((-30.0, 30.0)) - 90.0
    cfg = ExperimentConfig(ceiling_height=height, corridor_length=length,
                           tx_offset=offset, user_height=user_h, rx_x=rx_x,
                           rx_y_rel=rx_y - user_h, aperture=radius,
                           subunit_length=float(rng.choice((1e-3, 2e-3,
                                                             5e-3))),
                           rx_tilt_ccw_deg=tilt)
    scn = cfg.scene()
    steering = {"static": Static(), "unbiased": Unbiased(),
                "biased": Biased(float(rng.choice((0.1, 0.3, 0.5))), 0)}
    sch = build_schedule(steering[mode], scn.ceiling.subunit_count - 1, 250,
                         cfg.tx_step)
    return scn, materialize_normals(sch, scn), d


class TestSteeredPieces:
    """On a steered panel `received_power` traces one ray for each piece of
    the fan that meets one subunit and is certified to share a fate, and
    the rest ray by ray; its counts are exactly those of the whole fan
    traced ray by ray."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(("static", "unbiased", "biased")),
           cone=st.booleans(),
           n_rays=st.sampled_from((20001, 100001)))
    def test_random_steered_corridors(self, seed, mode, cone, n_rays):
        scn, panel, d = random_steered_corridor(np.random.default_rng(seed),
                                                mode, cone)
        cfg = TracerConfig(n_rays=n_rays, rx_cone_gate=cone)
        got, batches = counted_power(scn, panel, d, cfg)
        # one call, which counts pieces; a piece that reaches the floor is
        # traced ray by ray, so a fan may be traced ray by ray throughout
        assert len(batches) == 1 and batches[0][1]
        assert got == dense_counts(scn, panel, d, cfg)

    @pytest.mark.parametrize("disc", ("edge inside the piece", "whole piece"))
    def test_capture_flips_twice_in_one_piece(self, scene, static_panel,
                                              disc):
        """A piece whose rays cross the cone's edge, with the disc's edge
        inside the piece too (the disc then admits the rays on one side of
        a point and the cone those on the other, so that only the rays
        between are captured) or with the whole piece inside the disc. The
        piece must not be settled as a whole."""
        cfg = TracerConfig(n_rays=20001, rx_cone_gate=True)
        o = scene.tx_origin(0.0)
        dx, dy = _fan(scene.tx.boresight, scene.tx.beam_halfwidth,
                      cfg.n_rays)
        sub, x, rx, ry = first_bounce(scene, static_panel, o, dx, dy)
        piece = np.flatnonzero(sub == sub[cfg.n_rays // 3])
        c = scene.rx_aperture.center
        # static steering aims every subunit at the disc's centre, so the
        # signed miss distance h changes sign inside the piece
        h = ((c.x - x[piece]) * ry[piece]
             - (c.y - scene.ceiling_height) * rx[piece])
        radius = (float(np.median(abs(h))) if disc == "edge inside the piece"
                  else 0.05)
        # the cone's edge between two arrivals in the middle of the run of
        # rays inside the disc
        arrival = np.arctan2(-ry[piece], -rx[piece])
        inside = np.flatnonzero(h * h <= radius * radius)
        mid = inside[len(inside) // 2]
        edge = 0.5 * (arrival[mid] + arrival[mid + 1])
        turn = math.copysign(1.0, arrival[-1] - arrival[0])
        scn = with_receiver(scene, c, radius,
                            edge + turn * scene.rx.beam_halfwidth)
        in_disc = h * h <= radius * radius
        in_cone = abs(arrival - edge - turn * scene.rx.beam_halfwidth) \
            <= scene.rx.beam_halfwidth
        assert (in_disc & ~in_cone).any() and (in_disc & in_cone).any()
        if disc == "edge inside the piece":
            # the 1148/1149/1150 pattern: in the disc but not the cone,
            # then captured, then in the cone but not the disc
            flips = np.flatnonzero(np.diff(in_disc & in_cone))
            assert (~in_disc & in_cone)[flips[-1] + 1:].all()
        else:
            assert in_disc.all()

        index, weight = _piece_rays(scn, static_panel, o, cfg)
        mine = (index >= piece[0]) & (index <= piece[-1])
        assert mine.any() and weight[mine].max() < len(piece)
        got, _ = counted_power(scn, static_panel, 0.0, cfg)
        assert got == dense_counts(scn, static_panel, 0.0, cfg)

    def test_disc_edge_on_a_piece_end(self, scene):
        """The disc's edge passes through the first ray of a piece in the
        kernel's own arithmetic: that ray is captured on its way up, and
        the rest of the piece reaches the ceiling and escapes. The kernel
        tests h2 = |m|^2 - s^2 <= r^2, which rounds differently from the
        certifier's h^2, so only the margin keeps such a piece unsettled;
        each of several pieces is tried."""
        cfg = TracerConfig(n_rays=20001)
        # steer every ray toward the right-hand open end
        aim = with_receiver(scene, Vec2(scene.corridor_x_max - 0.05, 2.8),
                            0.01)
        panel = materialize_normals(
            build_schedule(Static(), scene.ceiling.subunit_count - 1, 250,
                           0.002), aim)
        o = scene.tx_origin(0.0)
        dx, dy = _fan(scene.tx.boresight, scene.tx.beam_halfwidth,
                      cfg.n_rays)
        sub = first_bounce(scene, panel, o, dx, dy)[0]
        starts = np.flatnonzero(np.diff(sub)) + 1
        c = Vec2(0.3, 2.2)
        phi = math.atan2(c.y - o.y, c.x - o.x)
        angle = np.arctan2(dy, dx)
        # the first rays of the pieces just above the direction to c
        starts = starts[angle[starts] > phi + 0.01][:12]
        assert len(starts) == 12
        for a in starts:
            mx, my = c.x - o.x, c.y - o.y
            s = mx * dx[a:a + 1] + my * dy[a:a + 1]
            h2 = float((mx * mx + my * my - s * s)[0])
            radius = math.sqrt(h2)
            while radius ** 2 < h2:
                radius = math.nextafter(radius, math.inf)
            while math.nextafter(radius, 0.0) ** 2 >= h2:
                radius = math.nextafter(radius, 0.0)
            scn = with_receiver(scene, c, radius)
            ray = (scn, panel, o.x, o.y, dx[a:a + 2], dy[a:a + 2], cfg)
            assert _trace_batch(*ray)[0].tolist() == [_CAPTURED, _ESCAPED]
            assert _trace_batch(*ray[:-1], replace(cfg, max_bounces=1))[
                0].tolist() == [_CAPTURED, _ESCAPED]
            assert _trace_batch(with_receiver(
                scene, c, math.nextafter(radius, 0.0)), *ray[1:])[
                0].tolist() == [_ESCAPED, _ESCAPED]
            got, _ = counted_power(scn, panel, 0.0, cfg)
            assert got == dense_counts(scn, panel, 0.0, cfg), a

    def test_coarse_fan_is_traced_densely(self):
        """Fewer than seven rays per footprint subunit: no array is built
        for the cut, and the kernel traces the whole fan."""
        cfg = ExperimentConfig(subunit_length=0.0002, n_rays=2001)
        scn = cfg.scene()
        panel = materialize_normals(
            build_schedule(Unbiased(), scn.ceiling.subunit_count - 1, 250,
                           cfg.tx_step), scn)
        tracer_cfg = cfg.tracer_config()
        assert _piece_rays(scn, panel, scn.tx_origin(0.1), tracer_cfg) is None
        _, batches = counted_power(scn, panel, 0.1, tracer_cfg)
        assert batches == [(2001, False)]


class TestWorkBudget:
    """The rays the kernel traces in the default sweep, counted exactly. A
    change that traces more must raise a budget here and say why."""

    # most rays traced at one point of each steered curve
    STEERED = {("static", None): 5600, ("unbiased", None): 2300,
               ("biased", 0.1): 2300, ("biased", 0.3): 3200,
               ("biased", 0.5): 3800}

    def test_default_sweep(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append((args[1], len(args[4])))
            return _trace_batch(*args)

        monkeypatch.setattr("pwesim.tracer._trace_batch", spy)
        cfg = ExperimentConfig()
        run_sweep(cfg, workers=1)
        points = len(cfg.sweep_points())
        curves = list(self.STEERED) + [("baseline", None)]
        # one kernel call per point, curve by curve
        assert len(calls) == len(curves) * points
        for k, curve in enumerate(curves):
            mine = calls[k * points:(k + 1) * points]
            assert len({id(panel) for panel, _ in mine}) == 1
            rays = [n for _, n in mine]
            if curve == ("baseline", None):
                assert sum(rays) == 20637
            else:
                assert max(rays) <= self.STEERED[curve], curve
