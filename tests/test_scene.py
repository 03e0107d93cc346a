import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pwesim.experiment import ExperimentConfig
from pwesim.geometry import Circle, Vec2
from pwesim.scene import (Antenna, HsfPanel, Scene, _ceil_count,
                          fan_directions, mirror_panel, tx_ray_fan)

DEG = math.pi / 180.0


@pytest.fixture(scope="module")
def scene():
    return ExperimentConfig().scene()


class TestDefaultScene:
    def test_corridor_box(self, scene):
        assert scene.corridor_x_min == -1.0
        assert scene.corridor_x_max == 4.0
        assert scene.floor_y == 0.0
        assert scene.ceiling_height == 3.0

    def test_antennas(self, scene):
        assert scene.tx.position == Vec2(0.0, 1.0)
        assert scene.tx.boresight == Vec2(0.0, 1.0)
        assert scene.tx.beam_halfwidth == pytest.approx(15.0 * DEG)
        assert scene.tx.gain == 1.0
        assert scene.rx.position == Vec2(3.6, 2.4)
        assert scene.rx.beam_halfwidth == pytest.approx(30.0 * DEG)
        # receiver tilted 77 degrees counter-clockwise from straight up
        tilt = 77.0 * DEG
        assert scene.rx.boresight.x == pytest.approx(-math.sin(tilt))
        assert scene.rx.boresight.y == pytest.approx(math.cos(tilt))

    def test_aperture(self, scene):
        assert scene.rx_aperture.center == scene.rx.position
        assert scene.rx_aperture.radius == 0.08

    def test_ceiling_panel_is_mirror(self, scene):
        panel = scene.ceiling
        assert panel.subunit_count == 5000
        assert panel.y_height == 3.0
        assert panel.normals_array()[0].tolist() == [0.0, -1.0]
        assert panel.normals_array()[4999].tolist() == [0.0, -1.0]


class TestHsfPanel:
    def test_subunit_centers(self, scene):
        centers = scene.ceiling.centers()
        assert centers.shape == (5000,)
        assert centers[0] == pytest.approx(-0.9995, abs=1e-12)
        assert centers[2500] == pytest.approx(1.5005, abs=1e-12)

    def test_centers_strictly_increasing(self, scene):
        centers = scene.ceiling.centers()
        assert np.all(np.diff(centers) > 0)
        assert centers[11] - centers[10] == pytest.approx(0.001, abs=1e-12)

    def test_index_at_clips(self, scene):
        panel = scene.ceiling
        assert panel.index_at(-1.0) == 0
        assert panel.index_at(-5.0) == 0
        assert panel.index_at(4.0) == 4999
        assert panel.index_at(-0.9995) == 0
        assert panel.index_at(1.5005) == 2500
        assert type(panel.index_at(1.5005)) is int

    def test_index_at_owns_its_center(self, scene):
        panel = scene.ceiling
        idx = panel.index_at(panel.centers())
        assert idx.tolist() == list(range(panel.subunit_count))

    @given(xs=st.lists(st.floats(-3.0, 6.0), min_size=1, max_size=50),
           step=st.sampled_from((0.001, 0.0025, 0.3, 1.0 / 3.0)))
    def test_index_at_array_matches_scalar(self, xs, step):
        # points past both ends clip to the first and last subunit
        panel = mirror_panel(3.0, -1.0, 4.0, step)
        got = panel.index_at(np.array(xs))
        assert got.tolist() == [panel.index_at(x) for x in xs]

    def test_count_follows_span(self):
        panel = mirror_panel(3.0, 0.0, 1.0, 0.3)  # 1 / 0.3 -> 4 subunits
        assert panel.subunit_count == 4

    @pytest.mark.parametrize("step", (0.001, 0.002, 0.0025, 0.01, 0.3,
                                      1.0 / 3.0))
    @pytest.mark.parametrize("k", (1, 7, 5000, 250001, 10**9, 3 * 10**9))
    def test_count_of_whole_cells(self, k, step):
        # k cells whose float width drifts by an ulp still count as k, and
        # half a cell more rounds up, at any span
        assert _ceil_count(k * step, step) == k
        assert _ceil_count((k + 0.5) * step, step) == k + 1

    def test_normal_count_must_match(self):
        with pytest.raises(ValueError):
            HsfPanel(3.0, 0.0, 1.0, 0.5, np.array([[0.0, -1.0]]))

    def test_normals_must_be_unit_and_downward(self):
        with pytest.raises(ValueError):
            HsfPanel(3.0, 0.0, 1.0, 0.5, np.array([[0.0, -2.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            HsfPanel(3.0, 0.0, 1.0, 0.5, np.array([[0.0, 1.0], [0.0, -1.0]]))

    @pytest.mark.parametrize("bad", ([math.nan, -1.0], [0.0, math.nan],
                                     [math.inf, -1.0], [0.0, -math.inf]))
    def test_non_finite_normals_rejected(self, bad):
        with pytest.raises(ValueError, match="unit-norm|downward"):
            HsfPanel(3.0, 0.0, 1.0, 0.5, np.array([bad, [0.0, -1.0]]))

    def test_normals_must_be_n_by_2(self):
        with pytest.raises(ValueError):
            HsfPanel(3.0, 0.0, 1.0, 0.5, np.array([0.0, -1.0, 0.0, -1.0]))

    def test_normals_array_read_only(self, scene):
        arr = scene.ceiling.normals_array()
        with pytest.raises(ValueError):
            arr[0, 0] = 5.0

    def test_normals_held_once_as_columns(self):
        # one copy of the input, as contiguous x and y columns; the (N, 2)
        # view and its transpose both read that copy
        normals = np.tile([0.0, -1.0], (2, 1))
        panel = HsfPanel(3.0, 0.0, 1.0, 0.5, normals)
        normals[0] = (1.0, 0.0)
        cols = panel.normals_array().T
        assert cols.shape == (2, 2) and cols.flags.c_contiguous
        assert not cols.flags.writeable
        assert cols.tolist() == [[0.0, 0.0], [-1.0, -1.0]]
        assert np.shares_memory(panel.normals_array(), cols)


class TestSceneValidation:
    def test_user_height_must_be_inside(self, scene):
        with pytest.raises(ValueError):
            Scene(ceiling=scene.ceiling, floor_y=0.0, corridor_x_min=-1.0,
                  corridor_x_max=4.0, tx=Antenna(Vec2(0.0, 3.5),
                                                 Vec2(0.0, 1.0), 0.25),
                  rx=scene.rx, rx_aperture=scene.rx_aperture,
                  user_height=3.5, ceiling_height=3.0)

    def test_user_height_must_clear_the_floor(self, scene):
        # a transmitter below a raised floor, though above y = 0
        with pytest.raises(ValueError, match="user_height"):
            Scene(ceiling=scene.ceiling, floor_y=1.5, corridor_x_min=-1.0,
                  corridor_x_max=4.0, tx=scene.tx, rx=scene.rx,
                  rx_aperture=scene.rx_aperture,
                  user_height=1.0, ceiling_height=3.0)

    def test_aperture_must_be_inside(self, scene):
        with pytest.raises(ValueError):
            Scene(ceiling=scene.ceiling, floor_y=0.0, corridor_x_min=-1.0,
                  corridor_x_max=4.0, tx=scene.tx, rx=scene.rx,
                  rx_aperture=Circle(Vec2(9.0, 2.4), 0.05),
                  user_height=1.0, ceiling_height=3.0)

    @pytest.mark.parametrize("y", (2.95, 0.05))
    def test_aperture_must_not_cross_ceiling_or_floor(self, scene, y):
        def build(radius):
            return Scene(ceiling=scene.ceiling, floor_y=0.0,
                         corridor_x_min=-1.0, corridor_x_max=4.0,
                         tx=scene.tx, rx=scene.rx,
                         rx_aperture=Circle(Vec2(3.6, y), radius),
                         user_height=1.0, ceiling_height=3.0)
        with pytest.raises(ValueError, match="between the floor and the"):
            build(0.08)
        assert build(0.04).rx_aperture.radius == 0.04

    def test_ceiling_must_clear_floor(self, scene):
        # the tracer rests on a floor-to-ceiling leg of positive length
        for floor_y in (3.0, 3.5, math.nan):
            with pytest.raises(ValueError, match="ceiling must lie above"):
                Scene(ceiling=scene.ceiling, floor_y=floor_y,
                      corridor_x_min=-1.0, corridor_x_max=4.0, tx=scene.tx,
                      rx=scene.rx, rx_aperture=scene.rx_aperture,
                      user_height=1.0, ceiling_height=3.0)

    @pytest.mark.parametrize("x_start, x_end", ((-1.0, 0.0), (0.0, 4.0),
                                                (-1.0, 5.0), (-2.0, 4.0)))
    def test_ceiling_must_span_the_corridor(self, scene, x_start, x_end):
        # a panel short of an open end used to pass, and its edge subunit
        # then reflected every ray beyond it
        panel = mirror_panel(3.0, x_start, x_end, 0.001)
        with pytest.raises(ValueError, match="span the corridor"):
            Scene(ceiling=panel, floor_y=0.0, corridor_x_min=-1.0,
                  corridor_x_max=4.0, tx=scene.tx, rx=scene.rx,
                  rx_aperture=scene.rx_aperture,
                  user_height=1.0, ceiling_height=3.0)

    def test_aperture_must_not_contain_transmitter(self, scene):
        # a disc around the transmitter captured rays at a negative entry
        # distance: 22.7 W from a 0.1 W fan under inverse-square spreading
        with pytest.raises(ValueError, match="transmitter"):
            Scene(ceiling=scene.ceiling, floor_y=0.0, corridor_x_min=-1.0,
                  corridor_x_max=4.0, tx=scene.tx, rx=scene.rx,
                  rx_aperture=Circle(Vec2(0.05, 1.02), 0.1),
                  user_height=1.0, ceiling_height=3.0)

    def test_tx_origin(self, scene):
        assert scene.tx_origin(0.25) == Vec2(0.25, 1.0)

    @pytest.mark.parametrize("d", (math.nan, math.inf, -math.inf))
    def test_tx_origin_must_be_finite(self, scene, d):
        with pytest.raises(ValueError, match="finite"):
            scene.tx_origin(d)

    @pytest.mark.parametrize("d", (4.0, 4.5, -1.0, -3.0))
    def test_tx_origin_must_be_inside_corridor(self, scene, d):
        # the default corridor spans -1 m < x < 4 m
        with pytest.raises(ValueError, match="outside the corridor"):
            scene.tx_origin(d)
        with pytest.raises(ValueError, match="outside the corridor"):
            tx_ray_fan(scene, d, 5, total_power=0.1)
        assert scene.tx_origin(3.99) == Vec2(3.99, 1.0)
        assert scene.tx_origin(-0.99) == Vec2(-0.99, 1.0)

    def test_tx_origin_outside_aperture(self):
        # the transmitter reaches the disc at (1.0, 1.05), radius 0.08, when
        # the user has walked 0.94 m < d < 1.06 m
        scn = ExperimentConfig(rx_x=1.0, rx_y_rel=0.05).scene()
        assert scn.tx_origin(0.9) == Vec2(0.9, 1.0)
        for d in (0.95, 1.0, 1.05):
            with pytest.raises(ValueError, match="aperture"):
                scn.tx_origin(d)
        with pytest.raises(ValueError, match="aperture"):
            tx_ray_fan(scn, 1.0, 5, total_power=0.1)


class TestAntenna:
    def test_boresight_must_be_unit(self):
        with pytest.raises(ValueError):
            Antenna(Vec2(0.0, 0.0), Vec2(0.0, 2.0), 0.1)

    def test_halfwidth_range(self):
        with pytest.raises(ValueError):
            Antenna(Vec2(0.0, 0.0), Vec2(0.0, 1.0), -0.1)
        with pytest.raises(ValueError):
            Antenna(Vec2(0.0, 0.0), Vec2(0.0, 1.0), math.pi + 0.1)

    def test_gain_nonnegative(self):
        with pytest.raises(ValueError):
            Antenna(Vec2(0.0, 0.0), Vec2(0.0, 1.0), 0.1, gain=-1.0)


class TestFan:
    def test_directions_span_the_cone(self):
        dirs = fan_directions(Vec2(0.0, 1.0), 15.0 * DEG, 3)
        assert dirs.shape == (3, 2)
        # middle ray on boresight, edges at exactly +-15 degrees
        assert dirs[1, 0] == pytest.approx(0.0, abs=1e-12)
        assert dirs[1, 1] == pytest.approx(1.0, abs=1e-12)
        assert dirs[0, 0] == pytest.approx(math.sin(15.0 * DEG), abs=1e-12)
        assert dirs[2, 0] == pytest.approx(-math.sin(15.0 * DEG), abs=1e-12)
        angles = np.arctan2(dirs[:, 1], dirs[:, 0])
        assert np.all(np.diff(angles) > 0)  # sweeping in increasing angle

    def test_directions_are_unit(self):
        dirs = fan_directions(Vec2(0.6, 0.8), 0.3, 101)
        norms = np.hypot(dirs[:, 0], dirs[:, 1])
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_needs_two_rays(self):
        with pytest.raises(ValueError):
            fan_directions(Vec2(0.0, 1.0), 0.1, 1)

    def test_ray_fan_power_split(self, scene):
        rays = tx_ray_fan(scene, 0.25, 11, total_power=0.1)
        assert len(rays) == 11
        assert all(r.origin == Vec2(0.25, 1.0) for r in rays)
        assert all(r.power == 0.1 / 11 for r in rays)
        total = math.fsum(r.power for r in rays)
        assert total == pytest.approx(0.1, rel=1e-12)

    def test_ray_fan_rejects_negative_power(self, scene):
        with pytest.raises(ValueError):
            tx_ray_fan(scene, 0.0, 5, total_power=-1.0)

    @pytest.mark.parametrize("power", (math.nan, math.inf))
    def test_ray_fan_rejects_non_finite_power(self, scene, power):
        with pytest.raises(ValueError, match="total_power must be finite"):
            tx_ray_fan(scene, 0.0, 5, total_power=power)

