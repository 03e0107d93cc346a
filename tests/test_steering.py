import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwesim.geometry import Vec2, angle_between, reflect
from pwesim.experiment import ExperimentConfig
from pwesim.steering import (Biased, Schedule, Static, Unbiased,
                             build_schedule, materialize_normals,
                             optimal_normal, _delta_i)


class TestOptimalNormal:
    def test_reference_geometry(self):
        # panel point straight above the user, receiver down-corridor
        n = optimal_normal(Vec2(0.0, 3.0), Vec2(0.0, 1.0), Vec2(3.6, 2.4))
        assert n.x == pytest.approx(0.64638, abs=1e-5)
        assert n.y == pytest.approx(-0.76302, abs=1e-5)
        assert n.is_unit()

    def test_reflection_lands_on_target(self):
        hsf = Vec2(0.0, 3.0)
        user = Vec2(0.0, 1.0)
        target = Vec2(3.6, 2.4)
        n = optimal_normal(hsf, user, target)
        incident = (hsf - user).normalized()
        desired = (target - hsf).normalized()
        r = reflect(incident, n)
        assert angle_between(r, desired) < 1e-12

    def test_user_must_be_below(self):
        with pytest.raises(ValueError):
            optimal_normal(Vec2(0.0, 3.0), Vec2(0.0, 3.0), Vec2(1.0, 2.0))

    def test_target_must_differ_from_panel_point(self):
        with pytest.raises(ValueError):
            optimal_normal(Vec2(0.0, 3.0), Vec2(0.0, 1.0), Vec2(0.0, 3.0))

    def test_degenerate_pass_through(self):
        # a target straight behind the panel would need the reflection to
        # continue along the incident ray; the half-vector vanishes there
        with pytest.raises(ValueError):
            optimal_normal(Vec2(0.0, 3.0), Vec2(0.0, 1.0), Vec2(0.0, 5.0))

    def test_retroreflection_points_straight_back(self):
        n = optimal_normal(Vec2(0.0, 3.0), Vec2(0.0, 1.0), Vec2(0.0, 0.5))
        assert n.x == pytest.approx(0.0, abs=1e-15)
        assert n.y == pytest.approx(-1.0, abs=1e-15)


class TestDeltaI:
    def test_reference_values(self):
        assert _delta_i(0.1) == 10
        assert _delta_i(0.3) == 3
        assert _delta_i(0.5) == 2
        assert _delta_i(0.9) == 1
        assert _delta_i(2.0 / 3.0) == 2  # 1/p + 0.5 = 2.0 exactly

    def test_never_below_one(self):
        assert _delta_i(0.999) == 1


class TestBuildSchedule:
    def test_static_all_zero(self):
        sch = build_schedule(Static(), 9, 5, 0.002)
        assert sch.assignment == (0,) * 10
        assert sch.position_count == 6

    def test_unbiased_round_robin(self):
        sch = build_schedule(Unbiased(), 10, 3, 0.002)
        assert sch.assignment == (0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2)

    def test_biased_half_confidence(self):
        # p = 0.5 anchors every 2nd subunit at j_c; the rest cycle 1, 2
        sch = build_schedule(Biased(0.5, 0), 7, 2, 0.002)
        assert sch.assignment == (0, 1, 0, 2, 0, 1, 0, 2)
        assert Counter(sch.assignment) == {0: 4, 1: 2, 2: 2}

    def test_biased_nonzero_center(self):
        sch = build_schedule(Biased(0.5, 1), 7, 2, 0.002)
        assert sch.assignment == (1, 0, 1, 2, 1, 0, 1, 2)

    def test_biased_center_out_of_range(self):
        with pytest.raises(ValueError):
            build_schedule(Biased(0.5, 3), 7, 2, 0.002)

    def test_single_position_degenerates_to_static(self):
        sch = build_schedule(Biased(0.3, 0), 9, 0, 0.002)
        assert sch.assignment == (0,) * 10
        assert sch.position_count == 1
        unb = build_schedule(Unbiased(), 9, 0, 0.002)
        assert unb.assignment == sch.assignment

    def test_negative_bounds_raise(self):
        with pytest.raises(ValueError):
            build_schedule(Static(), -1, 5, 0.002)
        with pytest.raises(ValueError):
            build_schedule(Static(), 5, -1, 0.002)

    @given(st.integers(0, 49), st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_unbiased_matches_modulo(self, j_max, i_max):
        sch = build_schedule(Unbiased(), i_max, j_max, 0.002)
        assert sch.assignment == tuple(i % (j_max + 1)
                                       for i in range(i_max + 1))

    @given(st.floats(0.01, 0.99), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_biased_shares_balanced(self, p, j_c):
        j_max = 20
        n = 200
        sch = build_schedule(Biased(p, j_c), n - 1, j_max, 0.002)
        counts = Counter(sch.assignment)
        delta = _delta_i(p)
        # the cycle never repeats j_c, so its count is exactly the anchors
        assert counts[j_c] == math.ceil(n / delta)
        others = [counts.get(j, 0) for j in range(j_max + 1) if j != j_c]
        if others:
            assert max(others) - min(others) <= 1


    @given(st.data(), st.sampled_from(["static", "unbiased", "biased"]),
           st.integers(0, 2000), st.integers(0, 2000),
           st.floats(1e-6, 10.0), st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_entries_in_grid_by_construction(self, data, kind, i_max, j_max,
                                             tx_step, p):
        # build_schedule skips Schedule's entry scan, so its own output must
        # keep the grid at j_max + 1 positions and every entry inside it
        if kind == "static":
            mode = Static()
        elif kind == "unbiased":
            mode = Unbiased()
        else:
            mode = Biased(p, data.draw(st.integers(0, j_max), label="j_c"))
        sch = build_schedule(mode, i_max, j_max, tx_step)
        assert sch.position_count == j_max + 1
        assert len(sch.assignment) == i_max + 1
        assert all(0 <= j <= sch.position_count - 1 for j in sch.assignment)


class TestScheduleType:
    def test_position_count_zero_span(self):
        sch = Schedule((0, 0), 0.002, 0.0, Static())
        assert sch.position_count == 1

    def test_position_count_rounds_up(self):
        sch = Schedule((0,), 0.002, 0.5, Static())
        assert sch.position_count == 251

    def test_entries_validated(self):
        with pytest.raises(ValueError):
            Schedule((0, 3), 0.002, 0.002, Static())  # only j in {0, 1} fit
        with pytest.raises(ValueError):
            Schedule((-1,), 0.002, 0.5, Static())

    def test_bias_p_range(self):
        with pytest.raises(ValueError):
            Biased(0.0, 0)
        with pytest.raises(ValueError):
            Biased(1.0, 0)
        with pytest.raises(ValueError):
            Biased(0.5, -1)


class TestMaterializeNormals:
    def test_panel_shape_and_orientation(self):
        scene = ExperimentConfig().scene()
        sch = build_schedule(Static(), scene.ceiling.subunit_count - 1,
                             250, 0.002)
        panel = materialize_normals(sch, scene)
        assert panel.subunit_count == scene.ceiling.subunit_count
        arr = panel.normals_array()
        assert np.all(arr[:, 1] < 0.0)
        assert np.max(np.abs(np.hypot(arr[:, 0], arr[:, 1]) - 1.0)) < 1e-12

    def test_static_normals_redirect_onto_target(self):
        scene = ExperimentConfig().scene()
        sch = build_schedule(Static(), scene.ceiling.subunit_count - 1,
                             250, 0.002)
        panel = materialize_normals(sch, scene)
        user = Vec2(0.0, scene.user_height)
        target = scene.rx_aperture.center
        for i in (0, 1234, 2500, 4999):
            center = Vec2(float(panel.centers()[i]), panel.y_height)
            incident = (center - user).normalized()
            desired = (target - center).normalized()
            r = reflect(incident, Vec2(*panel.normals_array()[i]))
            assert angle_between(r, desired) < 1e-9

    def test_length_mismatch_raises(self):
        scene = ExperimentConfig().scene()
        sch = build_schedule(Static(), 9, 5, 0.002)  # 10 entries, panel 5000
        with pytest.raises(ValueError):
            materialize_normals(sch, scene)

    @settings(max_examples=60, deadline=None)
    @given(height=st.floats(2.0, 5.0), user_frac=st.floats(0.05, 0.8),
           length=st.floats(2.0, 6.0), offset_frac=st.floats(0.05, 0.5),
           rx_frac=st.floats(0.02, 0.98), rx_rel_frac=st.floats(0.1, 0.95),
           delta_hsf=st.floats(0.001, 0.01), tx_step=st.floats(0.0005, 0.01),
           j_max=st.integers(0, 300), data=st.data(),
           kind=st.sampled_from(("static", "unbiased", "biased")))
    def test_matches_optimal_normal(self, height, user_frac, length,
                                    offset_frac, rx_frac, rx_rel_frac,
                                    delta_hsf, tx_step, j_max, data, kind):
        """Every subunit's normal is optimal_normal's, for the user at
        (j * tx_step, h) and the subunit midpoint x_start + (i + 0.5) dx."""
        user_h = user_frac * height
        offset = offset_frac * length
        cfg = ExperimentConfig(
            ceiling_height=height, corridor_length=length, tx_offset=offset,
            user_height=user_h, rx_x=-offset + rx_frac * length,
            # the 5 cm disc stays 1 cm below the ceiling
            rx_y_rel=0.06 + rx_rel_frac * (height - user_h - 0.12),
            subunit_length=delta_hsf, tx_step=tx_step, aperture=0.05)
        scene = cfg.scene()
        base = scene.ceiling
        if kind == "static":
            mode = Static()
        elif kind == "unbiased":
            mode = Unbiased()
        else:
            mode = Biased(data.draw(st.floats(0.01, 0.99)),
                          data.draw(st.integers(0, j_max)))
        sch = build_schedule(mode, base.subunit_count - 1, j_max, tx_step)
        got = materialize_normals(sch, scene).normals_array()
        target = scene.rx_aperture.center
        want = np.array([
            (n.x, n.y) for n in (
                optimal_normal(
                    Vec2(base.x_start + (i + 0.5) * base.subunit_length,
                         base.y_height),
                    Vec2(j * tx_step, user_h), target)
                for i, j in enumerate(sch.assignment))])
        assert np.max(np.abs(got - want)) <= 1e-15


def test_schedule_stats_counts_sum():
    sch = build_schedule(Unbiased(), 999, 12, 0.002)
    stats = Counter(sch.assignment)
    assert sum(stats.values()) == 1000
    assert set(stats) == set(range(13))
