import math

import pytest

from pwesim.latency import (LatencyBudget, MobilityModel, dislocation,
                            total_latency)


class TestLatencyBudget:
    def test_defaults_are_zero(self):
        assert total_latency(LatencyBudget()) == 0.0

    def test_total_is_plain_sum(self):
        budget = LatencyBudget(sensing=0.01, report_network=0.002,
                               queueing=0.003, processing=0.004,
                               config_network=0.005, actuation=0.006)
        assert total_latency(budget) == \
            0.01 + 0.002 + 0.003 + 0.004 + 0.005 + 0.006

    def test_single_stage_passthrough(self):
        assert total_latency(LatencyBudget(sensing=1e-5)) == 1e-5
        assert total_latency(LatencyBudget(sensing=0.01)) == 0.01

    def test_stages_must_be_nonnegative(self):
        for field in ("sensing", "report_network", "queueing", "processing",
                      "config_network", "actuation"):
            with pytest.raises(ValueError):
                LatencyBudget(**{field: -1e-9})

    def test_nan_stage_rejected(self):
        for field in ("sensing", "report_network", "queueing", "processing",
                      "config_network", "actuation"):
            with pytest.raises(ValueError):
                LatencyBudget(**{field: math.nan})


class TestDislocation:
    def test_walking_speed_product(self):
        walker = MobilityModel(speed=1.4)
        assert dislocation(walker, 0.05) == 1.4 * 0.05
        assert dislocation(walker, 0.05) == pytest.approx(0.07, rel=1e-15)

    def test_scales_linearly_in_latency(self):
        walker = MobilityModel(speed=1.4)
        assert dislocation(walker, 2 * 0.035) == 2 * dislocation(walker,
                                                                 0.035)

    def test_zero_latency_zero_dislocation(self):
        assert dislocation(MobilityModel(speed=1.4), 0.0) == 0.0

    def test_stationary_user(self):
        assert dislocation(MobilityModel(speed=0.0), 10.0) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            MobilityModel(speed=-0.1)
        with pytest.raises(ValueError):
            dislocation(MobilityModel(speed=1.0), -0.01)

    def test_nan_speed_rejected(self):
        with pytest.raises(ValueError):
            MobilityModel(speed=math.nan)

    def test_nan_latency_rejected(self):
        with pytest.raises(ValueError):
            dislocation(MobilityModel(speed=1.0), math.nan)
