"""Corridor beam-steering simulator: geometry, schedules, tracing, sweeps.

The names imported here are the public API.
"""

from .experiment import (
    ConfigError,
    ExperimentConfig,
    SweepResult,
    SweepRow,
    csv_text,
    dbm_to_watts,
    emit_csv,
    load_config,
    parse_config,
    run_sweep,
)
from .geometry import (
    Circle,
    Ray,
    Vec2,
    angle_between,
    reflect,
)
from .latency import LatencyBudget, MobilityModel, dislocation, total_latency
from .scene import (
    Antenna,
    HsfPanel,
    Scene,
    fan_directions,
    mirror_panel,
    tx_ray_fan,
)
from .steering import (
    Biased,
    Schedule,
    Static,
    SteeringMode,
    Unbiased,
    build_schedule,
    materialize_normals,
    optimal_normal,
)
from .tracer import (
    Captured,
    Escaped,
    RayFate,
    Spreading,
    Terminated,
    TraceOutcome,
    TracerConfig,
    analytic_received_power,
    received_power,
    trace_ray,
)

__version__ = "0.1.0"
