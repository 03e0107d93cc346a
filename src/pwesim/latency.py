"""Control-loop latency budget and the user dislocation it causes.

One adaptation cycle: sense the user, report to the controller, compute the
new configuration, push it to the ceiling, and let the hardware settle.
While all that happens the user keeps walking; dislocation is how far they
get before the new configuration is live.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LatencyBudget:
    """Per-stage delays of one adaptation cycle, in seconds."""

    sensing: float = 0.0          # user localisation
    report_network: float = 0.0   # sensor readings to the controller
    queueing: float = 0.0         # controller ingress queue
    processing: float = 0.0       # configuration computation
    config_network: float = 0.0   # configuration to the ceiling
    actuation: float = 0.0        # metasurface element settling

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if not value >= 0.0:  # NaN fails too
                raise ValueError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class MobilityModel:
    """Constant-velocity motion along +x."""

    speed: float  # meters per second

    def __post_init__(self) -> None:
        if not self.speed >= 0.0:
            raise ValueError(f"speed must be >= 0, got {self.speed!r}")


def total_latency(budget: LatencyBudget) -> float:
    """Sum of all six stages, seconds."""
    return (budget.sensing + budget.report_network + budget.queueing
            + budget.processing + budget.config_network + budget.actuation)


def dislocation(mobility: MobilityModel, latency: float) -> float:
    """Distance walked during `latency` seconds, meters."""
    if not latency >= 0.0:
        raise ValueError(f"latency must be >= 0, got {latency!r}")
    return mobility.speed * latency
