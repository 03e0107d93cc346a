"""Config-driven dislocation sweeps and their CSV serialization.

A config file is a flat list of `section.key = value` lines with `#`
comments. Every key has a default matching the reference corridor, so an
empty config runs the full default experiment: static, unbiased, and
biased steering plus the all-mirror baseline, swept over dislocations
0 to 0.5 m in 1 cm steps.

Sweep output is deterministic down to the byte: rows are assembled
single-threaded in a fixed sort order and floats are printed through one
fixed-precision formatter, so any worker count yields the same file.
"""

from __future__ import annotations

import concurrent.futures
import math
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal

from .geometry import Circle, Vec2
from .latency import LatencyBudget, MobilityModel
from .scene import Antenna, HsfPanel, Scene, _ceil_count, mirror_panel
from .steering import Biased, Schedule, Static, SteeringMode, Unbiased, \
    build_schedule, materialize_normals
from .tracer import Spreading, TracerConfig, received_power


class ConfigError(ValueError):
    """Invalid config text: unknown key, bad type, or broken invariant."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class ExperimentConfig:
    ceiling_height: float = 3.0
    corridor_length: float = 5.0
    tx_offset: float = 1.0
    user_height: float = 1.0
    rx_x: float = 3.6
    rx_y_rel: float = 1.4
    subunit_length: float = 0.001
    tx_step: float = 0.002
    # Capture radius of the receive aperture. Not a corridor dimension; it
    # sets the effective spot size the tracer counts as "received". 0.08
    # keeps the uncontrolled mirror-ceiling baseline above a 10% capture
    # fraction, the floor the steered schemes are judged against; smaller
    # radii starve it.
    aperture: float = 0.08
    tx_beam_deg: float = 30.0
    rx_beam_deg: float = 60.0
    # Tilted counter-clockwise from straight up so the receiver faces the
    # ceiling patch that the steering schemes illuminate.
    rx_tilt_ccw_deg: float = 77.0
    tx_power_dbm: float = 20.0
    latency_sensing: float = 0.0
    latency_report_network: float = 0.0
    latency_queueing: float = 0.0
    latency_processing: float = 0.0
    latency_config_network: float = 0.0
    latency_actuation: float = 0.0
    mobility_speed: float = 1.4
    modes: tuple[str, ...] = ("static", "unbiased", "biased", "baseline")
    bias_p: tuple[float, ...] = (0.1, 0.3, 0.5)
    j_c: int = 0
    n_rays: int = TracerConfig.n_rays
    max_bounces: int = TracerConfig.max_bounces
    spreading: str = TracerConfig.spreading.value
    rx_cone: bool = TracerConfig.rx_cone_gate
    sweep_start: float = 0.0
    sweep_stop: float = 0.5
    sweep_step: float = 0.01
    output_csv: str = "sweep.csv"

    def scene(self) -> Scene:
        deg = math.pi / 180.0
        x_min = -self.tx_offset
        x_max = self.corridor_length - self.tx_offset
        tilt = self.rx_tilt_ccw_deg * deg
        tx = Antenna(position=Vec2(0.0, self.user_height),
                     boresight=Vec2(0.0, 1.0),
                     beam_halfwidth=self.tx_beam_deg / 2.0 * deg)
        rx = Antenna(position=Vec2(self.rx_x, self.user_height + self.rx_y_rel),
                     boresight=Vec2(-math.sin(tilt), math.cos(tilt)),
                     beam_halfwidth=self.rx_beam_deg / 2.0 * deg)
        return Scene(floor_y=0.0, corridor_x_min=x_min, corridor_x_max=x_max,
                     tx=tx, rx=rx,
                     rx_aperture=Circle(rx.position, self.aperture),
                     ceiling_height=self.ceiling_height,
                     subunit_length=self.subunit_length)

    def tracer_config(self) -> TracerConfig:
        return TracerConfig(n_rays=self.n_rays, max_bounces=self.max_bounces,
                            spreading=Spreading(self.spreading),
                            rx_cone_gate=self.rx_cone)

    def latency_budget(self) -> LatencyBudget:
        return LatencyBudget(sensing=self.latency_sensing,
                             report_network=self.latency_report_network,
                             queueing=self.latency_queueing,
                             processing=self.latency_processing,
                             config_network=self.latency_config_network,
                             actuation=self.latency_actuation)

    def mobility(self) -> MobilityModel:
        return MobilityModel(speed=self.mobility_speed)

    def sweep_points(self) -> tuple[float, ...]:
        span = self.sweep_stop - self.sweep_start
        count = int(math.floor(span / self.sweep_step + 1e-9)) + 1
        return tuple(self.sweep_start + k * self.sweep_step
                     for k in range(count))


# config key -> (dataclass field, type tag)
_KEYS: dict[str, tuple[str, str]] = {
    "scene.H": ("ceiling_height", "float"),
    "scene.L": ("corridor_length", "float"),
    "scene.offset": ("tx_offset", "float"),
    "scene.h": ("user_height", "float"),
    "scene.rx_x": ("rx_x", "float"),
    "scene.rx_y_rel": ("rx_y_rel", "float"),
    "scene.delta_hsf": ("subunit_length", "float"),
    "scene.delta_tx": ("tx_step", "float"),
    "scene.aperture": ("aperture", "float"),
    "antenna.tx_beam_deg": ("tx_beam_deg", "float"),
    "antenna.rx_beam_deg": ("rx_beam_deg", "float"),
    "antenna.rx_tilt_ccw_deg": ("rx_tilt_ccw_deg", "float"),
    "tx.power_dbm": ("tx_power_dbm", "float"),
    "latency.sensing": ("latency_sensing", "float"),
    "latency.report_network": ("latency_report_network", "float"),
    "latency.queueing": ("latency_queueing", "float"),
    "latency.processing": ("latency_processing", "float"),
    "latency.config_network": ("latency_config_network", "float"),
    "latency.actuation": ("latency_actuation", "float"),
    "mobility.speed": ("mobility_speed", "float"),
    "steering.modes": ("modes", "str_list"),
    "steering.bias_p": ("bias_p", "float_list"),
    "steering.j_c": ("j_c", "int"),
    "tracer.n_rays": ("n_rays", "int"),
    "tracer.max_bounces": ("max_bounces", "int"),
    "tracer.spreading": ("spreading", "str"),
    "tracer.rx_cone": ("rx_cone", "bool"),
    "sweep.start": ("sweep_start", "float"),
    "sweep.stop": ("sweep_stop", "float"),
    "sweep.step": ("sweep_step", "float"),
    "output.csv": ("output_csv", "str"),
}

_MODES = ("static", "unbiased", "biased", "baseline")


def _parse_value(key: str, kind: str, text: str):
    try:
        if kind == "float":
            floats = (float(text),)
        elif kind == "float_list":
            floats = tuple(float(part) for part in text.split(",")
                           if part.strip())
        elif kind == "int":
            return int(text)
        elif kind == "bool":
            low = text.lower()
            if low in ("true", "false"):
                return low == "true"
            raise ValueError(text)
        elif kind == "str":
            return text
        elif kind == "str_list":
            return tuple(part.strip() for part in text.split(",")
                         if part.strip())
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {text!r} as {kind}") from None
    if not all(map(math.isfinite, floats)):
        raise ConfigError(f"{key}: {text!r} is not a finite number")
    return floats[0] if kind == "float" else floats


def _validate(cfg: ExperimentConfig) -> None:
    def err(key: str, msg: str) -> None:
        raise ConfigError(f"{key}: {msg}")

    if cfg.ceiling_height <= 0:
        err("scene.H", "must be > 0")
    if cfg.corridor_length <= 0:
        err("scene.L", "must be > 0")
    if not 0 < cfg.user_height < cfg.ceiling_height:
        err("scene.h", "must lie strictly between the floor and scene.H")
    x_max = cfg.corridor_length - cfg.tx_offset
    if cfg.tx_offset <= 0 or x_max <= 0:
        err("scene.offset", "must keep x = 0 strictly inside the corridor")
    if not -cfg.tx_offset < cfg.rx_x < x_max:
        err("scene.rx_x", "must lie strictly inside the corridor, between"
            " -scene.offset and scene.L - scene.offset")
    if cfg.subunit_length <= 0:
        err("scene.delta_hsf", "must be > 0")
    if cfg.tx_step <= 0:
        err("scene.delta_tx", "must be > 0")
    if cfg.aperture <= 0:
        err("scene.aperture", "must be > 0")
    rx_y = cfg.user_height + cfg.rx_y_rel
    if not (rx_y - cfg.aperture > 0.0
            and rx_y + cfg.aperture < cfg.ceiling_height):
        err("scene.aperture", "the receive disc at scene.rx_y_rel must lie"
            " strictly between the floor and the ceiling")
    if not 0 < cfg.tx_beam_deg < 180:
        err("antenna.tx_beam_deg", "must be in (0, 180)")
    if not 0 < cfg.rx_beam_deg <= 360:
        err("antenna.rx_beam_deg", "must be in (0, 360]")
    for key, field in _KEYS.items():
        if key.startswith("latency.") and getattr(cfg, field[0]) < 0:
            err(key, "must be >= 0")
    if cfg.mobility_speed < 0:
        err("mobility.speed", "must be >= 0")
    if not cfg.modes:
        err("steering.modes", "at least one steering mode is required")
    for mode in cfg.modes:
        if mode not in _MODES:
            err("steering.modes",
                f"unknown mode {mode!r}; choose from {', '.join(_MODES)}")
    if len(set(cfg.modes)) != len(cfg.modes):
        err("steering.modes", "modes must not repeat")
    if "biased" in cfg.modes and not cfg.bias_p:
        err("steering.bias_p", "biased mode requires at least one p value")
    for p in cfg.bias_p:
        if not 0 < p < 1:
            err("steering.bias_p", f"p must be in (0, 1), got {p}")
    if len(set(cfg.bias_p)) != len(cfg.bias_p):
        err("steering.bias_p", "p values must not repeat")
    if cfg.j_c < 0:
        err("steering.j_c", "must be >= 0")
    if cfg.n_rays < 2:
        err("tracer.n_rays", "must be >= 2")
    if cfg.max_bounces < 1:
        err("tracer.max_bounces", "must be >= 1")
    if cfg.spreading not in ("geometric", "inverse_square"):
        err("tracer.spreading", "must be geometric or inverse_square")
    if cfg.sweep_step <= 0:
        err("sweep.step", "must be > 0")
    if cfg.sweep_stop < cfg.sweep_start:
        err("sweep.stop", "must be >= sweep.start")
    if cfg.sweep_start < 0:
        err("sweep.start", "must be >= 0")
    if cfg.sweep_stop >= x_max:
        err("sweep.stop", "must keep the transmitter inside the corridor,"
            " below scene.L - scene.offset")
    # nearest swept transmitter position to the aperture center, and the
    # undisplaced one, which the scene checks too
    near_x = min(max(cfg.rx_x, cfg.sweep_start), cfg.sweep_stop)
    if min(math.hypot(cfg.rx_x - x, cfg.rx_y_rel)
           for x in (0.0, near_x)) <= cfg.aperture:
        err("scene.aperture", "the receive aperture must not contain the"
            " transmitter at dislocation 0 or at any sweep dislocation")
    if not cfg.output_csv:
        err("output.csv", "must not be empty")


def parse_config(text: str) -> ExperimentConfig:
    """Parse `section.key = value` lines into a validated config."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value',"
                              f" got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r} (line {lineno})")
        field, kind = _KEYS[key]
        values[field] = _parse_value(key, kind, value.strip())
    cfg = ExperimentConfig(**values)
    _validate(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    bias_p: float | None
    d_x: float
    efficiency: float
    captured_w: float
    escaped_w: float
    terminated_w: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    emitted_w: float


def _scheme_schedules(cfg: ExperimentConfig, scene: Scene
                      ) -> Iterator[tuple[str, float | None, Schedule | None]]:
    """(label, bias_p, schedule) per sweep curve, in order, built lazily.

    The baseline curve is the unsteered mirror ceiling and has no schedule.
    """
    i_max = scene.subunit_count - 1
    stop = cfg.sweep_stop
    j_max = 0 if stop == 0 else _ceil_count(stop, cfg.tx_step)

    def schedule(mode: SteeringMode) -> Schedule:
        return build_schedule(mode, i_max, j_max, cfg.tx_step)

    for mode in cfg.modes:
        if mode == "static":
            yield "static", None, schedule(Static())
        elif mode == "unbiased":
            yield "unbiased", None, schedule(Unbiased())
        elif mode == "biased":
            if cfg.j_c > j_max:
                raise ConfigError(
                    f"steering.j_c: {cfg.j_c} exceeds the largest position"
                    f" index {j_max} for this sweep")
            for p in cfg.bias_p:
                yield "biased", p, schedule(Biased(p, cfg.j_c))
        elif mode == "baseline":
            yield "baseline", None, None


def _curve_panel(schedule: Schedule | None, scene: Scene) -> HsfPanel:
    """The panel of one curve: its schedule's normals, or the mirror
    ceiling for the baseline, which has no schedule."""
    return (mirror_panel(scene) if schedule is None
            else materialize_normals(schedule, scene))


def _scheme_curves(cfg: ExperimentConfig, scene: Scene
                   ) -> list[tuple[str, float | None, HsfPanel]]:
    """Ordered (label, bias_p, panel) triples, one per sweep curve."""
    return [(label, p, _curve_panel(schedule, scene))
            for label, p, schedule in _scheme_schedules(cfg, scene)]


def _trace_point(args):
    scene, panel, d, tracer_cfg, power = args
    out = received_power(scene, panel, d, tracer_cfg, power)
    return out.captured_power, out.escaped_power, out.terminated_power


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Efficiency of every configured scheme at every sweep dislocation.

    Each (scheme, dislocation) point is one task computing the same
    function on the same inputs, so results do not depend on the worker
    count; rows are assembled and sorted single-threaded afterwards.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    scene = cfg.scene()
    tracer_cfg = cfg.tracer_config()
    power = dbm_to_watts(cfg.tx_power_dbm)
    emitted = power * scene.tx.gain
    curves = _scheme_curves(cfg, scene)
    points = cfg.sweep_points()

    tasks = [(scene, panel, d, tracer_cfg, power)
             for _, _, panel in curves for d in points]
    if workers == 1:
        results = [_trace_point(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            results = list(pool.map(_trace_point, tasks, chunksize=4))

    rows = []
    k = 0
    for label, p, _ in curves:
        for d in points:
            captured, escaped, terminated = results[k]
            k += 1
            rows.append(SweepRow(scheme=label, bias_p=p, d_x=d,
                                 efficiency=captured / emitted,
                                 captured_w=captured, escaped_w=escaped,
                                 terminated_w=terminated))
    rows.sort(key=lambda r: (r.scheme, r.bias_p if r.bias_p is not None
                             else -1.0, r.d_x))
    return SweepResult(rows=tuple(rows), emitted_w=emitted)


def _fmt(x: float) -> str:
    """9 significant digits, plain decimal, fixed trailing zeros.

    Python's own `e` formatting does the rounding, so the text does not
    depend on the numpy build: 0.03 -> 0.0300000000, 0.1 and
    0.09999999999999999 -> 0.100000000.
    """
    return format(Decimal(f"{x:.8e}"), "f")


CSV_HEADER = "scheme,bias_p,d_x_m,efficiency,captured_w,escaped_w,terminated_w"


def csv_text(result: SweepResult) -> str:
    lines = [CSV_HEADER]
    for r in result.rows:
        bias = _fmt(r.bias_p) if r.bias_p is not None else ""
        lines.append(",".join((r.scheme, bias, _fmt(r.d_x),
                               _fmt(r.efficiency), _fmt(r.captured_w),
                               _fmt(r.escaped_w), _fmt(r.terminated_w))))
    return "\n".join(lines) + "\n"


def emit_csv(result: SweepResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text(result))
