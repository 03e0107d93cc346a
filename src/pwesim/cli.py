"""Command line front end.

Subcommands: `sweep` runs the configured dislocation sweep and writes the
results CSV; `trace` dumps individual ray polylines for one scheme at one
dislocation; `schedule` dumps per-subunit position assignments and
normals; `delay` prints the latency total and the dislocation it implies.

Exit status: 0 on success, 2 on argument or config errors, 1 on runtime
failures such as unwritable output paths.
"""

from __future__ import annotations

import argparse
import math
import sys

from .experiment import (ConfigError, ExperimentConfig, _curve_panel, _fmt,
                         _scheme_schedules, dbm_to_watts, emit_csv,
                         load_config, run_sweep)
from .latency import dislocation, total_latency
from .scene import tx_ray_fan
from .steering import materialize_normals
from .tracer import Captured, trace_ray


def _fmt_trim(x: float) -> str:
    """`_fmt` with trailing zeros removed, for prose output."""
    text = _fmt(x)
    return text.rstrip("0").rstrip(".") if "." in text else text


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is None:
        return ExperimentConfig()
    return load_config(args.config)


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    out_path = args.out if args.out else cfg.output_csv
    result = run_sweep(cfg, workers=args.workers)
    emit_csv(result, out_path)
    print(f"wrote {out_path}: {len(result.rows)} rows,"
          f" emitted {_fmt_trim(result.emitted_w)} W per point")
    return 0


def _select_curve(cfg: ExperimentConfig, scene, scheme: str, bias_p):
    """The panel of one curve; only that curve's normals are built."""
    if scheme == "biased" and bias_p is not None:
        want = ("biased", bias_p)
    else:
        want = (scheme, None if scheme != "biased" else cfg.bias_p[0])
    for label, p, schedule in _scheme_schedules(cfg, scene):
        if (label, p) == want:
            return _curve_panel(schedule, scene)
    raise ConfigError(
        f"steering.modes: scheme {scheme!r}"
        + (f" with p={bias_p}" if bias_p is not None else "")
        + " is not part of this config")


def _cmd_trace(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    scene = cfg.scene()
    panel = _select_curve(cfg, scene, args.scheme, args.bias_p)
    try:
        scene.tx_origin(args.dx)
    except ValueError as exc:
        print(f"error: --dx: {exc}", file=sys.stderr)
        return 2
    tracer_cfg = cfg.tracer_config()
    rays = tx_ray_fan(scene, args.dx, args.rays,
                      dbm_to_watts(cfg.tx_power_dbm))
    fates = [trace_ray(scene, panel, ray, tracer_cfg) for ray in rays]
    lines = ["ray,fate,delivered_w,vertex,x_m,y_m"]
    for i, fate in enumerate(fates):
        kind = type(fate).__name__.lower()
        delivered = _fmt(fate.power) if isinstance(fate, Captured) else ""
        for v, pt in enumerate(fate.path):
            lines.append(f"{i},{kind},{delivered},{v},{_fmt(pt.x)},{_fmt(pt.y)}")
    with open(args.paths, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    captured = math.fsum(f.power for f in fates if isinstance(f, Captured))
    print(f"wrote {args.paths}: {len(fates)} rays at"
          f" d_x = {_fmt_trim(args.dx)} m, captured {_fmt_trim(captured)} W")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    scene = cfg.scene()
    lines = ["scheme,bias_p,i,j,normal_x,normal_y"]
    for label, p, schedule in _scheme_schedules(cfg, scene):
        if schedule is None:
            continue
        bias = _fmt(p) if p is not None else ""
        normals = materialize_normals(schedule, scene).normals_array()
        for i, j in enumerate(schedule.assignment):
            lines.append(",".join((label, bias, str(i), str(j),
                                   _fmt(float(normals[i, 0])),
                                   _fmt(float(normals[i, 1])))))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.out}: {len(lines) - 1} rows")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_delay(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    tau = total_latency(cfg.latency_budget())
    d_x = dislocation(cfg.mobility(), tau)
    print(f"tau_tot = {_fmt_trim(tau)} s")
    print(f"d_x = {_fmt_trim(d_x)} m")
    return 0


def _int_at_least(low: int):
    """argparse type: an int >= low, so a bad count is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwesim",
        description="Corridor beam-steering sweeps, traces, and schedules.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the dislocation sweep")
    p_sweep.add_argument("config", nargs="?", default=None,
                         help="config file; defaults apply when omitted")
    p_sweep.add_argument("--out", default=None,
                         help="CSV path (default: output.csv key)")
    p_sweep.add_argument("--workers", type=_int_at_least(1), default=1,
                         help="parallel worker processes (default 1)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_trace = sub.add_parser("trace", help="dump ray polylines")
    p_trace.add_argument("config", nargs="?", default=None)
    p_trace.add_argument("--dx", type=float, default=0.0,
                         help="user dislocation in meters (default 0)")
    p_trace.add_argument("--paths", required=True,
                         help="output CSV for the ray polylines")
    p_trace.add_argument("--scheme", default="static",
                         choices=("static", "unbiased", "biased", "baseline"))
    p_trace.add_argument("--bias-p", type=float, default=None,
                         help="which biased p to trace (default: first)")
    p_trace.add_argument("--rays", type=_int_at_least(2), default=101,
                         help="fan size for the dump (default 101)")
    p_trace.set_defaults(func=_cmd_trace)

    p_sched = sub.add_parser("schedule",
                             help="dump per-subunit assignments and normals")
    p_sched.add_argument("config", nargs="?", default=None)
    p_sched.add_argument("--out", default=None,
                         help="output CSV (default: stdout)")
    p_sched.set_defaults(func=_cmd_schedule)

    p_delay = sub.add_parser("delay",
                             help="print latency total and dislocation")
    p_delay.add_argument("config", nargs="?", default=None)
    p_delay.set_defaults(func=_cmd_delay)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
