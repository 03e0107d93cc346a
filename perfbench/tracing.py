"""Traced run: spans around calls into each pwesim layer.

Spans are recorded from outside the program. The benchmark wraps the
public functions it calls itself (parse_config, run_sweep, csv_text,
fan_directions, trace_ray) and, for the duration of the traced sweep,
swaps wrapped versions into the names run_sweep looks up
(ExperimentConfig.scene, build_schedule, materialize_normals,
received_power). Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import random
import statistics
import time

import pwesim.experiment as experiment
from pwesim import (ExperimentConfig, Ray, Vec2, csv_text, fan_directions,
                    parse_config, run_sweep, trace_ray)

import harness

SEGMENT_SAMPLE = 500  # fan rays traced one by one to count segments
FAN_CALLS = 5


class Tracer:
    """In-memory spans: id, name, start, end, parent, and the root span
    (the request) they belong to; times from time.perf_counter."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """fn(*args, **kwargs) inside a span; `count(result)` is recorded as
        the span's work count when given."""
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "root": len(self.spans) if parent is None
                else self.spans[parent]["root"],
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            out = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span["count"] = count(out)
        return out

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)
        return traced

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.named(name)]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover. Spans
    come from one thread, so children never overlap."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Swap traced wrappers into the names run_sweep calls, then restore."""
    patches = [
        (ExperimentConfig, "scene", "scene.ExperimentConfig.scene", None),
        (experiment, "build_schedule", "steering.build_schedule", None),
        (experiment, "materialize_normals", "steering.materialize_normals",
         lambda panel: panel.subunit_count),
        (experiment, "received_power", "tracer.received_power", None),
    ]
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _, _ in patches]
    try:
        for owner, attr, name, count in patches:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def segments_per_ray(tracer: Tracer, wl: harness.Workload, seed: int, cfg,
                     scene, curves) -> float:
    """Mean polyline segments of a seeded sample of fan rays over the sweep's
    curves and dislocations: the kernel steps a traced ray takes."""
    rng = random.Random(f"{wl.name}:{seed}:segments")
    tracer_cfg = cfg.tracer_config()
    dirs = fan_directions(scene.tx.boresight, scene.tx.beam_halfwidth,
                          cfg.n_rays)
    grid = cfg.sweep_points()
    tx = scene.tx.position
    total = 0
    for _ in range(SEGMENT_SAMPLE):
        _, _, panel = curves[rng.randrange(len(curves))]
        d = grid[rng.randrange(len(grid))]
        dx, dy = dirs[rng.randrange(cfg.n_rays)]
        ray = Ray(Vec2(tx.x + d, tx.y), Vec2(float(dx), float(dy)))
        fate = tracer.call("tracer.trace_ray", trace_ray, scene, panel, ray,
                           tracer_cfg)
        total += len(fate.path) - 1
    return total / SEGMENT_SAMPLE


def write_spans(tracer: Tracer, wl: harness.Workload, seed: int) -> str:
    os.makedirs(os.path.join(harness.OUT_DIR, "spans"), exist_ok=True)
    path = os.path.join(harness.OUT_DIR, "spans", f"{wl.name}-seed{seed}.json")
    spans = [dict(s, self=t) for s, t in zip(tracer.spans,
                                             self_times(tracer.spans))]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return path


def span_summary(tracer: Tracer) -> list[str]:
    selfs = self_times(tracer.spans)
    names = dict.fromkeys(s["name"] for s in tracer.spans)
    lines = ["span                              calls     total_s      self_s"]
    for name in names:
        idx = [s["id"] for s in tracer.named(name)]
        lines.append(f"{name:<32} {len(idx):>6} {tracer.total(name):>11.4f}"
                     f" {sum(selfs[i] for i in idx):>11.4f}")
    return lines


def traced_run(wl: harness.Workload, seed: int, reference) -> dict:
    """Per-layer numbers for one workload.

    The sweep runs three times in process: untraced and serial, untraced at
    the workload's worker count (when that is not 1), and traced and serial
    (worker processes cannot report spans). The traced total minus the
    untraced serial total is the tracing overhead.
    """
    text = harness.config_text(wl, seed)
    workers = min(wl.workers, harness.nproc())
    cli = harness.run_sweep_cli(text, workers)

    serial, sweep_wall, untraced_serial = _untraced(text, 1)
    parallel, untraced_cli_work = serial, untraced_serial
    if workers > 1:
        parallel, sweep_wall, untraced_cli_work = _untraced(text, workers)

    tracer = Tracer()
    with instrument(tracer):
        t0 = time.perf_counter()
        cfg = tracer.call("experiment.parse_config", parse_config, text)
        traced = tracer.call("experiment.run_sweep", run_sweep, cfg, workers=1)
        tracer.call("experiment.csv_text", csv_text, traced)
        traced_total = time.perf_counter() - t0
    sweep_spans = len(tracer.spans)

    cfg, scene, curves = harness.setup(text)
    for _ in range(FAN_CALLS):
        tracer.call("scene.fan_directions", fan_directions,
                    scene.tx.boresight, scene.tx.beam_halfwidth, cfg.n_rays)
    fan_s = statistics.median(tracer.durations("scene.fan_directions"))
    segments = segments_per_ray(tracer, wl, seed, cfg, scene, curves)
    spans_path = write_spans(tracer, wl, seed)

    keys = harness.point_keys(cfg, curves)
    emitted = harness.emitted_w(cfg, scene)
    grid = cfg.sweep_points()
    values, failed = {}, set()
    for i, (key, row) in enumerate(zip(keys, serial.rows)):
        if (row.scheme, row.bias_p, row.d_x) == (key[0], key[1], grid[key[2]]):
            values[key] = (row.captured_w, row.escaped_w, row.terminated_w)
        else:
            failed.add(i)
    failed |= harness.check_sweep(cfg, keys, emitted, cli.csv, values,
                                  reference)
    # Tracing must not change a result, nor must the worker count.
    failed |= {i for i, (a, b, c) in enumerate(
        zip(serial.rows, traced.rows, parallel.rows)) if not a == b == c}
    if not len(serial.rows) == len(traced.rows) == len(parallel.rows) \
            == len(keys):
        failed |= set(range(len(keys)))

    n_calls = len(tracer.named("tracer.received_power"))
    busy = tracer.total("tracer.received_power")
    emitted_all = len(traced.rows) * traced.emitted_w
    metrics = {
        "steering.build_schedule_s": (
            tracer.total("steering.build_schedule"), "s", ""),
        "steering.materialize_normals_s": (
            tracer.total("steering.materialize_normals"), "s", ""),
        "steering.subunits_built": (
            sum(s["count"] for s in
                tracer.named("steering.materialize_normals")), "count", ""),
        "scene.scene_ms": (
            1e3 * tracer.total("scene.ExperimentConfig.scene"), "ms", ""),
        "scene.fan_directions_ms": (
            1e3 * fan_s, "ms", f"median of {FAN_CALLS} calls,"
                               f" {cfg.n_rays} rays"),
        "tracer.received_power_s": (busy, "s", f"{n_calls} calls"),
        "tracer.segments_per_ray": (
            segments, "count", f"{SEGMENT_SAMPLE} sampled fan rays"),
        "tracer.ns_per_segment": (
            1e9 * busy / (n_calls * cfg.n_rays * segments), "ns", ""),
        "tracer.captured_frac": (
            sum(r.captured_w for r in traced.rows) / emitted_all, "ratio", ""),
        "tracer.escaped_frac": (
            sum(r.escaped_w for r in traced.rows) / emitted_all, "ratio", ""),
        "tracer.terminated_frac": (
            sum(r.terminated_w for r in traced.rows) / emitted_all, "ratio",
            ""),
        "experiment.parse_config_ms": (
            1e3 * tracer.total("experiment.parse_config"), "ms", ""),
        "experiment.csv_text_ms": (
            1e3 * tracer.total("experiment.csv_text"), "ms", ""),
        "experiment.worker_busy_frac": (
            busy / (harness.nproc() * sweep_wall), "ratio",
            f"run_sweep with {workers} worker(s) on {harness.nproc()} cores"),
        "cli.overhead_s": (cli.wall_s - untraced_cli_work, "s", ""),
        "tracing_overhead_s": (traced_total - untraced_serial, "s", ""),
        "tracing_overhead_est_s": (
            sweep_spans * span_cost_s(), "s",
            f"{sweep_spans} spans x the cost of one around a no-op"),
    }
    notes = [f"spans written to {os.path.relpath(spans_path, harness.ROOT)}",
             *span_summary(tracer)]
    return harness.result(wl, seed, workers, keys, failed, [cli], metrics,
                          notes)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds a traced wrapper adds to one call, measured on a no-op."""
    def noop() -> None:
        pass

    traced = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    t1 = time.perf_counter()
    for _ in range(calls):
        noop()
    return (t1 - t0 - (time.perf_counter() - t1)) / calls


def _untraced(text: str, workers: int):
    """(SweepResult, run_sweep seconds, parse + sweep + CSV seconds)."""
    t0 = time.perf_counter()
    cfg = parse_config(text)
    t1 = time.perf_counter()
    result = run_sweep(cfg, workers=workers)
    t2 = time.perf_counter()
    csv_text(result)
    return result, t2 - t1, time.perf_counter() - t0
