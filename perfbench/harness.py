"""Workloads, end-to-end measurement and correctness gate of the benchmark.

Import through `run.prepare()`, which puts the checkout's `src` first on
sys.path and pins BLAS / OpenMP to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

import pwesim
import pwesim.experiment as experiment
from pwesim import (ExperimentConfig, HsfPanel, Scene, dbm_to_watts,
                    parse_config, received_power)
from pwesim.scene import _ceil_count

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Temporary files, CLI output and span dumps; listed in the root .gitignore.
OUT_DIR = os.path.join(ROOT, ".perfbench")

CLI_TIMEOUT_S = 150.0
# One poll lists /proc (about 1.6 ms on the baseline machine), so polling
# every 0.2 s takes under 1% of one core from the timed sweep.
RSS_POLL_S = 0.2
# The power ledger closes to this share of the emitted power in memory.
LEDGER_RTOL = 1e-12
# The CSV prints 9 significant digits: rounding moves a value by at most
# 5e-9 of itself, so two values read back from it agree to 1e-8.
CSV_RTOL = 2e-8


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # config text at seed 0; other seeds shift the grid
    workers: int  # requested; never more than the cores available
    cli_runs: int  # CLI sweeps per run; wall_s is their mean
    setups: int  # set-ups per run; setup_s is their median
    point_stride: int  # time every k-th dislocation of each curve
    reference: str  # perfbench/reference/<name>.json holds seed-0 rows
    draw_j_c: bool = False


WORKLOADS = {w.name: w for w in (
    # The paper's experiment with one worker: ~98% of it is received_power.
    Workload("sweep_serial", "", workers=1, cli_runs=1, setups=12,
             point_stride=3, reference="default"),
    # The same sweep through run_sweep's process-pool dispatch. Sampling
    # fewer points would put the tail at the edge of the slow points
    # (the baseline curve, a sixth of them) and make it jump.
    Workload("sweep_parallel", "", workers=2, cli_runs=2, setups=12,
             point_stride=3, reference="default"),
    # Setup-bound: 25000 subunits x 11 steered panels, a 2001-ray fan.
    Workload("panels_fine",
             "scene.delta_hsf = 0.0002\n"
             "steering.bias_p = 0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9\n"
             "tracer.n_rays = 2001\n"
             "sweep.step = 0.05\n",
             workers=1, cli_runs=6, setups=3, point_stride=1,
             reference="panels_fine", draw_j_c=True),
)}

# A run is cut into at least this many slots, so that its set-ups and point
# timings are spread over the whole run.
MIN_SLOTS = 8


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def config_text(wl: Workload, seed: int) -> str:
    """The config the program sees. Seed 0 is the stock grid; any other seed
    shifts the dislocation grid by a seeded fraction of sweep.step and, on
    workloads that ask for it, draws steering.j_c."""
    if seed == 0:
        return wl.config
    rng = random.Random(seed)
    stock = parse_config(wl.config)
    shift = stock.sweep_step * rng.randrange(1, 100) / 100
    lines = [wl.config.rstrip("\n"),
             f"sweep.start = {stock.sweep_start + shift!r}",
             f"sweep.stop = {stock.sweep_stop + shift!r}"]
    text = "\n".join(line for line in lines if line) + "\n"
    if wl.draw_j_c:
        cfg = parse_config(text)
        j_max = _ceil_count(cfg.sweep_stop, cfg.tx_step)  # as run_sweep
        text += f"steering.j_c = {rng.randrange(j_max + 1)}\n"
    if len(parse_config(text).sweep_points()) != len(stock.sweep_points()):
        raise RuntimeError(f"seed {seed} changed the number of sweep points")
    return text


Curve = tuple[str, float | None, HsfPanel]  # scheme, bias_p, panel


def setup(text: str) -> tuple[ExperimentConfig, Scene, list[Curve]]:
    """Config text to the scene and every steered panel, in run_sweep's
    curve order, through the program's own panel loop."""
    cfg = parse_config(text)
    scene = cfg.scene()
    return cfg, scene, experiment._scheme_curves(cfg, scene)


Key = tuple[str, float | None, int]  # scheme, bias_p, grid index


def point_keys(cfg: ExperimentConfig, curves: list[Curve]) -> list[Key]:
    """Every (curve, dislocation) point, in the CSV's row order."""
    n = len(cfg.sweep_points())
    keys = [(scheme, p, k) for scheme, p, _ in curves for k in range(n)]
    keys.sort(key=lambda key: (key[0], -1.0 if key[1] is None else key[1],
                               key[2]))
    return keys


def emitted_w(cfg: ExperimentConfig, scene: Scene) -> float:
    return dbm_to_watts(cfg.tx_power_dbm) * scene.tx.gain


# ---------------------------------------------------------------- checks


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-15


def parse_csv(text: str) -> list[tuple]:
    rows = []
    for line in text.splitlines()[1:]:
        scheme, bias, *nums = line.split(",")
        rows.append((scheme, float(bias) if bias else None,
                     *(float(x) for x in nums)))
    return rows


def reference_rows(result) -> list[list]:
    """Rows of a SweepResult at full precision, as stored in reference files."""
    return [[r.scheme, r.bias_p, r.d_x, r.efficiency, r.captured_w,
             r.escaped_w, r.terminated_w] for r in result.rows]


def load_reference(wl: Workload) -> list[list]:
    with open(os.path.join(HERE, "reference", wl.reference + ".json"),
              encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["config"] != wl.config:
        raise RuntimeError(f"reference {wl.reference} was recorded for another"
                           " config; run perfbench/record_reference.py")
    return ref["rows"]


def check_sweep(cfg: ExperimentConfig, keys: list[Key], emitted: float,
                csv: str | None, values: dict,
                reference: list[list] | None) -> set[int]:
    """Indices of points that fail a check; every failure is kept.

    Each CSV row must name its point, close the power ledger at CSV
    precision and agree with `values` (full-precision in-process results,
    whose ledger must close to LEDGER_RTOL) and, for seed 0, with the
    recorded reference rows, all compared as numbers. The ledger closes
    under geometric spreading, which every workload uses; inverse-square
    spreading scales captured power after it leaves the ledger.
    """
    grid = cfg.sweep_points()
    rows = parse_csv(csv) if csv is not None else []
    failed = set()
    for i, key in enumerate(keys):
        scheme, p, k = key
        ok = i < len(rows)
        if ok:
            r_scheme, r_p, d, eff, cap, esc, term = rows[i]
            ok = (r_scheme == scheme and (r_p is None) == (p is None)
                  and (p is None or _close(r_p, p, CSV_RTOL))
                  and _close(d, grid[k], CSV_RTOL)
                  and _close(cap + esc + term, emitted, CSV_RTOL)
                  and _close(eff, cap / emitted, CSV_RTOL))
        got = values.get(key)
        if ok and got is not None:
            ok = (abs(sum(got) - emitted) <= LEDGER_RTOL * emitted
                  and all(_close(a, b, CSV_RTOL)
                          for a, b in zip((cap, esc, term), got)))
        if ok and reference is not None:
            ref = reference[i] if i < len(reference) else None
            ok = (ref is not None and ref[0] == scheme
                  and (ref[1] is None) == (r_p is None)
                  and all(_close(a, b, CSV_RTOL)
                          for a, b in zip(rows[i][2:], ref[2:]))
                  and (r_p is None or _close(r_p, ref[1], CSV_RTOL)))
        if not ok:
            failed.add(i)
    return failed


# --------------------------------------------------------- the CLI child


def child_env() -> dict:
    """The working tree's sources, with the thread pins set in run.py."""
    return dict(os.environ, PYTHONPATH=SRC)


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            kids.append(int(entry))
    return kids


def _cli_hwm_kb(pid: int) -> int:
    """Peak resident set size, kB, of a live process running the CLI's
    image; 0 before the exec (a vforked child still shows the parent's
    memory) and once the process is gone."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            if b"\0-m\0pwesim\0" not in fh.read():
                return 0
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _kill(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


@dataclass(frozen=True)
class CliRun:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    csv: str | None
    log: str


def run_cli(cmd_tail: list[str], tmp: str, timeout: float = CLI_TIMEOUT_S
            ) -> CliRun:
    """Run `python -m pwesim <cmd_tail>` and time it to exit.

    Peak memory is the sum over the CLI's process tree of each process's
    own peak (VmHWM, polled). Pages a worker shares with its parent count
    in both. ru_maxrss is not used: Linux carries the parent's peak into a
    child across fork and exec.
    """
    log_path = os.path.join(tmp, "cli.log")
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "pwesim", *cmd_tail],
                                cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        end: list[float] = []

        def reap() -> None:
            proc.wait()
            end.append(time.perf_counter())

        waiter = threading.Thread(target=reap)
        waiter.start()
        hwm: dict[int, int] = {}
        try:
            while waiter.is_alive():
                tree = [proc.pid, *_children(proc.pid)]
                if time.perf_counter() - start > timeout:
                    _kill(tree)
                for pid in tree:
                    hwm[pid] = max(hwm.get(pid, 0), _cli_hwm_kb(pid))
                waiter.join(RSS_POLL_S)
        finally:
            if waiter.is_alive():
                _kill([proc.pid, *_children(proc.pid)])
                waiter.join()
    with open(log_path, encoding="utf-8") as fh:
        log_text = fh.read()
    return CliRun(wall_s=end[0] - start,
                  peak_rss_mb=sum(hwm.values()) * 1024 / 1e6,
                  returncode=proc.returncode, csv=None, log=log_text)


def run_sweep_cli(text: str, workers: int) -> CliRun:
    """`pwesim sweep <cfg> --workers N --out <csv>` on the config text."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT_DIR, prefix="run-")
    try:
        cfg_path = os.path.join(tmp, "sweep.cfg")
        out_path = os.path.join(tmp, "sweep.csv")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        # Load the package once so the timed run reads warm files and
        # compiled bytecode, as every run after an install does.
        subprocess.run([sys.executable, "-c", "import pwesim.cli"], cwd=ROOT,
                       env=child_env(), check=True, timeout=60)
        run = run_cli(["sweep", cfg_path, "--workers", str(workers),
                       "--out", out_path], tmp)
        csv = None
        if run.returncode == 0:
            with open(out_path, encoding="utf-8") as fh:
                csv = fh.read()
        return replace(run, csv=csv)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ------------------------------------------------------------ the run


def tail(values_sorted: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it; the maximum when there are fewer than eleven samples."""
    n = len(values_sorted)
    i = n - 11 if n >= 11 else n - 1
    return 100.0 * (i + 1) / n, values_sorted[i]


class PointTimer:
    """Latency of single received_power calls, tracing off.

    Keeps each point's result; a point whose result changes from one call
    to the next is recorded as unstable.
    """

    def __init__(self, cfg: ExperimentConfig, scene: Scene) -> None:
        self.scene = scene
        self.tracer_cfg = cfg.tracer_config()
        self.power = dbm_to_watts(cfg.tx_power_dbm)
        self.grid = cfg.sweep_points()
        self.latencies: list[float] = []
        self.values: dict[Key, tuple] = {}
        self.unstable: set[Key] = set()

    def run(self, points, record: bool = True) -> float:
        """Time each (scheme, bias_p, panel, grid index); returns the total."""
        start = time.perf_counter()
        for scheme, p, panel, k in points:
            t0 = time.perf_counter()
            out = received_power(self.scene, panel, self.grid[k],
                                 self.tracer_cfg, self.power)
            if record:
                self.latencies.append(time.perf_counter() - t0)
            got = (out.captured_power, out.escaped_power, out.terminated_power)
            if self.values.setdefault((scheme, p, k), got) != got:
                self.unstable.add((scheme, p, k))
        return time.perf_counter() - start


def measure(wl: Workload, seed: int, seconds: float,
            reference: list[list] | None) -> dict:
    """End-to-end run: CLI sweeps, set-ups and per-point latency.

    The machine's speed switches between states some 1.4x apart, over
    seconds to minutes, so the three kinds of measurement are interleaved
    over the whole run. The run is cut into slots; the point sample is cut
    into one slice per slot, the set-ups are spread evenly over the slots
    and the CLI sweeps evenly over the boundaries between them. Every slice
    gets the same number of whole passes, as many as make the point timings
    take about `seconds`. The first call is a discarded warm-up. wall_s is
    the mean of the CLI sweeps: the median of a few samples from two speed
    states snaps to one of them.
    """
    text = config_text(wl, seed)
    workers = min(wl.workers, nproc())
    slots = max(wl.cli_runs + 1, MIN_SLOTS)
    cli_at = {round((i + 1) * slots / (wl.cli_runs + 1))
              for i in range(wl.cli_runs)}
    setup_at = [i * slots // wl.setups for i in range(wl.setups)]
    setups: list[float] = []

    def set_up(slot: int):
        built = None
        for _ in range(setup_at.count(slot)):
            t0 = time.perf_counter()
            built = setup(text)
            setups.append(time.perf_counter() - t0)
        return built

    cfg, scene, curves = set_up(0)
    sample = [(scheme, p, panel, k) for scheme, p, panel in curves
              for k in range(0, len(cfg.sweep_points()), wl.point_stride)]
    slices = [sample[j::slots] for j in range(slots)]
    timer = PointTimer(cfg, scene)
    timer.run(sample[:1], record=False)
    first = timer.run(slices[0])
    passes = max(1, round(seconds / (slots * max(first, 1e-9))))
    for _ in range(passes - 1):
        timer.run(slices[0])
    clis = []
    for j in range(1, slots):
        if j in cli_at:
            clis.append(run_sweep_cli(text, workers))
        set_up(j)
        for _ in range(passes):
            timer.run(slices[j])

    keys = point_keys(cfg, curves)
    failed = {i for i, key in enumerate(keys) if key in timer.unstable}
    for cli in clis:
        failed |= check_sweep(cfg, keys, emitted_w(cfg, scene), cli.csv,
                              timer.values, reference)

    lat_ms = sorted(1e3 * x for x in timer.latencies)
    q, tail_ms = tail(lat_ms)
    n = len(lat_ms)
    metrics = {
        "wall_s": (statistics.fmean(c.wall_s for c in clis), "s",
                   f"pwesim sweep --workers {workers}, mean of {len(clis)}"),
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)}"),
        "point_ms_p50": (statistics.median(lat_ms), "ms", f"n={n}"),
        "point_ms_tail": (tail_ms, "ms", f"p{q:.1f}, n={n}"),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in clis), "MB",
                        "sum over the CLI's processes"),
    }
    return result(wl, seed, workers, keys, failed, clis, metrics)


def result(wl: Workload, seed: int, workers: int, keys: list[Key],
           failed: set[int], clis: list[CliRun], metrics: dict,
           notes=()) -> dict:
    bad = [c for c in clis if c.returncode != 0]
    return {"workload": wl.name, "seed": seed, "workers": workers,
            "correct": not failed and not bad
            and all(len(parse_csv(c.csv)) == len(keys) for c in clis),
            "attempted": len(keys), "failed": len(failed),
            "metrics": metrics, "cli_log": bad[0].log if bad else "",
            "notes": list(notes)}


# ---------------------------------------------------------------- report


def facts(seed: int, workers: int) -> dict:
    """Machine and code facts printed with every result."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    pkg = os.path.join(SRC, "pwesim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return {"nproc": nproc(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "src_pwesim_lines": lines, "seed": seed, "workers": workers}


def report(res: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}"
          f"  workers {res['workers']}")
    print("facts " + json.dumps(facts(res["seed"], res["workers"])))
    for note in res["notes"]:
        print(note)
    if res["cli_log"]:
        print("cli failed:\n" + res["cli_log"])
    for name, (value, unit, note) in res["metrics"].items():
        print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"failed_points {res['failed']} points"
          f"  (of {res['attempted']} attempted)")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in res["metrics"].items()}}))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=4.0,
                        help="time spent on the per-point latency passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so run_cli stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.abspath(pwesim.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported pwesim from {pwesim.__file__}, not from"
              f" {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        wl = WORKLOADS[name]
        reference = load_reference(wl) if args.seed == 0 else None
        if args.trace:
            import tracing
            res = tracing.traced_run(wl, args.seed, reference)
        else:
            res = measure(wl, args.seed, args.seconds, reference)
        report(res)
    return 0
