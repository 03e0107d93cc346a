"""The benchmark's own tests, on a tiny config: 101 rays, 2 points.

    python3 perfbench/smoke.py

Prints one PASS or FAIL line per check and exits 0 only if all pass.
Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback

import run

TINY_CONFIG = ("tracer.n_rays = 101\n"
               "steering.modes = static,baseline\n"
               "sweep.stop = 0\n")


def benchmark_spec(harness) -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def printed(harness, res) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        harness.report(res)
    return out.getvalue().splitlines()


def check_printed(harness, res, specs) -> None:
    lines = printed(harness, res)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
    assert set(last["metrics"]) == {m["name"] for m in specs}, last["metrics"]
    for m in specs:
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[2] == m["unit"] for line in lines[:-1]), \
            f"no line prints {m['name']} in {m['unit']}"
        assert last["metrics"][m["name"]]["unit"] == m["unit"], m
    assert any(line.split()[:3] == ["failed_points", str(res["failed"]),
                                    "points"] for line in lines)
    facts = json.loads(next(line for line in lines
                            if line.startswith("facts "))[6:])
    for key in ("nproc", "cpu_model", "python", "numpy", "commit", "seed",
                "src_pwesim_lines"):
        assert key in facts, key


def main() -> int:
    if not run.prepare():
        return 2
    import harness
    import tracing
    from pwesim import parse_config, run_sweep

    spec = benchmark_spec(harness)
    tiny = harness.Workload("tiny", TINY_CONFIG, workers=1, cli_runs=2,
                            setups=2, point_stride=1, reference="")
    reference = harness.reference_rows(run_sweep(parse_config(TINY_CONFIG)))

    def metrics_print_with_units():
        res = harness.measure(tiny, 0, 0.2, reference)
        assert res["correct"] and res["failed"] == 0, res
        assert res["attempted"] == 2, res["attempted"]
        check_printed(harness, res, spec["end_to_end"])

    def perturbed_reference_is_counted():
        bad = copy.deepcopy(reference)
        bad[1][4] *= 1 + 1e-6  # captured_w of the second point
        res = harness.measure(tiny, 0, 0.2, bad)
        assert res["failed"] == 1 and not res["correct"], res

    def traced_spans_nest():
        res = tracing.traced_run(tiny, 0, reference)
        assert res["correct"] and res["failed"] == 0, res
        check_printed(harness, res, spec["per_layer"])
        path = os.path.join(harness.OUT_DIR, "spans", "tiny-seed0.json")
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)
        names = {s["name"] for s in spans}
        for name in ("experiment.parse_config", "experiment.run_sweep",
                     "experiment.csv_text", "scene.ExperimentConfig.scene",
                     "scene.fan_directions", "steering.build_schedule",
                     "steering.materialize_normals", "tracer.received_power",
                     "tracer.trace_ray"):
            assert name in names, name
        for s in spans:
            assert s["start"] <= s["end"] and s["self"] >= 0.0, s
            if s["parent"] is None:
                assert s["root"] == s["id"], s
                continue
            parent = spans[s["parent"]]
            assert parent["id"] < s["id"] and s["root"] == parent["root"], s
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"], s
        assert any(s["parent"] is not None for s in spans)

    def seeded_configs():
        for wl in harness.WORKLOADS.values():
            assert harness.config_text(wl, 0) == wl.config
            one = harness.config_text(wl, 7)
            assert one == harness.config_text(wl, 7) != wl.config
            assert ("steering.j_c" in one) == wl.draw_j_c, one
            harness.load_reference(wl)

    def tail_rule():
        values = [float(v) for v in range(1, 101)]
        assert harness.tail(values) == (90.0, 90.0), harness.tail(values)
        assert harness.tail(values[:5]) == (100.0, 5.0)

    def bare_directory_fails():
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        bare = tempfile.mkdtemp(dir=harness.OUT_DIR, prefix="bare-")
        try:
            shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(harness.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "sweep_serial", "--seed", "0", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip(), proc.stdout

    failures = 0
    for check in (tail_rule, seeded_configs, metrics_print_with_units,
                  perturbed_reference_is_counted, traced_spans_nest,
                  bare_directory_fails):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                check()
        except Exception:  # report every failing check, then exit non-zero
            failures += 1
            print(f"FAIL {check.__name__}\n{traceback.format_exc()}")
        else:
            print(f"PASS {check.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
