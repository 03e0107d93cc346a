"""End-to-end acceptance gates, one test per numbered criterion.

Each test prints a single verdict line (plus FLAG lines where a criterion
asks for investigation rather than failure) and then asserts, so the
terminal log always carries the full scorecard even under pytest capture.
"""

import math
import os
import time
from collections import Counter

import numpy as np

from conftest import report
from pwesim.experiment import ExperimentConfig, csv_text, run_sweep
from pwesim.geometry import Circle, Vec2, angle_between, reflect
from pwesim.latency import (LatencyBudget, MobilityModel, dislocation,
                            total_latency)
from pwesim.scene import Antenna, HsfPanel, Scene, mirror_panel
from pwesim.steering import (Biased, Static, Unbiased, build_schedule,
                             materialize_normals, optimal_normal, _delta_i)
from pwesim.tracer import (TracerConfig, analytic_received_power,
                           received_power)


def test_criterion_1_unbiased_schedule_exact():
    # The 1 s budget judges the 50,000 build_schedule calls alone: each call
    # is timed on its own, its result compared as soon as it is built, and
    # the oracle is made outside the clock.
    elapsed = 0.0
    mismatch = None
    for j_max in range(50):
        oracle = [i % (j_max + 1) for i in range(1000)]
        prefixes = [tuple(oracle[:n]) for n in range(1001)]
        for i_count in range(1, 1001):
            t0 = time.perf_counter()
            got = build_schedule(Unbiased(), i_count - 1, j_max,
                                 0.002).assignment
            elapsed += time.perf_counter() - t0
            if got != prefixes[i_count]:
                mismatch = (i_count, j_max)
                break
        if mismatch:
            break
    ok = mismatch is None and elapsed < 1.0
    report(f"ACCEPTANCE 1 unbiased schedule exactness: "
           f"{'PASS' if ok else 'FAIL'} "
           f"(all I+1<=1000, J+1<=50, build_schedule {elapsed:.2f}s "
           f"of a 1s budget)")
    assert mismatch is None, f"first mismatch at I+1={mismatch[0]}, " \
                             f"J+1={mismatch[1] + 1}"
    assert elapsed < 1.0, f"build_schedule calls took {elapsed:.2f}s, " \
                          f"budget 1s"


def test_criterion_2_biased_shares():
    n = 5000
    j_max = 250
    failures = []
    for p in (0.1, 0.3, 0.5):
        sch = build_schedule(Biased(p, 0), n - 1, j_max, 0.002)
        counts = Counter(sch.assignment)
        delta = _delta_i(p)
        share_err = abs(counts[0] / n - 1.0 / delta)
        others = [counts.get(j, 0) for j in range(1, j_max + 1)]
        spread = max(others) - min(others)
        if share_err > 1.0 / n or spread > 1:
            failures.append((p, share_err, spread))
    ok = not failures
    report(f"ACCEPTANCE 2 biased share balance: {'PASS' if ok else 'FAIL'} "
           f"(p in 0.1/0.3/0.5, I+1=5000)")
    assert ok, failures


def test_criterion_3_normal_grid():
    scene = ExperimentConfig().scene()
    panel = scene.ceiling
    target = scene.rx_aperture.center
    worst = 0.0
    i_grid = np.linspace(0, panel.subunit_count - 1, 50).astype(int)
    j_grid = np.linspace(0, 250, 20).astype(int)
    for i in i_grid:
        center = Vec2(float(panel.centers()[i]), panel.y_height)
        for j in j_grid:
            user = Vec2(j * 0.002, scene.user_height)
            n = optimal_normal(center, user, target)
            incident = (center - user).normalized()
            desired = (target - center).normalized()
            err = angle_between(reflect(incident, n), desired)
            worst = max(worst, err)
    ok = worst < 1e-9
    report(f"ACCEPTANCE 3 virtual normal correctness: "
           f"{'PASS' if ok else 'FAIL'} (worst {worst:.2e} rad on 50x20 grid)")
    assert ok, f"worst angular error {worst:.3e} rad"


def test_criterion_4_energy_conservation():
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for _ in range(20):
        height = rng.uniform(2.0, 4.0)
        length = rng.uniform(3.0, 8.0)
        offset = rng.uniform(0.5, 1.5)
        user_h = rng.uniform(0.3, height - 0.5)
        step = float(rng.choice((0.001, 0.0025, 0.005)))
        x_min, x_max = -offset, length - offset
        count = mirror_panel(height, x_min, x_max, step).subunit_count
        tilts = rng.uniform(-1.2, 1.2, size=count)
        panel = HsfPanel(height, x_min, x_max, step,
                         np.column_stack((np.sin(tilts), -np.cos(tilts))))
        rx_x = rng.uniform(x_min + 0.3, x_max - 0.3)
        # the disc may come within 1 cm of the ceiling, but not cross it
        radius = rng.uniform(0.02, 0.15)
        rx_y = rng.uniform(user_h + 0.2, height - radius - 0.01)
        scn = Scene(ceiling=panel, floor_y=0.0, corridor_x_min=x_min,
                    corridor_x_max=x_max,
                    tx=Antenna(Vec2(0.0, user_h), Vec2(0.0, 1.0),
                               rng.uniform(0.05, 0.6)),
                    rx=Antenna(Vec2(rx_x, rx_y), Vec2(0.0, 1.0),
                               rng.uniform(0.1, 1.0)),
                    rx_aperture=Circle(Vec2(rx_x, rx_y), radius),
                    user_height=user_h, ceiling_height=height)
        cfg = TracerConfig(n_rays=2001, max_bounces=int(rng.integers(1, 17)))
        out = received_power(scn, panel, float(rng.uniform(0.0, 0.5)), cfg,
                             total_power=0.1)
        worst = max(worst, abs(out.total_power - 0.1) / 0.1)
    ok = worst <= 1e-12
    report(f"ACCEPTANCE 4 energy conservation: {'PASS' if ok else 'FAIL'} "
           f"(worst relative imbalance {worst:.2e} over 20 random scenes)")
    assert ok, f"worst imbalance {worst:.3e}"


def test_criterion_5_oracle_equivalence():
    scene = ExperimentConfig().scene()
    sch = build_schedule(Static(), scene.ceiling.subunit_count - 1, 250,
                         0.002)
    panel = materialize_normals(sch, scene)
    cfg = TracerConfig(n_rays=100000, max_bounces=1)
    details = []
    ok = True
    for d in (0.0, 0.05, 0.1):
        mc = received_power(scene, panel, d, cfg, total_power=0.1)
        quad = analytic_received_power(scene, panel, d, 100000,
                                       total_power=0.1)
        if max(mc.captured_power, quad) < 1e-15:
            details.append(f"d={d}: both zero")
            continue
        rel = abs(mc.captured_power - quad) / max(quad, 1e-300)
        details.append(f"d={d}: rel {rel:.2e}")
        ok = ok and rel <= 0.02
    report(f"ACCEPTANCE 5 tracer vs quadrature: {'PASS' if ok else 'FAIL'} "
           f"({'; '.join(details)})")
    assert ok, details


def _curve(sweep_curves, scheme, bias_p=None):
    points = sweep_curves[(scheme, bias_p)]
    return [d for d, _ in points], [e for _, e in points]


def test_criterion_6a_peak_at_zero(sweep_curves):
    schemes = [("static", None), ("unbiased", None), ("biased", 0.1),
               ("biased", 0.3), ("biased", 0.5)]
    verdicts = []
    all_ok = True
    static_at_zero = None
    for scheme, p in schemes:
        ds, effs = _curve(sweep_curves, scheme, p)
        k = int(np.argmax(effs))
        label = scheme if p is None else f"{scheme}({p})"
        if ds[0] == 0.0 and k == 0:
            verdicts.append(f"{label} PASS")
        else:
            all_ok = False
            verdicts.append(f"{label} FAIL (max {effs[k]:.3f} at "
                            f"d={ds[k]:.2f} vs {effs[0]:.3f} at 0)")
        if scheme == "static":
            static_at_zero = effs[0]
    level_ok = static_at_zero >= 0.75
    all_ok = all_ok and level_ok
    report(f"ACCEPTANCE 6a peak at zero dislocation: "
           f"{'PASS' if all_ok else 'FAIL'} ({'; '.join(verdicts)}; "
           f"static@0 = {static_at_zero:.3f})")
    if static_at_zero >= 0.95:
        report("  FLAG 6a: static efficiency at d=0 is "
               f"{static_at_zero:.3f} >= 0.95. Geometric capture counts a "
               "ray at full strength once it crosses the aperture, and at "
               "d=0 every designed reflection does; a physical panel would "
               "lose part of that to quantized phase control and spillover, "
               "which this power model does not represent.")
    assert level_ok, f"static at d=0 is {static_at_zero:.3f}, needs >= 0.75"
    assert all_ok, "; ".join(verdicts)


def test_criterion_6b_static_falls_below_baseline(sweep_curves):
    ds, static = _curve(sweep_curves, "static")
    _, base = _curve(sweep_curves, "baseline")
    hits = [d for d, s, b in zip(ds, static, base)
            if 0.05 <= d <= 0.25 and s < b]
    ok = bool(hits)
    report(f"ACCEPTANCE 6b static drops below baseline in [0.05, 0.25]: "
           f"{'PASS' if ok else 'FAIL'} "
           f"({len(hits)} sweep points, first at "
           f"{hits[0] if hits else float('nan'):.2f} m)")
    assert ok


def test_criterion_6c_unbiased_flat(sweep_curves):
    _, unb = _curve(sweep_curves, "unbiased")
    _, static = _curve(sweep_curves, "static")
    unb_range = max(unb) - min(unb)
    static_range = max(static) - min(static)
    ok = unb_range <= 0.5 * static_range
    report(f"ACCEPTANCE 6c unbiased flatness: {'PASS' if ok else 'FAIL'} "
           f"(range {unb_range:.3f} vs half static range "
           f"{0.5 * static_range:.3f})")
    assert ok


def test_criterion_6d_bias_ordering(sweep_curves):
    # the biased schedules anchor position index 0, so their favored
    # dislocation is d = 0
    at_zero = {}
    for p in (0.1, 0.3):
        ds, effs = _curve(sweep_curves, "biased", p)
        at_zero[p] = effs[ds.index(0.0)]
    ds, unb = _curve(sweep_curves, "unbiased")
    at_zero["unb"] = unb[ds.index(0.0)]
    first = at_zero[0.3] - at_zero[0.1]
    second = at_zero[0.1] - at_zero["unb"]
    ok = first >= 0.0 and second >= 0.0
    report(f"ACCEPTANCE 6d ordering biased(0.3) >= biased(0.1) >= unbiased "
           f"at d=0: {'PASS' if ok else 'FAIL'} "
           f"({at_zero[0.3]:.3f} / {at_zero[0.1]:.3f} / "
           f"{at_zero['unb']:.3f})")
    for name, margin in (("biased(0.3) over biased(0.1)", first),
                         ("biased(0.1) over unbiased", second)):
        if margin < 0.02:
            report(f"  FLAG 6d: margin of {name} is {margin * 100:.1f} "
                   "percentage points, below the 2-point comfort level")
    assert ok, at_zero


def test_criterion_7_baseline_band(sweep_curves):
    _, base = _curve(sweep_curves, "baseline")
    lo, hi = min(base), max(base)
    ok = lo >= 0.1 and hi <= 0.5
    report(f"ACCEPTANCE 7 mirror baseline within [0.1, 0.5]: "
           f"{'PASS' if ok else 'FAIL'} (observed [{lo:.3f}, {hi:.3f}])")
    assert ok, (lo, hi)


def test_criterion_8_parallel_determinism(default_sweep):
    workers = min(os.cpu_count() or 2, 8)
    if workers < 2:
        workers = 2
    parallel = run_sweep(ExperimentConfig(), workers=workers)
    serial_bytes = csv_text(default_sweep).encode()
    parallel_bytes = csv_text(parallel).encode()
    ok = serial_bytes == parallel_bytes
    report(f"ACCEPTANCE 8 determinism across workers: "
           f"{'PASS' if ok else 'FAIL'} (1 vs {workers} workers, "
           f"{len(serial_bytes)} bytes)")
    assert ok


def test_criterion_9_latency_arithmetic():
    checks = []

    def check(name, got, expected_expr, literal=None):
        exact = got == expected_expr
        close = literal is None or math.isclose(got, literal, rel_tol=1e-15)
        checks.append((name, exact and close, got))

    walker = MobilityModel(speed=1.4)
    check("zero budget", total_latency(LatencyBudget()), 0.0)
    check("sensing 10us", total_latency(LatencyBudget(sensing=1e-5)), 1e-5)
    check("sensing 10ms", total_latency(LatencyBudget(sensing=0.01)), 0.01)
    six = LatencyBudget(sensing=0.01, report_network=0.002, queueing=0.003,
                        processing=0.004, config_network=0.005,
                        actuation=0.006)
    check("six-stage sum", total_latency(six),
          0.01 + 0.002 + 0.003 + 0.004 + 0.005 + 0.006, 0.03)
    check("dislocation 50ms walk", dislocation(walker, 0.05), 1.4 * 0.05,
          0.07)
    check("dislocation 10ms walk", dislocation(walker, 0.01), 1.4 * 0.01,
          0.014)
    check("dislocation 10us walk", dislocation(walker, 1e-5), 1.4e-5)
    check("stationary", dislocation(MobilityModel(0.0), 0.05), 0.0)
    check("doubling latency doubles dislocation",
          dislocation(walker, 2 * 0.035), 2 * dislocation(walker, 0.035))
    bad = [name for name, ok, _ in checks if not ok]
    ok = not bad
    report(f"ACCEPTANCE 9 latency and dislocation arithmetic: "
           f"{'PASS' if ok else 'FAIL'} ({len(checks)} exact checks)")
    assert ok, f"failed: {bad}"
