"""Monte Carlo tracer vs deterministic quadrature on the same integral.

For a single bounce the received power is an integral over the beam's
ceiling footprint, so it can be computed two unrelated ways: fire a dense
deterministic fan and add up what lands in the aperture, or midpoint-sum
the capture indicator weighted by the fan's angular density. Agreement to
a fraction of a percent with no shared code path is the cross-check.
"""

from pwesim import (ExperimentConfig, Static, TracerConfig,
                    analytic_received_power, build_schedule,
                    materialize_normals, received_power)

N = 50001


def main() -> None:
    cfg = ExperimentConfig()
    scene = cfg.scene()
    sch = build_schedule(Static(), scene.subunit_count - 1,
                         250, cfg.tx_step)
    panel = materialize_normals(sch, scene)
    tracer = TracerConfig(n_rays=N, max_bounces=1)

    print(f"{'d_x [m]':>8}  {'fan sum [W]':>12}  {'quadrature [W]':>14}  "
          f"{'rel diff':>9}")
    for d in (0.0, 0.02, 0.05, 0.08, 0.1):
        mc = received_power(scene, panel, d, tracer, total_power=0.1)
        quad = analytic_received_power(scene, panel, d, N, total_power=0.1)
        if max(mc.captured_power, quad) < 1e-15:
            verdict = "both zero"
        else:
            verdict = f"{abs(mc.captured_power - quad) / quad:>9.2e}"
        print(f"{d:>8.2f}  {mc.captured_power:>12.6f}  {quad:>14.6f}  "
              f"{verdict}")

    print()
    print("the fan only counts whole rays, the quadrature resolves the")
    print("aperture edge exactly, so the residual shrinks like 1/N as the")
    print("fan gets denser")


if __name__ == "__main__":
    main()
