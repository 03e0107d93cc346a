"""Trace a small fan and print (optionally draw) every ray path.

Runs the static schedule twice: once with the user exactly where the panel
expects them, once displaced by 10 cm. The first run lands every ray in the
aperture; the second shows the beam landing where the user used to be.
"""

import math

from pwesim import (Captured, Escaped, ExperimentConfig, Static, Terminated,
                    TracerConfig, build_schedule, materialize_normals,
                    trace_ray, tx_ray_fan)

N_RAYS = 9


def describe(tag: str, rays, fates) -> None:
    print(f"-- {tag} --")
    for k, rec in enumerate(fates):
        fate = type(rec).__name__.lower()
        pts = " -> ".join(f"({p.x:.2f}, {p.y:.2f})" for p in rec.path)
        extra = f", {rec.power:.4f} W" if isinstance(rec, Captured) else ""
        print(f"ray {k}: {fate}{extra}: {pts}")
    captured = math.fsum(f.power for f in fates if isinstance(f, Captured))
    escaped = math.fsum(r.power for r, f in zip(rays, fates)
                        if isinstance(f, Escaped))
    lost = math.fsum(r.power for r, f in zip(rays, fates)
                     if isinstance(f, Terminated))
    print(f"captured {captured:.4f} W, escaped {escaped:.4f} W, "
          f"terminated {lost:.4f} W")


def main() -> None:
    cfg = ExperimentConfig()
    scene = cfg.scene()
    sch = build_schedule(Static(), scene.ceiling.subunit_count - 1,
                         250, cfg.tx_step)
    panel = materialize_normals(sch, scene)
    tracer = TracerConfig(n_rays=N_RAYS, max_bounces=4)

    fans = {}
    for d in (0.0, 0.1):
        rays = tx_ray_fan(scene, d, N_RAYS, total_power=0.1)
        fans[d] = [trace_ray(scene, panel, ray, tracer) for ray in rays]
        describe(f"static schedule, dislocation {d} m", rays, fans[d])
        print()

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed, skipping the figure")
        return

    fig, axes = plt.subplots(1, 2, figsize=(11, 4), sharey=True)
    for ax, (d, fates) in zip(axes, fans.items()):
        ax.axhline(0.0, color="0.3")
        ax.axhline(scene.ceiling_height, color="0.3")
        circle = plt.Circle((scene.rx_aperture.center.x,
                             scene.rx_aperture.center.y),
                            scene.rx_aperture.radius, color="tab:green",
                            fill=False, lw=2)
        ax.add_patch(circle)
        for rec in fates:
            xs = [p.x for p in rec.path]
            ys = [p.y for p in rec.path]
            color = "tab:blue" if isinstance(rec, Captured) else "tab:red"
            ax.plot(xs, ys, color=color, lw=0.9, alpha=0.8)
        ax.set_title(f"dislocation {d} m")
        ax.set_xlabel("x [m]")
        ax.set_xlim(scene.corridor_x_min - 0.2, scene.corridor_x_max + 0.2)
    axes[0].set_ylabel("y [m]")
    fig.tight_layout()
    fig.savefig("ray_paths.png", dpi=130)
    print("wrote ray_paths.png (blue = captured, red = lost)")


if __name__ == "__main__":
    main()
