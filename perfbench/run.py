"""Benchmark entry point for pwesim.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_serial --seed 0 --seconds 5 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# One thread per process for every BLAS / OpenMP runtime numpy may load, in
# this process and, through the environment, in every child it starts. Set
# before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def prepare() -> bool:
    """Put the checkout's sources first on sys.path; False if there are none."""
    if not os.path.isfile(os.path.join(SRC, "pwesim", "__init__.py")):
        print(f"perfbench: no pwesim sources under {SRC}; run from the root"
              " of a pwesim checkout", file=sys.stderr)
        return False
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def main() -> int:
    if not prepare():
        return 2
    import harness
    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
