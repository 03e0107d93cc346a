"""The benchmark's own self-test passes against the current program.

perfbench depends on parts of the program's API (`run_sweep` calling
`experiment.received_power` once per point, `experiment._scheme_curves`,
the signature of `received_power`); this runs its smoke checks so that a
change breaking them shows in the test suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
