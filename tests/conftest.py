import sys

import pytest
from hypothesis import settings

from pwesim.experiment import ExperimentConfig, run_sweep

# Tier-1 draws the same examples on every machine and every run: the draws
# are derived from each test, and no failure database replays old ones.
# `--hypothesis-profile=default` draws afresh.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

_VERDICTS: list[str] = []


def report(line: str) -> None:
    """Record a verdict line and echo it immediately when running with -s."""
    _VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the scorecard after the run, outside per-test capture, and
    write it to test_output.txt at the repository root."""
    if _VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in _VERDICTS:
            terminalreporter.write_line(line)
        path = config.rootpath / "test_output.txt"
        path.write_text("\n".join(_VERDICTS) + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def default_sweep():
    """The full default-config sweep, shared by the shape criteria."""
    return run_sweep(ExperimentConfig(), workers=1)


@pytest.fixture(scope="session")
def sweep_curves(default_sweep):
    """(scheme, bias_p) -> list of (d_x, efficiency), in d_x order."""
    curves: dict[tuple, list] = {}
    for row in default_sweep.rows:
        curves.setdefault((row.scheme, row.bias_p), []).append(
            (row.d_x, row.efficiency))
    for points in curves.values():
        points.sort()
    return curves
