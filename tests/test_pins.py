"""The released output bytes, pinned by size and SHA-256.

Each output below is regenerated in process and compared with the byte
count and hash it had when it was pinned. A change to the tracer, the
schedules or the float formatter that moves any byte turns this red; a
deliberate output change updates the pin in the same commit. The default
and `panels_fine` CSVs are also checked in under `tests/golden/`, so that a
mismatch names the first row that differs.
"""

import hashlib
from pathlib import Path

import pytest

from pwesim.cli import main
from pwesim.experiment import csv_text, parse_config, run_sweep

GOLDEN = Path(__file__).parent / "golden"

# perfbench's panels_fine workload at seed 0
PANELS_FINE = ("scene.delta_hsf = 0.0002\n"
               "steering.bias_p = 0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9\n"
               "tracer.n_rays = 2001\n"
               "sweep.step = 0.05\n")
INVERSE_CONE = ("tracer.spreading = inverse_square\n"
                "tracer.rx_cone = true\n"
                "tracer.max_bounces = 3\n"
                "tracer.n_rays = 20001\n")

# output -> (bytes, sha256)
PINS = {
    "default sweep": (23207, "dfd3378d13d4017ad141d3aee6ec5968"
                             "0a547b4eeb8d145bb831f2631de7f371"),
    "panels_fine sweep": (10274, "5efe6ec049f55c79643d6bdbc6802fc8"
                                 "61692de723186027e0fc6fd3cd456f1a"),
    "inverse-square cone sweep": (23862, "25a552982c49eb172deca4a8bdad5a1b"
                                         "27463915450b6f77837159f7a400ebe8"),
    "schedule": (1202318, "7ab4ee40c0b71be08e4b630475f85a94"
                          "5890a0543c5dbee2f0fbda368418fd83"),
    "trace static": (11285, "15dc26f72593c3c1ad1b0b0bb34a06ce"
                            "5097ed21ab75189b8f4b12dc118f6859"),
    "trace unbiased": (11855, "1c7af8c4995ba5c825d809c4c85979fd"
                              "58a0bca350dbef6744214ce42dc3ca0a"),
    "trace biased": (11569, "3c4beb8a7b1bc9a7dd6ee05f74e13c9f"
                            "cc7f315267f4c98dc30011c00ac0ba8c"),
    "trace baseline": (38366, "080175ed6506fe403e3e0f515e8bd960"
                              "496012ba62e955f9b1fb4c38a8ed6b43"),
}


def check_pin(name: str, data: bytes, golden: str | None = None) -> None:
    size, digest = PINS[name]
    found = (len(data), hashlib.sha256(data).hexdigest())
    if found == (size, digest):
        return
    msg = (f"{name}: found {found[0]} bytes, sha256 {found[1]};"
           f" pinned {size} bytes, sha256 {digest}")
    if golden is not None:
        want = (GOLDEN / golden).read_text(encoding="utf-8").splitlines()
        got = data.decode("utf-8").splitlines()
        for row, (a, b) in enumerate(zip(want, got), start=1):
            if a != b:
                msg += f"\nfirst differing row {row}:\n  pinned {a}\n  found  {b}"
                break
        else:
            msg += f"\n{len(want)} pinned rows, {len(got)} found"
    pytest.fail(msg, pytrace=False)


def test_golden_files_match_their_pins():
    check_pin("default sweep", (GOLDEN / "default.csv").read_bytes())
    check_pin("panels_fine sweep", (GOLDEN / "panels_fine.csv").read_bytes())


def test_default_sweep(default_sweep):
    check_pin("default sweep", csv_text(default_sweep).encode(),
              "default.csv")


@pytest.mark.parametrize("workers", (1, 2))
def test_panels_fine_sweep(workers):
    result = run_sweep(parse_config(PANELS_FINE), workers=workers)
    check_pin("panels_fine sweep", csv_text(result).encode(),
              "panels_fine.csv")


def test_inverse_square_cone_sweep():
    result = run_sweep(parse_config(INVERSE_CONE), workers=1)
    check_pin("inverse-square cone sweep", csv_text(result).encode())


def test_schedule(tmp_path, capsys):
    out = tmp_path / "schedule.csv"
    assert main(["schedule", "--out", str(out)]) == 0
    check_pin("schedule", out.read_bytes())


@pytest.mark.parametrize("scheme", ("static", "unbiased", "biased",
                                    "baseline"))
def test_trace(tmp_path, capsys, scheme):
    out = tmp_path / "paths.csv"
    assert main(["trace", "--dx", "0.07", "--scheme", scheme,
                 "--paths", str(out)]) == 0
    check_pin(f"trace {scheme}", out.read_bytes())
