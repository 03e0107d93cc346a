"""Record the seed-0 reference rows the correctness gate compares against.

    python3 perfbench/record_reference.py

Writes perfbench/reference/<name>.json for every distinct workload config:
the config text, the emitted power and every sweep row at full precision.
Record again only when a change to the program's results is intended.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    if not run.prepare():
        return 2
    import harness
    from pwesim import parse_config, run_sweep

    out_dir = os.path.join(harness.HERE, "reference")
    os.makedirs(out_dir, exist_ok=True)
    done = set()
    for wl in harness.WORKLOADS.values():
        if wl.reference in done:
            continue
        done.add(wl.reference)
        result = run_sweep(parse_config(wl.config), workers=harness.nproc())
        path = os.path.join(out_dir, wl.reference + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            head = json.dumps({"config": wl.config,
                               "emitted_w": result.emitted_w})
            rows = ",\n".join(json.dumps(row)
                              for row in harness.reference_rows(result))
            fh.write(f'{head[:-1]}, "rows": [\n{rows}\n]}}\n')
        print(f"wrote {os.path.relpath(path, harness.ROOT)}:"
              f" {len(result.rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
