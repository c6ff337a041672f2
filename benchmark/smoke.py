"""Smoke check of the benchmark: every workload once at its shortest length,
untraced and traced, with every output check on. The traced run makes two
repeats, so the check that their counts agree runs too.

    python3 benchmark/smoke.py

Prints each end-to-end metric by name and unit for each workload, checks
that every run reports exactly the metrics BENCHMARK.json names, and exits 1
when a run fails an output check, exits non-zero or reports the wrong
metrics.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    ok = True
    table = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=400,
            )
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "metrics": {}}
            good = (
                proc.returncode == 0
                and result["correct"]
                and list(result["metrics"]) == expected[trace]
            )
            print(f"{'ok  ' if good else 'FAIL'} {workload} trace={trace} "
                  f"({result.get('failed')} of {result.get('attempted')} checks failed)")
            if not good:
                ok = False
                print(proc.stderr[-2000:], file=sys.stderr)
            if trace == 0:
                table += [(workload, name, m["value"], m["unit"])
                          for name, m in result["metrics"].items()]
    for workload, name, value, unit in table:
        print(f"{workload:<17} {name:<13} {value:>12.6g} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
