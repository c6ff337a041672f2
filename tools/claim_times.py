"""Per-claim runtime_ms of a cold `sylow2 verify --all`, each run in a fresh interpreter.

    python3 tools/claim_times.py [--runs N] [SRC [SRC]]

Each run is one child `python3 -m sylow2.cli verify --all --json R.json` with
PYTHONPATH set to a src/ tree (this checkout's src/ when none is given) and
PYTHONDONTWRITEBYTECODE=1, so every run imports from source. Children run one
at a time. With two trees the runs alternate, A B, B A, A B, ..., so that a
drift of the host's speed falls on both alike; each tree runs N times
(default 10).

Prints one row per claim with, for each tree, the median, lowest and highest
runtime_ms that the reports record (untraced, whole milliseconds), a row with
the sum of the medians, and a last row, process wall_ms, with the same three
figures for each child's whole wall-clock time, timed around it to 0.1 ms. That
row also holds what no claim's runtime_ms does: the interpreter's start, the
imports, the parser and the exit. Uses the standard library only and imports
no sylow2 itself; the reports go to a temporary directory that it removes.
Exits 0 when every child exits 0 and every report lists the same claims in
the same order, 1 otherwise, and 2 on an argument error, such as a SRC that
holds no sylow2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMN = 20  # the width of one tree's "median [min-max]" column


def run_once(src: Path, report: Path) -> tuple[float, dict[str, int]]:
    """One cold verify --all on the tree src: the child's wall-clock ms, and
    each claim's runtime_ms, in report order."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "sylow2.cli", "verify", "--all", "--json", str(report)]
    start = time.perf_counter()
    child = subprocess.run(argv, env=env, capture_output=True, text=True)
    wall_ms = (time.perf_counter() - start) * 1000
    if child.returncode != 0:
        raise RuntimeError(f"verify --all on {src} exited {child.returncode}: {child.stderr.strip()}")
    return wall_ms, {c["claim_id"]: c["runtime_ms"] for c in json.loads(report.read_text())["claims"]}


def collect(srcs: list[Path], runs: int) -> tuple[list[dict[str, list[int]]], list[list[float]]]:
    """runs runs of each tree, alternating A B, B A, ...: for each tree, each
    claim's runtime_ms, and each child's wall-clock ms."""
    times: list[dict[str, list[int]]] = [{} for _ in srcs]
    walls: list[list[float]] = [[] for _ in srcs]
    claim_ids = None
    with tempfile.TemporaryDirectory(prefix="claim_times_") as tmp:
        sides = range(len(srcs))
        for i in range(runs):
            for side in sides[::-1] if i % 2 else sides:
                wall_ms, claims = run_once(srcs[side], Path(tmp) / "report.json")
                walls[side].append(wall_ms)
                if claim_ids is None:
                    claim_ids = list(claims)
                elif list(claims) != claim_ids:
                    raise RuntimeError(f"verify --all on {srcs[side]} reported other claims: {list(claims)}")
                for claim_id, ms in claims.items():
                    times[side].setdefault(claim_id, []).append(ms)
    return times, walls


def table(srcs: list[Path], times: list[dict[str, list[int]]], walls: list[list[float]]) -> list[str]:
    """The printed lines: each tree's label, a header, one row per claim, the
    sum of medians and the children's wall-clock ms."""
    labels = [chr(ord("A") + side) for side in range(len(srcs))]
    width = max(map(len, times[0])) + 2
    lines = [f"{label}: {src}" for label, src in zip(labels, srcs)]
    lines.append("runtime_ms".ljust(width) + "".join(f"{label} median [min-max]".rjust(COLUMN) for label in labels))
    for claim_id in times[0]:
        cells = (t[claim_id] for t in times)
        lines.append(claim_id.ljust(width) + "".join(
            f"{statistics.median(ms):g} [{min(ms)}-{max(ms)}]".rjust(COLUMN) for ms in cells))
    sums = (sum(map(statistics.median, t.values())) for t in times)
    lines.append("sum of medians".ljust(width) + "".join(f"{total:g}".rjust(COLUMN) for total in sums))
    lines.append("process wall_ms".ljust(width) + "".join(
        f"{statistics.median(ms):.1f} [{min(ms):.1f}-{max(ms):.1f}]".rjust(COLUMN) for ms in walls))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs of each tree (default 10)")
    parser.add_argument("src", nargs="*", type=Path, help="one or two src/ trees (default: this checkout's)")
    args = parser.parse_args(argv)
    srcs = [src.resolve() for src in args.src] or [ROOT / "src"]
    if len(srcs) > 2 or args.runs < 1:
        parser.error("give at most two src trees and --runs of at least 1")
    for src in srcs:
        if not (src / "sylow2" / "cli.py").is_file():
            parser.error(f"{src} holds no sylow2 package")
    try:
        times, walls = collect(srcs, args.runs)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(table(srcs, times, walls)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
