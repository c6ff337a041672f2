"""Per-stage times of the subgroup-lattice queries, untraced, in one process.

    python3 tools/lattice_stages.py [--repeat N] [--src DIR]

Reads the query pool benchmark/reference/lattice_pool.json (240
subgroups that 2-4 random elements of G_4 or Syl_2(S_16) generate) and, for
each query, generates its subgroup H and runs these stages on it, in order,
one call each:

    generate, squares_subgroup, commutator_subgroup, frattini_subgroup,
    derived_series, exponent, center_size

A stage that reuses what an earlier one built finds it in H's memo, as it does
inside a lattice query: frattini_subgroup reads the squares and commutator
subgroups, derived_series reads [H, H] and exponent reads the square set. The
whole query of benchmark/lattice.py (generate -> frattini_subgroup ->
quotient_rank -> derived_series -> fingerprint) is then timed on a fresh H,
and its answers are checked against the pool's recorded ones.

Prints each stage's total over the pool and the whole queries' total, in ms,
as the median of N passes (default 3) with the lowest and highest in
brackets. --src runs the sylow2 package of another checkout's src/ directory.
Uses the standard library only and writes no file. Exits 0 when every answer
matches and 1 when one does not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL = ROOT / "benchmark" / "reference" / "lattice_pool.json"
STAGES = (
    "generate",
    "squares_subgroup",
    "commutator_subgroup",
    "frattini_subgroup",
    "derived_series",
    "exponent",
    "center_size",
)
QUERY = "whole query"


def load_queries(pool_path: Path) -> list[dict]:
    strata = json.loads(pool_path.read_text())["strata"]
    return [q for order in sorted(strata, key=int) for q in strata[order]]


def one_pass(ge, query, inputs: list[list]) -> tuple[dict[str, float], list[dict]]:
    """Seconds per stage summed over the queries, and each query's answer."""
    totals = dict.fromkeys((*STAGES, QUERY), 0.0)
    answers = []
    clock = time.perf_counter
    for elements in inputs:
        start = clock()
        H = ge.generate(elements)
        totals["generate"] += clock() - start
        for stage in STAGES[1:]:
            run = getattr(ge, stage)
            start = clock()
            run(H)
            totals[stage] += clock() - start
        start = clock()
        answers.append(query(elements))
        totals[QUERY] += clock() - start
    return totals, answers


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3, help="passes over the pool")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding sylow2")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "benchmark")]
    import lattice
    from sylow2 import group_engine as ge

    queries = load_queries(POOL)
    inputs = [[lattice.parse(h) for h in q["elements"]] for q in queries]
    runs = []
    wrong = 0
    for _ in range(args.repeat):
        totals, answers = one_pass(ge, lattice.query, inputs)
        runs.append(totals)
        wrong = sum(a != q["expected"] for a, q in zip(answers, queries))
        if wrong:
            break

    print(f"{len(queries)} queries, {len(runs)} passes, sylow2 from {args.src}")
    print(f"{'stage':<22}{'median ms':>10}  [lowest, highest]")
    for stage in (*STAGES, QUERY):
        ms = [1e3 * totals[stage] for totals in runs]
        print(f"{stage:<22}{statistics.median(ms):>10.1f}  [{min(ms):.1f}, {max(ms):.1f}]")
    if wrong:
        print(f"{wrong} of {len(queries)} answers differ from the pool's", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
