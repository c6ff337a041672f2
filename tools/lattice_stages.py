"""Per-stage times of the subgroup-lattice queries, untraced, in one process.

    python3 tools/lattice_stages.py [--repeat N] [--src DIR]

Reads the query pool benchmark/reference/lattice_pool.json (240
subgroups that 2-4 random elements of G_4 or Syl_2(S_16) generate). Each
pass first times the set-up of benchmark/lattice.py's prepare: generate on
s_beta(4) and on syl2_S_generators(16), the two parents, and contains on
every pooled element with the parent its query names. Then, for each query,
it generates its subgroup H and runs these stages on it, in order, one call
each:

    generate, element set, squares_subgroup, commutator_subgroup,
    frattini_subgroup, derived_series, exponent, center_size

A stage that reuses what an earlier one built finds it in H's memo, as it does
inside a lattice query: derived_series reads [H, H], and exponent and
center_size read the cosets generate kept. generate builds Phi(H) first and
keeps it as H.square_closure, which the frattini_subgroup stage only returns;
what Phi costs shows in generate's two steps, which are timed apart: the Phi
closure (the normal closure of the generators' squares and commutators) and
the doubling of Phi (the extension to H). exponent's two steps are timed
apart too: the squaring of Phi (how many squarings Phi's elements take) and
the doubling scan (the search of the doubling buffers for an element that
that many squarings leave other than the identity). generate builds no
element set: the element set stage is the first read of H.elements, which
builds it. On a sylow2 whose generate builds the set, that stage only reads
an attribute, and squares_subgroup, the one stage that lists the elements,
times the same work on either. A lattice query neither reads H.elements nor
lists the squares. The whole query of benchmark/lattice.py
(generate -> frattini_subgroup -> quotient_rank -> derived_series ->
fingerprint) is then timed on a fresh H, and its answers are checked against
the pool's recorded ones.

Prints the set-up's time, each stage's total over the pool and the whole
queries' total, in ms, as the median of N passes (default 3) with the lowest
and highest in brackets; a sylow2 whose generate has no Phi step, or whose
exponent does not square Phi first, prints no rows for that stage's two
steps. Then, for each pool stratum (the subgroup order, as its log2), it
prints the median whole-query ms of its queries, again as the median of the
passes with the lowest and highest. The benchmark's query_p50_ms falls in
the 2^12 stratum and its query_p90_ms in the 2^14 one.
--src runs the sylow2 package of another checkout's src/ directory.
Uses the standard library only and writes no file. Exits 0 when every answer
matches and every pooled element lies in its parent, 1 otherwise, and 2 on
an argument error, such as a --src that holds no sylow2. A reader that
closes the output early (`| head`) ends no run in a traceback and changes
no exit code.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL = ROOT / "benchmark" / "reference" / "lattice_pool.json"
SETUP = "set-up"
ELEMENT_SET = "element set"
STAGES = (
    "generate",
    ELEMENT_SET,
    "squares_subgroup",
    "commutator_subgroup",
    "frattini_subgroup",
    "derived_series",
    "exponent",
    "center_size",
)
QUERY = "whole query"
# generate's two steps: the Phi closure, and the rest of generate
PHI, DOUBLING = "  Phi closure", "  doubling of Phi"
# exponent's two steps: squaring Phi, and the rest of exponent
SQUARING, SCAN = "  squaring of Phi", "  doubling scan"
# a stage timed in two steps: the group_engine helper whose first call in
# the stage is the first step, and the rows of the two steps
SPLITS = {
    "generate": ("_square_closure", PHI, DOUBLING),
    "exponent": ("_steps", SQUARING, SCAN),
}


def load_queries(pool_path: Path) -> list[tuple[str, dict]]:
    """(stratum, query) for every query of the pool, smallest stratum first."""
    strata = json.loads(pool_path.read_text())["strata"]
    return [(order, q) for order in sorted(strata, key=int) for q in strata[order]]


def set_up(ge, enumerate_parents, pooled: list[tuple[str, list]]) -> tuple[float, bool]:
    """Seconds to build the parent groups and test each pooled element's
    membership in its parent, as lattice.py's prepare does, and whether
    every element is a member. pooled holds (parent name, elements)."""
    start = time.perf_counter()
    parents = enumerate_parents()
    members = all(ge.contains(parents[name], p) for name, elements in pooled for p in elements)
    return time.perf_counter() - start, members


def read_elements(H):
    return H.elements


def one_pass(ge, query, inputs: list[list]) -> tuple[dict[str, float], list[float], list[dict]]:
    """Seconds per stage summed over the queries, each whole query's
    seconds, and each query's answer."""
    steps = [row for _, *rows in SPLITS.values() for row in rows]
    totals = dict.fromkeys((*STAGES, *steps, QUERY), 0.0)
    latencies = []
    answers = []
    clock = time.perf_counter

    def timed(stage, run, arg):
        # a split stage's helper is wrapped for the stage alone and its first
        # call timed; a sylow2 without the helper times the stage whole
        name, first, _ = SPLITS.get(stage, ("", "", ""))
        helper = getattr(ge, name, None)
        spans = []

        def timed_helper(*args):
            start = clock()
            found = helper(*args)
            spans.append(clock() - start)
            return found

        if helper is not None:
            setattr(ge, name, timed_helper)
        try:
            start = clock()
            result = run(arg)
            totals[stage] += clock() - start
        finally:
            if helper is not None:
                setattr(ge, name, helper)
        if spans:
            totals[first] += spans[0]
        return result

    for elements in inputs:
        H = timed("generate", ge.generate, elements)
        for stage in STAGES[1:]:
            timed(stage, read_elements if stage == ELEMENT_SET else getattr(ge, stage), H)
        start = clock()
        answers.append(query(elements))
        latencies.append(clock() - start)
    for stage, (_, first, rest) in SPLITS.items():
        totals[rest] = totals[stage] - totals[first]
    totals[QUERY] = sum(latencies)
    return totals, latencies, answers


def spread(ms: list[float]) -> str:
    return f"{statistics.median(ms):>10.1f}  [{min(ms):.1f}, {max(ms):.1f}]"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3, help="passes over the pool")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding sylow2")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if not (args.src / "sylow2" / "__init__.py").is_file():
        parser.error(f"--src {args.src} holds no sylow2 package")
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "benchmark")]
    import lattice
    from sylow2 import group_engine as ge

    pooled = load_queries(POOL)
    queries = [q for _, q in pooled]
    inputs = [[lattice.parse(h) for h in q["elements"]] for q in queries]
    parents = [(q["parent"], elements) for q, elements in zip(queries, inputs)]
    strata = {order: [] for order, _ in pooled}  # each pass's stratum medians
    runs = []
    wrong = 0
    for _ in range(args.repeat):
        seconds, members = set_up(ge, lattice.enumerate_parents, parents)
        totals, latencies, answers = one_pass(ge, lattice.query, inputs)
        runs.append({SETUP: seconds, **totals})
        for order, ms in strata.items():
            ms.append(statistics.median(
                [1e3 * t for (o, _), t in zip(pooled, latencies) if o == order]
            ))
        wrong = sum(a != q["expected"] for a, q in zip(answers, queries))
        if wrong or not members:
            break

    lines = [
        f"{len(queries)} queries, {len(runs)} passes, sylow2 from {args.src}",
        f"{'stage':<22}{'median ms':>10}  [lowest, highest]",
    ]
    for stage in (SETUP, *STAGES, QUERY):
        name, *steps = SPLITS.get(stage, ("",))
        for row in (stage, *steps) if hasattr(ge, name) else (stage,):
            lines.append(f"{row:<22}{spread([1e3 * totals[row] for totals in runs])}")
    sizes = collections.Counter(order for order, _ in pooled)
    lines.append(f"{'order':<8}{'queries':>8}{'median query ms':>16}  [lowest, highest]")
    for order, ms in strata.items():
        lines.append(f"{'2^' + order:<8}{sizes[order]:>8}{spread(ms):>16}")
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:  # the reader closed stdout early: the table is lost, the exit code is not
        # point stdout at the null device, so the flush at exit finds no closed pipe either
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    if not members:
        print("a pooled element is not in its parent", file=sys.stderr)
    if wrong:
        print(f"{wrong} of {len(queries)} answers differ from the pool's", file=sys.stderr)
    return 1 if wrong or not members else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
