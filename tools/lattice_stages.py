"""Per-stage times of the subgroup-lattice queries, untraced, for one or two sylow2 trees.

    python3 tools/lattice_stages.py [--repeat N] [--src DIR [--src DIR]]

Reads the query pool benchmark/reference/lattice_pool.json (240
subgroups that 2-4 random elements of G_4 or Syl_2(S_16) generate). Each
pass first times the set-up of benchmark/lattice.py's prepare: generate on
s_beta(4) and on syl2_S_generators(16), the two parents, and contains on
every pooled element with the parent its query names. Then, for each query,
it generates its subgroup H and runs these stages on it, in order, one call
each:

    generate, element set, squares_subgroup, commutator_subgroup,
    frattini_subgroup, derived_series, exponent, center_size

A stage that reuses what an earlier one built finds it in H, as it does
inside a lattice query: derived_series reads [H, H] from H's memo, and
exponent and center_size read what generate kept, G^2 and H's
representatives modulo G^2, and H's key buffer where they need it (the
doubling scan, and center_size on an intransitive group). On a sylow2
whose generate builds that buffer when it is first read, the build shows
in the first stage that reads it: here the element set stage, since the
element set is split from the buffer, so exponent and center_size find the
buffer built; inside a whole query it shows in whichever stage reads the
buffer first, if any does. generate builds Phi(H) first and keeps it as
H.square_closure, which the frattini_subgroup stage only returns; what Phi
costs shows in generate's two steps, which are timed apart: the Phi closure
(the normal closure of the generators' squares and commutators) and the
doubling of Phi (the extension to H, and on a sylow2 that builds H's buffer
there, that build). exponent's two steps are timed apart too: the squaring
of Phi (how many squarings Phi's elements take) and the doubling scan (the
search of H's representatives, and then of the rest of H's buffer, past
Phi's keys, for an element that that many squarings leave other than the
identity). generate builds no element set: the element set stage is the
first read of H.elements, which builds it. On a sylow2 whose generate
builds the set, that stage only reads an attribute, and squares_subgroup,
the one stage that lists the elements, times the same work on either. A
lattice query neither reads H.elements nor lists the squares. The whole
query of benchmark/lattice.py (generate -> frattini_subgroup ->
quotient_rank -> derived_series -> fingerprint) is then timed on a fresh H,
and its answers are checked against the pool's recorded ones.

Each pass runs in a child process of its own, this file run again on one
tree, which imports sylow2 from that tree's src/ directory afresh, with
PYTHONDONTWRITEBYTECODE=1, and hands its times and answers back as JSON.
The children run one at a time. With two trees (--src given twice) the
passes alternate, A B, B A, A B, ..., so that a drift of the host's speed
falls on both alike, as tools/claim_times.py does; each tree runs N passes
(default 3). --src defaults to this checkout's src/.

Prints the set-up's time, each stage's total over the pool and the whole
queries' total, in ms, with one column per tree: the median of its passes
with the lowest and highest in brackets. A sylow2 whose generate has no Phi
step, or whose exponent does not square Phi first, has no figure ("-") in
that stage's two step rows. Then, for each pool stratum (the subgroup
order, as its log2), it prints the median whole-query ms of its queries,
again as the median of each tree's passes with the lowest and highest. The
benchmark's query_p50_ms falls in the 2^12 stratum and its query_p90_ms in
the 2^14 one. Uses the standard library only and writes no file. Exits 0
when every answer matches and every pooled element lies in its parent, 1
otherwise (the passes stop at the first such pass) or when a pass fails,
and 2 on an argument error, such as a --src that holds no sylow2. A reader
that closes the output early (`| head`) ends no run in a traceback and
changes no exit code.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import subprocess
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
COLUMN = 32  # the width of one tree's "median  [lowest, highest]" column


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


def child_pass(src: Path, pool: Path) -> dict:
    """One pass on the sylow2 of src, in this process: the set-up's and each
    row's seconds, each whole query's seconds, each answer, and whether every
    pooled element lies in its parent. A split stage's step rows are left
    out where group_engine has no such helper."""
    sys.path[:0] = [str(src), str(ROOT / "benchmark")]
    import lattice
    from sylow2 import group_engine as ge

    queries = [q for _, q in load_queries(pool)]
    inputs = [[lattice.parse(h) for h in q["elements"]] for q in queries]
    parents = [(q["parent"], elements) for q, elements in zip(queries, inputs)]
    seconds, members = set_up(ge, lattice.enumerate_parents, parents)
    totals, latencies, answers = one_pass(ge, lattice.query, inputs)
    for name, *steps in SPLITS.values():
        if not hasattr(ge, name):
            for row in steps:
                del totals[row]
    return {"totals": {SETUP: seconds, **totals}, "latencies": latencies,
            "answers": answers, "members": members}


def run_pass(src: Path, pool: Path) -> dict:
    """child_pass on src in a fresh child interpreter that writes no
    bytecode; RuntimeError if the child fails."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", "--src", str(src), "--pool", str(pool)]
    child = subprocess.run(argv, env=env, capture_output=True, text=True)
    if child.returncode != 0:
        raise RuntimeError(f"a pass on {src} exited {child.returncode}: {child.stderr.strip()}")
    return json.loads(child.stdout)


def collect(srcs: list[Path], repeat: int, pool: Path, expected: list) -> tuple[list[list[dict]], list[str]]:
    """repeat passes of each tree, alternating A B, B A, ...: each tree's
    passes, and a line for each thing wrong with the last pass, after
    which no further pass runs."""
    runs: list[list[dict]] = [[] for _ in srcs]
    sides = range(len(srcs))
    for i in range(repeat):
        for side in sides[::-1] if i % 2 else sides:
            found = run_pass(srcs[side], pool)
            runs[side].append(found)
            label = f"{chr(ord('A') + side)}: "
            wrong = sum(a != e for a, e in zip(found["answers"], expected))
            problems = [label + "a pooled element is not in its parent"] if not found["members"] else []
            if wrong:
                problems.append(label + f"{wrong} of {len(expected)} answers differ from the pool's")
            if problems:
                return runs, problems
    return runs, []


def cell(ms: list[float]) -> str:
    """The median of ms with the lowest and highest, or "-" for none."""
    if not ms:
        return "-".rjust(COLUMN)
    return f"{statistics.median(ms):.1f}  [{min(ms):.1f}, {max(ms):.1f}]".rjust(COLUMN)


def table(srcs: list[Path], runs: list[list[dict]], pooled: list[tuple[str, dict]]) -> list[str]:
    """The printed lines: the trees, a header, one row per stage and step
    and the whole queries, then one row per pool stratum; one column per
    tree."""
    labels = [chr(ord("A") + side) for side in range(len(srcs))]
    trees = "; ".join(f"{label}: {len(passes)} passes, sylow2 from {src}"
                      for label, passes, src in zip(labels, runs, srcs))
    lines = [f"{len(pooled)} queries; {trees}",
             f"{'stage':<22}" + "".join(f"{label} median ms [lowest, highest]".rjust(COLUMN) for label in labels)]
    for stage in (SETUP, *STAGES, QUERY):
        _, *steps = SPLITS.get(stage, ("",))
        for row in (stage, *steps):
            cells = [[1e3 * found["totals"][row] for found in passes if row in found["totals"]]
                     for passes in runs]
            if any(cells):
                lines.append(f"{row:<22}" + "".join(map(cell, cells)))
    sizes = collections.Counter(order for order, _ in pooled)
    lines.append(f"{'order':<8}{'queries':>8}" + "".join(f"{label} median query ms".rjust(COLUMN) for label in labels))
    for order in sizes:
        cells = [[statistics.median([1e3 * t for (o, _), t in zip(pooled, found["latencies"]) if o == order])
                  for found in passes] for passes in runs]
        lines.append(f"{'2^' + order:<8}{sizes[order]:>8}" + "".join(map(cell, cells)))
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3, help="passes over the pool, of each tree")
    parser.add_argument("--src", type=Path, action="append",
                        help="directory holding sylow2, given at most twice (default: this checkout's src/)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pool", type=Path, default=POOL, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    srcs = [src.resolve() for src in args.src or [ROOT / "src"]]
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if len(srcs) > 2:
        parser.error("give --src at most twice")
    for src in srcs:
        if not (src / "sylow2" / "__init__.py").is_file():
            parser.error(f"--src {src} holds no sylow2 package")
    if args.child:
        print(json.dumps(child_pass(srcs[0], args.pool)))
        return 0

    pooled = load_queries(args.pool)
    try:
        runs, problems = collect(srcs, args.repeat, args.pool, [q["expected"] for _, q in pooled])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print("\n".join(table(srcs, runs, pooled)), flush=True)
    except BrokenPipeError:  # the reader closed stdout early: the table is lost, the exit code is not
        # point stdout at the null device, so the flush at exit finds no closed pipe either
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
