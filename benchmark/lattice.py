"""Library client for the subgroup-lattice workload.

    python3 lattice.py JOB OUT

JOB is a JSON file ``{"queries": [{"parent": "G_4" | "S_16", "elements":
[hex, ...]}, ...]}``; each element is the hex form of a permutation's 0-based
image bytes. Set-up enumerates the two parent groups, G_4 = <s_beta(4)> (order
2^14) and Syl_2(S_16) (order 2^15), and checks that every query element lies
in its parent. Each query then runs the README's library example on the
subgroup its elements generate: generate -> frattini_subgroup ->
quotient_rank -> derived_series -> fingerprint.

OUT receives the set-up checks, ``ready_at`` (CLOCK_MONOTONIC, shared with
the parent process, taken when set-up ends) and one result per query with
its latency.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from sylow2 import Permutation, generate, s_beta
from sylow2.group_engine import (
    contains,
    derived_series,
    fingerprint,
    frattini_subgroup,
    quotient_rank,
)
from sylow2.sylow_builders import syl2_S_generators

PARENTS = {"G_4": lambda: s_beta(4), "S_16": lambda: syl2_S_generators(16)}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse(text: str) -> Permutation:
    return Permutation(bytes.fromhex(text))


def enumerate_parents() -> dict:
    return {name: generate(build()) for name, build in PARENTS.items()}


def query(elements: list[Permutation]) -> dict:
    H = generate(elements)
    phi = frattini_subgroup(H)
    rank = quotient_rank(H)
    series = derived_series(H)
    return {
        "order": H.order,
        "frattini_order": phi.order,
        "rank": rank,
        "derived_orders": [D.order for D in series],
        "fingerprint": fingerprint(H),
    }


def prepare(job_path: str) -> dict:
    queries = json.loads(Path(job_path).read_text())["queries"]
    parents = enumerate_parents()
    elements = [[parse(h) for h in q["elements"]] for q in queries]
    members_ok = all(
        contains(parents[q["parent"]], p) for q, els in zip(queries, elements) for p in els
    )
    return {
        "elements": elements,
        "parent_orders": {name: G.order for name, G in parents.items()},
        "members_ok": members_ok,
        "ready_at": monotonic(),
    }


def complete(state: dict, out_path: str) -> None:
    results = []
    for elements in state["elements"]:
        start = time.perf_counter()
        result = query(elements)
        result["latency_s"] = time.perf_counter() - start
        results.append(result)
    out = {key: state[key] for key in ("parent_orders", "members_ok", "ready_at")}
    Path(out_path).write_text(json.dumps({**out, "results": results}))


if __name__ == "__main__":
    job, out = sys.argv[1:]
    complete(prepare(job), out)
