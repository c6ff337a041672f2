"""The README's library example on every query of the subgroup-lattice pool,
checked against the answers recorded with the pool: order, Frattini order,
rank, derived-series orders and fingerprint. The pool is read, never
written."""

import json
from pathlib import Path

from sylow2 import Permutation, generate
from sylow2.group_engine import derived_series, fingerprint, frattini_subgroup, quotient_rank

POOL = Path(__file__).resolve().parents[1] / "benchmark" / "reference" / "lattice_pool.json"


def _answer(elements):
    H = generate([Permutation(bytes.fromhex(h)) for h in elements])
    phi = frattini_subgroup(H)
    return {
        "order": H.order,
        "frattini_order": phi.order,
        "rank": quotient_rank(H),
        "derived_orders": [D.order for D in derived_series(H)],
        "fingerprint": fingerprint(H),
    }


def test_every_pooled_query_matches_its_recorded_answer():
    queries = [q for stratum in json.loads(POOL.read_text())["strata"].values() for q in stratum]
    assert len(queries) == 240
    wrong = {
        q["id"]: answer
        for q in queries
        if (answer := _answer(q["elements"])) != q["expected"]
    }
    assert not wrong
