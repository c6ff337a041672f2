"""The README's library example on every query of the subgroup-lattice pool,
checked against the answers recorded with the pool: order, Frattini order,
rank, derived-series orders and fingerprint. The pool is read, never
written."""

import json
from pathlib import Path

from sylow2 import Permutation, generate
from sylow2 import group_engine as ge
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


def _first_of_each_stratum():
    return [stratum[0] for stratum in json.loads(POOL.read_text())["strata"].values()]


def test_a_pooled_query_never_enters_squares_subgroup(monkeypatch):
    def refuse(G):
        raise AssertionError(f"squares_subgroup entered on a group of order {G.order}")

    monkeypatch.setattr(ge, "squares_subgroup", refuse)
    for query in _first_of_each_stratum():
        assert _answer(query["elements"]) == query["expected"], query["id"]


def _squares_route_frattini(G):
    """The Frattini subgroup built from the squares: the closure of the
    squares subgroup and the commutator subgroup."""
    squares, commutators = ge.squares_subgroup(G), ge.commutator_subgroup(G)
    if commutators.elements <= squares.elements:
        return squares.elements
    return ge._dimino(sorted(squares.elements | commutators.elements), G.degree, G.order).elements


def test_frattini_subgroup_is_the_squares_route_closure_on_each_stratum():
    for query in _first_of_each_stratum():
        H = generate([Permutation(bytes.fromhex(h)) for h in query["elements"]])
        phi = frattini_subgroup(H)
        assert phi.elements == _squares_route_frattini(H), query["id"]
        assert phi.order == query["expected"]["frattini_order"]
