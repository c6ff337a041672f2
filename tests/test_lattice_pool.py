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


def _generate(elements):
    return generate([Permutation(bytes.fromhex(h)) for h in elements])


def _answer(elements):
    return _query(_generate(elements))


def _query(H):
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
        H = _generate(query["elements"])
        phi = frattini_subgroup(H)
        assert phi.elements == _squares_route_frattini(H), query["id"]
        assert phi.order == query["expected"]["frattini_order"]


def test_generate_memoizes_the_frattini_subgroup_on_each_stratum():
    for query in _first_of_each_stratum():
        H = _generate(query["elements"])
        phi = frattini_subgroup(H)
        assert phi is H.square_closure, query["id"]
        rebuilt = frattini_subgroup(ge.EnumeratedGroup(H.degree, H.gen_keys, H.buffer))
        assert (phi.elements, phi.gen_keys) == (rebuilt.elements, rebuilt.gen_keys), query["id"]


def test_a_pooled_query_builds_no_element_set():
    for query in _first_of_each_stratum():
        H = _generate(query["elements"])
        assert _query(H) == query["expected"], query["id"]
        assert "elements" not in vars(H), query["id"]
        eager = ge.EnumeratedGroup(H.degree, H.gen_keys, b"".join(sorted(H.elements)))
        assert H == eager and hash(H) == hash(eager) and repr(H) == repr(eager), query["id"]
        assert H.order == len(H.elements) == query["expected"]["order"]


def _all_element_exponent(H):
    """The exponent by squaring every element: the same elements with no G^2
    kept, which exponent reads whole."""
    return ge.exponent(ge.EnumeratedGroup(H.degree, H.gen_keys, b"".join(sorted(H.elements))))


def _first_with_the_exponent_of_its_squares():
    for stratum in json.loads(POOL.read_text())["strata"].values():
        for query in stratum:
            H = _generate(query["elements"])
            if _all_element_exponent(H) == _all_element_exponent(H.square_closure):
                return query
    raise AssertionError("no pooled query has the exponent of its G^2")


def test_the_exponent_from_g2_is_the_all_element_exponent():
    # the first query of each stratum, and a query whose buffer past G^2 is
    # scanned whole
    for query in (*_first_of_each_stratum(), _first_with_the_exponent_of_its_squares()):
        H = _generate(query["elements"])
        recorded = query["expected"]["fingerprint"]["exponent"]
        assert ge.exponent(H) == _all_element_exponent(H) == recorded, query["id"]


def test_an_exponent_twice_that_of_g2_squares_fewer_keys_than_the_group(monkeypatch):
    steps, squared = ge._steps, []

    def counted(slabs, degree, most):
        def read():
            for slab in slabs:
                squared.append(len(slab) // degree)
                yield slab
        return steps(read(), degree, most)

    query = json.loads(POOL.read_text())["strata"]["14"][0]
    H = _generate(query["elements"])
    exponent = query["expected"]["fingerprint"]["exponent"]
    assert exponent == 2 * _all_element_exponent(H.square_closure)
    monkeypatch.setattr(ge, "_steps", counted)
    assert ge.exponent(H) == exponent
    assert 0 < sum(squared) < H.order == 1 << 14
