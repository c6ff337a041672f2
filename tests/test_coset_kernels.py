"""_dimino's coset buffers and the slab kernels that read them, exponent and
center_size, against brute-force oracles: random generator sets of small
groups placed on random points of many degrees, 2-groups and others, read in
slabs of several sizes, and the same groups rebuilt by group_from_elements,
which keeps no cosets."""

import math
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from sylow2 import group_engine as ge
from sylow2.perm_core import Permutation
from sylow2.sylow_builders import syl2_S_generators

# 256 // d keys share a block of exponent's offset form: 256 at d = 1, one at
# d = 255, and a partial last block wherever d does not divide 256
DEGREES = [1, 2, 3, 5, 7, 12, 16, 17, 20, 255]
# slab lengths: one key, lengths that cut inside cosets, and the default
SLABS = [1, 3, 5, 64, ge._SLAB]


def _elements(gens):
    return ge.generate(gens).sorted_keys()


# small groups on their own points, whose random elements make the generators
_BASES = {
    "S_2": _elements([Permutation.transposition(2, 1, 2)]),
    "S_3": _elements([Permutation.from_cycles(3, [(1, 2, 3)]), Permutation.transposition(3, 1, 2)]),
    "S_4": _elements(
        [Permutation.from_cycles(4, [(1, 2, 3, 4)]), Permutation.transposition(4, 1, 2)]
    ),
    "Syl_2(S_8)": _elements(syl2_S_generators(8)),
}


# Syl_2(S_8) on the last 8 of 17 points: 15 keys to a block, so its 128
# elements end in a partial block
_SYL2_S8_GENS = [g.key for _, g in syl2_S_generators(8).permutation_entries()]
_LAST_8_OF_17 = (17, [bytes(range(9)) + bytes(9 + i for i in g) for g in _SYL2_S8_GENS])


@st.composite
def _generator_sets(draw):
    """(degree, generator keys): one or two copies of small groups on
    disjoint random points of the degree, one to three random elements of
    each copy."""
    degree = draw(st.sampled_from(DEGREES))
    points = draw(st.permutations(range(degree)))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        fitting = [name for name, keys in _BASES.items() if len(keys[0]) <= len(points)]
        if not fitting:
            break
        base = _BASES[draw(st.sampled_from(fitting))]
        place, points = points[:len(base[0])], points[len(base[0]):]
        for e in draw(st.lists(st.sampled_from(base), min_size=1, max_size=3)):
            key = bytearray(range(degree))
            for i, image in enumerate(e):
                key[place[i]] = place[image]
            gens.append(bytes(key))
    return degree, gens


def _naive_closure(gens, degree, cap):
    """Breadth-first closure, one element at a time; past the cap it reports
    the count it stopped at, as _dimino does."""
    elements = {bytes(range(degree))}
    frontier = list(elements)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = ge._mul(g, x)
                if y not in elements:
                    if len(elements) >= cap:
                        raise ge.CapExceededError(cap, len(elements))
                    elements.add(y)
                    fresh.append(y)
        frontier = fresh
    return elements


def _outcome(closure, *args):
    try:
        return closure(*args)
    except ge.CapExceededError as exc:
        return ("cap", exc.cap, exc.partial_count)


def _groups(degree, gens):
    """The generated group, and the same elements with no cosets kept."""
    G = ge.generate([Permutation(g) for g in gens], degree=degree)
    bare = ge.group_from_elements(G.elements, degree)
    assert "cosets" in G._memo and "cosets" not in bare._memo
    return G, bare


@settings(max_examples=150)
@given(_generator_sets(), st.one_of(st.just(ge.DEFAULT_CAP), st.integers(0, 200)))
def test_dimino_matches_a_naive_closure(case, cap):
    degree, gens = case
    outcome = _outcome(ge._dimino, gens, degree, cap)
    if isinstance(outcome, ge.EnumeratedGroup):
        assert outcome.elements == _naive_closure(gens, degree, cap)
        # the kept cosets hold every element once
        keys = b"".join(outcome._memo["cosets"])
        assert {keys[i:i + degree] for i in range(0, len(keys), degree)} == outcome.elements
        assert len(keys) == outcome.order * degree
    else:
        assert outcome == _outcome(_naive_closure, gens, degree, cap)


@settings(max_examples=150)
@given(_generator_sets(), st.sampled_from(SLABS))
@example(_LAST_8_OF_17, 5)
@example(_LAST_8_OF_17, ge._SLAB)
def test_exponent_is_the_lcm_of_the_element_orders(case, slab):
    G, bare = _groups(*case)
    lcm = math.lcm(*(Permutation(x).order() for x in G.elements))
    with mock.patch.object(ge, "_SLAB", slab):
        assert ge.exponent(G) == ge.exponent(bare) == lcm


@settings(max_examples=150)
@given(_generator_sets(), st.sampled_from(SLABS))
@example(_LAST_8_OF_17, 5)
def test_center_size_counts_the_elements_that_commute_with_every_generator(case, slab):
    G, bare = _groups(*case)
    count = sum(all(ge._mul(x, g) == ge._mul(g, x) for g in G.gen_keys) for x in G.elements)
    with mock.patch.object(ge, "_SLAB", slab):
        assert ge.center_size(G) == ge.center_size(bare) == count


def test_s4_grows_by_cosets_of_three_and_six_keys():
    three, two, four = (
        Permutation.from_cycles(4, [(1, 2, 3)]),
        Permutation.transposition(4, 1, 2),
        Permutation.from_cycles(4, [(1, 2, 3, 4)]),
    )
    S4 = ge.generate([three, two, four])
    assert [len(c) // 4 for c in S4._memo["cosets"]] == [1, 1, 1, 3, 6, 6, 6]
    assert S4.order == 24 and ge.exponent(S4) == 12 and ge.center_size(S4) == 1
    for cap in (5, 6, 23):
        outcome = _outcome(ge._dimino, S4.gen_keys, 4, cap)
        assert outcome == _outcome(_naive_closure, S4.gen_keys, 4, cap) == ("cap", cap, cap)


def test_slabs_cut_the_cosets_in_order():
    G = ge.generate(syl2_S_generators(8))
    keys = b"".join(G._memo["cosets"])
    for slab in SLABS:
        with mock.patch.object(ge, "_SLAB", slab):
            slabs = list(ge._slabs(G))
        assert b"".join(slabs) == keys
        assert all(len(s) == slab * 8 for s in slabs[:-1]) and 0 < len(slabs[-1]) <= slab * 8
    bare = ge.group_from_elements(G.elements, 8)
    with mock.patch.object(ge, "_SLAB", 5):
        slabs = list(ge._slabs(bare))
    assert sorted(s[i:i + 8] for s in slabs for i in range(0, len(s), 8)) == G.sorted_keys()
    assert [len(s) // 8 for s in slabs] == [5] * 25 + [3]
    assert list(ge._slabs(ge.generate((), degree=3))) == [bytes(range(3))]
