"""The coset-by-coset closure and generator reduction against two oracles,
a breadth-first closure and a greedy reduction that re-closes after every
accepted generator, plus the cap boundaries of the public entry points."""

import pytest
from hypothesis import given, settings, strategies as st

from sylow2 import group_engine as ge
from sylow2.sylow_builders import s_beta


def _bfs_closure(gen_keys, degree, cap):
    ident = bytes(range(degree))
    gens = [g for g in dict.fromkeys(gen_keys) if g != ident]
    elements = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = bytes(map(x.__getitem__, g))
                if y not in elements:
                    if len(elements) >= cap:
                        raise ge.CapExceededError(cap, len(elements))
                    elements.add(y)
                    fresh.append(y)
        frontier = fresh
    return elements


def _naive_reduce(keys, degree, cap):
    gens = []
    have = {bytes(range(degree))}
    for key in sorted(set(keys)):
        if key not in have:
            gens.append(key)
            have = _bfs_closure(gens, degree, cap)
    return gens


def _outcome(fn, *args):
    """The result, or the cap error's (cap, partial_count)."""
    try:
        return fn(*args)
    except ge.CapExceededError as exc:
        return ("cap", exc.cap, exc.partial_count)


_G3_KEYS = ge.generate(s_beta(3)).sorted_keys()
_G4_KEYS = ge.generate(s_beta(4)).sorted_keys()


@st.composite
def _symmetric_case(draw):
    degree = draw(st.sampled_from([5, 6]))
    return degree, draw(st.lists(st.permutations(range(degree)).map(bytes), max_size=5))


@settings(max_examples=60)
@given(_symmetric_case(), st.integers(min_value=0, max_value=800))
def test_closure_matches_bfs_in_s5_s6(case, cap):
    degree, keys = case
    assert _outcome(ge._closure, keys, degree, cap) == _outcome(
        _bfs_closure, keys, degree, cap
    )


@settings(max_examples=60)
@given(_symmetric_case())
def test_reduce_matches_naive_reduce_in_s5_s6(case):
    degree, keys = case
    reduced, elements = ge._reduce_generators(keys, degree, ge.DEFAULT_CAP)
    assert reduced == _naive_reduce(keys, degree, ge.DEFAULT_CAP)
    assert elements == _bfs_closure(keys, degree, ge.DEFAULT_CAP)


@settings(max_examples=40)
@given(st.lists(st.sampled_from(_G3_KEYS), min_size=2, max_size=4, unique=True))
def test_reduce_of_g3_subgroups_matches_naive_reduce(keys):
    # reduce the whole subgroup the subset generates, as the Frattini and
    # commutator constructions do
    subgroup = _bfs_closure(keys, 8, ge.DEFAULT_CAP)
    assert ge._closure(keys, 8, ge.DEFAULT_CAP) == subgroup
    reduced, elements = ge._reduce_generators(subgroup, 8, ge.DEFAULT_CAP)
    assert reduced == _naive_reduce(subgroup, 8, ge.DEFAULT_CAP)
    assert elements == subgroup


@settings(max_examples=12)
@given(st.lists(st.sampled_from(_G4_KEYS), min_size=2, max_size=4, unique=True))
def test_closure_and_reduce_of_g4_subsets_match_oracles(keys):
    subgroup = _bfs_closure(keys, 16, ge.DEFAULT_CAP)
    assert ge._closure(keys, 16, ge.DEFAULT_CAP) == subgroup
    reduced, elements = ge._reduce_generators(keys, 16, ge.DEFAULT_CAP)
    assert reduced == _naive_reduce(keys, 16, ge.DEFAULT_CAP)
    assert elements == subgroup


def test_reduce_of_g4_matches_naive_reduce():
    reduced, elements = ge._reduce_generators(_G4_KEYS, 16)
    assert reduced == _naive_reduce(_G4_KEYS, 16, ge.DEFAULT_CAP)
    assert elements == set(_G4_KEYS)


@pytest.mark.parametrize("k", [3, 4])
def test_generate_cap_boundaries(k):
    order = len(_G3_KEYS if k == 3 else _G4_KEYS)
    assert ge.generate(s_beta(k), cap=order).order == order
    for cap in (1, order - 1):
        with pytest.raises(ge.CapExceededError) as info:
            ge.generate(s_beta(k), cap=cap)
        assert (info.value.cap, info.value.partial_count) == (cap, cap)


@pytest.mark.parametrize("k", [3, 4])
def test_frattini_cap_boundaries(k):
    # the largest group the Frattini construction closes is the Frattini
    # subgroup itself, so the cap boundary sits at its order
    G = ge.generate(s_beta(k))
    order = ge.frattini_subgroup(G).order
    assert order > 1
    assert ge.frattini_subgroup(G, cap=order).order == order
    for cap in (1, order - 1):
        with pytest.raises(ge.CapExceededError) as info:
            ge.frattini_subgroup(G, cap=cap)
        assert (info.value.cap, info.value.partial_count) == (cap, cap)
