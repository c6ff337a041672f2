"""Dimino's coset-by-coset closure, its element set and the generators it
accepts, against two oracles: a breadth-first closure and a greedy reduction
that re-closes after every accepted generator, on random subgroups of
conjugates of Syl_2(S_8) and Syl_2(S_16). Random generators in S_5 and S_6
check that a closure whose order is not a power of two is refused. Plus the
cap boundaries of generate."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import closure, relabel
from sylow2 import group_engine as ge
from sylow2.sylow_builders import s_beta, syl2_S_generators


def _naive_reduce(keys, degree, cap):
    gens = []
    have = {bytes(range(degree))}
    for key in sorted(set(keys)):
        if key not in have:
            gens.append(key)
            have = closure(gens, degree, cap)
    return gens


def _bfs_group(gen_keys, degree, cap):
    """The breadth-first closure, refused as EnumeratedGroup refuses it where
    its order is not a power of two."""
    elements = closure(gen_keys, degree, cap)
    if len(elements).bit_count() != 1:
        raise ValueError(f"a group of order {len(elements)} is not a 2-group")
    return elements


def _dimino_elements(keys, degree, cap):
    return ge._dimino(keys, degree, cap).elements


def _outcome(fn, *args):
    """The result, the cap error's (cap, partial_count), or the refusal."""
    try:
        return fn(*args)
    except ge.CapExceededError as exc:
        return ("cap", exc.cap, exc.partial_count)
    except ValueError as exc:
        return ("refused", str(exc))


_G3_KEYS = ge.generate(s_beta(3)).sorted_keys()
_G4_KEYS = ge.generate(s_beta(4)).sorted_keys()
_SYL2_KEYS = {d: ge.generate(syl2_S_generators(d)).sorted_keys() for d in (8, 16)}


@st.composite
def _symmetric_case(draw):
    degree = draw(st.sampled_from([5, 6]))
    return degree, draw(st.lists(st.permutations(range(degree)).map(bytes), max_size=5))


@st.composite
def _two_group_case(draw):
    """Up to five random elements of Syl_2(S_8) or Syl_2(S_16), all
    conjugated by one random permutation of the points."""
    degree = draw(st.sampled_from(sorted(_SYL2_KEYS)))
    points = draw(st.permutations(range(degree)))
    keys = draw(st.lists(st.sampled_from(_SYL2_KEYS[degree]), max_size=5))
    return degree, [relabel(key, points) for key in keys]


@settings(max_examples=60)
@given(_symmetric_case(), st.integers(min_value=0, max_value=800))
def test_closure_matches_bfs_in_s5_s6(case, cap):
    degree, keys = case
    assert _outcome(_dimino_elements, keys, degree, cap) == _outcome(
        _bfs_group, keys, degree, cap
    )


@settings(max_examples=60)
@given(_symmetric_case())
def test_reduce_matches_naive_reduce_in_s5_s6(case):
    degree, keys = case
    members = closure(keys, degree, ge.DEFAULT_CAP)
    if len(members).bit_count() != 1:
        with pytest.raises(ValueError, match=f"a group of order {len(members)} is not a 2-group"):
            ge._dimino(sorted(set(keys)), degree, ge.DEFAULT_CAP)
        return
    H = ge._dimino(sorted(set(keys)), degree, ge.DEFAULT_CAP)
    assert list(H.gen_keys) == _naive_reduce(keys, degree, ge.DEFAULT_CAP)
    assert H.elements == members


@settings(max_examples=60)
@given(_two_group_case(), st.one_of(st.just(ge.DEFAULT_CAP), st.integers(0, 1 << 10)))
def test_closure_matches_bfs_in_syl2_s8_s16(case, cap):
    degree, keys = case
    assert _outcome(_dimino_elements, keys, degree, cap) == _outcome(
        closure, keys, degree, cap
    )


@settings(max_examples=60)
@given(_two_group_case())
def test_reduce_matches_naive_reduce_in_syl2_s8_s16(case):
    degree, keys = case
    H = ge._dimino(sorted(set(keys)), degree, ge.DEFAULT_CAP)
    assert list(H.gen_keys) == _naive_reduce(keys, degree, ge.DEFAULT_CAP)
    assert H.elements == closure(keys, degree, ge.DEFAULT_CAP)


@settings(max_examples=40)
@given(st.lists(st.sampled_from(_G3_KEYS), min_size=2, max_size=4, unique=True))
def test_reduce_of_g3_subgroups_matches_naive_reduce(keys):
    # reduce the whole subgroup the subset generates, as the Frattini and
    # commutator constructions do
    subgroup = closure(keys, 8, ge.DEFAULT_CAP)
    assert _dimino_elements(keys, 8, ge.DEFAULT_CAP) == subgroup
    H = ge._dimino(sorted(subgroup), 8, ge.DEFAULT_CAP)
    assert list(H.gen_keys) == _naive_reduce(subgroup, 8, ge.DEFAULT_CAP)
    assert H.elements == subgroup


@settings(max_examples=12)
@given(st.lists(st.sampled_from(_G4_KEYS), min_size=2, max_size=4, unique=True))
def test_closure_and_reduce_of_g4_subsets_match_oracles(keys):
    subgroup = closure(keys, 16, ge.DEFAULT_CAP)
    assert _dimino_elements(keys, 16, ge.DEFAULT_CAP) == subgroup
    H = ge._dimino(sorted(keys), 16, ge.DEFAULT_CAP)
    assert list(H.gen_keys) == _naive_reduce(keys, 16, ge.DEFAULT_CAP)
    assert H.elements == subgroup


def test_reduce_of_g4_matches_naive_reduce():
    H = ge._dimino(_G4_KEYS, 16, ge.DEFAULT_CAP)
    assert list(H.gen_keys) == _naive_reduce(_G4_KEYS, 16, ge.DEFAULT_CAP)
    assert H.elements == set(_G4_KEYS)


@pytest.mark.parametrize("k", [3, 4])
def test_generate_cap_boundaries(k):
    order = len(_G3_KEYS if k == 3 else _G4_KEYS)
    assert ge.generate(s_beta(k), cap=order).order == order
    for cap in (1, order - 1):
        with pytest.raises(ge.CapExceededError) as info:
            ge.generate(s_beta(k), cap=cap)
        assert (info.value.cap, info.value.partial_count) == (cap, cap)

