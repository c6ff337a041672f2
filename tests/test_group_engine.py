import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sylow2 import group_engine as ge
from sylow2 import tree_core as tc
from sylow2.perm_core import Permutation
from sylow2.sylow_builders import (
    b_subgroup_generators,
    s_beta,
    syl2_S_generators,
    w_subgroup_generators,
)


def _G(k):
    return ge.generate(s_beta(k))


def test_generate_empty_is_trivial():
    G = ge.generate((), degree=4)
    assert G.order == 1
    assert G.identity_key in G.elements


def test_generate_known_orders():
    assert _G(3).order == 64
    assert ge.generate(syl2_S_generators(4)).order == 8


def test_generate_accepts_portraits_and_permutations():
    from sylow2.sylow_builders import alpha

    G1 = ge.generate([alpha(0, 2), alpha(1, 2)])
    G2 = ge.generate([tc.to_permutation(alpha(0, 2)), tc.to_permutation(alpha(1, 2))])
    assert G1.elements == G2.elements
    assert G1.order == 8


def test_closure_deterministic_under_generator_order():
    entries = s_beta(3).permutation_entries()
    perms = [p for _, p in entries]
    base = ge.generate(perms).elements
    assert ge.generate(list(reversed(perms))).elements == base
    rng = random.Random(3)
    for _ in range(5):
        shuffled = perms[:]
        rng.shuffle(shuffled)
        assert ge.generate(shuffled).elements == base


def test_cap_exceeded_reports_partial_count():
    with pytest.raises(ge.CapExceededError) as info:
        ge.generate(s_beta(4), cap=100)
    assert info.value.partial_count == 100
    assert info.value.cap == 100


def test_degree_limit():
    with pytest.raises(ValueError):
        ge.generate((), degree=300)


def test_contains_and_subgroup_predicates():
    G = _G(3)
    W = ge.generate(w_subgroup_generators(3))
    assert ge.is_subgroup(W, G)
    assert ge.is_subgroup(G, G)
    assert ge.contains(G, Permutation.identity(8))
    assert not ge.contains(G, Permutation.transposition(8, 1, 2))
    with pytest.raises(ValueError):
        ge.contains(G, Permutation.identity(4))
    with pytest.raises(ValueError):
        ge.is_subgroup(ge.generate((), degree=4), G)


def test_normality_positive_and_negative():
    for k in (2, 3, 4):
        G = _G(k)
        W = ge.generate(w_subgroup_generators(k))
        assert ge.is_normal(W, G)
    # the cyclic subgroup generated by the root swap is not normal: some
    # conjugate of the root swap escapes it
    from sylow2.sylow_builders import alpha

    G3 = _G(3)
    root = tc.to_permutation(alpha(0, 3))
    H = ge.generate([root])
    assert ge.is_subgroup(H, G3)
    assert not ge.is_normal(H, G3)
    other = tc.to_permutation(alpha(1, 3))
    conjugate = other * root * other.inverse()
    assert not ge.contains(H, conjugate)


def test_verify_semidirect_positive():
    for k in (2, 3, 4):
        G = _G(k)
        B = ge.generate(b_subgroup_generators(k))
        W = ge.generate(w_subgroup_generators(k))
        rel = ge.verify_semidirect(B, W, G)
        assert rel.ok, rel.witnesses
        assert B.order * W.order == G.order


def test_verify_semidirect_negative_controls():
    G = _G(3)
    rel = ge.verify_semidirect(G, G, G)
    assert not rel.ok
    failed = {name for name, good in rel.checks if not good}
    assert "trivial_intersection" in failed
    assert dict(rel.witnesses)

    other = ge.generate((), degree=4)
    rel2 = ge.verify_semidirect(other, G, G)
    assert not rel2.ok
    assert dict(rel2.checks)["same_degree"] is False


def _brute_commutator_subgroup(G):
    keys = G.sorted_keys()
    comms = set()
    for a in keys:
        ai = ge._inv(a)
        for b in keys:
            comms.add(ge._mul(ge._mul(a, b), ge._mul(ai, ge._inv(b))))
    return ge._closure(sorted(comms), G.degree, ge.DEFAULT_CAP)


def test_commutator_subgroup_matches_all_pairs_oracle():
    from sylow2.sylow_builders import boxtimes_group

    for G in (_G(2), _G(3), boxtimes_group(6)):
        fast = ge.commutator_subgroup(G)
        assert fast.elements == frozenset(_brute_commutator_subgroup(G))


def test_squares_and_frattini():
    G3 = _G(3)
    squares = ge.squares_subgroup(G3)
    phi = ge.frattini_subgroup(G3)
    assert squares.elements == phi.elements
    assert G3.order // phi.order == 8
    klein = _G(2)
    assert ge.frattini_subgroup(klein).order == 1


def test_frattini_rejects_non_two_group():
    G = ge.generate([Permutation.from_cycles(3, [(1, 2, 3)])])
    assert G.order == 3
    with pytest.raises(ValueError):
        ge.frattini_subgroup(G)


def test_quotient_and_minimal_rank():
    assert ge.quotient_rank(_G(2)) == 2
    assert ge.quotient_rank(_G(3)) == 3
    assert ge.quotient_rank(_G(4)) == 4


def test_frattini_quotient_has_exponent_two():
    # the quotient by the Frattini subgroup is elementary abelian: every
    # square lands in the subgroup, and the index is 2^k
    for k in (2, 3):
        G = _G(k)
        phi = ge.frattini_subgroup(G)
        assert G.order // phi.order == 1 << k
        assert all(ge._mul(x, x) in phi.elements for x in G.elements)


def test_derived_series():
    trivial = ge.generate((), degree=2)
    assert ge.derived_length(trivial) == 0
    assert ge.derived_length(_G(2)) == 1  # Klein group is abelian
    series = ge.derived_series(_G(3))
    assert series[-1].order == 1
    assert ge.derived_length(_G(3)) >= 2
    for outer, inner in zip(series, series[1:]):
        assert ge.is_subgroup(inner, outer)
        assert ge.is_normal(inner, outer)


def test_lagrange_for_computed_subgroups():
    G = _G(3)
    for H in (
        ge.generate(b_subgroup_generators(3)),
        ge.generate(w_subgroup_generators(3)),
        ge.squares_subgroup(G),
        ge.commutator_subgroup(G),
        ge.frattini_subgroup(G),
    ):
        assert G.order % H.order == 0


def _c2():
    return ge.generate([Permutation.transposition(2, 1, 2)])


def test_homomorphism_check_parity_map():
    G = _G(3)
    C2 = _c2()
    flip = bytes((1, 0))
    ident = bytes((0, 1))
    mapping = {
        key: (ident if ge.key_is_even(key) else flip) for key in G.elements
    }
    assert ge.homomorphism_check(mapping, G, C2)


def test_homomorphism_check_level_index_maps():
    # the mod-2 count of active states on each level is a homomorphism to
    # C2, and every square lies in its kernel
    G = _G(3)
    C2 = _c2()
    flip = bytes((1, 0))
    ident = bytes((0, 1))
    for level in range(3):
        mapping = {}
        for key in G.elements:
            portrait = tc.from_permutation(ge.perm_of(key))
            odd = tc.level_index(portrait, level) % 2 == 1
            mapping[key] = flip if odd else ident
        assert ge.homomorphism_check(mapping, G, C2)
        for key in G.elements:
            assert mapping[ge._mul(key, key)] == ident


def test_homomorphism_check_identity_and_negative():
    G = _G(3)
    identity_map = {key: key for key in G.elements}
    assert ge.homomorphism_check(identity_map, G, G)

    C2 = _c2()
    flip = bytes((1, 0))
    ident = bytes((0, 1))
    broken = {
        key: (flip if key == G.identity_key else ident) for key in G.elements
    }
    assert not ge.homomorphism_check(broken, G, C2)


def test_homomorphism_check_rejects_partial_or_stray_maps():
    G = _G(2)
    C2 = _c2()
    ident = bytes((0, 1))
    partial = {G.identity_key: ident}
    with pytest.raises(ValueError):
        ge.homomorphism_check(partial, G, C2)
    stray = {key: bytes((0, 1, 2)) for key in G.elements}
    with pytest.raises(ValueError):
        ge.homomorphism_check(stray, G, C2)


def test_homomorphism_check_large_group_sampled():
    G = _G(4)  # order 16384 forces the sampled path
    identity_map = {key: key for key in G.elements}
    assert ge.homomorphism_check(identity_map, G, G, seed=0, sample_pairs=500)


def test_no_pair_from_random_pool_generates_g3():
    G = _G(3)
    rng = random.Random(0)
    keys = G.sorted_keys()
    pool = sorted({rng.choice(keys) for _ in range(200)})
    for a, b in itertools.combinations(pool, 2):
        sub = ge.generate([ge.perm_of(a), ge.perm_of(b)])
        assert sub.order < G.order


def test_element_order_exponent_abelian_center():
    G2 = _G(2)
    assert ge.is_abelian(G2)
    assert ge.exponent(G2) == 2
    assert ge.center_size(G2) == 4
    G3 = _G(3)
    assert not ge.is_abelian(G3)
    assert ge.exponent(G3) in (4, 8)
    assert ge.element_order(G3.identity_key) == 1
    fp = ge.fingerprint(G2)
    assert fp == {
        "order": 4, "abelian": True, "exponent": 2,
        "derived_length": 1, "center_size": 4,
    }


def test_even_subgroup_of_syl2_s4():
    G = ge.generate(syl2_S_generators(4))
    H = ge.even_subgroup(G)
    assert H.order == 4
    assert ge.is_subgroup(H, G)
    assert all(ge.key_is_even(key) for key in H.elements)


def test_group_from_elements_rejects_non_closed_sets():
    G = _G(2)
    assert ge.group_from_elements(G.elements, 4, "G_2").elements == G.elements
    broken = set(G.elements)
    broken.discard(max(broken))
    broken.add(bytes((1, 0, 2, 3)))
    without_identity = set(G.elements) - {G.identity_key}
    for keys in (broken, set(), without_identity):
        with pytest.raises(ValueError):
            ge.group_from_elements(keys, 4, "broken")


def test_generator_set_validation():
    from sylow2.sylow_builders import alpha

    with pytest.raises(ValueError):
        ge.GeneratorSet("dup", 4, (("x", alpha(0, 2)), ("x", alpha(1, 2))))
    with pytest.raises(ValueError):
        ge.GeneratorSet("mixed", 8, (("x", alpha(0, 2)),))


# --- exponent and centre against the element-by-element formulas -----------


def _lcm_exponent(G):
    return math.lcm(*(ge.element_order(k) for k in G.elements))


def _all_generators_center_size(G):
    gen_keys = [ge.key_of(p) for _, p in G.generators.permutation_entries()]
    return sum(
        1 for x in G.elements if all(ge._mul(x, g) == ge._mul(g, x) for g in gen_keys)
    )


_PARENT_KEYS = {
    name: ge.generate(gens).sorted_keys()
    for name, gens in (
        ("G_3", s_beta(3)),
        ("G_4", s_beta(4)),
        ("S_16", syl2_S_generators(16)),
    )
}


@st.composite
def _two_group_subsets(draw):
    keys = _PARENT_KEYS[draw(st.sampled_from(sorted(_PARENT_KEYS)))]
    return draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))


@settings(max_examples=30)
@given(_two_group_subsets())
def test_exponent_and_center_match_oracles_on_two_groups(keys):
    H = ge.generate([Permutation(k) for k in keys])
    assert H.order & (H.order - 1) == 0
    assert ge.exponent(H) == _lcm_exponent(H)
    assert ge.center_size(H) == _all_generators_center_size(H)


def test_exponent_and_center_match_oracles_on_whole_two_groups():
    for gens in (s_beta(2), s_beta(3), s_beta(4), syl2_S_generators(16)):
        G = ge.generate(gens)
        assert ge.exponent(G) == _lcm_exponent(G)
        assert ge.center_size(G) == _all_generators_center_size(G)
    trivial = ge.generate((), degree=3)
    assert (ge.exponent(trivial), ge.center_size(trivial)) == (1, 1)


def test_exponent_and_center_of_non_two_groups():
    # orders 6, 24 and 6 take the lcm fallback of exponent
    cases = {
        "S_3": ([[(1, 2)], [(1, 2, 3)]], 6, 1),
        "S_4": ([[(1, 2)], [(1, 2, 3, 4)]], 12, 1),
        "C_6": ([[(1, 2, 3), (4, 5)]], 6, 6),
    }
    for name, (cycles, expo, center) in cases.items():
        degree = max(max(c) for gen in cycles for c in gen)
        G = ge.generate([Permutation.from_cycles(degree, gen) for gen in cycles])
        assert G.order & (G.order - 1), name
        assert ge.exponent(G) == _lcm_exponent(G) == expo, name
        assert ge.center_size(G) == _all_generators_center_size(G) == center, name


# --- the per-group memo of the commutator and Frattini subgroups ------------


def test_memo_returns_the_same_subgroups():
    G = _G(3)
    phi = ge.frattini_subgroup(G)
    assert ge.frattini_subgroup(G) is phi
    assert ge.quotient_rank(G) == 3
    # the Frattini construction built [G, G]; the derived series reuses it
    assert ge.derived_series(G)[1] is ge.commutator_subgroup(G)


def _outcome(build, G, cap):
    """The subgroup's elements, or the cap error's (cap, partial_count)."""
    try:
        return build(G, cap=cap).elements
    except ge.CapExceededError as exc:
        return ("cap", exc.cap, exc.partial_count)


def test_memo_keeps_cap_errors_below_the_order():
    filled, fresh = _G(4), _G(4)
    phi = ge.frattini_subgroup(filled)
    commutators = ge.commutator_subgroup(filled)
    for cap in (1, phi.order - 1):
        with pytest.raises(ge.CapExceededError) as info:
            ge.frattini_subgroup(filled, cap=cap)
        assert (info.value.cap, info.value.partial_count) == (cap, cap)
    # below |G| the filled memo is not read: each outcome is that of a group
    # with an empty memo, whether it is a cap error or the subgroup
    caps = (1, 2, commutators.order - 1, phi.order - 1, phi.order, filled.order - 1)
    for build in (ge.frattini_subgroup, ge.commutator_subgroup):
        for cap in caps:
            assert _outcome(build, filled, cap) == _outcome(build, fresh, cap)
    assert ge.frattini_subgroup(filled) is phi
    assert ge.commutator_subgroup(filled) is commutators


def test_memo_is_ignored_by_eq_hash_and_repr():
    filled, fresh = _G(3), _G(3)
    ge.frattini_subgroup(filled)
    ge.derived_series(filled)
    assert filled == fresh
    assert hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)
    assert "_memo" not in repr(filled)
