import random

import pytest
from hypothesis import given, strategies as st

from oracles import inverse, of_cycles, portrait_of
from sylow2 import group_engine as ge
from sylow2 import tree_core as tc
from sylow2.perm_core import Permutation, cycle_notation, cycles, is_even
from sylow2.sylow_builders import alpha, s_beta, tau, tau_set
from sylow2.tree_core import ElementKind


def _single_state_portraits(k):
    for level in range(k):
        for position in range(1, (1 << level) + 1):
            yield tc.from_states(k, [(level, position)])


def test_identity_portrait():
    e = tc.identity(3)
    assert e.levels == (0, 0, 0)
    assert not any(e.levels)
    assert tc.to_permutation(e) == Permutation(range(8))
    with pytest.raises(ValueError):
        tc.identity(0)


def test_compose_with_identity_is_noop():
    e = tc.identity(3)
    for p in tc.iter_portraits(3):
        assert tc.compose(e, p) == p
        assert tc.compose(p, e) == p


def test_portrait_validation():
    with pytest.raises(ValueError):
        tc.Portrait(2, (0,))
    with pytest.raises(ValueError):
        tc.Portrait(2, (2, 0))  # root level holds a single bit
    with pytest.raises(ValueError):
        tc.Portrait(tc.MAX_DEPTH + 1, (0,) * (tc.MAX_DEPTH + 1))
    with pytest.raises(ValueError):
        tc.from_states(3, [(2, 1), (2, 1)])
    with pytest.raises(ValueError):
        tc.from_states(3, [(3, 1)])
    with pytest.raises(ValueError, match=r"position 5 outside 1\.\.4 on level 2"):
        tc.from_states(3, [(2, 5)])


def test_hand_checked_leaf_actions():
    assert cycle_notation(tc.to_permutation(alpha(0, 2))) == "(1 3)(2 4)"
    assert cycle_notation(tc.to_permutation(alpha(0, 3))) == "(1 5)(2 6)(3 7)(4 8)"
    assert cycle_notation(tc.to_permutation(alpha(2, 3))) == "(1 2)"
    assert cycle_notation(tc.to_permutation(tau(3))) == "(1 2)(7 8)"
    assert cycle_notation(tc.to_permutation(tau_set([1, 2], 3))) == "(1 2)(3 4)"
    assert tau(3) == tc.from_states(3, [(2, 1), (2, 4)])
    assert tc.to_text(tc.Portrait(3, (1, 0b00, 0b1001))) == "k=3;L0=1;L1=00;L2=1001"


def test_generators_are_involutions():
    for k in (2, 3, 4):
        for p in _single_state_portraits(k):
            assert not any(tc.compose(p, p).levels)
    assert not any(tc.compose(tau(3), tau(3)).levels)


def test_compose_homomorphism_exhaustive_small_depths():
    for k in (2, 3):
        portraits = list(tc.iter_portraits(k))
        perms = [tc.to_permutation(p) for p in portraits]
        for a, pa in zip(portraits, perms):
            for b, pb in zip(portraits, perms):
                assert tc.to_permutation(tc.compose(a, b)) == pa * pb


def test_compose_depth_mismatch():
    with pytest.raises(ValueError):
        tc.compose(tc.identity(2), tc.identity(3))


def test_single_state_cycle_structure():
    # one state at level l pairs up the 2^(k-l) leaves below it into
    # 2^(k-l-1) transpositions, so the permutation is even exactly when
    # l < k-1
    for k in (2, 3, 4):
        for level in range(k):
            for position in range(1, (1 << level) + 1):
                p = tc.from_states(k, [(level, position)])
                perm = tc.to_permutation(p)
                twos = 1 << (k - level - 1)
                lengths = sorted((len(c) for c in cycles(perm, include_fixed=True)), reverse=True)
                assert lengths == [2] * twos + [1] * ((1 << k) - 2 * twos)
                assert is_even(perm) == (level < k - 1)


def test_conjugation_keeps_the_number_of_last_level_states():
    # conjugation moves the states of a last-level-only element along the
    # last level, so their number stays
    for g in tc.iter_portraits(3):
        g_inverse = portrait_of(inverse(tc.to_permutation(g).key))
        for mask in range(16):
            x = tc.Portrait(3, (0, 0, mask))
            conj = tc.compose(tc.compose(g, x), g_inverse)
            assert conj.levels[:2] == (0, 0)
            assert conj.levels[2].bit_count() == mask.bit_count()


def test_classify_element():
    assert tc.classify_element(tau(3)) is ElementKind.TYPE_T
    assert tc.classify_element(tau(4)) is ElementKind.TYPE_T
    assert tc.classify_element(alpha(0, 3)) is ElementKind.NEITHER
    assert tc.classify_element(tau_set([1, 2], 3)) is ElementKind.NEITHER
    combined = tc.compose(alpha(0, 3), tau(3))
    assert tc.classify_element(combined) is ElementKind.TYPE_C
    with pytest.raises(ValueError):
        tc.classify_element(tc.identity(1))


def test_t_products_leave_t_exhaustive_depth3():
    t_set = [
        p for p in tc.iter_portraits(3)
        if tc.classify_element(p) is ElementKind.TYPE_T
    ]
    assert len(t_set) == 4
    for x in t_set:
        assert tc.classify_element(tc.compose(x, x)) is not ElementKind.TYPE_T
        for y in t_set:
            assert tc.classify_element(tc.compose(x, y)) is not ElementKind.TYPE_T


def test_even_half_count_subgroup_closed_depth3():
    # the elements whose two half counts on the last level are both even
    # form a subgroup, and it avoids types T and C entirely; this is the
    # closure fact behind the non-generation results for type T
    both_even = []
    for p in tc.iter_portraits(3):
        first = (p.levels[2] & 0b0011).bit_count()
        second = (p.levels[2] >> 2).bit_count()
        if first % 2 == 0 and second % 2 == 0:
            both_even.append(p)
    assert len(both_even) == 32
    member = set(both_even)
    for x in both_even:
        assert tc.classify_element(x) is ElementKind.NEITHER
        for y in both_even:
            assert tc.compose(x, y) in member
    # normal within the even automorphisms (an odd conjugator can land a
    # both-even element in type C)
    even_elements = [
        g for g in tc.iter_portraits(3) if g.levels[2].bit_count() % 2 == 0
    ]
    for g in even_elements:
        for x in both_even:
            g_inverse = portrait_of(inverse(tc.to_permutation(g).key))
            assert tc.compose(tc.compose(g, x), g_inverse) in member


def test_odd_t_factor_parity_random_words_depth3():
    # over even automorphisms, a word lands in type T only if it uses an odd
    # number of letters of type T or C
    rng = random.Random(0)
    even_portraits = [
        p for p in tc.iter_portraits(3) if p.levels[2].bit_count() % 2 == 0
    ]
    for _ in range(10_000):
        length = rng.randint(1, 12)
        word = [rng.choice(even_portraits) for _ in range(length)]
        result = tc.identity(3)
        odd_letters = 0
        for letter in word:
            result = tc.compose(result, letter)
            if tc.classify_element(letter) is not ElementKind.NEITHER:
                odd_letters += 1
        if tc.classify_element(result) is ElementKind.TYPE_T:
            assert odd_letters % 2 == 1


def _pack_lanes(portraits):
    """Lane j of each level int holds portraits[j]: vertex v's field is bits
    v * width .. v * width + width - 1."""
    width = len(portraits)
    return [
        sum((p.levels[l] >> v & 1) << (v * width + j) for j, p in enumerate(portraits) for v in range(1 << l))
        for l in range(portraits[0].depth)
    ], width


def _lane_of(packed, j, fields, width):
    return sum((packed >> (i * width + j) & 1) << i for i in range(fields))


def test_lane_kernels_agree_with_their_one_lane_calls():
    rng = random.Random(11)
    for k in (1, 3, 4):
        every = list(tc.iter_portraits(k))
        portraits = rng.sample(every, min(len(every), 40))
        lanes, width = _pack_lanes(portraits)
        images = tc.lane_action(lanes, width)
        for b in rng.sample(every, min(len(every), 6)):
            product = tc.lane_transport(lanes, b, width)
            for j, a in enumerate(portraits):
                levels = tuple(_lane_of(m, j, 1 << l, width) for l, m in enumerate(product))
                assert levels == tc.compose(a, b).levels
        for j, a in enumerate(portraits):
            # a vertex image at level l has l address bits, one per field
            assert [
                [_lane_of(row, j, l, width) for row in level] for l, level in enumerate(images)
            ] == tc.lane_action(a.levels)


def _unpacked(lanes, width):
    """The levels of the portrait in each lane, lane 0 first."""
    bits = [format(mask, f"0{width << l}b")[::-1] for l, mask in enumerate(lanes)]
    return [tuple(int(b[j::width][::-1], 2) for b in bits) for j in range(width)]


def test_lane_portraits_agree_with_one_lane_reads():
    G4 = ge.generate(s_beta(4))
    portraits = list(tc.iter_portraits(3))
    for keys in (sorted(G4.elements), [tc.to_permutation(p).key for p in portraits]):
        read = _unpacked(tc.lane_portraits(keys), len(keys))
        assert read == [portrait_of(key).levels for key in keys]
    assert read == [p.levels for p in portraits]
    # past 256 points a key is a tuple
    deep = tc.Portrait(9, tuple(random.Random(9).randrange(1 << (1 << l)) for l in range(9)))
    assert portrait_of(tc.to_permutation(deep).images) == deep


def test_lane_portraits_rejects_a_batch_with_one_non_automorphism():
    keys = [tc.to_permutation(p).key for p in tc.iter_portraits(3)]
    assert len(tc.lane_portraits(keys)) == 3
    for stray in ((1, 2, 3), (1, 5)):
        batch = keys[:60] + [of_cycles(8, [stray]).key] + keys[60:]
        with pytest.raises(ValueError, match="not a tree automorphism"):
            tc.lane_portraits(batch)


def _scalar_class(a):
    """The T/C rule one portrait at a time, from the half counts of level k-1."""
    half, last = 1 << (a.depth - 2), a.levels[-1]
    counts = (last & (1 << half) - 1).bit_count(), (last >> half).bit_count()
    if counts[0] % 2 and counts[1] % 2:
        return ElementKind.TYPE_C if any(a.levels[:-1]) else ElementKind.TYPE_T
    return ElementKind.NEITHER


def test_lane_kinds_agree_with_classify_element():
    rng = random.Random(4)
    for portraits in (list(tc.iter_portraits(2)), list(tc.iter_portraits(3)),
                      rng.sample(list(tc.iter_portraits(4)), 500)):
        lanes, width = _pack_lanes(portraits)
        masks = tc.lane_kinds(lanes, width)
        for j, a in enumerate(portraits):
            assert tc.classify_element(a) is _scalar_class(a)
            assert tc.lane_kind(masks, j) is _scalar_class(a)
    with pytest.raises(ValueError):
        tc.lane_kinds((0,))


def test_compose_builds_ordinary_portraits():
    sample = list(tc.iter_portraits(3))[::9]
    for a in sample:
        for b in sample:
            product = tc.compose(a, b)
            checked = tc.Portrait(3, product.levels)
            assert product == checked and hash(product) == hash(checked)
            assert repr(product) == repr(checked)
            assert tc.to_permutation(product) == tc.to_permutation(checked)
    with pytest.raises(AttributeError):
        product.depth = 2


def test_faithfulness_exhaustive_small_depths():
    for k in (2, 3, 4):
        images = {tc.to_permutation(p).images for p in tc.iter_portraits(k)}
        assert len(images) == 1 << ((1 << k) - 1)


def test_portrait_read_round_trip_depth3():
    for p in tc.iter_portraits(3):
        assert portrait_of(tc.to_permutation(p).key) == p


@st.composite
def _portraits(draw, max_depth, min_depth=1):
    k = draw(st.integers(min_value=min_depth, max_value=max_depth))
    return tc.Portrait(k, tuple(
        draw(st.integers(min_value=0, max_value=(1 << (1 << l)) - 1)) for l in range(k)
    ))


@given(_portraits(max_depth=8))
def test_portrait_read_round_trip_property(p):
    assert portrait_of(tc.to_permutation(p).key) == p


@given(st.integers(min_value=4, max_value=6).flatmap(
    lambda k: st.tuples(_portraits(k, min_depth=k), _portraits(k, min_depth=k))))
def test_compose_homomorphism_property_depths_4_to_6(pair):
    a, b = pair
    assert tc.to_permutation(tc.compose(a, b)) == tc.to_permutation(a) * tc.to_permutation(b)


def test_portrait_read_rejects_non_automorphisms():
    with pytest.raises(ValueError):
        portrait_of(of_cycles(4, [(1, 2, 3)]).key)
    with pytest.raises(ValueError):
        portrait_of(bytes(range(6)))  # not a power of two
    with pytest.raises(ValueError):
        portrait_of(of_cycles(8, [(1, 5)]).key)
