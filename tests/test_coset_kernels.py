"""_dimino's and generate's buffers and the kernels that read them whole,
exponent and center_size, against brute-force oracles: random generator
sets of small 2-groups placed on random points of many degrees, and the same
element sets built into an EnumeratedGroup as one sorted buffer with no G^2.
Also the layouts: every group is one buffer, and generate's starts with
G^2's and doubles at each generator not yet in the group, appending the
buffer's translate by that generator. Also generate's element set, which is
built only when first read, the even subgroup that _dimino closes, groups
rebuilt from their buffers by EnumeratedGroup's constructor, and the closure
of S_4, which the constructor refuses."""

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import closure, generated, lcm_exponent
from sylow2 import group_engine as ge
from sylow2.perm_core import Permutation
from sylow2.sylow_builders import s_beta, syl2_S_generators, w_subgroup_generators

# 256 // d keys share a block of exponent's offset form: 256 at d = 1, one at
# d = 255, and a partial last block wherever d does not divide 256
DEGREES = [1, 2, 3, 5, 7, 12, 16, 17, 20, 255]


def _elements(gens):
    return ge.generate(gens).sorted_keys()


# small 2-groups on their own points, whose random elements make the generators
_BASES = {
    "S_2": _elements([Permutation.transposition(2, 1, 2)]),
    "C_4": _elements([Permutation.from_cycles(4, [(1, 2, 3, 4)])]),
    "Syl_2(S_4)": _elements(syl2_S_generators(4)),
    "Syl_2(S_8)": _elements(syl2_S_generators(8)),
}


# the dihedral Syl_2(S_4) whole, whose G^2 of order 2 generate doubles twice,
# and the cyclic C_8, whose G^2 = C_4 its one generator doubles
_D8 = (4, [Permutation.from_cycles(4, [(1, 2, 3, 4)]).key, Permutation.transposition(4, 1, 3).key])
_C8 = (8, [Permutation.from_cycles(8, [tuple(range(1, 9))]).key])
# W_4, elementary abelian, whose trivial G^2 each of its 7 generators
# doubles, and C_4 listed as r^2, r: r^2 lies in G^2 and doubles nothing
_W4 = (16, [g.key for _, g in w_subgroup_generators(4).permutation_entries()])
_R = Permutation.from_cycles(4, [(1, 2, 3, 4)])
_C4 = (4, [(_R * _R).key, _R.key])

# Syl_2(S_8) on the last 8 of 17 points: 15 keys to a block, so its 128
# elements end in a partial block
_SYL2_S8_GENS = [g.key for _, g in syl2_S_generators(8).permutation_entries()]
_LAST_8_OF_17 = (17, [bytes(range(9)) + bytes(9 + i for i in g) for g in _SYL2_S8_GENS])


# a group of order 64 and exponent 4 whose G^2, of order 16, has exponent 4
# too: no element outlives G^2's squarings, so exponent scans the whole rest
# of the buffer
_EXPONENT_OF_ITS_SQUARES = (8, [
    Permutation.from_cycles(8, [(1, 8, 2, 7), (3, 6), (4, 5)]).key,
    Permutation.from_cycles(8, [(1, 3, 2, 4)]).key,
])


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


def _outcome(closure, *args, **kwargs):
    try:
        return closure(*args, **kwargs)
    except ge.CapExceededError as exc:
        return ("cap", exc.cap, exc.partial_count)


def _bare(G):
    """G's elements as one sorted buffer, with no G^2 kept."""
    return ge.EnumeratedGroup(G.degree, G.gen_keys, b"".join(sorted(G.elements)))


def _groups(degree, gens):
    """The generated group, and the same elements as one buffer with no G^2."""
    G = generated(gens, degree)
    bare = _bare(G)
    assert G.square_closure is not None and bare.square_closure is None
    assert bare.order == G.order
    return G, bare


@settings(max_examples=150)
@given(_generator_sets(), st.one_of(st.just(ge.DEFAULT_CAP), st.integers(0, 200)))
def test_dimino_matches_a_naive_closure(case, cap):
    degree, gens = case
    outcome = _outcome(ge._dimino, gens, degree, cap)
    if isinstance(outcome, ge.EnumeratedGroup):
        assert outcome.elements == closure(gens, degree, cap)
        # the kept buffer holds every element once
        keys = outcome.buffer
        assert {keys[i:i + degree] for i in range(0, len(keys), degree)} == outcome.elements
        assert len(keys) == outcome.order * degree
    else:
        assert outcome == _outcome(closure, gens, degree, cap)


@settings(max_examples=150)
@given(_generator_sets())
@example(_LAST_8_OF_17)
# W_4, whose trivial G^2 takes no squaring, so the representatives decide;
# the trivial group, which is its own G^2; and a full scan
@example(_W4)
@example((1, []))
@example(_EXPONENT_OF_ITS_SQUARES)
def test_exponent_is_the_lcm_of_the_element_orders(case):
    G, bare = _groups(*case)
    assert ge.exponent(G) == ge.exponent(bare) == lcm_exponent(G.elements)


@settings(max_examples=150)
@given(_generator_sets())
@example(_LAST_8_OF_17)
def test_center_size_counts_the_elements_that_commute_with_every_generator(case):
    G, bare = _groups(*case)
    count = sum(all(ge._mul(x, g) == ge._mul(g, x) for g in G.gen_keys) for x in G.elements)
    assert ge.center_size(G) == ge.center_size(bare) == count


def test_s4_grows_by_cosets_of_three_and_six_keys():
    three, two, four = (
        Permutation.from_cycles(4, [(1, 2, 3)]),
        Permutation.transposition(4, 1, 2),
        Permutation.from_cycles(4, [(1, 2, 3, 4)]),
    )
    gens = [three.key, two.key, four.key]
    # _dimino closes S_4 coset by coset, and EnumeratedGroup refuses the
    # result: its order, 24, is not a power of two
    layouts, group = [], ge.EnumeratedGroup

    def spy(degree, gen_keys, buffer, *rest):
        layouts.append(len(buffer) // degree)
        return group(degree, gen_keys, buffer, *rest)

    with mock.patch.object(ge, "EnumeratedGroup", spy):
        with pytest.raises(ValueError, match=r"^a group of order 24 is not a 2-group$"):
            ge._dimino(gens, 4, ge.DEFAULT_CAP)
    assert layouts == [24]
    for cap in (5, 6, 23):
        outcome = _outcome(ge._dimino, gens, 4, cap)
        assert outcome == _outcome(closure, gens, 4, cap) == ("cap", cap, cap)
    # generate closes S_4^2 = A_4 first, and is refused there
    with pytest.raises(ValueError, match=r"^a group of order 12 is not a 2-group$"):
        ge.generate([three, two, four])


@settings(max_examples=150)
@given(_generator_sets(), st.one_of(st.just(ge.DEFAULT_CAP), st.integers(0, 200)))
@example((3, []), 0)
@example(_D8, ge.DEFAULT_CAP)
@example(_D8, 4)
@example(_C8, ge.DEFAULT_CAP)
@example(_C8, 4)
@example(_W4, ge.DEFAULT_CAP)
@example(_W4, 0)
@example(_W4, 1)
@example(_W4, 100)
@example(_W4, 64)
@example(_W4, 127)
@example(_C4, ge.DEFAULT_CAP)
@example(_C4, 3)
def test_generate_matches_a_naive_closure(case, cap):
    degree, gens = case
    outcome = _outcome(generated, gens, degree, cap)
    if isinstance(outcome, ge.EnumeratedGroup):
        assert outcome.elements == closure(gens, degree, cap)
        assert outcome.gen_keys == tuple(gens)
        # the kept buffer holds every element once
        keys = outcome.buffer
        assert {keys[i:i + degree] for i in range(0, len(keys), degree)} == outcome.elements
        assert len(keys) == outcome.order * degree
    else:
        assert outcome == _outcome(closure, gens, degree, cap)


def test_even_subgroup_keeps_its_cosets():
    G = ge.generate(syl2_S_generators(8))
    keys = G.sorted_keys()
    H = ge._dimino([key for key, odd in zip(keys, ge.key_parities(keys)) if not odd], 8, G.order)
    bare = _bare(H)
    # _dimino built H: its cosets joined in one buffer, not sorted, and no G^2
    assert H.buffer != bare.buffer and H.square_closure is None
    keys = H.buffer
    assert sorted(keys[i:i + 8] for i in range(0, len(keys), 8)) == bare.sorted_keys()
    assert H.order == 64
    assert ge.exponent(H) == ge.exponent(bare)
    assert ge.center_size(H) == ge.center_size(bare)


def _layout(G):
    """The order of G^2, whose buffer starts G's, and the order of the group
    H at each doubling: the next |H| keys of G's buffer are its first |H|
    translated by a generator, each doubling by a later one."""
    d, buffer, squares = G.degree, G.buffer, G.square_closure
    assert buffer[:len(squares.buffer)] == squares.buffer
    gens, sizes, size = iter(G.gen_keys), [], squares.order
    while size < G.order:
        half = buffer[:size * d]
        assert any(buffer[size * d:2 * size * d] == half.translate(ge._table(g)) for g in gens)
        sizes.append(size)
        size *= 2
    assert size == G.order
    return [squares.order], sizes


@settings(max_examples=60)
@given(_generator_sets())
def test_each_generator_outside_the_group_adds_one_buffer_of_the_group(case):
    degree, gens = case
    G = generated(gens, degree)
    squares = G.square_closure
    # generator i doubles the group exactly when it lies outside <G^2, gens[:i]>
    expected, members = [], squares.elements
    for i, g in enumerate(gens):
        if g not in members:
            expected.append(len(members))
            members = closure([*squares.gen_keys, *gens[:i + 1]], degree)
    assert _layout(G)[1] == expected
    assert G.order == len(members)


@settings(max_examples=60)
@given(_generator_sets())
def test_a_closure_is_one_buffer_and_opens_the_generated_group(case):
    degree, gens = case
    G = generated(gens, degree)
    squares = G.square_closure
    # the closures that _dimino builds: G^2, the commutator and squares
    # subgroups, and the generators' group closed directly
    for H in (squares, ge.commutator_subgroup(G), ge.squares_subgroup(G),
              ge._dimino(gens, degree, ge.DEFAULT_CAP)):
        assert len(H.buffer) == H.order * degree
    # each doubling is one generator's translate of the buffer before it
    assert _layout(G)[0] == [squares.order]


def test_a_generator_already_in_the_group_adds_no_buffer():
    gens = [g.key for _, g in s_beta(3).permutation_entries()]
    G = ge.generate(s_beta(3))
    phi = ge.frattini_subgroup(G)
    assert _layout(G)[1] == [8, 16, 32] and phi.order == 8
    f = next(x for x in phi.sorted_keys() if x != G.identity_key)
    # a repeated generator, and g next to g f with f in Phi
    for extra in (gens[0], ge._mul(gens[0], f), ge._mul(f, gens[1])):
        for place in range(len(gens) + 1):
            keys = [*gens[:place], extra, *gens[place:]]
            H = ge.generate([Permutation(k) for k in keys])
            assert H.order == 64 and H.gen_keys == tuple(keys)
            assert _layout(H)[1] == [8, 16, 32]


def test_w4_doubles_at_every_generator_and_a4_at_none():
    W4, C4 = (ge.generate([Permutation(g) for g in gens]) for _, gens in (_W4, _C4))
    assert _layout(W4) == ([1], [1, 2, 4, 8, 16, 32, 64])
    assert _layout(C4) == ([2], [2])
    # A_4 is its own G^2, so none of its generators would double it: generate
    # closes that G^2, of order 12, and is refused before any doubling
    a4 = [Permutation.from_cycles(4, [(1, 2, 3)]), Permutation.from_cycles(4, [(1, 2), (3, 4)])]
    with pytest.raises(ValueError, match=r"^a group of order 12 is not a 2-group$"):
        ge.generate(a4)


def test_the_element_set_is_built_when_first_read():
    G = ge.generate(s_beta(3))
    assert G.order == 64 and "elements" not in vars(G)
    for query in (ge.exponent, ge.center_size, ge.quotient_rank, ge.derived_series, ge.fingerprint):
        query(G)
    assert "elements" not in vars(G)
    split, keys = [], ge._keys
    with mock.patch.object(ge, "_keys", lambda coset, degree: split.append(coset) or keys(coset, degree)):
        elements = G.elements
    assert vars(G)["elements"] is elements is G.elements
    # the one buffer is split once, G^2's 8 keys and three doublings
    assert split == [G.buffer] and len(G.buffer) == 64 * 8
    assert _layout(G) == ([8], [8, 16, 32])
    assert elements == closure(G.gen_keys, 8)
    eager = _bare(G)
    assert G == eager and hash(G) == hash(eager) and repr(G) == repr(eager)
    # equality with a fresh group builds its element set
    fresh = ge.generate(s_beta(3))
    assert fresh == G and "elements" in vars(fresh)
    with pytest.raises(AttributeError):
        G.missing


_G3 = (8, [g.key for _, g in s_beta(3).permutation_entries()])
_SYL2_S8 = (8, _SYL2_S8_GENS)


@pytest.mark.parametrize(
    "case", [_W4, _C8, _G3, _D8, _SYL2_S8], ids=["W_4", "C_8", "G_3", "Syl_2(S_4)", "Syl_2(S_8)"]
)
def test_a_group_rebuilt_from_its_buffers_is_the_same_group(case):
    degree, gens = case
    G = generated(gens, degree)
    rebuilt = ge.EnumeratedGroup(G.degree, G.gen_keys, G.buffer, G.square_closure)
    # the memo holds memoized queries only, never the group's structure
    for group in (G, rebuilt, G.square_closure):
        assert not {"buffer", "square_closure"} & group._memo.keys()
    assert rebuilt.order == G.order and rebuilt.elements == G.elements
    assert rebuilt == G and hash(rebuilt) == hash(G) and repr(rebuilt) == repr(G)
    assert ge.exponent(rebuilt) == ge.exponent(G)
    assert ge.center_size(rebuilt) == ge.center_size(G)
    # each member with its first and last images swapped, and with its first
    # image repeated: outside G for some members
    swapped = {bytes([x[-1], *x[1:-1], x[0]]) for x in G.elements}
    repeated = {x[:1] + x[:-1] for x in G.elements}
    outside = (swapped | repeated) - G.elements
    assert outside
    for x in [*G.elements, *outside]:
        assert ge.contains(rebuilt, x) == ge.contains(G, x) == (x in G.elements)
