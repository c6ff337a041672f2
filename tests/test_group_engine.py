import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (
    center_count, compose, generated, inverse, lcm_exponent, normal_closure, of_cycles, portrait_of, transitive,
)
from sylow2 import group_engine as ge
from sylow2 import tree_core as tc
from sylow2.perm_core import Permutation, is_even
from sylow2.sylow_builders import (
    s_alpha,
    s_beta,
    syl2_S_generators,
    tau,
    w_subgroup_generators,
)


def _G(k):
    return ge.generate(s_beta(k))


def test_generate_empty_is_trivial():
    G = ge.generate(ge.GeneratorSet("none", 4, ()))
    assert G.order == 1
    assert G.identity_key in G.elements
    # a bare empty list carries no degree
    with pytest.raises(ValueError, match=r"^an empty generator list has no degree; give a GeneratorSet$"):
        ge.generate(())


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


def test_enumerated_group_and_generate_refuse_non_two_groups():
    s3 = [of_cycles(3, [(1, 2, 3)]), Permutation.transposition(3, 1, 2)]
    a4 = [of_cycles(4, [(1, 2, 3)]), of_cycles(4, [(1, 2), (3, 4)])]
    all_of_s3 = [bytes(p) for p in itertools.permutations(range(3))]
    all_of_a4 = [bytes(p) for p in itertools.permutations(range(4)) if is_even(Permutation(p))]
    # generate is refused at G^2: A_3 inside S_3, and A_4, its own G^2
    for gens, elements, squares in ((s3, all_of_s3, 3), (a4, all_of_a4, 12)):
        with pytest.raises(ValueError) as info:
            ge.generate(gens)
        assert str(info.value) == f"a group of order {squares} is not a 2-group"
        with pytest.raises(ValueError) as info:
            ge.EnumeratedGroup(gens[0].degree, tuple(g.key for g in gens), b"".join(elements))
        assert str(info.value) == f"a group of order {len(elements)} is not a 2-group"
    with pytest.raises(ValueError, match=r"^a group of order 0 is not a 2-group$"):
        ge.EnumeratedGroup(3, (), b"")


def test_generator_sets_keep_a_list_of_entries_as_a_tuple():
    t = Permutation.transposition(4, 1, 2)
    listed, given = ge.GeneratorSet("t", 4, [("t", t)]), ge.GeneratorSet("t", 4, (("t", t),))
    assert type(listed.elements) is tuple and listed.elements == (("t", t),)
    assert listed == given and hash(listed) == hash(given)
    assert ge.generate(listed).order == 2


def test_importing_the_library_loads_no_dataclasses():
    # a fresh interpreter, so that no other test's imports count
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys; before = set(sys.modules); import sylow2; print(*sorted(set(sys.modules) - before))"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                         env={"PYTHONPATH": str(src), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"})
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert "sylow2.group_engine" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_portraits_and_generator_sets_are_immutable_values():
    a, b = tc.from_states(2, [(1, 2)]), tc.Portrait(2, (0, 2))
    assert a == b and a is not b and hash(a) == hash(b) == hash((2, (0, 2)))
    assert a != tc.Portrait(2, (1, 2)) and a != tc.Portrait(2, (0, 1))
    assert a != (2, (0, 2)) and (2, (0, 2)) != a
    assert repr(a) == "Portrait(depth=2, levels=(0, 2))"
    t = Permutation.transposition(4, 1, 2)
    gs, same = (ge.GeneratorSet("gs", 4, (("b", b), ("t", t))) for _ in range(2))
    assert gs == same and gs is not same and hash(gs) == hash(same) == hash(("gs", 4, gs.elements))
    assert gs != ge.GeneratorSet("other", 4, gs.elements)
    assert gs != ge.GeneratorSet("gs", 4, gs.elements[:1])
    assert gs != ("gs", 4, gs.elements) and ("gs", 4, gs.elements) != gs
    assert repr(gs) == (
        "GeneratorSet(name='gs', degree=4, elements=(('b', Portrait(depth=2, levels=(0, 2))), "
        "('t', Permutation[(1 2)])))"
    )
    G = ge.generate(gs)
    for value, name in ((a, "depth"), (a, "memo"), (gs, "elements"), (G, "order"), (G, "square_closure"),
                        (t, "_key")):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)
    assert (a.depth, gs.degree, G.order, G.square_closure.order, t.key) == (2, 4, 4, 1, bytes([1, 0, 2, 3]))


def test_the_trivial_group_from_generate_has_exponent_one():
    # the trivial group is its own G^2: no buffer past G^2's is left to scan
    for G in (ge.generate(ge.GeneratorSet("none", 4, ())), ge.generate([Permutation(range(255))])):
        assert G.buffer == G.square_closure.buffer == G.identity_key
        assert ge.exponent(G) == 1 and ge.center_size(G) == 1
        assert ge.fingerprint(G)["exponent"] == 1


def test_degree_limit():
    with pytest.raises(ValueError):
        ge.generate(ge.GeneratorSet("none", 300, ()))


_BAD_BUFFERS = [
    (0, b"", "degree must be in 1..255, got 0"),
    (300, bytes(300), "degree must be in 1..255, got 300"),
    # one identity key and 5 bytes more, which hold no whole key
    (4, bytes(range(4)) + bytes(5), "a buffer of 9 bytes is no whole number of keys of degree 4"),
]


@pytest.mark.parametrize("degree, buffer, message", _BAD_BUFFERS)
def test_the_constructor_refuses_a_bad_degree_and_a_partial_key(degree, buffer, message):
    with pytest.raises(ValueError) as info:
        ge.EnumeratedGroup(degree, (), buffer)
    assert str(info.value) == message


@pytest.mark.parametrize("degree, buffer, message", _BAD_BUFFERS + [
    (0, b"\x00", "degree must be in 1..255, got 0"),  # once a ZeroDivisionError
    (2, b"\x01\x00\x02", "a buffer of 3 bytes is no whole number of keys of degree 2"),  # once b"\x01"
])
def test_key_parities_refuses_a_bad_degree_and_a_partial_key(degree, buffer, message):
    with pytest.raises(ValueError) as info:
        ge.key_parities(buffer, degree)
    assert str(info.value) == message


@pytest.mark.parametrize("degree, buffer", [
    (1, (b"\x00",)),  # the old tuple-of-keys form: it would give a group of order 1 that holds no key
    (2, bytearray(b"\x00\x01\x01\x00")),  # its keys could be changed after construction
], ids=["tuple", "bytearray"])
def test_the_constructor_refuses_a_buffer_that_is_not_bytes(degree, buffer):
    with pytest.raises(TypeError) as info:
        ge.EnumeratedGroup(degree, (), buffer)
    assert str(info.value) == f"a group's buffer must be bytes, not {type(buffer).__name__}"


def test_the_constructor_keeps_a_list_of_generators_as_a_tuple():
    # a list was once kept as given: the group was unhashable, and appending
    # to the list changed its generators
    G = _G(3)
    keys = list(G.gen_keys)
    rebuilt = ge.EnumeratedGroup(G.degree, keys, G.buffer)
    keys.append(G.identity_key)
    assert type(rebuilt.gen_keys) is tuple and rebuilt.gen_keys == G.gen_keys
    assert rebuilt == G and hash(rebuilt) == hash(G)


@pytest.mark.parametrize("gen_keys", [
    (b"\x01\x00",),  # a 2-point key on 8 points: once an abelian group of order 64
    (bytes(range(9)),),
    (bytearray(range(8)),),  # a key that could be changed after construction
    (list(range(8)),),
], ids=["short", "long", "bytearray", "list"])
def test_the_constructor_refuses_a_generator_that_is_no_key_of_its_degree(gen_keys):
    G = _G(3)
    with pytest.raises(ValueError) as info:
        ge.EnumeratedGroup(G.degree, G.gen_keys + gen_keys, G.buffer)
    assert str(info.value) == "a generator of a group of degree 8 must be bytes of length 8"


def test_generate_takes_degrees_1_to_255():
    assert ge.generate([Permutation(range(1))]).order == 1
    assert ge.generate([Permutation.transposition(255, 1, 255)]).order == 2
    with pytest.raises(ValueError, match=r"degree must be in 1\.\.255, got 256"):
        ge.generate([Permutation(range(256))])
    for degree in (0, ge.MAX_DEGREE + 1):
        with pytest.raises(ValueError, match=rf"degree must be in 1\.\.{ge.MAX_DEGREE}, got {degree}"):
            ge.generate(ge.GeneratorSet("none", degree, ()))


def test_contains_and_subgroup_predicates():
    G = _G(3)
    W = ge.generate(w_subgroup_generators(3))
    assert ge.is_subgroup(W, G)
    assert ge.is_subgroup(G, G)
    assert ge.contains(G, Permutation(range(8)))
    assert not ge.contains(G, Permutation.transposition(8, 1, 2))
    with pytest.raises(ValueError):
        ge.contains(G, Permutation(range(4)))
    with pytest.raises(ValueError):
        ge.is_subgroup(ge.generate(ge.GeneratorSet("none", 4, ())), G)


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
    conjugate = other * root * Permutation(inverse(other.key))
    assert not ge.contains(H, conjugate)


def test_verify_semidirect_positive():
    for k in (2, 3, 4):
        G = _G(k)
        B = ge.generate(s_alpha(k))
        W = ge.generate(w_subgroup_generators(k))
        checks, witnesses = ge.verify_semidirect(B, W, G)
        assert all(checks.values()) and witnesses == {}, witnesses
        assert B.order * W.order == G.order


def test_verify_semidirect_negative_controls():
    G = _G(3)
    checks, witnesses = ge.verify_semidirect(G, G, G)
    assert not all(checks.values())
    failed = {name for name, good in checks.items() if not good}
    assert "trivial_intersection" in failed
    assert witnesses

    other = ge.generate(ge.GeneratorSet("none", 4, ()))
    checks, witnesses = ge.verify_semidirect(other, G, G)
    assert not all(checks.values())
    assert checks["same_degree"] is False


def test_verify_semidirect_names_what_fails():
    G, B, W = _G(3), ge.generate(s_alpha(3)), ge.generate(w_subgroup_generators(3))

    def swap(i, j):
        return ge.generate([Permutation.transposition(8, i, j)])

    escapes = "a generator conjugate of W escapes W"
    # B outside G: the smallest stray key; W is still normal, so no w_normal witness
    _, witnesses = ge.verify_semidirect(swap(1, 2), W, G)
    assert witnesses == {"b_subgroup": "Permutation[(1 2)]", "order_product": "2 * 8 != 64"}
    # W outside G, so not normal in it
    _, witnesses = ge.verify_semidirect(B, swap(7, 8), G)
    assert witnesses == {
        "w_subgroup": "Permutation[(7 8)]", "w_normal": escapes, "order_product": "8 * 2 != 64"
    }
    # W = <tau> inside G, but alpha(0, 3) moves tau's two transpositions
    checks, witnesses = ge.verify_semidirect(B, ge.generate([tau(3)]), G)
    assert checks["w_subgroup"]
    assert witnesses == {"w_normal": escapes, "order_product": "8 * 2 != 64"}


def _brute_commutator_subgroup(G):
    keys = G.sorted_keys()
    comms = set()
    for a in keys:
        ai = ge._inv(a)
        for b in keys:
            comms.add(ge._mul(ge._mul(a, b), ge._mul(ai, ge._inv(b))))
    return ge._dimino(sorted(comms), G.degree, ge.DEFAULT_CAP).elements


def test_commutator_subgroup_matches_all_pairs_oracle():
    from sylow2.sylow_builders import boxtimes_group

    syl2_s8 = ge.generate(syl2_S_generators(8))
    assert syl2_s8.order == 128
    for G in (_G(2), _G(3), boxtimes_group(6), syl2_s8):
        fast = ge.commutator_subgroup(G)
        assert fast.elements == _brute_commutator_subgroup(G)


def test_dimino_with_conjugators_builds_the_normal_closure():
    G = _G(3)
    t = tc.to_permutation(tau(3)).key
    conjugates = {ge._mul(ge._mul(g, t), ge._inv(g)) for g in G.elements}
    closure = ge._dimino(sorted(conjugates), 8, G.order).elements
    normal = ge._dimino([t], 8, G.order, G.gen_keys)
    assert normal.elements == closure
    assert len(conjugates) > 1 and normal.order > 2
    assert ge.is_normal(normal, G)


def test_squares_and_frattini():
    G3 = _G(3)
    squares = ge.squares_subgroup(G3)
    phi = ge.frattini_subgroup(G3)
    assert squares.elements == phi.elements
    assert G3.order // phi.order == 8
    klein = _G(2)
    assert ge.frattini_subgroup(klein).order == 1


@pytest.mark.parametrize("k", [2, 3, 4])
def test_generate_memoizes_the_frattini_subgroup_of_a_two_group(k):
    # generate keeps G^2, which frattini_subgroup returns; a group without
    # it (here G's buffer alone) has its Frattini subgroup closed anew
    G = _G(k)
    phi = ge.frattini_subgroup(G)
    assert phi is G.square_closure
    rebuilt = ge.frattini_subgroup(ge.EnumeratedGroup(G.degree, G.gen_keys, G.buffer))
    assert (phi.elements, phi.gen_keys) == (rebuilt.elements, rebuilt.gen_keys)


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
    trivial = ge.generate(ge.GeneratorSet("none", 2, ()))
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
        ge.generate(s_alpha(3)),
        ge.generate(w_subgroup_generators(3)),
        ge.squares_subgroup(G),
        ge.commutator_subgroup(G),
        ge.frattini_subgroup(G),
    ):
        assert G.order % H.order == 0


def _homomorphism_check(odd, G):
    """Whether x -> odd(x) is a homomorphism from G to C_2 = ({False, True},
    xor): odd(e) is False and odd(x s) == odd(x) ^ odd(s) for every x in G
    and every generator s. By induction on word length that covers every
    product, as every element of a finite group is a word in its generators."""
    if odd(G.identity_key):
        return False
    return all(odd(ge._mul(x, s)) == odd(x) ^ odd(s) for s in G.gen_keys for x in G.elements)


def test_homomorphism_check_parity_map():
    G = _G(3)
    assert _homomorphism_check(lambda key: not is_even(Permutation(key)), G)
    # a map that moves the identity is refused
    assert not _homomorphism_check(lambda key: key == G.identity_key, G)


def test_homomorphism_check_level_count_maps():
    # the mod-2 count of active states on each level is a homomorphism to
    # C2, and every square lies in its kernel
    G = _G(3)
    for level in range(3):
        def odd(key):
            return portrait_of(key).levels[level].bit_count() % 2 == 1

        assert _homomorphism_check(odd, G)
        for key in G.elements:
            assert not odd(ge._mul(key, key))


def test_no_pair_from_random_pool_generates_g3():
    G = _G(3)
    rng = random.Random(0)
    keys = G.sorted_keys()
    pool = sorted({rng.choice(keys) for _ in range(200)})
    for a, b in itertools.combinations(pool, 2):
        sub = ge.generate([Permutation(a), Permutation(b)])
        assert sub.order < G.order


def test_element_order_exponent_abelian_center():
    G2 = _G(2)
    assert ge.is_abelian(G2)
    assert ge.exponent(G2) == 2
    assert ge.center_size(G2) == 4
    G3 = _G(3)
    assert not ge.is_abelian(G3)
    assert ge.exponent(G3) in (4, 8)
    fp = ge.fingerprint(G2)
    assert fp == {
        "order": 4, "abelian": True, "exponent": 2,
        "derived_length": 1, "center_size": 4,
    }


def test_permutations_and_keys_are_interchangeable():
    G = _G(3)
    perms = list(G.permutations())
    assert [p.key for p in perms] == G.sorted_keys()
    assert perms == [Permutation(key) for key in G.sorted_keys()]
    for p in perms[::7]:
        assert ge.contains(G, p) and ge.contains(G, p.key)
        assert Permutation(p.key) == p
    with pytest.raises(ValueError):
        ge.contains(G, Permutation(range(9)))


@pytest.mark.parametrize("length", [0, 1, 511, 512, 513])
@settings(max_examples=10)
@given(degree=st.integers(1, 255), seed=st.integers(0, 2 ** 32))
# key_parities compares in 8-bit lanes up to degree 128 and in 16-bit lanes above
@example(degree=1, seed=0)
@example(degree=127, seed=0)
@example(degree=128, seed=0)
@example(degree=129, seed=0)
@example(degree=255, seed=0)
def test_key_parities_match_the_cycle_count_sign(length, degree, seed):
    rng = random.Random(seed)
    keys = []
    for i in range(length):
        images = list(range(degree))
        rng.shuffle(images)
        if i % 2 and degree > 1:
            # swap the first two images of every other key: the list holds
            # odd and even keys alike
            images[0], images[1] = images[1], images[0]
        keys.append(bytes(images))
    assert ge.key_parities(b"".join(keys), degree) == bytes(not is_even(Permutation(key)) for key in keys)


def test_key_parities_on_whole_groups():
    groups = [_G(k) for k in (2, 3, 4)] + [ge.generate(syl2_S_generators(16))]
    for G in groups:
        # one byte per key of the buffer, in buffer order
        parities = ge.key_parities(G.buffer, G.degree)
        assert parities == bytes(not is_even(Permutation(key)) for key in ge.iter_keys(G))
    assert [sum(ge.key_parities(G.buffer, G.degree)) for G in groups] == [0, 0, 0, 1 << 14]


def _even_half(G):
    """G's even keys, closed by _dimino into a group that keeps its cosets."""
    keys = G.sorted_keys()
    evens = [key for key, odd in zip(keys, ge.key_parities(b"".join(keys), G.degree)) if not odd]
    return ge._dimino(evens, G.degree, G.order)


def test_even_subgroup_of_syl2_s4():
    G = ge.generate(syl2_S_generators(4))
    H = _even_half(G)
    assert H.order == 4 and H.square_closure is None
    assert ge.is_subgroup(H, G)
    assert all(is_even(Permutation(key)) for key in H.elements)


def test_gen_keys_regenerate_the_group():
    parents = [_G(k) for k in (2, 3, 4)] + [ge.generate(syl2_S_generators(16))]
    groups = list(parents)
    for G in parents:
        groups += [ge.squares_subgroup(G), ge.commutator_subgroup(G), ge.frattini_subgroup(G)]
    groups.append(_even_half(ge.generate(syl2_S_generators(8))))
    for H in groups:
        assert all(type(g) is bytes and len(g) == H.degree for g in H.gen_keys)
        regenerated = generated(H.gen_keys, H.degree)
        assert regenerated.elements == H.elements


def test_generate_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        ge.generate([Permutation(range(3)), Permutation(range(4))])


def test_generator_set_validation():
    from sylow2.sylow_builders import alpha

    with pytest.raises(ValueError):
        ge.GeneratorSet("dup", 4, (("x", alpha(0, 2)), ("x", alpha(1, 2))))
    with pytest.raises(ValueError):
        ge.GeneratorSet("mixed", 8, (("x", alpha(0, 2)),))


# --- exponent and centre against the element-by-element formulas -----------


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
    assert ge.exponent(H) == lcm_exponent(H.elements)
    assert ge.center_size(H) == center_count(H.elements, H.gen_keys)


def test_exponent_and_center_match_oracles_on_whole_two_groups():
    for gens in (s_beta(2), s_beta(3), s_beta(4), syl2_S_generators(16)):
        G = ge.generate(gens)
        assert ge.exponent(G) == lcm_exponent(G.elements)
        assert ge.center_size(G) == center_count(G.elements, G.gen_keys)
    trivial = ge.generate(ge.GeneratorSet("none", 3, ()))
    assert (ge.exponent(trivial), ge.center_size(trivial)) == (1, 1)


def _one_image_center_size(G):
    """The centre as a filter that trusted the one-image check alone: x
    compared with each generator g at g's first moved point only."""
    def passes(x, g):
        i = next((p for p, image in enumerate(g) if p != image), 0)
        return x[g[i]] == g[x[i]]

    return sum(1 for x in G.elements if all(passes(x, g) for g in G.gen_keys))


def _cycles(degree, *gens):
    return [of_cycles(degree, cycles) for cycles in gens]


def test_center_size_cases_of_the_one_image_check():
    r, s = _cycles(4, [(1, 2, 3, 4)], [(1, 3)])
    # G_3's generators on points 2..9, so every generator fixes point 1
    shifted = [
        Permutation(bytes([0]) + bytes(b + 1 for b in g.key))
        for _, g in s_beta(3).permutation_entries()
    ]
    cases = {
        "fixes point 1": (_cycles(5, [(2, 3, 4, 5)], [(2, 4)]), 2),
        "every generator fixes point 1": (shifted, 2),
        "identity generator": ([Permutation(range(4)), r, s], 2),
        "generator listed twice": ([r, s, r], 2),
        "identity on one point": ([Permutation(range(1))], 1),
        "abelian, so every element passes": (_cycles(6, [(1, 2, 3, 4)], [(5, 6)]), 8),
    }
    for name, (gens, center) in cases.items():
        G = ge.generate(gens)
        assert ge.center_size(G) == center_count(G.elements, G.gen_keys) == center, name
    trivial = ge.generate(ge.GeneratorSet("none", 1, ()))
    assert ge.center_size(trivial) == center_count(trivial.elements, trivial.gen_keys) == 1
    # in Syl_2(S_8), (7 8) passes the one-image check of every generator but
    # does not commute with (1 5)(2 6)(3 7)(4 8): the check alone overcounts
    S8 = ge.generate(syl2_S_generators(8))
    g = of_cycles(8, [(1, 5), (2, 6), (3, 7), (4, 8)])
    x = Permutation.transposition(8, 7, 8)
    assert g.key in S8.gen_keys and x.key in S8.elements
    assert ge._mul(x.key, g.key) != ge._mul(g.key, x.key)
    assert ge.center_size(S8) == center_count(S8.elements, S8.gen_keys) == 2
    assert _one_image_center_size(S8) == 4
    # S8 is transitive, so center_size counts it from a transversal; on the
    # last 8 of 9 points it is not, and the column scan must drop (7 8) too
    S8_on_9 = ge.generate([Permutation(bytes([0]) + bytes(b + 1 for b in g)) for g in S8.gen_keys])
    assert ge.center_size(S8_on_9) == center_count(S8_on_9.elements, S8_on_9.gen_keys) == 2
    assert _one_image_center_size(S8_on_9) == 4


def _regular(gens, degree):
    """The left regular action of the group that gens generate on its own
    sorted elements: the image of x under g is the index of g x, for each
    generator g. Also the right multiplications x -> x y, one for each
    element y, which commute with every left one."""
    keys = ge.generate([Permutation(g) for g in gens]).sorted_keys()
    index = {x: i for i, x in enumerate(keys)}
    left = [bytes(index[compose(g, x)] for x in keys) for g in gens]
    right = [bytes(index[compose(x, y)] for x in keys) for y in keys]
    return left, right


def test_center_size_of_transitive_groups_reads_no_buffer():
    r, s = _cycles(4, [(1, 2, 3, 4)], [(1, 3)])
    c16 = of_cycles(16, [tuple(range(1, 17))])
    left, right = _regular([r.key, s.key], 4)
    cases = {
        "D_8 acting regularly on 8 points": (left, 8, 2),
        "C_16 acting regularly": ([c16.key], 16, 16),
        "identity generator": ([bytes(range(4)), r.key, s.key], 4, 2),
        "identity and C_16": ([bytes(range(16)), c16.key], 16, 16),
        "degree 1": ([bytes([0])], 1, 1),
        "degree 1, no generators": ([], 1, 1),
    }
    for name, (gens, degree, center) in cases.items():
        G = generated(gens, degree)
        assert ge.center_size(G) == center, name
        # the transversal and contains read G^2 and the representatives only
        assert "buffer" not in vars(G), name
        assert transitive(gens, degree) and center_count(G.elements, G.gen_keys) == center, name
    # the right multiplications of D_8 are 8 candidates that commute with
    # every generator of the regular D_8, but only its centre lies in it:
    # without the contains test the count would be 8
    G = generated(left, 8)
    assert all(compose(z, g) == compose(g, z) for z in right for g in left)
    assert sum(ge.contains(G, z) for z in right) == 2


@st.composite
def _transitive_subsets(draw):
    """2-4 distinct random elements of G_4 or Syl_2(S_16), drawn as the
    lattice pool's were, whose group is transitive on the 16 points."""
    keys = _PARENT_KEYS[draw(st.sampled_from(["G_4", "S_16"]))]
    gens = draw(st.randoms(use_true_random=False)).sample(keys, draw(st.integers(2, 4)))
    assume(transitive(gens, 16))
    return gens


@settings(max_examples=40)
@given(_transitive_subsets())
def test_center_size_of_a_transitive_subgroup_matches_the_oracle(keys):
    H = ge.generate([Permutation(k) for k in keys])
    center = ge.center_size(H)
    assert "buffer" not in vars(H)
    assert center == center_count(H.elements, H.gen_keys)


# --- the per-group memo of the commutator and Frattini subgroups ------------


def test_memo_returns_the_same_subgroups():
    G = _G(3)
    phi = ge.frattini_subgroup(G)
    assert ge.frattini_subgroup(G) is phi
    assert ge.quotient_rank(G) == 3
    # Φ is its own normal closure and does not read [G, G]; the derived
    # series and commutator_subgroup share one memo entry for it
    assert "commutator_subgroup" not in G._memo
    assert ge.derived_series(G)[1] is ge.commutator_subgroup(G)


def _generator_commutators(G):
    gens = G.gen_keys
    comms = {ge._mul(ge._mul(a, b), ge._mul(ge._inv(a), ge._inv(b))) for a in gens for b in gens}
    return comms - {G.identity_key}, gens


def _first_pooled_queries():
    """The first query of each stratum of the subgroup-lattice pool."""
    pool = json.loads((Path(__file__).resolve().parents[1] / "benchmark" / "reference"
                       / "lattice_pool.json").read_text())
    return {stratum[0]["id"]: stratum[0]["elements"] for stratum in pool["strata"].values()}


_POOLED = _first_pooled_queries()


@pytest.mark.parametrize("case", ["G_2", "G_3", "G_4", *_POOLED])
def test_commutators_of_unordered_pairs_close_as_all_ordered_pairs_do(case):
    if case in _POOLED:
        G = ge.generate([Permutation(bytes.fromhex(h)) for h in _POOLED[case]])
    else:
        G = _G(int(case[2:]))
    d, gens = G.degree, G.gen_keys
    # the commutators of every ordered pair, built image by image
    ordered = {compose(compose(a, b), compose(inverse(a), inverse(b))) for a in gens for b in gens}
    unordered = ge._commutators(gens)
    assert unordered <= ordered and len(unordered) <= len(gens) * (len(gens) - 1) // 2
    derived = normal_closure(ordered, gens, d)
    assert ge.commutator_subgroup(G).elements == derived
    assert ge._dimino(sorted(ordered), d, G.order, gens).elements == derived
    squares = {compose(g, g) for g in gens}
    assert ge._square_closure(gens, d, G.order).elements == normal_closure(ordered | squares, gens, d)


@pytest.mark.parametrize("j", range(1, 8))
def test_dimino_lists_a_cyclic_group_in_power_order(j):
    # a 2^j-cycle on 2^j points
    n = 1 << j
    g = of_cycles(n, [tuple(range(1, n + 1))])
    powers = b"".join(bytes((i + e) % n for i in range(n)) for e in range(n))  # g^e adds e mod n
    H = ge._dimino([g.key], n, n)
    assert (H.buffer, H.gen_keys) == (powers, (g.key,))
    # the identity and a power already listed are skipped, as any member is
    assert ge._dimino([bytes(range(n)), g.key, (g * g).key], n, n).buffer == powers
    for cap in range(n):
        # a cap below 1 reports one element, as generate does
        with pytest.raises(ge.CapExceededError) as info:
            ge._dimino([g.key], n, cap)
        assert (info.value.cap, info.value.partial_count) == (cap, max(cap, 1))


def test_commutator_cap_error_reports_the_cap():
    G = _G(4)
    seed, gens = _generator_commutators(G)
    derived = ge.commutator_subgroup(G).elements
    for cap in range(len(derived)):
        # a cap below 1 reports one element, as generate does
        with pytest.raises(ge.CapExceededError) as info:
            ge._dimino(sorted(seed), G.degree, cap, gens)
        assert (info.value.cap, info.value.partial_count) == (cap, max(cap, 1))
    for cap in (len(derived), len(derived) + 1, G.order):
        assert ge._dimino(sorted(seed), G.degree, cap, gens).elements == derived


def test_derived_subgroups_of_an_unclosed_element_set_stop_at_its_order():
    # {1, g} for an 8-cycle g is not closed: the squares (and so the Frattini
    # subgroup) generate the 4 powers of g^2, past the parent's order 2
    g = of_cycles(8, [tuple(range(1, 9))])
    cyclic = ge.EnumeratedGroup(8, (g.key,), b"".join(sorted({bytes(range(8)), g.key})))
    # {1, (1 2)} listed with generators (1 2) and (2 3): their commutator is
    # a 3-cycle, and its normal closure passes the parent's order 2
    a, b = Permutation.transposition(3, 1, 2), Permutation.transposition(3, 2, 3)
    swapped = ge.EnumeratedGroup(3, (a.key, b.key), b"".join(sorted({bytes(range(3)), a.key})))
    for malformed, build in (
        (cyclic, ge.squares_subgroup),
        (cyclic, ge.frattini_subgroup),
        (swapped, ge.commutator_subgroup),
    ):
        with pytest.raises(ge.CapExceededError) as info:
            build(malformed)
        assert info.value.cap == 2
    # the exponent squares the listed elements, with no closure to stop it,
    # whether squares_subgroup ran first (above) or not
    fresh = ge.EnumeratedGroup(8, (g.key,), b"".join(sorted({bytes(range(8)), g.key})))
    assert ge.exponent(cyclic) == ge.exponent(fresh) == 8
    # an element of odd order in a set of power-of-two size: no 2-element of
    # degree 3 has order above 2, so exponent stops squaring after one step
    c = of_cycles(3, [(1, 2, 3)])
    odd = ge.EnumeratedGroup(3, (c.key,), b"".join(sorted({bytes(range(3)), c.key})))
    with pytest.raises(ValueError, match="odd factor"):
        ge.exponent(odd)
    with pytest.raises(ge.CapExceededError) as info:
        ge.squares_subgroup(fresh)
    assert info.value.cap == 2


def test_an_element_past_the_bound_of_its_squares_raises():
    # {1, (1 2), (1 2 3), (1 2 3)(1 2)}, unclosed, laid out as generate lays
    # out a group: G^2 = {1, (1 2)} takes one squaring, the bound at degree 3,
    # and the 3-cycle past G^2's keys outlives it. One more squaring
    # would pass the bound, so no 2-element has that order: the set is no
    # 2-group, and its exponent is refused, not 2^2
    swap, c = Permutation.transposition(3, 1, 2), of_cycles(3, [(1, 2, 3)])
    squares = ge.generate([swap])
    c_swap = ge._mul(c.key, swap.key)
    malformed = ge.EnumeratedGroup._doubled((swap.key, c.key), squares, (c.key,), squares.identity_key + c.key)
    assert malformed.buffer == squares.buffer + c.key + c_swap
    assert malformed.order == 4 and ge._squarings(squares) == 1
    assert malformed.elements == squares.elements | {c.key, c_swap}
    with pytest.raises(ValueError, match="odd factor"):
        ge.exponent(malformed)


@pytest.mark.parametrize("degree", [3, 4, 8, 255])
def test_exponent_of_a_set_that_holds_a_three_cycle_raises(degree):
    # no 2-element has order 3, so squaring never leaves the identity: the
    # bound on the squarings ends the scan, whatever the degree
    ident = bytes(range(degree))
    c = bytes([1, 2, 0]) + ident[3:]
    swap = bytes([1, 0]) + ident[2:]
    for keys in ({ident, c}, {ident, swap, c, ge._mul(c, swap)}):
        malformed = ge.EnumeratedGroup(degree, (c,), b"".join(sorted(keys)))
        with pytest.raises(ValueError) as info:
            ge.exponent(malformed)
        assert str(info.value) == f"the set of {len(keys)} keys holds an element whose order has an odd factor"


def test_derived_series_of_an_unclosed_element_set_returns():
    # {1, r}, with r = (1 2 3 4) but not r^2, listed with generators r and
    # s = (1 3) of D_8: [D_8, D_8] = {1, r^2} is as large as the set, and the
    # series goes on below it, through closed 2-groups only
    r, s = of_cycles(4, [(1, 2, 3, 4)]), Permutation.transposition(4, 1, 3)
    unclosed = ge.EnumeratedGroup(4, (r.key, s.key), b"".join(sorted({bytes(range(4)), r.key})))
    series = ge.derived_series(unclosed)
    assert [D.order for D in series] == [2, 2, 1]
    assert series[1].elements == {bytes(range(4)), (r * r).key}
    assert ge.derived_length(unclosed) == 2


@pytest.mark.parametrize("k", [2, 3, 4])
def test_frattini_subgroup_is_the_squares_route_closure(k):
    # Φ(G_k) as one normal closure, against the closure of every element's
    # square with the commutator subgroup
    G = _G(k)
    squares = {ge._mul(x, x) for x in G.elements}
    route = ge._dimino(sorted(squares | ge.commutator_subgroup(G).elements), G.degree, G.order)
    phi = ge.frattini_subgroup(G)
    assert phi.elements == route.elements
    assert phi.elements == ge.squares_subgroup(G).elements
    assert G.order // phi.order == 1 << k


def test_memo_is_ignored_by_eq_hash_and_repr():
    filled, fresh = _G(3), _G(3)
    ge.frattini_subgroup(filled)
    ge.derived_series(filled)
    assert filled == fresh
    assert hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)
    assert "_memo" not in repr(filled)
