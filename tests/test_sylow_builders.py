import pytest

from oracles import portrait_of
from sylow2 import group_engine as ge
from sylow2 import sylow_builders as sb
from sylow2 import tree_core as tc
from sylow2.perm_core import (
    Permutation,
    cycle_notation,
    is_even,
    legendre_nu2,
)


def test_alpha_bounds():
    with pytest.raises(ValueError):
        sb.alpha(3, 3)
    with pytest.raises(ValueError):
        sb.alpha(-1, 3)
    assert sb.alpha(2, 3).levels == (0, 0, 1)


def test_tau_set_validation():
    with pytest.raises(ValueError):
        sb.tau_set([1, 1], 3)
    with pytest.raises(ValueError):
        sb.tau_set([5], 3)
    assert sb.tau(2) == sb.tau_set([1, 2], 2)


def test_s_alpha_and_s_beta_shapes():
    assert [l for l, _ in sb.s_alpha(3).elements] == ["a0", "a1"]
    assert [l for l, _ in sb.s_beta(3).elements] == ["a0", "a1", "tau"]
    assert len(sb.s_beta(2)) == 2
    assert sb.s_beta(4).degree == 16
    with pytest.raises(ValueError):
        sb.s_beta(1)


def test_s_beta_closure_orders_and_evenness():
    for k, expected in ((2, 4), (3, 64)):
        G = ge.generate(sb.s_beta(k))
        assert G.order == expected
        assert all(is_even(Permutation(key)) for key in G.elements)


def test_tau_ij_words_exhaustive():
    for k in (2, 3, 4):
        top = 1 << (k - 1)
        for i in range(1, top + 1):
            for j in range(i + 1, top + 1):
                word = sb.tau_ij_word(i, j, k)
                assert sb.evaluate_word(word, k) == sb.tau_set([i, j], k)
                assert set(word) <= {l for l, _ in sb.s_beta(k).elements}
    assert sb.tau_ij_word(1, 4, 3) == ["tau"]
    assert sb.tau_ij_word(1, 2, 2) == ["tau"]


def test_tau_ij_word_validation():
    with pytest.raises(ValueError):
        sb.tau_ij_word(2, 2, 3)
    with pytest.raises(ValueError):
        sb.tau_ij_word(0, 1, 3)
    with pytest.raises(ValueError):
        sb.tau_ij_word(1, 5, 3)
    with pytest.raises(ValueError):
        sb.evaluate_word(["nope"], 3)


def test_syl2_order_values():
    assert sb.syl2_order(8, "A") == 6
    assert sb.syl2_order(12, "A") == 9
    assert sb.syl2_order(7, "A") == 3
    assert sb.syl2_order(22, "S") == 19
    assert sb.syl2_order(24, "S") == 22
    assert sb.syl2_order(4, "S") == 3
    assert sb.syl2_order(1, "S") == 0
    assert sb.syl2_order(1, "A") == 0
    assert sb.syl2_order(2, "A") == 0
    assert sb.syl2_order(3, "A") == 0
    with pytest.raises(ValueError):
        sb.syl2_order(0, "S")
    with pytest.raises(ValueError):
        sb.syl2_order(4, "B")


def test_decompose():
    assert sb.decompose(22).parts == (4, 2, 1)
    assert sb.decompose(22).powers == (16, 4, 2)
    assert sb.decompose(24).parts == (4, 3)
    assert sb.decompose(1).parts == (0,)
    with pytest.raises(ValueError):
        sb.decompose(0)


def test_decompose_order_identity():
    for n in range(1, 4097):
        dec = sb.decompose(n)
        assert sum(dec.powers) == n
        assert sum(p - 1 for p in dec.powers) == legendre_nu2(n)


def test_syl2_s_generators():
    g4 = sb.syl2_S_generators(4)
    assert len(g4) == 2
    assert ge.generate(g4).order == 8

    g8 = sb.syl2_S_generators(8)
    assert len(g8) == 3
    assert ge.generate(g8).order == 128

    g6 = sb.syl2_S_generators(6)
    assert len(g6) == 3  # two for the 4-block, one for the 2-block
    assert ge.generate(g6).order == 1 << legendre_nu2(6)
    with pytest.raises(ValueError):
        sb.syl2_S_generators(1)


def test_syl2_s_generators_act_in_blocks():
    gens = dict(sb.syl2_S_generators(6).permutation_entries())
    assert cycle_notation(gens["a0[1-4]"]) == "(1 3)(2 4)"
    assert cycle_notation(gens["a1[1-4]"]) == "(1 2)"
    assert cycle_notation(gens["a0[5-6]"]) == "(5 6)"


def test_syl2_a_generators_are_even():
    for n in (4, 6, 7, 8, 12):
        for label, perm in sb.syl2_A_generators(n).permutation_entries():
            assert is_even(perm), label


def test_syl2_a_generators_generate_the_even_half_without_the_identity():
    # for n = 2, 3 mod 4 the last odd generator is the parity fix h itself,
    # whose h*h is the identity: it is left out
    for n in range(2, 21):
        entries = sb.syl2_A_generators(n).permutation_entries()
        assert all(perm != Permutation(range(perm.degree)) for _, perm in entries), n
        S = ge.generate(sb.syl2_S_generators(n))
        A = ge.generate(sb.syl2_A_generators(n))
        # even generators inside Syl_2(S_n), generating half of it: its even half
        assert all(is_even(perm) and ge.contains(S, perm) for _, perm in entries), n
        assert A.order * 2 == S.order == 1 << legendre_nu2(n), n
        if n <= 10:
            assert A.elements == {p.key for p in S.permutations() if is_even(p)}, n


def test_boxtimes_orders():
    assert sb.boxtimes_group(12).order == 512
    assert sb.boxtimes_group(6).order == 8
    assert sb.boxtimes_group(4).order == 4
    assert sb.boxtimes_group(7).order == 8
    assert sb.boxtimes_group(8).order == 64


def test_boxtimes_trivial_cases():
    assert sb.boxtimes_group(1).order == 1
    assert sb.boxtimes_group(2).order == 1
    assert sb.boxtimes_group(3).order == 1


def test_boxtimes_small_fingerprints():
    h6 = ge.fingerprint(sb.boxtimes_group(6))
    assert (h6["order"], h6["abelian"], h6["exponent"]) == (8, False, 4)
    h4 = ge.fingerprint(sb.boxtimes_group(4))
    assert (h4["order"], h4["abelian"], h4["exponent"]) == (4, True, 2)


def test_boxtimes_matches_filtered_even_subgroup():
    # the construction cross-checks internally; re-derive the filter side
    # here as an explicit oracle
    for n in (4, 6, 7, 12):
        full = ge.generate(sb.syl2_S_generators(n))
        filtered = {key for key in full.elements if is_even(Permutation(key))}
        assert sb.boxtimes_group(n).elements == filtered


def test_boxtimes_two_paths_agree_up_to_n15():
    # boxtimes_group raises if its two constructions ever disagree; every n
    # with alternating exponent at most 12 stays inside this range
    for n in range(1, 16):
        H = sb.boxtimes_group(n)
        assert H.order == 1 << sb.syl2_order(n, "A")


def test_boxtimes_respects_cap():
    with pytest.raises(ge.CapExceededError):
        sb.boxtimes_group(12, cap=16)


def test_parity_extension_values():
    ident = Permutation(range(4))
    assert sb.parity_extension(ident, 6) == Permutation(range(6))
    swap = Permutation.transposition(4, 1, 2)
    assert cycle_notation(sb.parity_extension(swap, 6)) == "(1 2)(5 6)"
    with pytest.raises(ValueError):
        sb.parity_extension(ident, 5)


def test_parity_extension_always_even_and_homomorphic():
    S4 = ge.generate(sb.syl2_S_generators(4))
    perms = [Permutation(key) for key in S4.sorted_keys()]
    images = {p: sb.parity_extension(p, 6) for p in perms}
    assert all(is_even(v) for v in images.values())
    assert len(set(images.values())) == len(perms)
    for p in perms:
        for q in perms:
            assert sb.parity_extension(p * q, 6) == images[p] * images[q]


def test_parity_extension_image_is_boxtimes_6():
    S4 = ge.generate(sb.syl2_S_generators(4))
    image = {
        bytes(sb.parity_extension(Permutation(key), 6).images)
        for key in S4.elements
    }
    assert image == sb.boxtimes_group(6).elements


def test_syl2_order_at_the_degrees_of_the_ratio_remarks():
    # spot instances behind the order-ratios claim's relations
    assert sb.syl2_order(7, "A") - sb.syl2_order(5, "A") == 1
    assert sb.syl2_order(7, "A") == sb.syl2_order(6, "A") == 3
    assert sb.syl2_order(11, "A") == sb.syl2_order(10, "A")


def test_b_and_w_subgroup_generators():
    assert ge.generate(sb.s_alpha(3)).order == 8
    assert ge.generate(sb.w_subgroup_generators(3)).order == 8
    assert ge.generate(sb.w_subgroup_generators(4)).order == 128
    assert len(sb.w_subgroup_generators(4)) == 7
    with pytest.raises(ValueError):
        sb.s_alpha(1)


def test_w_subgroup_elementary_abelian():
    for k in (2, 3, 4):
        W = ge.generate(sb.w_subgroup_generators(k))
        assert ge.is_abelian(W)
        assert ge.exponent(W) <= 2
        assert W.order == 1 << ((1 << (k - 1)) - 1)


def test_w_elements_live_on_last_level():
    W = ge.generate(sb.w_subgroup_generators(3))
    for key in W.elements:
        portrait = portrait_of(key)
        assert portrait.levels[0] == 0 and portrait.levels[1] == 0
        assert portrait.levels[2].bit_count() % 2 == 0
