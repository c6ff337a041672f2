"""Acceptance suite: each test checks one numbered criterion exactly and
prints a single pass/fail line for it (visible with `pytest -s`)."""

import itertools
import random
import time
from functools import lru_cache

from oracles import portrait_of
from sylow2 import claims as cl
from sylow2 import group_engine as ge
from sylow2 import sylow_builders as sb
from sylow2 import tree_core as tc
from sylow2.perm_core import Permutation, is_even, legendre_nu2


@lru_cache(maxsize=None)
def _G(k):
    return ge.generate(sb.s_beta(k))


@lru_cache(maxsize=None)
def _W(k):
    return ge.generate(sb.w_subgroup_generators(k))


@lru_cache(maxsize=None)
def _B(k):
    return ge.generate(sb.s_alpha(k))


def _finish(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion} failed: {detail}"


def test_01_order_of_gk():
    start = time.perf_counter()
    orders = {k: _G(k).order for k in (2, 3, 4)}
    elapsed = time.perf_counter() - start
    ok = orders == {2: 4, 3: 64, 4: 16384} and elapsed < 10
    _finish("01 order-of-Gk", ok, f"orders={orders} elapsed={elapsed:.2f}s")


def test_02_evenness():
    counts = {}
    ok = True
    for k in (2, 3, 4):
        G = _G(k)
        counts[k] = G.order
        ok = ok and all(is_even(Permutation(key)) for key in G.elements)
    _finish("02 evenness", ok, f"elements checked={counts}")


def test_03_semidirect_structure():
    ok = True
    for k in (2, 3, 4):
        checks, _ = ge.verify_semidirect(_B(k), _W(k), _G(k))
        ok = ok and all(checks.values())
    arithmetic = (_B(4).order, _W(4).order, _G(4).order)
    ok = ok and arithmetic == (2 ** 7, 2 ** 7, 2 ** 14)
    _finish("03 semidirect", ok, f"k=4 arithmetic 2^7*2^7=2^14 -> {arithmetic}")


def test_04_w_structure():
    seen = {}
    ok = True
    for k in (2, 3, 4):
        W = _W(k)
        seen[k] = W.order
        ok = ok and W.order == 1 << ((1 << (k - 1)) - 1)
        ok = ok and ge.is_abelian(W) and ge.exponent(W) == 2
    _finish("04 w-structure", ok, f"orders={seen}")


def test_05_minimality_via_burnside():
    ok = True
    detail = []
    k4_elapsed = 0.0
    for k in (2, 3, 4):
        start = time.perf_counter()
        G = _G(k)
        rank = ge.quotient_rank(G)
        squares = ge.squares_subgroup(G)
        commutators = ge.commutator_subgroup(G)
        phi = ge.frattini_subgroup(G)
        union_gens = [Permutation(g) for g in squares.gen_keys + commutators.gen_keys]
        union = ge.generate(union_gens) if union_gens else phi
        subset_hits = 0
        for subset in itertools.combinations(sb.s_beta(k).permutation_entries(), k - 1):
            sub = ge.generate([p for _, p in subset])
            if sub.order == G.order:
                subset_hits += 1
        elapsed = time.perf_counter() - start
        if k == 4:
            k4_elapsed = elapsed
        ok = ok and rank == k and subset_hits == 0
        ok = ok and squares.elements == phi.elements == union.elements
        detail.append(f"k={k} rank={rank} |phi|={phi.order}")
    ok = ok and k4_elapsed < 60
    _finish("05 minimality", ok, "; ".join(detail) + f"; k4 elapsed={k4_elapsed:.2f}s")


def test_06_frattini_level_property():
    ok = True
    coverage = {}
    rng = random.Random(0)
    for k in (3, 4):
        phi = ge.frattini_subgroup(_G(k))
        keys = phi.sorted_keys()
        samples = list(keys)
        if k == 4:
            samples += [rng.choice(keys) for _ in range(10_000)]
        violations = 0
        for key in samples:
            portrait = portrait_of(key)
            if any(portrait.levels[l].bit_count() % 2 for l in range(k - 1)):
                violations += 1
            elif tc.classify_element(portrait) is tc.ElementKind.TYPE_T:
                violations += 1
        coverage[k] = (len(samples), violations)
        ok = ok and violations == 0
    _finish("06 frattini-level", ok, f"(checked, violations) per k: {coverage}")


def test_07_t_nonclosure():
    t_set = [
        p for p in tc.iter_portraits(3)
        if tc.classify_element(p) is tc.ElementKind.TYPE_T
    ]
    pairs = 0
    violations = 0
    for x in t_set:
        if tc.classify_element(tc.compose(x, x)) is tc.ElementKind.TYPE_T:
            violations += 1
        for y in t_set:
            pairs += 1
            if tc.classify_element(tc.compose(x, y)) is tc.ElementKind.TYPE_T:
                violations += 1
    ok = violations == 0 and pairs == len(t_set) ** 2 and len(t_set) == 4
    _finish("07 t-nonclosure", ok, f"|T|={len(t_set)} pairs={pairs} violations={violations}")


def test_08_tau_ij_generation():
    checked = 0
    ok = True
    for i in range(1, 5):
        for j in range(i + 1, 5):
            word = sb.tau_ij_word(i, j, 3)
            ok = ok and sb.evaluate_word(word, 3) == sb.tau_set([i, j], 3)
            checked += 1
    ok = ok and checked == 6
    _finish("08 tau-ij-generation", ok, f"pairs checked={checked}")


def test_09_legendre_values():
    ok = legendre_nu2(22) == 19 and legendre_nu2(24) == 22 and legendre_nu2(8) == 7
    limit = 10 ** 6
    ok = ok and all(legendre_nu2(n) == n - n.bit_count() for n in range(limit + 1))
    _finish("09 legendre", ok, f"identity checked to n={limit}")


def test_10_composite_constructions():
    start = time.perf_counter()
    orders = {}
    ok = True
    for n in (4, 6, 7, 8, 12):
        H = sb.boxtimes_group(n)  # internally cross-checks both constructions
        orders[n] = H.order
        full = ge.generate(sb.syl2_S_generators(n))
        filtered = {key for key in full.elements if is_even(Permutation(key))}
        ok = ok and H.elements == filtered
    elapsed = time.perf_counter() - start
    ok = ok and orders[12] == 512 and orders[6] == 8 and elapsed < 10
    _finish("10 boxtimes", ok, f"orders={orders} elapsed={elapsed:.2f}s")


def test_11_parity_extension():
    S4 = ge.generate(sb.syl2_S_generators(4))
    perms = [Permutation(key) for key in S4.sorted_keys()]
    images = {p: sb.parity_extension(p, 6) for p in perms}
    injective = len(set(images.values())) == len(perms)
    homomorphic = all(
        sb.parity_extension(p * q, 6) == images[p] * images[q]
        for p in perms
        for q in perms
    )
    H6 = sb.boxtimes_group(6)
    image_match = {bytes(v.images) for v in images.values()} == H6.elements
    fp = ge.fingerprint(H6)
    d4 = fp["order"] == 8 and not fp["abelian"] and fp["exponent"] == 4
    ok = injective and homomorphic and image_match and d4
    _finish(
        "11 parity-extension", ok,
        f"injective={injective} hom={homomorphic} image={image_match} fingerprint={fp}",
    )


def test_12_small_case_fingerprints():
    fp = ge.fingerprint(_G(2))
    klein = (
        fp["order"] == 4 and fp["abelian"] and fp["exponent"] == 2
        and fp["derived_length"] == 1
    )
    exponents = (sb.syl2_order(7, "A"), sb.syl2_order(6, "A"))
    ok = klein and exponents == (3, 3)
    _finish("12 small-fingerprints", ok, f"G2={fp} A7/A6 exponents={exponents}")


def test_13_order_ratio_remarks():
    ok = True
    for k in range(1, 26):
        ok = ok and sb.syl2_order(4 * k + 3, "A") - sb.syl2_order(4 * k + 1, "A") == 1
        ok = ok and sb.syl2_order(2 * k + 1, "A") == sb.syl2_order(2 * k, "A")
        ok = ok and sb.syl2_order(2 * k + 1, "S") == sb.syl2_order(2 * k, "S")
    [record] = cl.run_claims(["order-ratios"], cl.ClaimContext(), version="test").claims
    ok = ok and record.status == "pass"
    _finish("13 order-ratios", ok, f"k=1..25 claim={record.status}")


def test_14_portrait_algebra_oracle():
    start = time.perf_counter()
    portraits = list(tc.iter_portraits(3))
    perms = [tc.to_permutation(p) for p in portraits]
    mismatches = 0
    for a, pa in zip(portraits, perms):
        for b, pb in zip(portraits, perms):
            if tc.to_permutation(tc.compose(a, b)) != pa * pb:
                mismatches += 1
    elapsed = time.perf_counter() - start
    pairs = len(portraits) ** 2
    ok = mismatches == 0 and pairs == 128 * 128 and elapsed < 5
    _finish("14 portrait-oracle", ok, f"pairs={pairs} elapsed={elapsed:.2f}s")
