import doctest
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import element_order, of_cycles
from sylow2 import perm_core
from sylow2.perm_core import (
    KEY_DEGREE,
    Permutation,
    _inv,
    _inv_table,
    cycle_notation,
    cycles,
    is_even,
    legendre_nu2,
    parity_bit,
)


def test_identity_basics():
    e = Permutation(range(8))
    assert e.images == tuple(range(8))
    assert parity_bit(e) == 0
    assert cycles(e, include_fixed=True) == [(x,) for x in range(1, 9)]
    assert cycle_notation(e) == "()"
    assert of_cycles(8, []) == e


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))
    with pytest.raises(ValueError):
        Permutation(())
    with pytest.raises(ValueError):
        of_cycles(3, [(1, 2), (2, 3)])  # repeated point


def test_rejects_float_images():
    # accepted once, and its repr then raised TypeError
    with pytest.raises(ValueError):
        Permutation([0.0, 1.0])


def test_rejects_bool_images():
    # accepted once, as the transposition (1 2)
    with pytest.raises(ValueError):
        Permutation([True, False])


def test_key_holds_the_images_as_bytes():
    p = of_cycles(5, [(1, 3, 5)])
    assert p.key == bytes(p.images) == bytes([2, 1, 4, 3, 0])
    assert Permutation(p.key) == p
    assert Permutation(bytes(range(256))) == Permutation(range(256))
    with pytest.raises(ValueError):
        Permutation(b"\x00\x00")
    with pytest.raises(ValueError):
        Permutation(range(257)).key


def test_product_on_300_points_is_tuple_composition():
    # above 256 points a key no longer fits in bytes: the wide storage
    rng = random.Random(300)
    a, b = list(range(300)), list(range(300))
    rng.shuffle(a)
    rng.shuffle(b)
    p, q = Permutation(a), Permutation(b)
    assert (p * q).images == tuple(a[b[i]] for i in range(300))
    assert _inverse(p * q) == _inverse(q) * _inverse(p)
    assert cycle_notation(p * q) == cycle_notation(Permutation([a[y] for y in b]))


def test_transposition_is_odd():
    t = Permutation.transposition(4, 1, 2)
    assert parity_bit(t) == 1 and not is_even(t)
    assert t.images == (1, 0, 2, 3)


def test_compose_applies_right_factor_first():
    p = of_cycles(3, [(1, 2)])
    q = of_cycles(3, [(2, 3)])
    assert (p * q).images[2] == p.images[q.images[2]] == 0
    assert (q * p).images[0] == q.images[p.images[0]] == 2


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation(range(3)) * Permutation(range(4))


def _sorted_points_inverse(images):
    # the inverse as the points sorted by their images
    return sorted(range(len(images)), key=images.__getitem__)


def _inverse(p):
    return Permutation(_sorted_points_inverse(p.images))


def test_inverse_key_is_the_sorted_points_inverse():
    rng = random.Random(36)
    for degree in range(1, KEY_DEGREE + 1):
        images = list(range(degree))
        rng.shuffle(images)
        key = bytes(images)
        assert _inv(key) == bytes(_sorted_points_inverse(images))
        # the inverse's translate table: composing with it undoes the key
        assert key.translate(_inv_table(key)) == bytes(range(degree))


def test_order_is_lcm_of_cycle_lengths():
    p = of_cycles(7, [(1, 2), (3, 4, 5)])
    lengths = [len(c) for c in cycles(p, include_fixed=True)]
    assert lengths == [2, 3, 1, 1]
    assert element_order(p) == math.lcm(*lengths) == 6


def test_cycles_one_based_and_sorted():
    p = of_cycles(8, [(7, 8), (1, 2)])
    assert cycles(p) == [(1, 2), (7, 8)]
    assert cycle_notation(p) == "(1 2)(7 8)"


def test_cycle_notation_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        images = list(range(10))
        rng.shuffle(images)
        p = Permutation(images)
        assert of_cycles(10, cycles(p)) == p


@st.composite
def _permutations(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    return Permutation(draw(st.permutations(range(n))))


@given(_permutations())
def test_cycle_notation_round_trip_property(p):
    # the cycles that cycle_notation writes out give p back
    again = of_cycles(p.degree, cycles(p))
    assert again == p
    assert cycle_notation(again) == cycle_notation(p)


_DEGREES = st.one_of(st.integers(1, 256), st.integers(257, 300))


@settings(max_examples=50)
@given(_DEGREES.flatmap(lambda n: st.lists(st.integers(-1, n), min_size=n, max_size=n)))
def test_rejects_every_non_bijection_property(images):
    assume(sorted(images) != list(range(len(images))))
    with pytest.raises(ValueError):
        Permutation(images)


@settings(max_examples=50)
@given(_DEGREES.flatmap(lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_product_is_composition_property(pair):
    p, q = Permutation(pair[0]), Permutation(pair[1])
    pq = p * q
    assert all(pq.images[x] == p.images[q.images[x]] for x in range(p.degree))


@settings(max_examples=50)
@given(_DEGREES.flatmap(lambda n: st.permutations(range(n))))
def test_inverse_undoes_the_permutation_property(images):
    # the product undoes the inverse in both storages: bytes up to 256 points, a tuple above
    p, identity = Permutation(images), Permutation(range(len(images)))
    assert p * _inverse(p) == identity == _inverse(p) * p


def test_parity_homomorphism_exhaustive_s4():
    import itertools

    s4 = [Permutation(p) for p in itertools.permutations(range(4))]
    for p in s4:
        for q in s4:
            assert parity_bit(p * q) == (parity_bit(p) + parity_bit(q)) % 2


def test_parity_homomorphism_sampled_s8():
    rng = random.Random(0)
    base = list(range(8))
    for _ in range(2000):
        a, b = list(base), list(base)
        rng.shuffle(a)
        rng.shuffle(b)
        p, q = Permutation(a), Permutation(b)
        assert parity_bit(p * q) == (parity_bit(p) + parity_bit(q)) % 2
        assert is_even(p) == (parity_bit(p) == 0)


def test_the_module_examples_run_and_pass():
    # the examples in perm_core's docstrings: cycle_notation's and legendre_nu2's
    results = doctest.testmod(perm_core)
    assert results.failed == 0 and results.attempted >= 3


def test_legendre_spot_values():
    assert legendre_nu2(8) == 7
    assert legendre_nu2(22) == 19
    assert legendre_nu2(24) == 22
    assert legendre_nu2(0) == 0
    with pytest.raises(ValueError):
        legendre_nu2(-1)


def test_legendre_powers_of_two():
    for k in range(21):
        assert legendre_nu2(1 << k) == (1 << k) - 1


def test_legendre_against_exact_factorial():
    # independent oracle: strip factors of 2 from n! computed exactly
    for n in range(17):
        value = math.factorial(n)
        e = 0
        while value % 2 == 0:
            value //= 2
            e += 1
        assert legendre_nu2(n) == e


def test_legendre_matches_popcount_identity_sample():
    for n in range(4097):
        assert legendre_nu2(n) == n - n.bit_count()
