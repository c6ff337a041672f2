import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import element_order
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
    e = Permutation.identity(8)
    assert e.is_identity()
    assert parity_bit(e) == 0
    assert cycles(e, include_fixed=True) == [(x,) for x in range(1, 9)]
    assert cycle_notation(e) == "()"
    assert Permutation.from_cycles(8, []) == e


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))
    with pytest.raises(ValueError):
        Permutation(())
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(1, 2), (2, 3)])  # repeated point


def test_rejects_float_images():
    # accepted once, and its repr then raised TypeError
    with pytest.raises(ValueError):
        Permutation([0.0, 1.0])


def test_rejects_bool_images():
    # accepted once, as the transposition (1 2)
    with pytest.raises(ValueError):
        Permutation([True, False])


@pytest.mark.parametrize("cycles, message", [
    ([()], "empty cycle"),  # raised IndexError once
    ([(1, 2.0)], "point 2.0 is not an integer in 1..4"),  # raised TypeError once
    ([(True, 2)], "point True is not an integer in 1..4"),
    ([(1, 5)], "point 5 is not an integer in 1..4"),
    ([(1, 2), (2, 3)], "point 2 repeated across cycles"),
])
def test_from_cycles_refuses_bad_cycles_in_one_line(cycles, message):
    with pytest.raises(ValueError) as info:
        Permutation.from_cycles(4, cycles)
    assert str(info.value) == message


def test_key_holds_the_images_as_bytes():
    p = Permutation.from_cycles(5, [(1, 3, 5)])
    assert p.key == bytes(p.images) == bytes([2, 1, 4, 3, 0])
    assert Permutation(p.key) == p
    assert Permutation(bytes(range(256))).is_identity()
    with pytest.raises(ValueError):
        Permutation(b"\x00\x00")
    with pytest.raises(ValueError):
        Permutation.identity(257).key


def test_product_on_300_points_is_tuple_composition():
    # above 256 points a key no longer fits in bytes: the wide storage
    rng = random.Random(300)
    a, b = list(range(300)), list(range(300))
    rng.shuffle(a)
    rng.shuffle(b)
    p, q = Permutation(a), Permutation(b)
    assert (p * q).images == tuple(a[b[i]] for i in range(300))
    assert (p * q).inverse() == q.inverse() * p.inverse()
    assert cycle_notation(p * q) == cycle_notation(Permutation([a[y] for y in b]))


def test_transposition_is_odd():
    t = Permutation.transposition(4, 1, 2)
    assert parity_bit(t) == 1 and not is_even(t)
    assert t(1) == 2 and t(2) == 1 and t(3) == 3


def test_compose_applies_right_factor_first():
    p = Permutation.from_cycles(3, [(1, 2)])
    q = Permutation.from_cycles(3, [(2, 3)])
    assert (p * q)(3) == p(q(3)) == 1
    assert (q * p)(1) == q(p(1)) == 3


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation.identity(3) * Permutation.identity(4)


def test_inverse_and_power():
    rng = random.Random(7)
    for _ in range(50):
        images = list(range(9))
        rng.shuffle(images)
        p = Permutation(images)
        assert (p * p.inverse()).is_identity()
        assert p ** 0 == Permutation.identity(9)
        assert p ** 3 == p * p * p
        assert p ** -1 == p.inverse()
        assert (p ** element_order(p)).is_identity()


def _sorted_points_inverse(images):
    # the inverse as the points sorted by their images
    return sorted(range(len(images)), key=images.__getitem__)


def test_inverse_key_is_the_sorted_points_inverse():
    rng = random.Random(36)
    for degree in range(1, KEY_DEGREE + 1):
        images = list(range(degree))
        rng.shuffle(images)
        key = bytes(images)
        assert _inv(key) == bytes(_sorted_points_inverse(images))
        # the inverse's translate table: composing with it undoes the key
        assert key.translate(_inv_table(key)) == bytes(range(degree))
        assert Permutation(key).inverse().images == tuple(_sorted_points_inverse(images))
    images = list(range(300))
    rng.shuffle(images)
    wide = Permutation(images)
    assert _inv(wide._key) == tuple(_sorted_points_inverse(images)) == wide.inverse().images
    assert type(wide.inverse()._key) is tuple


def test_power_matches_repeated_products():
    rng = random.Random(11)
    for _ in range(10):
        images = list(range(7))
        rng.shuffle(images)
        p = Permutation(images)
        for e in range(-5, 6):
            base = p if e >= 0 else p.inverse()
            expected = Permutation.identity(7)
            for _ in range(abs(e)):
                expected = expected * base
            assert p ** e == expected


def test_huge_power_takes_logarithmically_many_products():
    t = Permutation.transposition(5, 2, 4)
    assert t ** (10**18 + 1) == t
    assert (t ** (10**18)).is_identity()
    assert t ** -(10**18 + 1) == t


def test_order_is_lcm_of_cycle_lengths():
    p = Permutation.from_cycles(7, [(1, 2), (3, 4, 5)])
    lengths = [len(c) for c in cycles(p, include_fixed=True)]
    assert lengths == [2, 3, 1, 1]
    assert element_order(p) == math.lcm(*lengths) == 6


def test_cycles_one_based_and_sorted():
    p = Permutation.from_cycles(8, [(7, 8), (1, 2)])
    assert cycles(p) == [(1, 2), (7, 8)]
    assert cycle_notation(p) == "(1 2)(7 8)"


def test_cycle_notation_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        images = list(range(10))
        rng.shuffle(images)
        p = Permutation(images)
        assert Permutation.from_cycles(10, cycles(p)) == p


@st.composite
def _permutations(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    return Permutation(draw(st.permutations(range(n))))


@given(_permutations())
def test_cycle_notation_round_trip_property(p):
    # the cycles that cycle_notation writes out give p back
    again = Permutation.from_cycles(p.degree, cycles(p))
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
    assert all(pq(x) == p(q(x)) for x in range(1, p.degree + 1))


@settings(max_examples=50)
@given(_DEGREES.flatmap(lambda n: st.permutations(range(n))))
def test_inverse_undoes_the_permutation_property(images):
    # one key inverse for both storages: bytes up to 256 points, a tuple above
    p = Permutation(images)
    assert (p * p.inverse()).is_identity() and (p.inverse() * p).is_identity()


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
