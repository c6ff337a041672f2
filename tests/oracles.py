"""Brute-force oracles and helpers that several test modules share. The
oracles use nothing of the group engine but its CapExceededError; generated
is the one helper that calls it."""

import math

from sylow2.group_engine import DEFAULT_CAP, CapExceededError, GeneratorSet, generate
from sylow2.perm_core import Permutation


def closure(gens, degree: int, cap=math.inf) -> set[bytes]:
    """The group that the byte keys gens generate, breadth-first, one element
    at a time, each product x g built image by image (x[g[i]] for each point
    i, with no bytes.translate). Past cap elements it raises
    CapExceededError with the count it stopped at."""
    identity = bytes(range(degree))
    elements, frontier = {identity}, [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = bytes(map(x.__getitem__, g))
                if y not in elements:
                    if len(elements) >= cap:
                        raise CapExceededError(cap, len(elements))
                    elements.add(y)
                    fresh.append(y)
        frontier = fresh
    return elements


def generated(keys, degree: int, cap: int = DEFAULT_CAP):
    """generate on a list of byte keys of one degree, the empty list included:
    the keys go in as a GeneratorSet, which carries the degree."""
    entries = [(str(i), Permutation(key)) for i, key in enumerate(keys)]
    return generate(GeneratorSet("keys", degree, entries), cap)


def element_order(x) -> int:
    """The order of a permutation or byte key: the number of times it must be
    multiplied together, one product at a time, to reach the identity."""
    p = x if isinstance(x, Permutation) else Permutation(x)
    identity = Permutation.identity(p.degree)
    power, order = p, 1
    while power != identity:
        power, order = power * p, order + 1
    return order


def lcm_exponent(keys) -> int:
    """The exponent of a set of keys: the lcm of their element orders."""
    return math.lcm(*map(element_order, keys))


def relabel(key: bytes, points) -> bytes:
    """The conjugate of a byte key by a permutation of its points: point
    points[i] goes to points[key[i]]."""
    image = bytearray(len(key))
    for i, j in enumerate(key):
        image[points[i]] = points[j]
    return bytes(image)
