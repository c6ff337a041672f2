"""Brute-force oracles and helpers that several test modules share; none of
them reads the group engine."""

import math

from sylow2.perm_core import Permutation


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
