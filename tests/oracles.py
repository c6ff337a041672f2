"""Brute-force oracles and helpers that several test modules share. The
oracles use nothing of the group engine but its CapExceededError; generated
is the one helper that calls it. of_cycles and portrait_of build test data in
the form the library takes: a Permutation from cycles, and the Portrait of
a leaf key."""

import math

from sylow2 import tree_core
from sylow2.group_engine import DEFAULT_CAP, CapExceededError, GeneratorSet, generate
from sylow2.perm_core import Permutation


def of_cycles(n: int, cycles) -> Permutation:
    """The permutation of {1, ..., n} with the given disjoint cycles of
    1-based points; Permutation refuses a result that is no bijection."""
    images = list(range(n))
    for cycle in map(tuple, cycles):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b - 1
    return Permutation(images)


def portrait_of(key) -> tree_core.Portrait:
    """The Portrait of a leaf key (0-based images) of degree 2^k, read by
    lane_portraits in one lane, looked up in tree_core so that a patch of it
    applies; ValueError unless it is a tree automorphism."""
    return tree_core.Portrait(len(key).bit_length() - 1, tree_core.lane_portraits([key]))


def compose(a: bytes, b: bytes) -> bytes:
    """The byte key of a after b, built image by image: a[b[i]] for each point
    i, with no bytes.translate."""
    return bytes(map(a.__getitem__, b))


def closure(gens, degree: int, cap=math.inf) -> set[bytes]:
    """The group that the byte keys gens generate, breadth-first, one element
    at a time, each product x g built by compose. Past cap elements it raises
    CapExceededError with the count it stopped at."""
    identity = bytes(range(degree))
    elements, frontier = {identity}, [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in elements:
                    if len(elements) >= cap:
                        raise CapExceededError(cap, len(elements))
                    elements.add(y)
                    fresh.append(y)
        frontier = fresh
    return elements


def center_count(elements, gens) -> int:
    """The number of byte keys of elements that commute with every byte key
    of gens, each product built by compose: |Z(G)| for G's elements and
    generators."""
    return sum(all(compose(x, g) == compose(g, x) for g in gens) for x in elements)


def transitive(gens, degree: int) -> bool:
    """Whether the orbit of point 0 under the byte keys gens holds all
    degree points, grown by every generator's image of every point reached."""
    orbit, grown = set(), {0}
    while grown != orbit:
        orbit, grown = grown, grown | {g[p] for g in gens for p in grown}
    return len(orbit) == degree


def inverse(key: bytes) -> bytes:
    """The byte key of the inverse, point by point: image key[i] goes back to i."""
    images = bytearray(len(key))
    for i, j in enumerate(key):
        images[j] = i
    return bytes(images)


def normal_closure(seeds, conjugators, degree: int) -> set[bytes]:
    """The smallest group that holds the byte keys seeds and is closed under
    conjugation by the byte keys conjugators: closure of the seeds, closed
    again with each conjugate s x s^-1 (s a conjugator, x a generator so far)
    that it lacks, until there is none."""
    gens = sorted(set(seeds))
    elements = closure(gens, degree)
    while True:
        fresh = {compose(compose(s, x), inverse(s)) for s in conjugators for x in gens} - elements
        if not fresh:
            return elements
        gens += sorted(fresh)
        elements = closure(gens, degree)


def generated(keys, degree: int, cap: int = DEFAULT_CAP):
    """generate on a list of byte keys of one degree, the empty list included:
    the keys go in as a GeneratorSet, which carries the degree."""
    entries = [(str(i), Permutation(key)) for i, key in enumerate(keys)]
    return generate(GeneratorSet("keys", degree, entries), cap)


def element_order(x) -> int:
    """The order of a permutation or byte key: the number of times it must be
    multiplied together, one product at a time, to reach the identity."""
    p = x if isinstance(x, Permutation) else Permutation(x)
    identity = Permutation(range(p.degree))
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
