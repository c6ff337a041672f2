"""Exhaustive machinery for small finite permutation groups: coset-by-coset
closure enumeration (Dimino's algorithm, after Butler, Fundamental
Algorithms for Permutation Groups, 1991), subgroup predicates, commutator /
squares / Frattini subgroups, generating rank and derived series.

Elements are canonicalized as bytes: byte i holds the 0-based image of point
i+1. That limits the degree to 255 points and group orders to the
enumeration cap (default 2^20), which is all the desk-scale checks need.
An enumerated group's degree, generators and element set never change after
construction. Each EnumeratedGroup also memoizes its commutator and Frattini
subgroups, so the Frattini rank, the derived series and the fingerprint
reuse what an earlier query built. Concurrent queries on one group may build
a memo entry twice, but an entry is stored whole, so none of them observes a
partial value.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import wraps
from typing import Iterable, Iterator, Mapping, Sequence, Union

from . import tree_core
from .perm_core import Permutation

DEFAULT_CAP = 1 << 20
MAX_DEGREE = 255

GeneratorElement = Union[Permutation, tree_core.Portrait]


class CapExceededError(RuntimeError):
    """Raised when a closure would grow past the enumeration cap."""

    def __init__(self, cap: int, partial_count: int):
        super().__init__(f"enumeration cap {cap} exceeded; {partial_count} elements found so far")
        self.cap = cap
        self.partial_count = partial_count


@dataclass(frozen=True)
class GeneratorSet:
    """A named, ordered list of labelled generators sharing one degree.

    Entries hold either a Permutation or a Portrait; portraits act on the
    2^depth leaves of their tree.
    """

    name: str
    degree: int
    elements: tuple[tuple[str, GeneratorElement], ...]

    def __post_init__(self):
        labels = [label for label, _ in self.elements]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate generator labels in {self.name!r}")
        for label, elem in self.elements:
            d = elem.leaf_count if isinstance(elem, tree_core.Portrait) else elem.degree
            if d != self.degree:
                raise ValueError(f"generator {label!r} acts on {d} points, expected {self.degree}")

    def __len__(self) -> int:
        return len(self.elements)

    def labels(self) -> list[str]:
        return [label for label, _ in self.elements]

    def permutation_entries(self) -> list[tuple[str, Permutation]]:
        return [
            (label, tree_core.to_permutation(e) if isinstance(e, tree_core.Portrait) else e)
            for label, e in self.elements
        ]


@dataclass(frozen=True)
class EnumeratedGroup:
    """A fully enumerated permutation group: canonical byte keys for every
    element, plus the generator set it came from."""

    degree: int
    generators: GeneratorSet
    elements: frozenset[bytes]
    # subgroups built from this group, by construction name (see _memoized)
    _memo: dict[str, EnumeratedGroup] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity_key(self) -> bytes:
        return bytes(range(self.degree))

    def sorted_keys(self) -> list[bytes]:
        return sorted(self.elements)

    def permutations(self) -> Iterator[Permutation]:
        for key in self.sorted_keys():
            yield Permutation(key)


def key_of(p: Permutation | bytes) -> bytes:
    return p if isinstance(p, bytes) else bytes(p.images)


def perm_of(key: bytes) -> Permutation:
    return Permutation(key)


# _PADS[n] pads an n-byte key to a 256-entry bytes.translate table
_PADS = tuple(bytes(256 - n) for n in range(MAX_DEGREE + 1))


def _table(a: bytes) -> bytes:
    return a + _PADS[len(a)]


def _mul(a: bytes, b: bytes) -> bytes:
    # composition a after b: image[i] = a[b[i]]
    return b.translate(_table(a))


def _inv(a: bytes) -> bytes:
    out = bytearray(len(a))
    for i, y in enumerate(a):
        out[y] = i
    return bytes(out)


def _dimino(
    candidates: Iterable[bytes], degree: int, cap: int
) -> tuple[list[bytes], set[bytes]]:
    """Dimino's algorithm (Butler, Fundamental Algorithms for Permutation
    Groups, LNCS 559, 1991): close the candidates one at a time, in order.

    A candidate already in the group built so far is skipped. Otherwise it
    becomes a generator g, and the closed subgroup H grows to <H, g> by
    whole cosets {_mul(x, h) : h in H}: only generators times coset
    representatives are tested, and each new coset is disjoint from the
    elements already found.
    Returns the accepted generators and the element set of the group they
    generate. Raises CapExceededError with partial_count == cap (the count
    an element-by-element closure stops at) as soon as a coset would take
    the group past the cap.
    """
    ident = bytes(range(degree))
    elements = [ident]
    members = {ident}
    gens: list[bytes] = []
    tables: list[bytes] = []
    for g in candidates:
        if g in members:
            continue
        gens.append(g)
        tables.append(_table(g))
        subgroup = elements[:]
        reps = [ident]
        for r in reps:  # reps grows while it is scanned
            for t in tables:
                x = r.translate(t)
                if x in members:
                    continue
                if len(elements) + len(subgroup) > cap:
                    raise CapExceededError(cap, max(cap, len(elements)))
                xt = _table(x)
                coset = [h.translate(xt) for h in subgroup]
                elements += coset
                members.update(coset)
                reps.append(x)
    return gens, members


def _closure(gen_keys: Sequence[bytes], degree: int, cap: int) -> set[bytes]:
    return _dimino(gen_keys, degree, cap)[1]


def _reduce_generators(
    keys: Iterable[bytes], degree: int, cap: int = DEFAULT_CAP
) -> tuple[list[bytes], set[bytes]]:
    """A small generating subset of the given elements, found greedily over
    the sorted key list (so the result is deterministic), and the element
    set of the group it generates."""
    return _dimino(sorted(set(keys)), degree, cap)


def _anonymous_genset(name: str, degree: int, keys: Sequence[bytes]) -> GeneratorSet:
    return GeneratorSet(
        name, degree, tuple((f"g{i}", Permutation(k)) for i, k in enumerate(keys))
    )


def _normalize_generators(
    gens: GeneratorSet | Iterable[GeneratorElement], degree: int | None
) -> tuple[GeneratorSet, int]:
    if isinstance(gens, GeneratorSet):
        return gens, gens.degree
    entries = []
    for i, elem in enumerate(gens):
        if isinstance(elem, tree_core.Portrait):
            entries.append((f"g{i}", tree_core.to_permutation(elem)))
        else:
            entries.append((f"g{i}", elem))
    if entries:
        degree = entries[0][1].degree
    elif degree is None:
        raise ValueError("degree required for an empty generator list")
    return GeneratorSet("adhoc", degree, tuple(entries)), degree


def generate(
    gens: GeneratorSet | Iterable[GeneratorElement],
    cap: int = DEFAULT_CAP,
    *,
    degree: int | None = None,
) -> EnumeratedGroup:
    """Closure of the generators under composition, built coset by coset:
    each generator not yet in the group extends it by whole cosets of the
    subgroup the earlier generators span (Dimino's algorithm; Butler 1991).

    The element set is independent of generator order. Raises
    CapExceededError (carrying the partial count) instead of silently
    truncating.
    """
    genset, degree = _normalize_generators(gens, degree)
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
    gen_keys = [key_of(p) for _, p in genset.permutation_entries()]
    return EnumeratedGroup(degree, genset, frozenset(_closure(gen_keys, degree, cap)))


def group_from_elements(
    keys: Iterable[bytes],
    degree: int,
    name: str,
    cap: int = DEFAULT_CAP,
    verify: bool = True,
) -> EnumeratedGroup:
    """Wrap an element set known (or checked) to be a subgroup; a reduced
    generating subset is recorded as the generator set."""
    keyset = frozenset(keys)
    reduced, closed = _reduce_generators(keyset, degree, cap)
    if verify and closed != keyset:
        raise ValueError(f"{name!r}: element set is not closed")
    return EnumeratedGroup(degree, _anonymous_genset(name, degree, reduced), keyset)


def contains(G: EnumeratedGroup, x: Permutation | bytes) -> bool:
    key = key_of(x)
    if len(key) != G.degree:
        raise ValueError(f"degree mismatch: element on {len(key)} points, group on {G.degree}")
    return key in G.elements


def is_subgroup(H: EnumeratedGroup, G: EnumeratedGroup) -> bool:
    if H.degree != G.degree:
        raise ValueError("degree mismatch")
    return H.elements <= G.elements


def is_normal(H: EnumeratedGroup, G: EnumeratedGroup) -> bool:
    """Whether gHg^-1 = H for all g in G, tested over G's generators."""
    if not is_subgroup(H, G):
        return False
    for _, g in G.generators.permutation_entries():
        gk = key_of(g)
        gi = _inv(gk)
        for h in H.elements:
            if _mul(_mul(gk, h), gi) not in H.elements:
                return False
    return True


@dataclass(frozen=True)
class SubgroupRelation:
    """Outcome of a structural check, with per-condition verdicts and
    counterexample witnesses for the failed ones."""

    ok: bool
    checks: tuple[tuple[str, bool], ...]
    witnesses: tuple[tuple[str, str], ...] = ()


def verify_semidirect(
    B: EnumeratedGroup, W: EnumeratedGroup, G: EnumeratedGroup
) -> SubgroupRelation:
    """Internal semidirect decomposition G = B x| W: W normal in G, B and W
    intersect trivially, and |B| |W| = |G|. Precondition violations are
    reported as failed checks, not exceptions.
    """
    checks: list[tuple[str, bool]] = []
    witnesses: list[tuple[str, str]] = []
    if not (B.degree == W.degree == G.degree):
        checks.append(("same_degree", False))
        witnesses.append(("same_degree", f"degrees {B.degree}, {W.degree}, {G.degree}"))
        return SubgroupRelation(False, tuple(checks), tuple(witnesses))
    checks.append(("same_degree", True))

    for label, H in (("b_subgroup", B), ("w_subgroup", W)):
        good = is_subgroup(H, G)
        checks.append((label, good))
        if not good:
            stray = next(k for k in H.sorted_keys() if k not in G.elements)
            witnesses.append((label, perm_of(stray).__repr__()))

    normal = is_normal(W, G)
    checks.append(("w_normal", normal))
    if not normal:
        witnesses.append(("w_normal", "a generator conjugate of W escapes W"))

    meet = B.elements & W.elements
    trivial = meet == {G.identity_key}
    checks.append(("trivial_intersection", trivial))
    if not trivial:
        nontrivial = sorted(meet - {G.identity_key})
        sample = repr(perm_of(nontrivial[0])) if nontrivial else "identity missing"
        witnesses.append(("trivial_intersection", sample))

    product_ok = B.order * W.order == G.order
    checks.append(("order_product", product_ok))
    if not product_ok:
        witnesses.append(("order_product", f"{B.order} * {W.order} != {G.order}"))

    ok = all(v for _, v in checks)
    return SubgroupRelation(ok, tuple(checks), tuple(witnesses))


def _conjugation_orbit(
    seed: Iterable[bytes], conjugator_keys: Sequence[bytes], degree: int, cap: int
) -> set[bytes]:
    orbit = set(seed)
    frontier = list(orbit)
    inverses = [(g, _inv(g)) for g in conjugator_keys]
    while frontier:
        fresh = []
        for x in frontier:
            for g, gi in inverses:
                y = _mul(_mul(g, x), gi)
                if y not in orbit:
                    if len(orbit) >= cap:
                        raise CapExceededError(cap, len(orbit))
                    orbit.add(y)
                    fresh.append(y)
        frontier = fresh
    return orbit


def _memoized(build):
    """Keep the subgroup build(G, cap) in G's memo.

    The memo is read and written only when cap >= G.order: no subgroup of G
    can pass such a cap, so the result cannot depend on it. A smaller cap
    builds afresh, so CapExceededError keeps its partial count.
    """

    @wraps(build)
    def construct(G: EnumeratedGroup, cap: int = DEFAULT_CAP) -> EnumeratedGroup:
        if cap < G.order:
            return build(G, cap)
        found = G._memo.get(build.__name__)
        if found is None:
            found = G._memo[build.__name__] = build(G, cap)
        return found

    return construct


@_memoized
def commutator_subgroup(G: EnumeratedGroup, cap: int = DEFAULT_CAP) -> EnumeratedGroup:
    """[G, G], built as the normal closure of the generator-pair commutators.

    The brute-force definition over all element pairs is the oracle the test
    suite compares against on small groups.
    """
    gen_keys = [key_of(p) for _, p in G.generators.permutation_entries()]
    ident = G.identity_key
    comms = set()
    for a in gen_keys:
        ai = _inv(a)
        for b in gen_keys:
            c = _mul(_mul(a, b), _mul(ai, _inv(b)))
            if c != ident:
                comms.add(c)
    orbit = _conjugation_orbit(comms, gen_keys, G.degree, cap) if comms else set()
    reduced, elements = _reduce_generators(orbit | {ident}, G.degree, cap)
    name = f"commutators({G.generators.name})"
    return EnumeratedGroup(G.degree, _anonymous_genset(name, G.degree, reduced), frozenset(elements))


def squares_subgroup(G: EnumeratedGroup, cap: int = DEFAULT_CAP) -> EnumeratedGroup:
    """The subgroup generated by the squares of all elements. The square set
    is conjugation-closed, so no normal closure step is needed."""
    pad = _PADS[G.degree]
    # x + pad is x's translate table, so x.translate(x + pad) == _mul(x, x)
    squares = {x.translate(x + pad) for x in G.elements}
    reduced, elements = _reduce_generators(squares, G.degree, cap)
    name = f"squares({G.generators.name})"
    return EnumeratedGroup(G.degree, _anonymous_genset(name, G.degree, reduced), frozenset(elements))


@_memoized
def frattini_subgroup(G: EnumeratedGroup, cap: int = DEFAULT_CAP) -> EnumeratedGroup:
    """Frattini subgroup of a finite 2-group: the subgroup generated by all
    squares and commutators. Whether the squares alone already absorb the
    commutators is an observable the callers check, not an assumption made
    here."""
    if G.order & (G.order - 1):
        raise ValueError(f"group of order {G.order} is not a 2-group")
    squares = squares_subgroup(G, cap)
    commutators = commutator_subgroup(G, cap)
    name = f"frattini({G.generators.name})"
    if commutators.elements <= squares.elements:
        return EnumeratedGroup(G.degree, _anonymous_genset(name, G.degree,
                               [key_of(p) for _, p in squares.generators.permutation_entries()]),
                               squares.elements)
    union = squares.elements | commutators.elements
    reduced, elements = _reduce_generators(union, G.degree, cap)
    return EnumeratedGroup(G.degree, _anonymous_genset(name, G.degree, reduced), frozenset(elements))


def quotient_rank(G: EnumeratedGroup, cap: int = DEFAULT_CAP) -> int:
    """log2 of |G / Frattini(G)|; by the Burnside basis theorem this is the
    size of every minimal generating set of a 2-group."""
    phi = frattini_subgroup(G, cap)
    index, remainder = divmod(G.order, phi.order)
    if remainder or index & (index - 1):
        raise ValueError(f"Frattini index {G.order}/{phi.order} is not a power of 2")
    return index.bit_length() - 1


def derived_series(G: EnumeratedGroup, cap: int = DEFAULT_CAP) -> list[EnumeratedGroup]:
    """G, [G, G], [[G, G], [G, G]], ... down to the point where the series
    stabilizes (the trivial group, for the solvable groups handled here)."""
    series = [G]
    current = G
    while current.order > 1:
        nxt = commutator_subgroup(current, cap)
        if nxt.order == current.order:
            break
        series.append(nxt)
        current = nxt
    return series


def derived_length(G: EnumeratedGroup, cap: int = DEFAULT_CAP) -> int:
    series = derived_series(G, cap)
    if series[-1].order != 1:
        raise ValueError("group is not solvable")
    return len(series) - 1


def homomorphism_check(
    mapping: Mapping[Permutation | bytes, Permutation | bytes],
    G: EnumeratedGroup,
    H: EnumeratedGroup,
    seed: int = 0,
    sample_pairs: int = 5000,
) -> bool:
    """Whether map(xy) == map(x) map(y): exhaustive for |G| <= 128, generator
    pairs plus seeded random pairs above that. The mapping must be defined on
    all of G and land in H."""
    table = {key_of(k): key_of(v) for k, v in mapping.items()}
    if set(table) != set(G.elements):
        raise ValueError("mapping must be defined on exactly the elements of G")
    if any(v not in H.elements for v in table.values()):
        raise ValueError("mapping has values outside H")

    def respects(x: bytes, y: bytes) -> bool:
        return table[_mul(x, y)] == _mul(table[x], table[y])

    keys = G.sorted_keys()
    if G.order <= 128:
        return all(respects(x, y) for x in keys for y in keys)
    gen_keys = [key_of(p) for _, p in G.generators.permutation_entries()]
    if not all(respects(x, y) for x in gen_keys for y in gen_keys):
        return False
    rng = random.Random(seed)
    for _ in range(sample_pairs):
        if not respects(rng.choice(keys), rng.choice(keys)):
            return False
    return True


def element_order(x: Permutation | bytes) -> int:
    key = key_of(x)
    seen = bytearray(len(key))
    order = 1
    for start in range(len(key)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = 1
            v = key[v]
            length += 1
        order = math.lcm(order, length)
    return order


def exponent(G: EnumeratedGroup) -> int:
    """The least common multiple of the element orders. In a 2-group every
    element order is a power of two, so the exponent is 2^s for the number s
    of times the element set must be squared to leave only the identity."""
    if G.order & (G.order - 1):
        return math.lcm(*(element_order(k) for k in G.elements))
    pad = _PADS[G.degree]
    level = G.elements
    steps = 0
    while len(level) > 1:
        level = {x.translate(x + pad) for x in level}
        steps += 1
    return 1 << steps


def is_abelian(G: EnumeratedGroup) -> bool:
    gen_keys = [key_of(p) for _, p in G.generators.permutation_entries()]
    return all(_mul(a, b) == _mul(b, a) for a in gen_keys for b in gen_keys)


def center_size(G: EnumeratedGroup) -> int:
    """The number of elements that commute with every generator, found by
    filtering the elements through one generator's centralizer at a time."""
    pad = _PADS[G.degree]
    center = list(G.elements)
    for _, p in G.generators.permutation_entries():
        g = key_of(p)
        g_table = g + pad
        # _mul(x, g) == _mul(g, x)
        center = [x for x in center if g.translate(x + pad) == x.translate(g_table)]
    return len(center)


def fingerprint(G: EnumeratedGroup, cap: int = DEFAULT_CAP) -> dict[str, int | bool]:
    """Isomorphism-invariant summary: order, abelian-ness, exponent, derived
    length and center size."""
    return {
        "order": G.order,
        "abelian": is_abelian(G),
        "exponent": exponent(G),
        "derived_length": derived_length(G, cap),
        "center_size": center_size(G),
    }


def key_is_even(key: bytes) -> bool:
    """Sign of a canonical element key, via the cycle count."""
    seen = bytearray(len(key))
    cycles = 0
    for start in range(len(key)):
        if seen[start]:
            continue
        cycles += 1
        v = start
        while not seen[v]:
            seen[v] = 1
            v = key[v]
    return (len(key) - cycles) % 2 == 0


def even_subgroup(G: EnumeratedGroup, name: str | None = None) -> EnumeratedGroup:
    """The subgroup of even permutations (the sign map's kernel)."""
    evens = {k for k in G.elements if key_is_even(k)}
    label = name if name is not None else f"even({G.generators.name})"
    return group_from_elements(evens, G.degree, label, verify=False)
