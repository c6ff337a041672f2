"""Exhaustive machinery for small finite permutation groups: coset-by-coset
closure enumeration (Dimino's algorithm, after Butler, Fundamental
Algorithms for Permutation Groups, 1991), subgroup predicates, commutator /
squares / Frattini subgroups, generating rank and derived series.

_dimino is the one closure. Given conjugators it builds normal closures too,
as the commutator and Frattini subgroups need; the same candidates and
conjugators, in the same order, always give the same generators.

Elements are canonicalized as the byte keys of perm_core: byte i holds the
0-based image of point i+1, and a product is one bytes.translate. The degree
is limited to MAX_DEGREE = 255 points and group orders to the enumeration cap
(default 2^20), which is all the desk-scale checks need.
An enumerated group's degree, generator keys (gen_keys) and element set never
change after construction. A derived subgroup (squares, commutator, Frattini)
is bounded by the order of its parent, so the queries that build one take no
cap. Each EnumeratedGroup also memoizes its squares, commutator and Frattini
subgroups, so the Frattini rank, the derived series and the fingerprint reuse
what an earlier query built. A group that _dimino built also keeps its
cosets there, each the joined keys of one coset: exponent and center_size
read the elements from them in slabs of at most _SLAB keys, a few C calls per
slab instead of a few per element. Concurrent queries on one group may build
a memo entry twice, but an entry is stored whole, so none of them observes a
partial value.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, Union

from . import tree_core
from .perm_core import _PADS, Permutation, _inv, _table

DEFAULT_CAP = 1 << 20
MAX_DEGREE = 255
_PARITY_BATCH = 512  # keys whose signs key_parities finds together
_SLAB = 4096  # the most keys exponent and center_size hold joined at once

GeneratorElement = Union[Permutation, tree_core.Portrait]


class CapExceededError(Exception):
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
    element, plus the keys of the generators it came from."""

    degree: int
    gen_keys: tuple[bytes, ...]
    elements: frozenset[bytes]
    # subgroups built from this group, by construction name (see _memoized),
    # and the joined keys of its cosets under "cosets" if _dimino built it
    _memo: dict[str, EnumeratedGroup | list[bytes]] = field(
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
            yield Permutation._of_key(key)


def _mul(a: bytes, b: bytes) -> bytes:
    # composition a after b: image[i] = a[b[i]]
    return b.translate(_table(a))


@functools.cache
def _splitter(degree: int, count: int) -> struct.Struct:
    # unpacks count consecutive keys of one degree from their joined bytes
    return struct.Struct(f"{degree}s" * count)


def _dimino(
    candidates: Iterable[bytes], degree: int, cap: int, conjugators: Sequence[bytes] = ()
) -> EnumeratedGroup:
    """Dimino's algorithm (Butler, Fundamental Algorithms for Permutation
    Groups, LNCS 559, 1991): close the candidates one at a time, in order.

    A candidate already in the group built so far is skipped. Otherwise it
    becomes a generator g, and the closed subgroup H grows to <H, g> by
    whole cosets {_mul(x, h) : h in H}: only generators times coset
    representatives are tested, and each new coset is disjoint from the
    elements already found. A coset is one translate of H's joined keys by
    x's table, split into keys gcd(|H|, 256) at a time; the returned group
    keeps the joined cosets in its memo. Each accepted g also queues
    s g s^-1 for each s in conjugators, so in the end sHs^-1 = H: H is the
    normal closure of the candidates under <conjugators> (Seress,
    Permutation Group Algorithms, 2003).
    Returns that group, with the accepted generators as its gen_keys; the
    same inputs in the same order give the same generators. Raises
    CapExceededError with partial_count == cap (the count an
    element-by-element closure stops at) as soon as a coset would take the
    group past the cap.
    """
    ident = bytes(range(degree))
    cosets = [ident]
    members = {ident}
    order = 1
    gens: list[bytes] = []
    tables: list[bytes] = []
    queue = list(candidates)
    conjugations = [(s, _inv(s)) for s in conjugators]
    for g in queue:  # queue grows while it is scanned
        if g in members:
            continue
        gens.append(g)
        tables.append(_table(g))
        queue += [_mul(_mul(s, g), si) for s, si in conjugations]
        subgroup, size = b"".join(cosets), order
        split = _splitter(degree, math.gcd(size, 256)).iter_unpack
        reps = [ident]
        for r in reps:  # reps grows while it is scanned
            for t in tables:
                x = r.translate(t)
                if x in members:
                    continue
                if order + size > cap:
                    raise CapExceededError(cap, max(cap, order))
                coset = subgroup.translate(_table(x))
                members.update(itertools.chain.from_iterable(split(coset)))
                cosets.append(coset)
                order += size
                reps.append(x)
    group = EnumeratedGroup(degree, tuple(gens), frozenset(members))
    group._memo["cosets"] = cosets
    return group


def _slabs(G: EnumeratedGroup) -> Iterator[bytes]:
    """G's keys, joined, in slabs of _SLAB keys (the last one shorter): G's
    cosets in order, small ones merged and large ones cut. A group without
    cosets in its memo (from group_from_elements) is cut from its element set."""
    cosets = G._memo.get("cosets")
    if cosets is None:
        elements = iter(G.elements)
        while batch := list(itertools.islice(elements, _SLAB)):
            yield b"".join(batch)
        return
    size = _SLAB * G.degree
    pending = bytearray()
    for coset in cosets:
        pending += coset
        while len(pending) >= size:
            yield bytes(pending[:size])
            del pending[:size]
    if pending:
        yield bytes(pending)


def _normalize_generators(
    gens: GeneratorSet | Iterable[GeneratorElement], degree: int | None
) -> tuple[tuple[bytes, ...], int]:
    if isinstance(gens, GeneratorSet):
        gens, degree = [e for _, e in gens.elements], gens.degree
    perms = [tree_core.to_permutation(e) if isinstance(e, tree_core.Portrait) else e for e in gens]
    if perms:
        degree = perms[0].degree
    elif degree is None:
        raise ValueError("degree required for an empty generator list")
    if any(p.degree != degree for p in perms):
        raise ValueError(f"generators on different degrees {sorted({p.degree for p in perms})}")
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
    return tuple(p.key for p in perms), degree


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
    gen_keys, degree = _normalize_generators(gens, degree)
    closed = _dimino(gen_keys, degree, cap)
    group = EnumeratedGroup(degree, gen_keys, closed.elements)
    group._memo.update(closed._memo)
    return group


def group_from_elements(
    keys: Iterable[bytes],
    degree: int,
    cap: int = DEFAULT_CAP,
    verify: bool = True,
) -> EnumeratedGroup:
    """Wrap an element set known (or checked) to be a subgroup; a reduced
    generating subset is recorded as its generator keys. The set may be
    unclosed when verify is False, so the group keeps no cosets."""
    keyset = frozenset(keys)
    closed = _dimino(sorted(keyset), degree, cap)
    if verify and closed.elements != keyset:
        raise ValueError("element set is not closed")
    return EnumeratedGroup(degree, closed.gen_keys, keyset)


def contains(G: EnumeratedGroup, x: Permutation | bytes) -> bool:
    key = x if isinstance(x, bytes) else x.key
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
    for gk in G.gen_keys:
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
            witnesses.append((label, repr(Permutation._of_key(stray))))

    normal = is_normal(W, G)
    checks.append(("w_normal", normal))
    if not normal:
        witnesses.append(("w_normal", "a generator conjugate of W escapes W"))

    meet = B.elements & W.elements
    trivial = meet == {G.identity_key}
    checks.append(("trivial_intersection", trivial))
    if not trivial:
        nontrivial = sorted(meet - {G.identity_key})
        sample = repr(Permutation._of_key(nontrivial[0])) if nontrivial else "identity missing"
        witnesses.append(("trivial_intersection", sample))

    product_ok = B.order * W.order == G.order
    checks.append(("order_product", product_ok))
    if not product_ok:
        witnesses.append(("order_product", f"{B.order} * {W.order} != {G.order}"))

    ok = all(v for _, v in checks)
    return SubgroupRelation(ok, tuple(checks), tuple(witnesses))


def _memoized(build):
    """Keep build(G), a subgroup of G, in G's memo."""

    @functools.wraps(build)
    def construct(G: EnumeratedGroup):
        found = G._memo.get(build.__name__)
        if found is None:
            found = G._memo[build.__name__] = build(G)
        return found

    return construct


def _commutators(G: EnumeratedGroup) -> set[bytes]:
    # [a, b] = a b a^-1 b^-1 for each ordered pair of generators
    return {_mul(_mul(a, b), _mul(_inv(a), _inv(b))) for a in G.gen_keys for b in G.gen_keys}


@_memoized
def commutator_subgroup(G: EnumeratedGroup) -> EnumeratedGroup:
    """[G, G], built as the normal closure of the generator-pair commutators
    under G's generators, in one _dimino call.

    The brute-force definition over all element pairs is the oracle the test
    suite compares against on small groups.
    """
    return _dimino(sorted(_commutators(G)), G.degree, G.order, G.gen_keys)


@_memoized
def squares_subgroup(G: EnumeratedGroup) -> EnumeratedGroup:
    """The subgroup generated by the squares of all elements, listed one by
    one. The square set is conjugation-closed, so no normal closure step is
    needed."""
    pad = _PADS[G.degree]
    # x + pad is x's translate table, so x.translate(x + pad) == _mul(x, x)
    squares = {x.translate(x + pad) for x in G.elements}
    return _dimino(sorted(squares), G.degree, G.order)


@_memoized
def frattini_subgroup(G: EnumeratedGroup) -> EnumeratedGroup:
    """Frattini subgroup of a finite 2-group: G^2 [G, G], the normal closure
    of the generators' squares and pairwise commutators under G's generators,
    in one _dimino call (the Burnside basis theorem; Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005). It reads neither the
    squares nor the commutator subgroup, so comparing it with the closure of
    every element's square (squares_subgroup) checks one build against
    another."""
    if G.order & (G.order - 1):
        raise ValueError(f"group of order {G.order} is not a 2-group")
    seeds = _commutators(G) | {_mul(g, g) for g in G.gen_keys}
    return _dimino(sorted(seeds), G.degree, G.order, G.gen_keys)


def quotient_rank(G: EnumeratedGroup) -> int:
    """log2 of |G / Frattini(G)|; by the Burnside basis theorem this is the
    size of every minimal generating set of a 2-group."""
    phi = frattini_subgroup(G)
    index, remainder = divmod(G.order, phi.order)
    if remainder or index & (index - 1):
        raise ValueError(f"Frattini index {G.order}/{phi.order} is not a power of 2")
    return index.bit_length() - 1


def derived_series(G: EnumeratedGroup) -> list[EnumeratedGroup]:
    """G, [G, G], [[G, G], [G, G]], ... down to the point where the series
    stabilizes (the trivial group, for the solvable groups handled here)."""
    series = [G]
    current = G
    while current.order > 1:
        nxt = commutator_subgroup(current)
        if nxt.order == current.order:
            break
        series.append(nxt)
        current = nxt
    return series


def derived_length(G: EnumeratedGroup) -> int:
    series = derived_series(G)
    if series[-1].order != 1:
        raise ValueError("group is not solvable")
    return len(series) - 1


def homomorphism_check(
    mapping: Mapping[Permutation | bytes, Permutation | bytes],
    G: EnumeratedGroup,
    H: EnumeratedGroup,
) -> bool:
    """Whether map(xy) == map(x) map(y) for all x, y in G; the mapping must
    be defined on all of G and land in H. Exact: it checks that map(e) is
    H's identity and map(x s) == map(x) map(s) for every x in G and s in
    G.gen_keys. By induction, map(x s1...sm) == map(x) map(s1)...map(sm),
    and every element of a finite group is such a word in its generators.
    """
    table = {
        x if isinstance(x, bytes) else x.key: y if isinstance(y, bytes) else y.key
        for x, y in mapping.items()
    }
    if set(table) != set(G.elements):
        raise ValueError("mapping must be defined on exactly the elements of G")
    if any(v not in H.elements for v in table.values()):
        raise ValueError("mapping has values outside H")
    if table[G.identity_key] != H.identity_key:
        return False
    return all(
        table[_mul(x, s)] == _mul(table[x], table[s]) for s in G.gen_keys for x in G.elements
    )


def element_order(x: Permutation | bytes) -> int:
    return (Permutation(x) if isinstance(x, bytes) else x).order()


@functools.cache
def _identity_block(degree: int) -> bytes:
    # the offset form of 256 // degree identity keys, after 256 % degree zeros
    lead = 256 % degree
    return bytes(lead) + bytes(range(lead, 256))


@functools.lru_cache(maxsize=16)
def _offsets(degree: int, keys: int) -> int:
    # added to the int of `keys` joined keys, puts them in offset form; a
    # 2-group's slabs hold a power of two keys, so few sizes recur
    width = 256 - 256 % degree
    block = bytes(256 % degree + p - p % degree for p in range(width))
    return int.from_bytes((block * (keys * degree // width + 1))[:keys * degree], "little")


def exponent(G: EnumeratedGroup) -> int:
    """The least common multiple of the element orders. In a 2-group every
    element order is a power of two, so the exponent is 2^s for the number s
    of times the elements must be squared to leave only the identity.

    The elements are squared a slab at a time, in offset form: the slab is
    cut into blocks of 256 // degree keys, each block starts with 256 % degree
    zero bytes, and each key's bytes are raised by the key's offset in the block.
    A block then maps each key's points into that key's own bytes, so it is
    its own translate table: translating it by itself squares all its keys,
    and the result is again in offset form. A block is dropped once all its
    keys are the identity."""
    if G.order & (G.order - 1):
        return math.lcm(*(element_order(k) for k in G.elements))
    d = G.degree
    ident = _identity_block(d)
    lead, width = ident[:256 % d], 256 - 256 % d
    steps = 0
    for slab in _slabs(G):
        size = len(slab)
        form = (int.from_bytes(slab, "little") + _offsets(d, size // d)).to_bytes(size, "little")
        blocks = [lead + form[start:start + width] for start in range(0, size, width)]
        blocks[-1] += ident[len(blocks[-1]):]  # identity keys fill the last block
        blocks = list(filter(ident.__ne__, blocks))
        squarings = 0
        while blocks:
            blocks = list(filter(ident.__ne__, map(bytes.translate, blocks, blocks)))
            squarings += 1
        steps = max(steps, squarings)
    return 1 << steps


def is_abelian(G: EnumeratedGroup) -> bool:
    return all(_mul(a, b) == _mul(b, a) for a in G.gen_keys for b in G.gen_keys)


def center_size(G: EnumeratedGroup) -> int:
    """The number of elements that commute with every generator, found a
    slab of elements at a time. For each generator g, every element x of the
    slab is first tested at one point i that g moves (0 if g is the
    identity): x[g[i]] and g[x[i]] are the images of i under x g and g x,
    and their columns over the slab are compared at once. The equality is
    necessary, so only the elements that pass it for every generator have
    the whole products compared."""
    d = G.degree
    pad = _PADS[d]
    tests = []
    for g in G.gen_keys:
        i = next((p for p, image in enumerate(g) if p != image), 0)
        tests.append((g, g + pad, g[i], i))
    count = 0
    for slab in _slabs(G):
        misses = 0
        for _, g_table, gi, i in tests:
            # the image of i under x g, against it under g x, for each x
            misses |= int.from_bytes(slab[gi::d], "little") ^ int.from_bytes(
                slab[i::d].translate(g_table), "little"
            )
        passed = misses.to_bytes(len(slab) // d, "little")  # 0 where x passes
        j = passed.find(0)
        while j >= 0:
            x = slab[j * d:j * d + d]
            # _mul(x, g) == _mul(g, x)
            count += all(g.translate(x + pad) == x.translate(g_table) for g, g_table, _, _ in tests)
            j = passed.find(0, j + 1)
    return count


def fingerprint(G: EnumeratedGroup) -> dict[str, int | bool]:
    """Isomorphism-invariant summary: order, abelian-ness, exponent, derived
    length and center size."""
    return {
        "order": G.order,
        "abelian": is_abelian(G),
        "exponent": exponent(G),
        "derived_length": derived_length(G),
        "center_size": center_size(G),
    }


def key_parities(keys: Sequence[bytes]) -> bytes:
    """One byte per key, all of one degree n: 1 for an odd key, 0 for an even one.

    Signs are inversion parities, a batch of keys at once: with byte column i in
    16-bit lanes, one key each, ((col_j | H) - col_i) & H, H bit 8 of each lane,
    is set exactly where x_j > x_i (keys are bytes: no lane of 256 + x_j - x_i
    borrows). Its XOR over all i < j, flipped if C(n, 2) is odd, is the parity."""
    out = bytearray()
    for first in range(0, len(keys), _PARITY_BATCH):
        batch = keys[first:first + _PARITY_BATCH]
        n, lanes = len(batch[0]), len(batch)
        wide = bytearray(2 * n * lanes)
        wide[0::2] = b"".join(batch)
        cols = [int.from_bytes(memoryview(wide).cast("H")[i::n], "little") for i in range(n)]
        high = int.from_bytes(b"\0\1" * lanes, "little")
        parity = high if n * (n - 1) // 2 % 2 else 0
        for col_i, col_j in itertools.combinations(cols, 2):
            parity ^= ((col_j | high) - col_i) & high
        out += (parity >> 8).to_bytes(2 * lanes, "little")[0::2]
    return bytes(out)


def even_subgroup(G: EnumeratedGroup) -> EnumeratedGroup:
    """The subgroup of even permutations (the sign map's kernel)."""
    keys = list(G.elements)
    evens = {key for key, odd in zip(keys, key_parities(keys)) if not odd}
    return group_from_elements(evens, G.degree, verify=False)
