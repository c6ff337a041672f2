"""Exhaustive machinery for small permutation 2-groups: coset-by-coset
closure enumeration (Dimino's algorithm, after Butler, Fundamental
Algorithms for Permutation Groups, 1991), subgroup predicates, the
semidirect-product check, commutator / squares / Frattini subgroups,
generating rank and derived series.

Every group is a 2-group: EnumeratedGroup's constructor, which _dimino
goes through, refuses an order that is not a power of two; generate's
_doubled doubles such a group; and a closed group is a 2-group exactly when
its order is a power of two. So the Frattini subgroup is G^2, the exponent
is a power of two and the derived series ends at the trivial group.

_dimino is the one closure. Given conjugators it builds normal closures too,
as the commutator and Frattini subgroups need. The same candidates and
conjugators, in the same order, always give the same generators. generate
calls it once, for G^2, the normal closure of the generators' squares and
pairwise commutators (Phi(G)), keeps it as the result's square_closure, and
doubles G^2 by whole halves: G/G^2 is elementary abelian, so each generator
not yet in the group adds one coset of all found.

Elements are canonicalized as the byte keys of perm_core: byte i holds the
0-based image of point i+1, and a product is one bytes.translate. The degree
is limited to MAX_DEGREE = 255 points and group orders to the enumeration cap
(default 2^20), which is all the desk-scale checks need.

An EnumeratedGroup is one buffer of joined keys, every element once; its
order is the buffer's length over the degree, and generate's buffer starts
with G^2's and doubles once per accepted generator. generate keeps only
G^2, the generators it accepted and its representatives modulo G^2, one
per coset; its order is |G^2| times 2 per doubling, and its buffer is
built when first read and then kept, with the same bytes in the same order.
The element set is the buffer's keys, split when first read and then kept
(_dimino hands over the member set it built). The queries read the buffer
whole instead, a few C calls per group instead of a few per element, and
contains and exponent read G^2 and the representatives first.

center_size needs no buffer for a transitive group. The centralizer of a
transitive group in Sym(d) is semiregular (Dixon and Mortimer, Permutation
Groups, 1996, section 4.2), so a central element z is determined by z[0]:
with w[p] an element of G that takes 0 to p, z[p] = w[p][z[0]]. One
transversal of the orbit of 0 gives the d candidates, which are tested
against the generators and by contains. An intransitive group's buffer is
scanned.

generate is the one group builder of the library. A derived subgroup
(squares, commutator, Frattini) is bounded by the order of its parent, so
the queries that build one take no cap. The Frattini subgroup of a group
that generate built is its square_closure; each group also memoizes its
squares and commutator subgroups and its representatives modulo G^2, so the
Frattini rank, the derived series and the fingerprint reuse what an earlier
query built. Concurrent queries on one group may build a memo entry, the
buffer or the element set twice, but each is stored whole by one
assignment, so none of them observes a partial value.
"""
from __future__ import annotations

import functools
import itertools
import math
import struct
from typing import Iterable, Iterator, Sequence, Union

from . import tree_core
from .perm_core import _PADS, Permutation, _immutable, _inv, _inv_table, _table

DEFAULT_CAP = 1 << 20
MAX_DEGREE = 255

GeneratorElement = Union[Permutation, tree_core.Portrait]


class CapExceededError(Exception):
    """Raised when a closure would grow past the enumeration cap."""

    def __init__(self, cap: int, partial_count: int):
        super().__init__(f"enumeration cap {cap} exceeded; {partial_count} elements found so far")
        self.cap = cap
        self.partial_count = partial_count


class GeneratorSet:
    """A named, ordered list of labelled generators sharing one degree.

    Entries hold either a Permutation or a Portrait; portraits act on the
    2^depth leaves of their tree. Immutable, and equal only to a GeneratorSet.
    """

    def __init__(self, name: str, degree: int, elements: Iterable[tuple[str, GeneratorElement]]):
        elements = tuple(elements)
        labels = [label for label, _ in elements]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate generator labels in {name!r}")
        for label, elem in elements:
            d = elem.leaf_count if isinstance(elem, tree_core.Portrait) else elem.degree
            if d != degree:
                raise ValueError(f"generator {label!r} acts on {d} points, expected {degree}")
        self.__dict__.update(name=name, degree=degree, elements=elements)

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.degree, self.elements) == (other.name, other.degree, other.elements)

    def __hash__(self):
        return hash((self.name, self.degree, self.elements))

    def __repr__(self):
        return f"GeneratorSet(name={self.name!r}, degree={self.degree!r}, elements={self.elements!r})"

    def __len__(self) -> int:
        return len(self.elements)

    def permutation_entries(self) -> list[tuple[str, Permutation]]:
        return [
            (label, tree_core.to_permutation(e) if isinstance(e, tree_core.Portrait) else e)
            for label, e in self.elements
        ]


def _check_degree(degree: int) -> None:
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")


def _key_count(buffer: bytes, degree: int) -> int:
    """The number of keys of one degree joined in a buffer; ValueError for a
    degree outside 1..MAX_DEGREE or a buffer that is no whole number of keys."""
    _check_degree(degree)
    count, partial = divmod(len(buffer), degree)
    if partial:
        raise ValueError(f"a buffer of {len(buffer)} bytes is no whole number of keys of degree {degree}")
    return count


class EnumeratedGroup:
    """A fully enumerated permutation 2-group: one buffer of joined byte
    keys, every element once, and the keys of the generators it came from.
    A group is built in one of two ways. The constructor takes a closure's
    buffer, as _dimino does, and its square_closure is None. generate's
    group comes from _doubled instead: its square_closure is G^2, and its
    buffer, G^2's doubled, is built when first read.

    The constructor stores gen_keys as a tuple. It raises TypeError for a
    buffer that is not bytes (a bytearray could change after construction),
    and ValueError for a degree outside 1..MAX_DEGREE, a buffer that is no
    whole number of keys, an order (its number of keys) that is not a power
    of two, or a generator key that is not bytes of the group's degree. It
    does not check that the buffer is closed or that the generators lie in
    it. The element set is derived when first read and then kept.
    Equality, hashing and repr are over the degree, gen_keys and the
    element set, so they build it; repr lists the elements sorted, so equal
    groups have equal reprs. A group is immutable: only its caches write
    its dict."""

    def __init__(self, degree: int, gen_keys: Iterable[bytes], buffer: bytes):
        if type(buffer) is not bytes:
            raise TypeError(f"a group's buffer must be bytes, not {type(buffer).__name__}")
        order = _key_count(buffer, degree)
        if order.bit_count() != 1:
            raise ValueError(f"a group of order {order} is not a 2-group")
        gen_keys = tuple(gen_keys)
        if any(type(g) is not bytes or len(g) != degree for g in gen_keys):
            raise ValueError(f"a generator of a group of degree {degree} must be bytes of length {degree}")
        # _memo holds memoized queries, by function name (see _memoized): subgroups built
        # from this group, and, for a group that _doubled built, its representatives modulo G^2
        self.__dict__.update(degree=degree, gen_keys=gen_keys, buffer=buffer, order=order, _memo={})

    __setattr__ = __delattr__ = _immutable
    square_closure: EnumeratedGroup | None = None  # G^2, which only _doubled keeps

    @classmethod
    def _doubled(cls, gen_keys: tuple[bytes, ...], squares: EnumeratedGroup,
                 doublers: tuple[bytes, ...], representatives: bytes) -> EnumeratedGroup:
        """The group that generate built: G^2 = squares, doubled once by each
        key of doublers, with its representatives modulo G^2 joined. Its
        buffer is built when first read."""
        G = object.__new__(cls)
        G.__dict__.update(degree=squares.degree, gen_keys=gen_keys, order=squares.order << len(doublers),
                          square_closure=squares, _doublers=doublers,
                          _memo={"representatives": representatives})
        return G

    @functools.cached_property
    def buffer(self) -> bytes:
        # only a group that _doubled made has no buffer until this read: G^2's,
        # followed by its translate by each accepted generator in turn
        buffer = self.square_closure.buffer
        for g in self._doublers:
            buffer += buffer.translate(_table(g))
        return buffer

    @functools.cached_property
    def elements(self) -> frozenset[bytes]:
        return frozenset(iter_keys(self))

    def __eq__(self, other):
        if type(other) is not EnumeratedGroup:
            return NotImplemented
        return (self.degree, self.gen_keys, self.elements) == (
            other.degree, other.gen_keys, other.elements
        )

    def __hash__(self):
        return hash((self.degree, self.gen_keys, self.elements))

    def __repr__(self):
        return (
            f"EnumeratedGroup(degree={self.degree!r}, gen_keys={self.gen_keys!r}, "
            f"elements=frozenset({sorted(self.elements)!r}))"
        )

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


def _keys(buffer: bytes, degree: int) -> Iterator[bytes]:
    """The keys of a buffer of joined keys, split gcd(keys, 256) at a time."""
    split = _splitter(degree, math.gcd(len(buffer) // degree, 256)).iter_unpack
    return itertools.chain.from_iterable(split(buffer))


def _dimino(
    candidates: Iterable[bytes],
    degree: int,
    cap: int,
    conjugators: Sequence[bytes] = (),
) -> EnumeratedGroup:
    """Dimino's algorithm (Butler, Fundamental Algorithms for Permutation
    Groups, LNCS 559, 1991): close the candidates one at a time, in order.

    A candidate already in the group built so far is skipped. Otherwise it
    becomes a generator g, and the closed subgroup H grows to <H, g> by
    whole cosets {_mul(x, h) : h in H}: only generators times coset
    representatives are tested, and each new coset is disjoint from the
    elements already found. A coset is one translate of H's joined keys by
    x's table, split into keys gcd(|H|, 256) at a time and appended to the
    one buffer, which is H at the next generator; the returned group holds
    it and keeps the member set the closure built as its element set. Each
    accepted g also queues s g s^-1 for each s in conjugators, so in the end
    sHs^-1 = H: H is the normal closure of the candidates under
    <conjugators> (Seress, Permutation Group Algorithms, 2003).

    Each translate table is built once: a generator's when it is accepted,
    and each conjugator's, with its inverse's key, before the scan, so a
    conjugate s g s^-1 is two translates, of s^-1 by g's table and then by
    s's. The first generator closes the trivial group, whose cosets are
    single elements: it runs through its powers g, g^2, ... instead, one
    translate each, which appends them in the same order as those cosets.

    Returns that group, with the accepted generators as its gen_keys; the
    same inputs in the same order give the same generators. Raises
    CapExceededError with partial_count == cap (the count an
    element-by-element closure stops at) as soon as a coset would take the
    group past the cap.
    """
    ident, pad = bytes(range(degree)), _PADS[degree]
    buffer, members, order = ident, {ident}, 1
    gens: list[bytes] = []
    tables: list[bytes] = []
    queue = list(candidates)
    conjugations = [(s + pad, _inv(s)) for s in conjugators]
    for g in queue:  # queue grows while it is scanned
        if g in members:
            continue
        table = g + pad
        gens.append(g)
        tables.append(table)
        queue += [si.translate(table).translate(s_table) for s_table, si in conjugations]
        if order == 1:  # the powers of g, each a coset of the trivial group
            powers, x = [], g
            while x != ident:
                if order + 1 > cap:
                    raise CapExceededError(cap, max(cap, order))
                powers.append(x)
                order += 1
                x = x.translate(table)
            members.update(powers)
            buffer += b"".join(powers)
            continue
        subgroup, size = buffer, order
        reps = [ident]
        for r in reps:  # reps grows while it is scanned
            for t in tables:
                x = r.translate(t)
                if x in members:
                    continue
                if order + size > cap:
                    raise CapExceededError(cap, max(cap, order))
                coset = subgroup.translate(x + pad)
                members.update(_keys(coset, degree))
                buffer += coset
                order += size
                reps.append(x)
    group = EnumeratedGroup(degree, tuple(gens), buffer)
    # the member set is the element set, cached so that it is not re-split
    object.__setattr__(group, "elements", frozenset(members))
    return group


def _normalize_generators(gens: GeneratorSet | Iterable[GeneratorElement]) -> tuple[tuple[bytes, ...], int]:
    # the degree the generators act on: a GeneratorSet's, or the first one's
    if isinstance(gens, GeneratorSet):
        degree, perms = gens.degree, [p for _, p in gens.permutation_entries()]
    else:
        perms = [tree_core.to_permutation(e) if isinstance(e, tree_core.Portrait) else e for e in gens]
        if not perms:
            raise ValueError("an empty generator list has no degree; give a GeneratorSet")
        degree = perms[0].degree
    if any(p.degree != degree for p in perms):
        raise ValueError(f"generators on different degrees {sorted({p.degree for p in perms})}")
    _check_degree(degree)
    return tuple(p.key for p in perms), degree


def generate(gens: GeneratorSet | Iterable[GeneratorElement], cap: int = DEFAULT_CAP) -> EnumeratedGroup:
    """Closure of the generators under composition, built in two steps.
    The first is G^2, the normal closure of the generators' squares and
    pairwise commutators under the generators (_square_closure). G/G^2 is
    then elementary abelian, so in the second step each generator g not yet
    in the group H built so far doubles it: <H, g> = H u gH, H's buffer
    followed by its translate by g's table. Every element of G/G^2 is its
    own inverse, so g lies in H exactly when g r lies in G^2 for one of H's
    representatives r modulo G^2 (_meets): one lookup per representative,
    and when g is accepted those products are the new representatives.
    For a 2-group G^2 is the Frattini subgroup (the Burnside basis theorem),
    which frattini_subgroup(G) returns.

    The result keeps G^2 as its square_closure, the generators it
    accepted, and its representatives modulo G^2 in the memo that contains
    and exponent read. Its order is |G^2| doubled once per accepted
    generator. Its buffer, G^2's doubled in turn by each accepted
    generator, is built when first read (EnumeratedGroup.buffer): a lattice
    query on a transitive group reads it only when the representatives do
    not decide the exponent, since center_size then works from one
    transversal of the orbit of 0 (Dixon and Mortimer, 1996, section 4.2).
    Its element set, independent of generator order, is likewise built
    when first read. The degree is a GeneratorSet's, or that of the first
    element of a list, so an empty list raises ValueError. Raises CapExceededError (carrying the
    partial count) instead of silently truncating.
    """
    gen_keys, degree = _normalize_generators(gens)
    squares = _square_closure(gen_keys, degree, cap)
    reps, order, doublers = bytes(range(degree)), squares.order, []
    for g in gen_keys:
        moved = reps.translate(_table(g))  # g r for each representative r
        if _meets(squares, moved):
            continue
        if 2 * order > cap:
            raise CapExceededError(cap, max(cap, order))
        doublers.append(g)
        reps += moved
        order *= 2
    return EnumeratedGroup._doubled(gen_keys, squares, tuple(doublers), reps)


def _meets(squares: EnumeratedGroup, moved: bytes) -> bool:
    """Whether one of the joined keys x r lies in G^2 = squares, with r
    running over the representatives modulo G^2 of a group G that holds
    G^2: that is whether x lies in G, since G/G^2 is elementary abelian."""
    return not squares.elements.isdisjoint(_keys(moved, squares.degree))


def iter_keys(G: EnumeratedGroup) -> Iterator[bytes]:
    """G's keys, each once, split from its buffer: no element set is built."""
    return _keys(G.buffer, G.degree)


def _memoized(build):
    """Keep build(G), which depends on G alone, in G's memo."""

    @functools.wraps(build)
    def construct(G: EnumeratedGroup):
        found = G._memo.get(build.__name__)
        if found is None:
            found = G._memo[build.__name__] = build(G)
        return found

    return construct


def contains(G: EnumeratedGroup, x: Permutation | bytes) -> bool:
    """Whether x is an element of G. For a group that generate built, this
    reads only G^2's set: G/G^2 is elementary abelian, so x lies in G
    exactly when x r lies in G^2 for one of G's representatives r modulo G^2
    (kept in its memo; _meets), and all the x r come from one translate of
    the joined representatives by x's table. For a group without G^2, one
    that the constructor built, it looks x up in G's element set."""
    key = x if isinstance(x, bytes) else x.key
    if len(key) != G.degree:
        raise ValueError(f"degree mismatch: element on {len(key)} points, group on {G.degree}")
    squares = G.square_closure
    if squares is None:
        return key in G.elements
    return _meets(squares, G._memo["representatives"].translate(_table(key)))


def is_subgroup(H: EnumeratedGroup, G: EnumeratedGroup) -> bool:
    """Whether every element of H lies in G: contains(G, h) for each key h
    of H (iter_keys), so neither element set need be built."""
    if H.degree != G.degree:
        raise ValueError("degree mismatch")
    return all(contains(G, h) for h in iter_keys(H))


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


def verify_semidirect(
    B: EnumeratedGroup, W: EnumeratedGroup, G: EnumeratedGroup
) -> tuple[dict[str, bool], dict[str, str]]:
    """Internal semidirect decomposition G = B x| W: W normal in G, B and W
    intersect trivially, and |B| |W| = |G|. Returns the verdict of each
    condition and a counterexample witness for each failed one; G = B x| W
    when every verdict holds. Precondition violations are reported as failed
    checks, not exceptions.
    """
    if not (B.degree == W.degree == G.degree):
        return {"same_degree": False}, {"same_degree": f"degrees {B.degree}, {W.degree}, {G.degree}"}
    checks, witnesses = {"same_degree": True}, {}

    for label, H in (("b_subgroup", B), ("w_subgroup", W)):
        checks[label] = is_subgroup(H, G)
        if not checks[label]:
            stray = next(k for k in H.sorted_keys() if not contains(G, k))
            witnesses[label] = repr(Permutation._of_key(stray))

    checks["w_normal"] = is_normal(W, G)
    if not checks["w_normal"]:
        witnesses["w_normal"] = "a generator conjugate of W escapes W"

    meet = B.elements & W.elements
    checks["trivial_intersection"] = meet == {G.identity_key}
    if not checks["trivial_intersection"]:
        nontrivial = sorted(meet - {G.identity_key})
        witnesses["trivial_intersection"] = (
            repr(Permutation._of_key(nontrivial[0])) if nontrivial else "identity missing"
        )

    checks["order_product"] = B.order * W.order == G.order
    if not checks["order_product"]:
        witnesses["order_product"] = f"{B.order} * {W.order} != {G.order}"
    return checks, witnesses


def _commutators(gen_keys: Sequence[bytes]) -> set[bytes]:
    # [a, b] = a b a^-1 b^-1 for each pair of generators a before b: the other
    # pairs add nothing to a normal closure of these, as [b, a] = [a, b]^-1 and
    # [a, a] = 1. Each is three translates of b^-1, by tables built once per generator
    kernels = []
    for g in gen_keys:
        inverse_table = _inv_table(g)
        kernels.append((_table(g), inverse_table, inverse_table[:len(g)]))
    return {bi.translate(ai_table).translate(b_table).translate(a_table)
            for (a_table, ai_table, _), (b_table, _, bi) in itertools.combinations(kernels, 2)}


def _square_closure(gen_keys: Sequence[bytes], degree: int, cap: int) -> EnumeratedGroup:
    """G^2 for G = <gen_keys>: the normal closure of the generators' squares
    and pairwise commutators under the generators, in one _dimino call.
    The generators' images in G modulo this closure commute and square to
    the identity, so the quotient is elementary abelian: the closure holds
    every square of G and is G^2. For a 2-group it is the Frattini subgroup."""
    seeds = _commutators(gen_keys) | {_mul(g, g) for g in gen_keys}
    return _dimino(sorted(seeds), degree, cap, gen_keys)


@_memoized
def commutator_subgroup(G: EnumeratedGroup) -> EnumeratedGroup:
    """[G, G], built as the normal closure of the generator-pair commutators
    under G's generators, in one _dimino call.

    The brute-force definition over all element pairs is the oracle the test
    suite compares against on small groups.
    """
    return _dimino(sorted(_commutators(G.gen_keys)), G.degree, G.order, G.gen_keys)


@_memoized
def squares_subgroup(G: EnumeratedGroup) -> EnumeratedGroup:
    """The subgroup generated by the squares of all elements, listed one by
    one. The square set is conjugation-closed, so no normal closure step is
    needed."""
    pad = _PADS[G.degree]
    # x + pad is x's translate table, so x.translate(x + pad) == _mul(x, x)
    squares = {x.translate(x + pad) for x in iter_keys(G)}
    return _dimino(sorted(squares), G.degree, G.order)


def frattini_subgroup(G: EnumeratedGroup) -> EnumeratedGroup:
    """The Frattini subgroup G^2 [G, G], the normal closure of the
    generators' squares and pairwise commutators under G's generators
    (_square_closure; the Burnside basis theorem; Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005). For a group that generate
    built this is its square_closure; any other group is closed anew on each
    call. It reads neither the squares nor the commutator subgroup, so
    comparing it with the closure of every element's square
    (squares_subgroup) checks one build against another."""
    if G.square_closure is not None:
        return G.square_closure
    return _square_closure(G.gen_keys, G.degree, G.order)


def quotient_rank(G: EnumeratedGroup) -> int:
    """log2 of |G / Frattini(G)|; by the Burnside basis theorem this is the
    size of every minimal generating set of G."""
    return (G.order // frattini_subgroup(G).order).bit_length() - 1


def derived_series(G: EnumeratedGroup) -> list[EnumeratedGroup]:
    """G, [G, G], [[G, G], [G, G]], ... down to the trivial group. Each
    commutator subgroup is a closed 2-group, so past G the series strictly
    shrinks."""
    series = [G]
    while series[-1].order > 1:
        series.append(commutator_subgroup(series[-1]))
    return series


def derived_length(G: EnumeratedGroup) -> int:
    return len(derived_series(G)) - 1


@functools.cache
def _identity_block(degree: int) -> bytes:
    # the offset form of 256 // degree identity keys, after 256 % degree zeros
    lead = 256 % degree
    return bytes(lead) + bytes(range(lead, 256))


@functools.lru_cache(maxsize=16)
def _offsets(degree: int, keys: int) -> int:
    # added to the int of `keys` joined keys, puts them in offset form; the
    # queries on one group ask for few sizes, so few recur
    width = 256 - 256 % degree
    block = bytes(256 % degree + p - p % degree for p in range(width))
    return int.from_bytes((block * (keys * degree // width + 1))[:keys * degree], "little")


def _steps(buffers: Iterable[bytes], degree: int, most: int) -> int:
    """The number of times the keys of the buffers must be squared to leave
    only the identity, or most + 1 if some key is not the identity after
    `most` squarings; it returns at the first buffer that holds such a key.

    The keys are squared a buffer at a time, in offset form: the buffer is
    cut into blocks of 256 // degree keys, each block starts with 256 % degree
    zero bytes, and each key's bytes are raised by the key's offset in the
    block. A block then maps each key's points into that key's own bytes, so
    it is its own translate table: translating it by itself squares all its
    keys, and the result is again in offset form. A block is dropped once
    all its keys are the identity."""
    d = degree
    ident = _identity_block(d)
    lead, width = ident[:256 % d], 256 - 256 % d
    steps = 0
    for buffer in buffers:
        size = len(buffer)
        form = (int.from_bytes(buffer, "little") + _offsets(d, size // d)).to_bytes(size, "little")
        blocks = [lead + form[start:start + width] for start in range(0, size, width)]
        blocks[-1] += ident[len(blocks[-1]):]  # identity keys fill the last block
        blocks = list(filter(ident.__ne__, blocks))
        squarings = 0
        while blocks:
            if squarings == most:
                return most + 1
            blocks = list(filter(ident.__ne__, map(bytes.translate, blocks, blocks)))
            squarings += 1
        steps = max(steps, squarings)
    return steps


def _squarings(G: EnumeratedGroup) -> int:
    """The number of times G's elements must be squared to leave only the
    identity, or more than degree.bit_length() - 1 if some element is not
    the identity after that many squarings.

    A group that generate built squares G^2 first (_steps on its buffer):
    say t times. G^2 holds every square, so G takes t or t + 1 squarings,
    and t + 1 exactly when some element is not the identity after t. Only
    the rest of G's buffer, past G^2's keys, can hold such an element. G's
    representatives modulo G^2 (which contains also reads) are squared t
    times first: where such an element exists, a representative is most
    often one, and then G's buffer is not read. Only when none is is the
    rest of the buffer scanned. A group that _dimino built squares all its
    elements."""
    d = G.degree
    most = d.bit_length() - 1
    squares = G.square_closure
    if squares is None:
        return _steps([G.buffer], d, most)
    t = _steps([squares.buffer], d, most)
    if G.order == squares.order:  # only the trivial group is its own G^2: no rest
        return t
    if _steps([G._memo["representatives"]], d, t) > t:
        return t + 1
    return max(t, _steps([memoryview(G.buffer)[len(squares.buffer):]], d, t))


def exponent(G: EnumeratedGroup) -> int:
    """The least common multiple of the element orders: 2^s for the number
    s of times the elements must be squared to leave only the identity
    (_squarings; for a group that generate built, from the squarings of G^2
    and a scan of the rest of its buffer). No 2-element of degree d has order
    above 2^(d.bit_length() - 1), so an element set that needs more
    squarings holds an element whose order has an odd factor, which no
    2-group does: it raises ValueError."""
    steps = _squarings(G)
    if steps >= G.degree.bit_length():
        raise ValueError(f"the set of {G.order} keys holds an element whose order has an odd factor")
    return 1 << steps


def is_abelian(G: EnumeratedGroup) -> bool:
    """Whether each pair of G's generators commutes, with each generator's
    translate table built once; a generator commutes with itself."""
    pad = _PADS[G.degree]
    tests = [(g, g + pad) for g in G.gen_keys]
    return all(b.translate(a_table) == a.translate(b_table)
               for (a, a_table), (b, b_table) in itertools.combinations(tests, 2))


def center_size(G: EnumeratedGroup) -> int:
    """The number of elements of G that commute with every generator: |Z(G)|.

    First the orbit of point 0 under the generators is grown, with a
    transversal: w[p] is a product of generators that takes 0 to p, one
    translate by a generator's table for each new point. If the orbit holds
    all d points, G is transitive, and its centralizer in Sym(d) is
    semiregular (Dixon and Mortimer, Permutation Groups, 1996, section 4.2):
    a central z commutes with each w[p], so z[p] = w[p][z[0]], and z is
    determined by its image of 0. The d candidates are the columns of the
    joined transversal, and each is counted when it commutes with every
    generator and lies in G (contains; for a group that generate built,
    that reads G^2 and the representatives, not G's buffer).

    An intransitive group's buffer is scanned instead. For each generator g,
    every element x is first tested at one point i that g moves (0 if g is
    the identity): x[g[i]] and g[x[i]] are the images of i under x g and
    g x, and their columns over the whole buffer are compared at once. The
    equality is necessary, so only the elements that pass it for every
    generator have the whole products compared."""
    d = G.degree
    pad = _PADS[d]
    tests = [(g, g + pad) for g in G.gen_keys]
    transversal = [b""] * d
    transversal[0], orbit = bytes(range(d)), [0]
    for p in orbit:  # orbit grows while it is scanned
        for g, g_table in tests:
            q = g[p]
            if not transversal[q]:
                transversal[q] = transversal[p].translate(g_table)  # g w[p]
                orbit.append(q)
    if len(orbit) == d:
        joined = b"".join(transversal)
        count = 0
        for q in range(d):
            z = joined[q::d]  # z[p] = w[p][q]
            z_table = z + pad
            commutes = all(g.translate(z_table) == z.translate(g_table) for g, g_table in tests)
            count += commutes and contains(G, z)
        return count
    buffer = G.buffer
    misses = 0
    for g, g_table in tests:
        i = next((p for p, image in enumerate(g) if p != image), 0)
        # the image of i under x g, against it under g x, for each x
        misses |= int.from_bytes(buffer[g[i]::d], "little") ^ int.from_bytes(
            buffer[i::d].translate(g_table), "little"
        )
    passed = misses.to_bytes(G.order, "little")  # 0 where x passes
    count = 0
    j = passed.find(0)
    while j >= 0:
        x = buffer[j * d:j * d + d]
        x_table = x + pad
        # _mul(x, g) == _mul(g, x)
        count += all(g.translate(x_table) == x.translate(g_table) for g, g_table in tests)
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


def key_parities(buffer: bytes, degree: int) -> bytes:
    """One byte per key of a buffer of joined keys of one degree n, in buffer
    order: 1 for an odd key, 0 for an even one.

    Signs are inversion parities of all keys at once: byte column i, one key per
    lane, in lanes of 8 bits when n <= 128 (every image is below 2^7) and of 16
    bits above. With H the top bit of each lane, ((col_j | H) - col_i) & H is set
    exactly where x_j > x_i, and no lane of H + x_j - x_i borrows from the next,
    so H masks the XOR over all i < j once; flipped if C(n, 2) is odd, that XOR
    is the parity.

    Raises ValueError, as EnumeratedGroup's constructor does, for a degree
    outside 1..MAX_DEGREE or a buffer that is no whole number of keys."""
    n, count = degree, _key_count(buffer, degree)
    size = 1 if n <= 128 else 2  # bytes a lane
    wide = bytearray(size * count)
    cols = []
    for i in range(n):
        wide[::size] = buffer[i::n]
        cols.append(int.from_bytes(wide, "little"))
    high = int.from_bytes((1 << 8 * size - 1).to_bytes(size, "little") * count, "little")
    tops = [col | high for col in cols]
    parity = high if n * (n - 1) // 2 % 2 else 0
    for i, j in itertools.combinations(range(n), 2):
        parity ^= tops[j] - cols[i]
    return ((parity & high) >> 8 * size - 1).to_bytes(size * count, "little")[::size]
