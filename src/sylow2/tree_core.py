"""Automorphisms of the truncated binary rooted tree of depth k, stored as
portraits: one swap/no-swap bit per internal vertex.

Tree layout. Levels run from 0 (the root) to k; the 2^l vertices of level l
are numbered 1..2^l left to right, and the 2^k leaves sit at level k,
numbered 1..2^k. The vertex at position p of level l corresponds to the
address string of p-1 written msb-first with l bits, one branch bit per
level. Only levels 0..k-1 carry state bits.

Action. An active state at a vertex swaps the two complete subtrees below
it. The image of a leaf is found by walking its original root-to-leaf path
and flipping the branch bit at every vertex of that path whose state is
active. States are looked up along the domain path, so the state at v acts
on the subtree below v before anything above relocates it.

Composition. compose(a, b) applies b first and then a, matching ordinary
function composition, and to_permutation is a homomorphism for that order:
to_permutation(compose(a, b)) == to_permutation(a) * to_permutation(b).
At the portrait level this forces the transport rule
s_ab(v) = s_a(b(v)) XOR s_b(v), with b(v) the image vertex of v under b.

Each level's bits are packed into an int, bit p-1 for position p, so depth
is capped at MAX_DEPTH to keep the bit budget sane. All values here are
immutable and all functions pure.

Lanes. The kernels lane_action, lane_transport, lane_portraits and
lane_kinds act on one portrait per bit (bit-slicing: Biham, "A fast new DES
implementation in software", FSE 1997): lanes[l] packs level l in fields of
`width` bits, bit j of field v being portrait j's state at vertex v. With
width 1 that is Portrait.levels, and compose, to_permutation, from_permutation
and classify_element are the kernels' one-lane calls; classify_element gives
the ElementKind of its one lane.
"""

from __future__ import annotations

import functools
import itertools
import operator
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .perm_core import Permutation, _as_key, _immutable

MAX_DEPTH = 16


class ElementKind(Enum):
    TYPE_T = "T"
    TYPE_C = "C"
    NEITHER = "neither"


class Portrait:
    """An automorphism of the depth-k tree as per-level state bitmasks.

    ``levels[l]`` has bit p-1 set iff the vertex at position p of level l
    carries an active state. Equal bit content means equal automorphism; the
    converse (faithfulness of the leaf action) is exercised by the tests
    rather than assumed. Immutable, and equal only to a Portrait.
    """

    def __init__(self, depth: int, levels: tuple[int, ...]):
        if not 1 <= depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {depth}")
        if len(levels) != depth:
            raise ValueError(f"expected {depth} levels, got {len(levels)}")
        for l, mask in enumerate(levels):
            if not 0 <= mask < (1 << (1 << l)):
                raise ValueError(f"level {l} mask {mask} out of range")
        self.__dict__.update(depth=depth, levels=levels)

    @classmethod
    def _unchecked(cls, depth: int, levels: tuple[int, ...]) -> "Portrait":
        # for levels known to fit their depth, such as those compose builds
        p = object.__new__(cls)
        p.__dict__.update(depth=depth, levels=levels)
        return p

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.depth, self.levels) == (other.depth, other.levels)

    def __hash__(self):
        return hash((self.depth, self.levels))

    def __repr__(self):
        return f"Portrait(depth={self.depth!r}, levels={self.levels!r})"

    @property
    def leaf_count(self) -> int:
        return 1 << self.depth

    def is_identity(self) -> bool:
        return all(m == 0 for m in self.levels)


def identity(k: int) -> Portrait:
    """The all-zero portrait of depth k; acts trivially on the leaves."""
    return Portrait(k, (0,) * k)


def from_states(k: int, active: Iterable[tuple[int, int]]) -> Portrait:
    """Portrait with active states exactly at the given (level, position)
    pairs, positions 1-based."""
    masks = [0] * k
    for level, position in active:
        if not 0 <= level < k:
            raise ValueError(f"level {level} outside 0..{k - 1}")
        if not 1 <= position <= 1 << level:
            raise ValueError(f"position {position} outside 1..{1 << level} on level {level}")
        bit = 1 << (position - 1)
        if masks[level] & bit:
            raise ValueError(f"duplicate state at level {level}, position {position}")
        masks[level] |= bit
    return Portrait(k, tuple(masks))


def lane_action(lanes: Sequence[int], width: int = 1) -> list[list[int]]:
    """The leaf-action kernel: row l lists the images of the level-l vertices,
    l = 0..k, their address bits msb first in fields of `width` bits, bit j
    under the portrait in lane j. Image bit l of a vertex is its own bit l
    XOR the state at its level-l prefix."""
    ones = (1 << width) - 1
    images = [[0]]
    for level in lanes:
        rows = []
        for row in images[-1]:  # vertex v's children 2v, 2v + 1
            row = row << width | level & ones
            level >>= width
            rows += row, row ^ ones
        images.append(rows)
    return images


def lane_transport(lanes: Sequence[int], b: Portrait, width: int = 1) -> tuple[int, ...]:
    """The transport kernel: the lanes of a∘b for each a in the lanes. By
    s_ab(v) = s_a(b(v)) XOR s_b(v), the product's state at (l, v) is the
    state at (l, b(v)), flipped in every lane where b is active at (l, v)."""
    ones = (1 << width) - 1
    product = []
    for level, img, mask in zip(lanes, lane_action(b.levels[:-1]), b.levels):
        states = 0
        for v, w in enumerate(img):  # the field of b(v), all ones flipped where b is active
            states |= ((level >> w * width & ones) ^ ones * (mask >> v & 1)) << v * width
        product.append(states)
    return tuple(product)


def to_permutation(a: Portrait) -> Permutation:
    """The leaf action on {1, ..., 2^k}."""
    return Permutation._of_key(_as_key(lane_action(a.levels)[a.depth]))


def compose(a: Portrait, b: Portrait) -> Portrait:
    """The automorphism "apply b, then a"."""
    if a.depth != b.depth:
        raise ValueError(f"depth mismatch: {a.depth} != {b.depth}")
    return Portrait._unchecked(a.depth, lane_transport(a.levels, b))


def level_index(a: Portrait, l: int) -> int:
    """Number of active states on level l."""
    if not 0 <= l < a.depth:
        raise ValueError(f"level {l} outside 0..{a.depth - 1}")
    return a.levels[l].bit_count()


def lane_fold(lane: int, fields: int, width: int, op=operator.xor) -> int:
    """The `fields` fields of `width` bits in a lane int, folded into one by op
    lane by lane: with xor, bit j is the parity of lane j's bits."""
    while fields > 1:
        fields = (fields + 1) >> 1
        lane = op(lane >> fields * width, lane & (1 << fields * width) - 1)
    return lane


def lane_kinds(lanes: Sequence[int], width: int = 1) -> tuple[int, int]:
    """The T/C rule: the masks of the lanes of type T and of type C. Both have
    an odd number of states in each half of level k-1; T has none above it."""
    if len(lanes) < 2:
        raise ValueError("classification needs depth >= 2")
    half = 1 << (len(lanes) - 2)  # fields in a half of the last level, and in level k-2
    low, high = lanes[-1] & (1 << half * width) - 1, lanes[-1] >> half * width
    odd_odd = lane_fold(low, half, width) & lane_fold(high, half, width)
    upper = lane_fold(functools.reduce(operator.or_, lanes[:-1]), half, width, operator.or_)
    return odd_odd & ~upper, odd_odd & upper


def lane_kind(masks: tuple[int, int], lane: int = 0) -> ElementKind:
    """The kind of the portrait in a lane, read from lane_kinds' masks."""
    t, c = masks
    if t >> lane & 1:
        return ElementKind.TYPE_T
    return ElementKind.TYPE_C if c >> lane & 1 else ElementKind.NEITHER


def classify_element(a: Portrait) -> ElementKind:
    """Type T: states only on level k-1, with an odd number of them in each
    half of that level. Type C: the same odd/odd half counts, with arbitrary
    states above. Anything else is NEITHER.
    """
    return lane_kind(lane_kinds(a.levels))


def to_text(a: Portrait) -> str:
    """Text form ``k=3;L0=1;L1=00;L2=1001``: one bit string per level, the
    leftmost character being position 1."""
    parts = [f"k={a.depth}"]
    for l, mask in enumerate(a.levels):
        bits = "".join("1" if mask >> p & 1 else "0" for p in range(1 << l))
        parts.append(f"L{l}={bits}")
    return ";".join(parts)


def from_permutation(p: Permutation) -> Portrait:
    """Recover the portrait of a leaf permutation that is a tree
    automorphism (checked against p); raises ValueError otherwise."""
    n = p.degree
    k = n.bit_length() - 1
    if n != 1 << k or k < 1:
        raise ValueError(f"degree {n} is not a power of two >= 2")
    return Portrait(k, lane_portraits([p._key]))


def lane_portraits(keys: Sequence[bytes | tuple[int, ...]]) -> tuple[int, ...]:
    """The reading kernel: the lanes of the portraits of leaf keys (0-based
    images) of one degree 2^k, key j in lane j of width len(keys): byte keys,
    or one key of any degree. The state at (l, v) is image bit l of the
    leftmost leaf below v. Raises ValueError unless lane_action of the result
    gives back every key."""
    n, width = len(keys[0]), len(keys)
    k, ones = n.bit_length() - 1, (1 << width) - 1
    if width == 1:  # the leaf rows of one lane are the images themselves
        rows = list(keys[0])
    else:  # bit t of each image as b"0" or b"1", t = k-1 down to 0, the last key first
        flat = b"".join(reversed(keys))  # and leaf by leaf: a stride-n slice is a leaf's row
        tables = [bytes(48 | y >> t & 1 for y in range(256)) for t in range(k - 1, -1, -1)]
        bits = b"".join([flat.translate(table) for table in tables])
        rows = [int(bits[x::n], 2) for x in range(n)]
    lanes = tuple(  # image bit l, in field k-1-l of the row of the leftmost leaf v << k - l
        sum([(rows[v << k - l] >> (k - 1 - l) * width & ones) << v * width for v in range(1 << l)])
        for l in range(k)
    )
    if lane_action(lanes, width)[k] != rows:
        raise ValueError("not a tree automorphism")
    return lanes


def iter_portraits(k: int) -> Iterator[Portrait]:
    """All 2^(2^k - 1) portraits of depth k, in a fixed order."""
    ranges = [range(1 << (1 << l)) for l in range(k)]
    for combo in itertools.product(*ranges):
        yield Portrait(k, combo)
