"""Generator families for Sylow 2-subgroups of symmetric and alternating
groups.

For degree 2^k the group is realized inside the automorphisms of the depth-k
binary tree: the k-1 single-state generators a0..a(k-2) (one active vertex at
the left end of each level above the last) give the full tree group of depth
k-1, and adding tau (states at the two outer vertices of the last level)
gives the even-permutation Sylow 2-subgroup of A_{2^k}.

For general n the binary decomposition n = 2^k1 + 2^k2 + ... places one tree
per summand on consecutive point blocks, largest block first. The even
subgroup of that direct product is built both by filtering and from a
parity-corrected generator set, and the two are checked against each other.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import group_engine, tree_core
from .group_engine import (
    DEFAULT_CAP,
    CapExceededError,
    EnumeratedGroup,
    GeneratorSet,
    generate,
)
from .perm_core import Permutation, is_even, legendre_nu2, parity_bit
from .tree_core import Portrait


def alpha(i: int, k: int) -> Portrait:
    """Single active state at the leftmost vertex of level i, depth k."""
    if not 0 <= i <= k - 1:
        raise ValueError(f"level {i} outside 0..{k - 1}")
    return tree_core.from_states(k, [(i, 1)])


def tau_set(positions: Sequence[int], k: int) -> Portrait:
    """Active states exactly at the given level-(k-1) positions."""
    if len(set(positions)) != len(positions):
        raise ValueError(f"duplicate positions in {positions!r}")
    return tree_core.from_states(k, [(k - 1, p) for p in positions])


def tau(k: int) -> Portrait:
    """States at the two outer vertices of the last level: positions 1 and
    2^(k-1)."""
    return tau_set([1, 1 << (k - 1)], k)


def s_alpha(k: int) -> GeneratorSet:
    """a0 .. a(k-2): the standard generators of the depth-(k-1) tree group,
    acting on the 2^k leaves. They generate B, all states above the last
    level: the iterated wreath product of order 2^(2^(k-1) - 1)."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    entries = tuple((f"a{i}", alpha(i, k)) for i in range(k - 1))
    return GeneratorSet(f"S_alpha(k={k})", 1 << k, entries)


def s_beta(k: int) -> GeneratorSet:
    """a0 .. a(k-2) plus tau: the k-element generating set whose closure is
    the Sylow 2-subgroup of A_{2^k}."""
    base = s_alpha(k)
    return GeneratorSet(f"S_beta(k={k})", 1 << k, base.elements + (("tau", tau(k)),))


def evaluate_word(word: Sequence[str], k: int) -> Portrait:
    """Compose a word of s_beta labels left to right (rightmost letter acts
    first)."""
    lookup = dict(s_beta(k).elements)
    result = tree_core.identity(k)
    for label in word:
        if label not in lookup:
            raise ValueError(f"unknown generator label {label!r}")
        result = tree_core.compose(result, lookup[label])
    return result


def _first_half_word(target: int, k: int) -> list[str]:
    # Word over a1..a(k-2) whose level-(k-1) action moves position 1 to
    # `target` (within the first half). The letters are the set bits of
    # target-1, shallow to deep; deeper letters sit at the right end of the
    # word and therefore act first, which keeps each letter's all-zero
    # prefix condition satisfied.
    bits = target - 1
    return [f"a{l}" for l in range(1, k - 1) if bits >> (k - 2 - l) & 1]


def _conjugate_word(w: Sequence[str], core: Sequence[str]) -> list[str]:
    # every letter is an involution, so the inverse of w is w reversed
    return list(w) + list(core) + list(reversed(w))


def tau_ij_word(i: int, j: int, k: int) -> list[str]:
    """A word over s_beta(k) that evaluates to tau_set([i, j], k).

    Built by the 2-adic addressing scheme: conjugates of tau by alpha words
    move its first-half state anywhere in the first half (the second-half
    state stays put), a0-conjugation mirrors those into the second half, and
    products of the resulting two-state elements cancel the helper states.
    Every emitted word is validated by evaluation before being returned.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    top = 1 << (k - 1)
    if not (1 <= i < j <= top):
        raise ValueError(f"need 1 <= i < j <= {top}, got ({i}, {j})")
    half = 1 << (k - 2)

    def a_word(target: int) -> list[str]:  # tau_{target, top}, target in first half
        return _conjugate_word(_first_half_word(target, k), ["tau"])

    def b_word(target: int) -> list[str]:  # tau_{half, target}, target in second half
        return _conjugate_word(["a0"], a_word(target - half))

    if (i, j) == (1, top):
        word = ["tau"]
    elif j <= half:
        word = a_word(i) + a_word(j)
    elif i > half:
        word = b_word(i) + b_word(j)
    elif j == top:
        word = a_word(i)
    else:
        word = a_word(i) + b_word(j) + b_word(top)

    if evaluate_word(word, k) != tau_set([i, j], k):
        raise RuntimeError(f"word for tau_({i},{j}) failed its evaluation check")
    return word


def syl2_order(n: int, kind: str) -> int:
    """Exponent e with |Syl_2| = 2^e: the 2-adic valuation of n! for S_n, one
    less (floored at 0) for A_n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if kind not in ("S", "A"):
        raise ValueError(f"kind must be 'S' or 'A', got {kind!r}")
    e = legendre_nu2(n)
    return e if kind == "S" else max(e - 1, 0)


class Decomposition(NamedTuple):
    """Binary decomposition of n: exponents of the set bits, decreasing."""

    n: int
    parts: tuple[int, ...]

    @property
    def powers(self) -> tuple[int, ...]:
        return tuple(1 << k for k in self.parts)


def decompose(n: int) -> Decomposition:
    """n = 2^k1 + 2^k2 + ... with k1 > k2 > ... >= 0; the block sizes of
    every composite construction, and Sum(2^ki - 1) = nu2(n!)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    parts = tuple(p for p in range(n.bit_length() - 1, -1, -1) if n >> p & 1)
    return Decomposition(n, parts)


def _embed(p: Permutation, offset: int, n: int) -> Permutation:
    images = list(range(n))
    for idx, y in enumerate(p.images):
        images[offset + idx] = offset + y
    return Permutation(images)


def _blocks(n: int) -> list[tuple[int, int]]:
    # (offset, size) per binary part, largest first, consecutive points
    out = []
    offset = 0
    for k in decompose(n).parts:
        out.append((offset, 1 << k))
        offset += 1 << k
    return out


def syl2_S_generators(n: int) -> GeneratorSet:
    """Generators of Syl_2(S_n): the tree generators of each binary block,
    embedded on its consecutive points. Size-1 blocks contribute nothing.
    A block of 2^k points needs a tree of depth k <= tree_core.MAX_DEPTH."""
    if not 2 <= n < 2 << tree_core.MAX_DEPTH:
        raise ValueError(f"need 2 <= n < {2 << tree_core.MAX_DEPTH}, got {n}")
    entries = []
    for offset, size in _blocks(n):
        k = size.bit_length() - 1
        for i in range(k):
            perm = _embed(tree_core.to_permutation(alpha(i, k)), offset, n)
            entries.append((f"a{i}[{offset + 1}-{offset + size}]", perm))
    return GeneratorSet(f"Syl2_S(n={n})", n, tuple(entries))


def _parity_fix(n: int) -> Permutation:
    # transposition of the last two points of the last non-trivial block
    nontrivial = [(o, s) for o, s in _blocks(n) if s >= 2]
    offset, size = nontrivial[-1]
    return Permutation.transposition(n, offset + size - 1, offset + size)


def syl2_A_generators(n: int) -> GeneratorSet:
    """Parity-corrected generators for the even subgroup: each odd generator
    g of Syl_2(S_n) is replaced by g*h, with h one fixed odd transposition.
    The generator h itself, whose g*h is the identity, is left out."""
    base = syl2_S_generators(n)
    h = _parity_fix(n)
    entries = []
    for label, perm in base.permutation_entries():
        if is_even(perm):
            entries.append((label, perm))
        elif perm != h:
            entries.append((f"{label}*h", perm * h))
    return GeneratorSet(f"Syl2_A(n={n})", n, tuple(entries))


def boxtimes_group(n: int, cap: int = DEFAULT_CAP) -> EnumeratedGroup:
    """The even subgroup of Syl_2(S_n), built two ways and cross-checked:
    the even keys of the enumerated full group (key_parities), and the group
    of the parity-corrected generators, whose equal set shows them closed.
    Order 2^syl2_order(n, "A")."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return generate(GeneratorSet(f"Syl2_A(n={n})", 1, ()), cap=cap)
    if (1 << syl2_order(n, "S")) > cap:
        raise CapExceededError(cap, 0)
    keys = list(group_engine.iter_keys(generate(syl2_S_generators(n), cap=cap)))
    evens = {key for key, odd in zip(keys, group_engine.key_parities(keys)) if not odd}
    corrected = generate(syl2_A_generators(n), cap=cap)
    if evens != corrected.elements:
        raise RuntimeError(
            f"even-subgroup constructions disagree for n={n}: "
            f"filter gives {len(evens)}, corrected generators give {corrected.order}"
        )
    return corrected


def parity_extension(sigma: Permutation, n: int) -> Permutation:
    """Extend sigma to n points (fixing the new ones), then multiply by the
    transposition (m+1, m+2) exactly when sigma is odd; the result is always
    even."""
    m = sigma.degree
    if n < m + 2:
        raise ValueError(f"need n >= {m + 2}, got {n}")
    images = list(sigma.images) + list(range(m, n))
    if parity_bit(sigma):
        images[m], images[m + 1] = images[m + 1], images[m]
    return Permutation(images)


def w_subgroup_generators(k: int) -> GeneratorSet:
    """Adjacent last-level pairs tau_{i,i+1}: a basis of the even-weight
    state subgroup on level k-1, elementary abelian of order
    2^(2^(k-1) - 1)."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    entries = tuple(
        (f"tau[{i},{i + 1}]", tau_set([i, i + 1], k)) for i in range(1, 1 << (k - 1))
    )
    return GeneratorSet(f"W(k={k})", 1 << k, entries)
