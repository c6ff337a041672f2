"""Permutations of {1, ..., n}: composition, parity, cycle notation, and the
2-adic valuation of factorials.

Points are 1-based in every public interface. A permutation stores its 0-based
images as the group engine's key, byte i for point i+1, so a product is one
``bytes.translate``; past KEY_DEGREE = 256 points, where images outgrow a
byte, it stores a tuple. Permutations are immutable, hashable and thread-safe.
"""

from __future__ import annotations

from typing import Iterable, Sequence

KEY_DEGREE = 256

# _PADS[n] pads an n-byte key to a 256-entry bytes.translate table
_PADS = tuple(bytes(256 - n) for n in range(KEY_DEGREE + 1))


def _table(key: bytes) -> bytes:
    # the translate table of a key: b.translate(_table(a))[i] == a[b[i]]
    return key + _PADS[len(key)]


def _as_key(images: Sequence[int]) -> bytes | tuple[int, ...]:
    # the stored form of a valid 0-based image sequence
    return bytes(images) if len(images) <= KEY_DEGREE else tuple(images)


def _inv(key: bytes | tuple[int, ...]) -> bytes | tuple[int, ...]:
    # the stored form of the inverse: the points sorted by their images
    return _as_key(sorted(range(len(key)), key=key.__getitem__))


def _immutable(self, name, value=None):
    # __setattr__ and __delattr__ of the library's immutable values
    raise AttributeError(f"{type(self).__name__} is immutable")


class Permutation:
    """A permutation of {1, ..., n}.

    ``images`` is the 0-based image tuple: point ``i+1`` maps to
    ``images[i] + 1``; ``key`` holds the same images as bytes. Multiplication
    is ordinary function composition: ``(p * q)(x) == p(q(x))``, i.e. ``q``
    acts first.
    """

    __slots__ = ("_key",)

    def __init__(self, images: Sequence[int]):
        imgs = images if type(images) is bytes else tuple(images)
        n = len(imgs)
        if n == 0:
            raise ValueError("a permutation needs at least one point")
        # exact ints: a bool is an int subclass, and 1.0 == 1 passes the rest
        ints = all(type(x) is int for x in imgs)
        if not (ints and len(set(imgs)) == n and min(imgs) == 0 and max(imgs) == n - 1):
            raise ValueError(f"{tuple(imgs)!r} is not a bijection of 0..{n - 1}")
        _set_key(self, _as_key(imgs))

    @classmethod
    def _of_key(cls, key: bytes | tuple[int, ...]) -> "Permutation":
        # unchecked: key is already a bijection in its stored form (_as_key)
        p = object.__new__(cls)
        _set_key(p, key)
        return p

    __setattr__ = __delattr__ = _immutable

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        """The transposition (i j) on n points, i and j 1-based."""
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise ValueError(f"bad transposition ({i} {j}) on {n} points")
        imgs = list(range(n))
        imgs[i - 1], imgs[j - 1] = j - 1, i - 1
        return cls(imgs)

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from disjoint non-empty cycles of 1-based integer points."""
        imgs = list(range(n))
        seen: set[int] = set()
        for cyc in cycles:
            if not cyc:
                raise ValueError("empty cycle")
            for x in cyc:
                if type(x) is not int or not 1 <= x <= n:
                    raise ValueError(f"point {x!r} is not an integer in 1..{n}")
                if x in seen:
                    raise ValueError(f"point {x} repeated across cycles")
                seen.add(x)
            for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
                imgs[a - 1] = b - 1
        return cls(imgs)

    @property
    def degree(self) -> int:
        return len(self._key)

    @property
    def images(self) -> tuple[int, ...]:
        """The 0-based image tuple."""
        return tuple(self._key)

    @property
    def key(self) -> bytes:
        """The images as bytes; only up to KEY_DEGREE points."""
        if type(self._key) is not bytes:
            raise ValueError(f"a permutation on {self.degree} points has no byte key")
        return self._key

    def __call__(self, point: int) -> int:
        """Image of a 1-based point."""
        return self._key[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        a, b = self._key, other._key
        if len(a) != len(b):
            raise ValueError("degree mismatch")
        if type(a) is bytes:
            return Permutation._of_key(b.translate(_table(a)))
        return Permutation._of_key(tuple(map(a.__getitem__, b)))

    def inverse(self) -> "Permutation":
        return Permutation._of_key(_inv(self._key))

    def __pow__(self, exponent: int) -> "Permutation":
        base = self if exponent >= 0 else self.inverse()
        result = Permutation.identity(self.degree)
        for bit in reversed(bin(abs(exponent))[2:]):  # square-and-multiply, low bit first
            if bit == "1":
                result = result * base
            base = base * base
        return result

    def is_identity(self) -> bool:
        return all(y == i for i, y in enumerate(self._key))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Permutation[{cycle_notation(self)}]"


_set_key = Permutation._key.__set__  # bypasses the immutability guard


def cycles(p: Permutation, include_fixed: bool = False) -> list[tuple[int, ...]]:
    """Disjoint cycles as tuples of 1-based points, each starting at its
    smallest point, ordered by that point."""
    out = []
    seen = [False] * p.degree
    imgs = p._key
    for start in range(p.degree):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = imgs[x]
        if len(cyc) > 1 or include_fixed:
            out.append(tuple(cyc))
    return out


def parity_bit(p: Permutation) -> int:
    """1 for an odd permutation, 0 for an even one.

    Computed as (degree - number of cycles) mod 2, which avoids building a
    transposition decomposition.
    """
    return (p.degree - len(cycles(p, include_fixed=True))) % 2


def is_even(p: Permutation) -> bool:
    return parity_bit(p) == 0


def cycle_notation(p: Permutation) -> str:
    """One-line cycle notation, e.g. ``(1 2)(7 8)``; the identity is ``()``.

    >>> cycle_notation(Permutation.from_cycles(8, [(1, 2), (7, 8)]))
    '(1 2)(7 8)'
    """
    nontrivial = cycles(p)
    if not nontrivial:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in nontrivial)


def legendre_nu2(n: int) -> int:
    """Largest e with 2^e dividing n!, i.e. sum over i >= 1 of floor(n / 2^i).

    Equals n - popcount(n). The ``legendre`` claim checks that identity to 10^6
    in blocks of 4096 n, one per 24-bit lane of an int: floor_sums runs on the
    blocks at 0 and at each power of two, which hold n of every bit length up
    to 20, and on one-lane blocks; the other sums come by halving.

    >>> legendre_nu2(8)
    7
    >>> legendre_nu2(22)
    19
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return floor_sums(n, -1)


def floor_sums(h: int, low: int) -> int:
    """The sum over i >= 1 of h halved i times, each halving masked by low: Legendre's sum
    for low = -1, or every lane's of a packed h if low clears what a lane gets from the next."""
    total = 0
    while h:
        h = (h >> 1) & low
        total += h
    return total
