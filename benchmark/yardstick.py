"""The benchmark's yardstick: a fixed job that does not touch sylow2.

    python3 yardstick.py

Prints the seconds this CPU takes, right now, to enumerate the Sylow
2-subgroup of S_16 (order 2^15) by breadth-first closure of its four
generators, with permutations as ``bytes`` and the product written as
``bytes(map(a.__getitem__, b))``. That is the same kind of work, on the same
kind of working set, as the program's, so the host's changes of speed move
both alike; a job of small tuples tracked the lattice workload worse. The
code is the benchmark's own, so a change to sylow2 does not move it.
``run.py`` starts it as a child process, so that the memory the job takes
stays out of the benchmark process, whose size every child it starts
inherits into its peak RSS.
"""

import time

DEGREE = 16
ORDER = 1 << 15


def generators() -> list[bytes]:
    """Swap the two halves of the first block of 2, 4, 8 and 16 points."""
    gens = []
    for level in range(4):
        half = 1 << level
        img = list(range(DEGREE))
        for i in range(half):
            img[i], img[i + half] = i + half, i
        gens.append(bytes(img))
    return gens


def closure(gens: list[bytes]) -> int:
    seen = {bytes(range(DEGREE))}
    frontier = list(seen)
    while frontier:
        found = []
        for g in frontier:
            for h in gens:
                k = bytes(map(g.__getitem__, h))
                if k not in seen:
                    seen.add(k)
                    found.append(k)
        frontier = found
    return len(seen)


if __name__ == "__main__":
    gens = generators()
    start = time.perf_counter()
    order = closure(gens)
    elapsed = time.perf_counter() - start
    if order != ORDER:
        raise SystemExit(f"yardstick: order {order}, expected {ORDER}")
    print(elapsed)
