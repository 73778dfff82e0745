"""Permutations of {1..k} in one-line notation, factorizations of the
canonical long cycle, and the intersection-pattern tally of the
factorizations of any permutation.

A permutation of degree k is a tuple ``images`` of length k where
``images[i-1]`` is the image of i.  Composition is (a * b)(x) = a(b(x)),
i.e. b acts first.  The canonical k-cycle maps 1 -> 2 -> ... -> k -> 1.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Iterator

Perm = tuple[int, ...]
Cycle = tuple[int, ...]


def is_perm(p: Iterable[int]) -> bool:
    p = tuple(p)
    return sorted(p) == list(range(1, len(p) + 1))


def identity(k: int) -> Perm:
    return tuple(range(1, k + 1))


def compose(a: Perm, b: Perm) -> Perm:
    """(a o b)(x) = a(b(x)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(a) != len(b):
        raise ValueError(f"degree mismatch: {len(a)} vs {len(b)}")
    return tuple(a[v - 1] for v in b)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def cycles(p: Perm) -> tuple[Cycle, ...]:
    """Disjoint cycles covering {1..k}; fixed points kept as 1-cycles.

    Cycles are ordered by smallest element and each starts at its smallest
    element, so the result is deterministic.
    """
    k = len(p)
    seen = [False] * (k + 1)
    out = []
    for start in range(1, k + 1):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = p[x - 1]
        out.append(tuple(cyc))
    return tuple(out)


def cycle_type(p: Perm) -> tuple[int, ...]:
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def cycle_count(p: Perm) -> int:
    k = len(p)
    seen = [False] * (k + 1)
    count = 0
    for start in range(1, k + 1):
        if seen[start]:
            continue
        count += 1
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x - 1]
    return count


def sign(p: Perm) -> int:
    return 1 if (len(p) - cycle_count(p)) % 2 == 0 else -1


def canonical_cycle(k: int) -> Perm:
    """The cycle 1 -> 2 -> ... -> k -> 1 as a one-line tuple."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return tuple(range(2, k + 1)) + (1,)


def all_perms(k: int) -> Iterator[Perm]:
    """All of S(k) in lexicographic one-line order."""
    return itertools.permutations(range(1, k + 1))


def factorizations_of_cycle(k: int) -> Iterator[tuple[Perm, Perm]]:
    """All pairs (s1, s2) with compose(s1, s2) equal to the canonical k-cycle.

    s1 runs over S(k) in lexicographic order and s2 = s1^{-1} o cycle, so the
    stream is deterministic and has exactly k! entries.
    """
    target = canonical_cycle(k)
    for s1 in all_perms(k):
        yield s1, compose(inverse(s1), target)


def factorization_patterns(pi: Perm) -> Counter:
    """Tally of the factorizations s1 o s2 = pi by intersection pattern.

    A pair's pattern is (m2, masks): m2 = |C(s2)|, and masks lists, sorted,
    one bitmask per s1-cycle of the s2-cycles it meets, numbered as in
    cycles(s2).  It fixes |C(s1)| = len(masks) and sign(s1), and every sum
    over factorizations here depends on a pair only through it.  One pass
    over t = s2^-1 in S(k), with s1 = pi o t; t has the cycles of s2.
    """
    if not is_perm(pi):
        raise ValueError(f"not a permutation: {pi}")
    k = len(pi)
    target = [v - 1 for v in pi]
    points = range(k)
    tally: Counter = Counter()
    for t in itertools.permutations(points):
        s1 = list(map(target.__getitem__, t))
        bit = [0] * k
        m2 = 0
        for start in points:
            if not bit[start]:
                b = 1 << m2
                m2 += 1
                x = start
                while not bit[x]:
                    bit[x] = b
                    x = t[x]
        masks = []
        for start in points:
            if bit[start]:
                mask = 0
                x = start
                while bit[x]:
                    mask |= bit[x]
                    bit[x] = 0
                    x = s1[x]
                masks.append(mask)
        masks.sort()
        tally[m2, tuple(masks)] += 1
    return tally


def cycles_intersect(c1: Iterable[int], c2: Iterable[int]) -> bool:
    return not set(c1).isdisjoint(c2)
