"""Permutations of {1..k} in one-line notation, factorizations of the
canonical long cycle, and the intersection-pattern tally of the
factorizations of any permutation.

The tally is the one pass that every factorization sum of the package
folds over.  For a k-cycle it runs as one flat necklace walk, a recursive
function over a shared prefix that fills t and s1 = c o t in place and
calls the tally's leaf at each orbit representative.

A permutation of degree k is a tuple ``images`` of length k where
``images[i-1]`` is the image of i.  Composition is (a * b)(x) = a(b(x)),
i.e. b acts first.  The canonical k-cycle maps 1 -> 2 -> ... -> k -> 1.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable, Iterable, Iterator, Sequence

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


def sign(p: Perm) -> int:
    return 1 if (len(p) - len(cycles(p))) % 2 == 0 else -1


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
    stream is deterministic and has exactly k! entries.  No sum of the
    package walks it (they fold over factorization_patterns); it is kept as
    the brute-force reference for the tests and the benchmark harness.
    """
    target = canonical_cycle(k)
    for s1 in all_perms(k):
        yield s1, compose(inverse(s1), target)


def _walk_necklaces(k: int, visit: Callable[[list[int], list[int], int], None]) -> None:
    """Calls visit(t, s1, size) once per orbit of S(k) under conjugation by
    the canonical k-cycle c, with one representative t (0-based, t[x] the
    image of x), s1 = c o t and the orbit size, in lexicographic order of
    d.  t and s1 are lists that the walk reuses, so visit must copy what it
    keeps.

    Conjugating t by the cycle rotates its difference sequence
    d(x) = t(x) - x mod k, and t is the one element of its orbit whose d is
    the least of its rotations, a necklace.  A depth-first walk keeps only
    prefixes that can still be the least rotation, d[n] >= d[n-p] with p the
    period so far (Ruskey, Savage and Wang, J. Algorithms 13, 1992), and
    accepts a full d iff p divides k; the orbit then has p elements.

    The walk is a plain recursion over the prefix of the difference
    sequence d.  The last two positions can only take the two points still
    free, so they are placed by hand, in both orders, under the rule of the
    loop.  d has a spare entry d[k] = 0, so at n = 0 the bound d[n-p] = d[-1]
    is 0.
    """
    if k == 1:
        visit([0], [0], 1)
        return
    t = [0] * k
    s1 = [0] * k
    d = [0] * (k + 1)
    free = [True] * k
    succ = [*range(1, k), 0]
    last = k - 1
    pen = k - 2

    def close(p: int, x: int, y: int) -> None:
        # t[k-2] = x and t[k-1] = y, through the rule of the loop at n = k-2
        # and n = k-1, where d[n] = t[n] - n mod k is x + 2 mod k and y + 1
        # mod k; the result is visited if it is a necklace.
        dn = x + 2 if x < pen else x - pen
        low = d[pen - p]
        if dn < low:
            return
        if dn > low:
            p = last
        d[pen] = dn
        dn = y + 1 if y < last else 0
        low = d[last - p]
        if dn < low:
            return
        if dn > low:
            p = k
        if k % p == 0:
            t[pen], t[last] = x, y
            s1[pen], s1[last] = succ[x], succ[y]
            visit(t, s1, p)

    def walk(n: int, p: int) -> None:
        if n == pen:
            x = free.index(True)
            y = free.index(True, x + 1)
            if y >= pen > x:
                x, y = y, x
            close(p, x, y)
            close(p, y, x)
            return
        low = d[n - p]
        for dn in range(low, k):
            x = n + dn
            if x >= k:
                x -= k
            if free[x]:
                free[x] = False
                t[n], s1[n], d[n] = x, succ[x], dn
                walk(n + 1, p if dn == low else n + 1)
                free[x] = True

    walk(0, 1)


def factorization_patterns(pi: Perm) -> Counter:
    """Tally of the factorizations s1 o s2 = pi by intersection pattern, up
    to the numbering of the s2-cycles.

    A pair's pattern is (m2, masks): m2 = |C(s2)|, and masks lists, sorted,
    one bitmask per s1-cycle of the s2-cycles it meets, numbered as in
    cycles(s2).  It fixes |C(s1)| = len(masks) and sign(s1), and every sum
    over factorizations here depends on a pair only through it.  Each visit
    is a t = s2^-1, with s1 = pi o t; t has the cycles of s2.  One leaf
    routine tallies a visit in place: it labels each point with the bit of
    its t-cycle, then ORs the labels along each s1-cycle.

    Any pi but a k-cycle visits all of S(k), once each.  A k-cycle is a
    relabeling of the canonical one, whose factorizations conjugation by the
    cycle maps onto factorizations with the same pattern up to renumbering
    the s2-cycles, so it visits one t per rotation orbit, in the necklace
    walk of _walk_necklaces, and adds the orbit size.  The counts are then
    those of the full pass with the s2-cycles of each pair renumbered, and
    every consumer (K, J, the multirect and quadratic sums, the Catalan
    check) folds over all colorings or labelings of the s2-cycles, so its
    output is unchanged.  The canonical k-cycle has 100, 314 and 1,046 keys
    at k = 7, 8, 9.
    """
    if not is_perm(pi):
        raise ValueError(f"not a permutation: {pi}")
    k = len(pi)
    points = range(k)
    tally: Counter = Counter()
    bit = [0] * k

    def add_pair(t: Sequence[int], s1: Sequence[int], weight: int) -> None:
        # The OR pass clears bit again; b ends as 1 << m2.
        b = 1
        for start in points:
            if not bit[start]:
                bit[start] = b
                x = t[start]
                while x != start:
                    bit[x] = b
                    x = t[x]
                b <<= 1
        masks = []
        for start in points:
            mask = bit[start]
            if mask:
                bit[start] = 0
                x = s1[start]
                while x != start:
                    mask |= bit[x]
                    bit[x] = 0
                    x = s1[x]
                masks.append(mask)
        masks.sort()
        tally[b.bit_length() - 1, tuple(masks)] += weight

    if len(cycles(pi)) == 1:
        _walk_necklaces(k, add_pair)
    else:
        target = [v - 1 for v in pi]
        for t in itertools.permutations(points):
            add_pair(t, [target[v] for v in t], 1)
    return tally
