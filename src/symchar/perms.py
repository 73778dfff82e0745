"""Permutations of {1..k} in one-line notation, factorizations of the
canonical long cycle, and the intersection-pattern tally of the
factorizations of any permutation.

The tally is the one pass that every factorization sum of the package
folds over.  For a k-cycle it tallies one chain t, c o t, ..., c^(k-1) o t
per necklace of a flat walk over step sequences, at one cycle traversal
per element (4,492 chains at k = 9).

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


def _walk_chains(k: int, visit: Callable[[list[int], int], None]) -> None:
    """Calls visit(t, p) once per orbit of S(k) under t -> c^i o t o c^j,
    c the canonical k-cycle, in lexicographic order of e below: t is the
    orbit's element (0-based, t[x] the image of x) with t(0) = 0 whose step
    sequence e is the least of its rotations, and p is the period of e.
    t is a list that the walk reuses, so visit must copy what it keeps.

    The step sequence e(x) = t(x+1) - t(x) - 1 mod k (x+1 taken mod k) fixes
    t up to left multiplication by a power of c, which leaves e alone, while
    conjugation by c rotates e.  So an orbit has p * k elements: the chains
    t, c o t, ..., c^(k-1) o t of the p rotations of a necklace e of period
    p.  A depth-first walk keeps only prefixes of e that can still be the
    least rotation, e[n] >= e[n-p] with p the period so far (Ruskey, Savage
    and Wang, J. Algorithms 13, 1992), and accepts a full e iff p divides k.

    e[n] places t[n+1] = t[n] + e[n] + 1 mod k, which must be free.  Once
    t[k-2] is placed, t[k-1] is the one point left, so e[k-2] and
    e[k-1] = k - 1 - t[k-1] are forced and only go through the rule of the
    loop.  A spare entry e[k] = 0 is the bound e[n-p] = e[-1] at n = 0.
    """
    if k == 1:
        visit([0], 1)
        return
    t = [0] * k
    e = [0] * (k + 1)
    free = [False] + [True] * (k - 1)
    last = k - 1
    pen = k - 2

    def close(p: int) -> None:
        y = free.index(True)
        for n, en in ((pen, (y - t[pen] - 1) % k), (last, last - y)):
            low = e[n - p]
            if en < low:
                return
            if en > low:
                p = n + 1
            e[n] = en
        if k % p == 0:
            t[last] = y
            visit(t, p)

    def walk(n: int, p: int) -> None:
        if n == pen:
            close(p)
            return
        low = e[n - p]
        base = t[n] + 1
        for en in range(low, last):
            x = base + en
            if x >= k:
                x -= k
            if free[x]:
                free[x] = False
                t[n + 1], e[n] = x, en
                walk(n + 1, p if en == low else n + 1)
                free[x] = True

    walk(0, 1)


def factorization_patterns(pi: Perm) -> Counter:
    """Tally of the factorizations s1 o s2 = pi by intersection pattern, up
    to the numbering of the s2-cycles.

    A pair's pattern is (m2, masks): m2 = |C(s2)|, and masks lists, sorted,
    one bitmask per s1-cycle of the s2-cycles it meets, numbered by least
    point as in cycles(s2).  It fixes |C(s1)| = len(masks) and sign(s1), and
    every sum over factorizations here depends on a pair only through it.

    A pair is read as t = s2^-1, which has the cycles of s2, and
    s1 = pi o t.  One leaf routine tallies a chain t, pi o t, pi^2 o t, ...:
    the s1 of each element is the next one, so one traversal of each element
    labels its cycles and ORs the previous element's labels along them into
    that element's masks, n + 1 traversals for n elements.  A k-cycle is
    tallied as the canonical one c, whose conjugation maps factorizations
    onto ones with the same pattern up to renumbering the s2-cycles: one
    chain t, c o t, ..., c^(k-1) o t per orbit of _walk_chains, each element
    weighted by p, as the orbit holds the p conjugate chains by c^a, a < p.
    Any other pi runs each t of S(k) as a chain of one.  Every consumer (K,
    J, the multirect and quadratic sums, the Catalan check) folds over all
    colorings or labelings of the s2-cycles, so the renumbering leaves its
    output unchanged.  The canonical k-cycle has 122, 415 and 1,431 keys at
    k = 7, 8, 9.
    """
    if not is_perm(pi):
        raise ValueError(f"not a permutation: {pi}")
    k = len(pi)
    points = range(k)
    tally: Counter = Counter()
    old, new = [0] * k, [0] * k

    def add_chain(t: Sequence[int], weight: int) -> None:
        # Traversal s follows x -> ring[t[x] + s].  The first, s = 0, only
        # labels, in old; each s in shifts labels in new, ORs and clears old,
        # and the lists swap; the last, s = k, only ORs and clears, so both
        # lists end all zero.
        nonlocal old, new
        b = 1
        for start in points:
            if not old[start]:
                x = start
                while not old[x]:
                    old[x] = b
                    x = t[x]
                b <<= 1
        m2 = b.bit_length() - 1
        for s in shifts:
            masks = []
            b = 1
            for start in points:
                if not new[start]:
                    mask = 0
                    x = start
                    while not new[x]:
                        new[x] = b
                        mask |= old[x]
                        old[x] = 0
                        x = ring[t[x] + s]
                    masks.append(mask)
                    b <<= 1
            masks.sort()
            tally[m2, tuple(masks)] += weight
            m2 = len(masks)
            old, new = new, old
        masks = []
        for start in points:
            mask = old[start]
            if mask:
                old[start] = 0
                x = ring[t[start] + k]
                while x != start:
                    mask |= old[x]
                    old[x] = 0
                    x = ring[t[x] + k]
                masks.append(mask)
        masks.sort()
        tally[m2, tuple(masks)] += weight

    if len(cycles(pi)) == 1:
        # c^s o t, s = 0..k, through the doubled ring of c; c^k o t = t
        ring, shifts = [*points] * 2, range(1, k)
        _walk_chains(k, add_chain)
    else:
        # t at s = 0, then s1 = pi o t at s = k
        ring, shifts = [*points, *(v - 1 for v in pi)], ()
        for t in itertools.permutations(points):
            add_chain(t, 1)
    return tally
