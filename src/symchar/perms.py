"""Permutations of {1..k} in one-line notation, factorizations of the
canonical long cycle, and the intersection-pattern tally of the
factorizations of any permutation.

The tally is the one pass that every factorization sum of the package
folds over.  For a k-cycle it tallies one chain t, c o t, ..., c^(k-1) o t
per necklace of a flat walk over step sequences, at one cycle traversal
per element; from k = 8 on, only one necklace of each class of up to four
whose factorizations have the same or the transposed patterns (1,366 of
the 4,492 chains at k = 9).

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

# The least k at which factorization_patterns tallies a k-cycle by
# _walk_classes.  Below it the image test costs more than the chains it
# saves: in process on a 2-vCPU VM, against the plain chain walk, the pass
# ran at 0.40x at k = 5, 0.79x at k = 6 and 0.89-1.06x at k = 7 with it,
# and at 1.2-1.4x at k = 8.
_CLASS_WALK_MIN_K = 8


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


def _subset_counts(masks: Sequence[int], m2: int) -> list[int]:
    """counts[V] = N(V), the number of s1-cycles (given by the masks of a
    factorization pattern) meeting the union of the s2-cycles in V, for
    every subset bitmask V of the m2 s2-cycles."""
    return [0] + [len([m for m in masks if m & v]) for v in range(1, 1 << m2)]


def _walk_chains(k: int, visit: Callable[[list[int], list[int], int], None]) -> None:
    """Calls visit(t, e, p) once per orbit of S(k) under t -> c^i o t o c^j,
    c the canonical k-cycle, in lexicographic order of e below: t is the
    orbit's element (0-based, t[x] the image of x) with t(0) = 0 whose step
    sequence e (in e[:k]) is the least of its rotations, and p is the
    period of e.  t and e are lists that the walk reuses, so visit must copy
    what it keeps.

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
        visit([0], [0, 0], 1)
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
            visit(t, e, p)

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


def _necklace(seq: bytes) -> bytes:
    """The least rotation of seq."""
    n, doubled = len(seq), seq * 2
    return min(doubled[i:i + n] for i in range(n))


def _walk_classes(k: int, visit: Callable[[list[int], int, bool], None]) -> None:
    """Calls visit(t, weight, transposed) once per class of the orbits of
    _walk_chains under a group of four, t as there.  The chain t, c o t,
    ..., c^(k-1) o t, each element weighted by weight, has the patterns of
    the orbits O and phi O below, up to renumbering the s2-cycles; if
    transposed, the same patterns transposed are those of the class's other
    orbits, rho O and rho phi O.

    With w(x) = -x mod k, w o c o w = c^-1, so s1 o s2 = c gives
    (w s2^-1 w) o (w s1^-1 w) = c, which swaps the roles of s1 and s2 and
    so transposes the pattern, and (w s1^-1 w) o (w s1 s2^-1 s1^-1 w) = c,
    whose pattern is the same once each s2-cycle w s1(D) is renumbered as D.
    On orbits they are rho: O(t) -> O(w t w), whose step sequence is e
    reversed, and phi: O(t) -> O(w t^-1 w), whose step sequence is that of
    t^-1 reversed; rho phi maps O(t) to O(t^-1).  The walk meets necklaces
    in lexicographic order, so a class first meets its least orbit O, which
    is visited with weight p |{O, phi O}|, transposed iff rho O is not in
    {O, phi O}.  Its other images are marked by their necklaces, as bytes,
    and each is discarded when its leaf skips on it.
    """
    marked: set[bytes] = set()

    def leaf(t: list[int], e: list[int], p: int) -> None:
        key = bytes(e[:k])
        if key in marked:
            marked.remove(key)
            return
        inv = [0] * k
        for x, v in enumerate(t):
            inv[v] = x
        steps = bytes((b - a - 1) % k for a, b in zip(inv, inv[1:] + inv[:1]))
        rho, phi = _necklace(key[::-1]), _necklace(steps[::-1])
        marked.update({rho, phi, _necklace(steps)} - {key})
        visit(t, p if phi == key else 2 * p, rho != key and rho != phi)

    _walk_chains(k, leaf)


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
    From k = _CLASS_WALK_MIN_K on, only the chain of each class of
    _walk_classes is tallied, with its weight, and the keys of the classes
    that need it are added transposed at the end.  Any other pi runs each t
    of S(k) as a chain of one.  Every consumer (K, J, the multirect and
    quadratic sums, the Catalan check) folds over all colorings or
    labelings of the s2-cycles, so the renumbering leaves its output
    unchanged.  The canonical k-cycle has 122, 361 and 1,163 keys at
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
        if k < _CLASS_WALK_MIN_K:
            _walk_chains(k, lambda t, e, p: add_chain(t, p))
        else:
            # add_chain tallies a transposed class's chain into flipped, which
            # joins the tally at the end once as it is and once transposed
            plain, flipped = tally, Counter()

            def add_class(t: list[int], weight: int, transposed: bool) -> None:
                nonlocal tally
                tally = flipped if transposed else plain
                add_chain(t, weight)

            _walk_classes(k, add_class)
            tally = plain
            for (m2, masks), n in flipped.items():
                columns = (sum(1 << i for i, mask in enumerate(masks) if mask >> j & 1)
                           for j in range(m2))
                tally[m2, masks] += n
                tally[len(masks), tuple(sorted(columns))] += n
    else:
        # t at s = 0, then s1 = pi o t at s = k
        ring, shifts = [*points, *(v - 1 for v in pi)], ()
        for t in itertools.permutations(points):
            add_chain(t, 1)
    return tally
