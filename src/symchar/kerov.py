"""Kerov character polynomials K_k in the free cumulants R_2, R_3, ...

K_k is generated by enumerating factorizations s1 o s2 = (1..k) together
with colorings of the s2-cycles by colors >= 2 whose total matches
|C(s1)| + |C(s2)|, filtered by a strict Hall-type marriage condition.  Two
independent cross-checks are provided: basis conversion from J_k via the
Lagrange-inversion closed form of S_j(R), and a direct count for the
quadratic derivatives.

The marriage condition reads a pair only through its intersection pattern
(m2, masks), so it takes a pattern and a coloring, in two forms: the strict
Hall subset condition, and a transportation check that seeks, for each arc,
an assignment of s1-cycles to s2-cycles through it by augmenting paths.
Both counts, and verify's comparison of the two forms, run as folds over one
pass of perms.factorization_patterns, so after that pass their cost scales
with the number of tally keys, intersection patterns (1,163 at k = 9), not
with the k! pairs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import perm
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from symchar import perms
from symchar.ratpoly import CACHE_SIZE, RatPoly


def _strict_hall(counts: Sequence[int], colors: Sequence[int]) -> bool:
    """Every nontrivial subset A of s2-cycles must meet strictly more than
    sum_{i in A} (colors[i] - 1) cycles of s1."""
    m = len(colors)
    if m == 1:
        return True
    demand = [0] * (1 << m)
    for a in range(1, (1 << m) - 1):
        low = a & -a
        demand[a] = demand[a ^ low] + colors[low.bit_length() - 1] - 1
        if counts[a] <= demand[a]:
            return False
    return True


def _check_pattern(masks: Sequence[int], m2: int, colors: Sequence[int]) -> None:
    if (len(colors) != m2 or any(c < 2 for c in colors) or sum(colors) != len(masks) + m2
            or not all(0 < mask < 1 << m2 for mask in masks)):
        raise ValueError("need masks in 1..2^m2-1 and m2 colors >= 2 totalling len(masks) + m2")


def marriage_condition(masks: Sequence[int], m2: int, colors: Sequence[int]) -> bool:
    """The strict subset condition on a factorization pattern, checked over
    all 2^m2 - 2 nontrivial subsets of s2-cycles.  masks[i] has bit j set iff
    the i-th s1-cycle meets the j-th of the m2 s2-cycles, and colors[j] >= 2
    is the color of the j-th s2-cycle, the colors totalling len(masks) + m2;
    any other input raises ValueError."""
    _check_pattern(masks, m2, colors)
    return _strict_hall(perms._subset_counts(masks, m2), colors)


def _forced_assignment(masks: Sequence[int], m2: int, room: Sequence[int],
                       forced: tuple[int, int]) -> list[list[int]] | None:
    """Assign every s1-cycle i to one s2-cycle j that it meets (bit j of
    masks[i] set), s2-cycle j taking room[j] of them, with the arc
    forced = (i, j) fixed first.  Kuhn's augmenting paths over the
    s2-cycles, each with its room as capacity; returns the s1-cycles that
    each s2-cycle holds, or None if no such assignment exists."""
    fi, fj = forced
    held: list[list[int]] = [[] for _ in range(m2)]
    held[fj].append(fi)

    def place(i: int, seen: set[int]) -> bool:
        for j in range(m2):
            if masks[i] >> j & 1 and j not in seen:
                seen.add(j)
                if len(held[j]) < room[j]:
                    held[j].append(i)
                    return True
                for pos, other in enumerate(held[j]):
                    if other != fi and place(other, seen):
                        held[j][pos] = i
                        return True
        return False

    return held if all(i == fi or place(i, set()) for i in range(len(masks))) else None


def marriage_condition_flow(masks: Sequence[int], m2: int, colors: Sequence[int]) -> bool:
    """Transportation reformulation of marriage_condition on the same
    pattern: True iff the system

        sum_j x_{i,j} = 1 for each s1-cycle i,
        sum_i x_{i,j} = colors[j] - 1 for each s2-cycle j,

    over the arcs (i, j) with bit j of masks[i] set admits a strictly
    positive rational solution.  The incidence matrix of this bipartite
    system is totally unimodular, so the vertices of its polytope are 0/1:
    an arc is positive at some solution iff some solution carries 1 on it.
    Each arc is tested with a forced integer flow of 1, and the sum of the
    per-arc witnesses, divided by their number, is a strictly positive
    solution, so the check is equivalent to strict feasibility.  The input
    is checked as in marriage_condition."""
    _check_pattern(masks, m2, colors)
    m1 = len(masks)
    arcs = [(i, j) for i, mask in enumerate(masks) for j in range(m2) if mask >> j & 1]
    room = [c - 1 for c in colors]
    total = dict.fromkeys(arcs, 0)
    for arc in arcs:
        held = _forced_assignment(masks, m2, room, arc)
        if held is None:
            return False
        for j, cycles in enumerate(held):
            for i in cycles:
                total[(i, j)] += 1
    n = len(arcs)
    if not all(x > 0 for x in total.values()):
        raise ArithmeticError("summed flow is not strictly positive")
    for i in range(m1):
        if sum(total[a] for a in arcs if a[0] == i) != n:
            raise ArithmeticError(f"summed flow leaves s1-cycle {i} unbalanced")
    for j, d in enumerate(room):
        if sum(total[a] for a in arcs if a[1] == j) != d * n:
            raise ArithmeticError(f"summed flow misses the demand of s2-cycle {j}")
    return True


def _compositions_fixed(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Tuples of `parts` >= 1 integers >= 2 summing to total: the colorings of
    the s2-cycles, with total |C(s1)| + |C(s2)|."""
    if parts == 1:
        if total >= 2:
            yield (total,)
        return
    for first in range(2, total - 2 * (parts - 1) + 1):
        for rest in _compositions_fixed(total - first, parts - 1):
            yield (first,) + rest


def _candidate_patterns(k: int) -> Iterator[tuple[int, tuple[int, ...], int, Iterator]]:
    """(m2, masks, multiplicity, colorings) for each factorization pattern
    of the canonical k-cycle with m1 >= m2, before the marriage filter."""
    for (m2, masks), mult in perms.factorization_patterns(perms.canonical_cycle(k)).items():
        m1 = len(masks)
        if m1 >= m2:
            yield m2, masks, mult, _compositions_fixed(m1 + m2, m2)


@lru_cache(maxsize=CACHE_SIZE)
def kerov_polynomial_by_counting(k: int) -> RatPoly:
    """K_k with Sigma_k = K_k(R_2, R_3, ...): each pair and coloring passing
    the marriage condition adds 1 to the coefficient of prod_i R_i^{s_i},
    where s_i is the number of s2-cycles colored i; the count adds each
    pattern's multiplicity at once."""
    if k < 1:
        raise ValueError("k must be >= 1")
    terms: Counter = Counter()
    for m2, masks, mult, colorings in _candidate_patterns(k):
        counts = perms._subset_counts(masks, m2)
        for colors in colorings:
            if _strict_hall(counts, colors):
                mono = tuple((("R", c), e) for c, e in sorted(Counter(colors).items()))
                terms[mono] += mult
    return RatPoly._from_canonical({m: Fraction(c) for m, c in terms.items()})


@lru_cache(maxsize=CACHE_SIZE)
def s_in_terms_of_r(k_max: int) -> Mapping[int, RatPoly]:
    """S_j as a polynomial in R_2..R_j for 2 <= j <= k_max, by the closed
    form that Lagrange inversion gives for the composition formula, one
    monomial per partition mu of j into parts >= 2:

        S_j = sum_mu (j-1)(j-2)...(j-l+1) / prod_i m_i! * R_mu,

    l the number of parts of mu and m_i the multiplicity of part i, the
    whole table from one walk over the multiplicities of R_2..R_k_max.  With
    functionals.r_in_terms_of_s it shares only the partition sum, not the
    coefficient, so composing the two checks one formula against its
    inverse.  The table is cached, so it is returned read-only.

    >>> print(s_in_terms_of_r(4)[4])
    R4 + 3/2*R2^2
    """
    from symchar import functionals

    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    return MappingProxyType(
        functionals._partition_sums("R", 2, k_max, lambda j, l: perm(j - 1, l - 1)))


def kerov_polynomial_by_conversion(k: int) -> RatPoly:
    """K_k obtained independently: substitute the S_j(R) inversion into the
    counting-generated J_k and expand."""
    from symchar import stanley

    jpoly = stanley.j_polynomial_by_counting(k)
    table = s_in_terms_of_r(k + 1)
    return jpoly.substitute({("S", j): poly for j, poly in table.items()})


def kerov_quadratic_derivative(k: int, j1: int, j2: int) -> int:
    """The mixed second derivative of K_k in R_{j1}, R_{j2} at zero, by a
    direct count: factorizations with |C(s2)| = 2 and |C(s1)| = j1 + j2 - 2,
    bijective labelings of the two s2-cycles, and for each s2-cycle at least
    j_label intersecting s1-cycles."""
    if j1 < 2 or j2 < 2:
        raise ValueError("j1, j2 must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    target_m1 = j1 + j2 - 2
    count = 0
    for (m2, masks), mult in perms.factorization_patterns(perms.canonical_cycle(k)).items():
        if m2 != 2 or len(masks) != target_m1:
            continue
        counts = perms._subset_counts(masks, 2)
        for ja, jb in ((j1, j2), (j2, j1)):
            if counts[1] >= ja and counts[2] >= jb:
                count += mult
    return count
