"""Kerov character polynomials K_k in the free cumulants R_2, R_3, ...

K_k is generated by enumerating factorizations s1 o s2 = (1..k) together
with colorings of the s2-cycles by colors >= 2 whose total matches
|C(s1)| + |C(s2)|, filtered by a strict Hall-type marriage condition.  Two
independent cross-checks are provided: basis conversion from J_k via the
Lagrange-inversion closed form of S_j(R), and a direct count for the
quadratic derivatives.

Both counts run as folds over one pass of perms.factorization_patterns, so
after that pass their cost scales with the number of distinct intersection
patterns (1,046 at k = 9), not with the k! pairs.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from math import factorial, perm
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from symchar import perms
from symchar.diagrams import _Record
from symchar.functionals import _partition_sum
from symchar.perms import Perm
from symchar.ratpoly import CACHE_SIZE, RatPoly
from symchar.stanley import j_polynomial_by_counting


class KerovTriple(_Record):
    """A factorization of the canonical cycle plus a coloring of the
    s2-cycles; colors[i] >= 2 belongs to the i-th cycle of cycles(sigma2)
    and the color total equals |C(sigma1)| + |C(sigma2)|."""

    __slots__ = ("sigma1", "sigma2", "colors")
    sigma1: Perm
    sigma2: Perm
    colors: tuple[int, ...]

    def __init__(self, sigma1: Perm, sigma2: Perm, colors: tuple[int, ...]):
        k = len(sigma1)
        if perms.compose(sigma1, sigma2) != perms.canonical_cycle(k):
            raise ValueError("sigma1 o sigma2 must be the canonical cycle")
        c1 = perms.cycles(sigma1)
        c2 = perms.cycles(sigma2)
        if len(colors) != len(c2):
            raise ValueError("one color per sigma2-cycle required")
        if any(c < 2 for c in colors):
            raise ValueError("colors must be >= 2")
        if sum(colors) != len(c1) + len(c2):
            raise ValueError("color total must equal the total cycle count")
        self._set(sigma1=sigma1, sigma2=sigma2, colors=colors)


def _subset_counts(masks: Sequence[int], m2: int) -> list[int]:
    """counts[A] = number of s1-cycles (given by their masks) meeting the
    union of the s2-cycles in subset A, for every subset bitmask A."""
    return [sum(1 for m in masks if m & a) for a in range(1 << m2)]


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


def marriage_condition(t: KerovTriple) -> bool:
    """The strict subset condition, checked over all 2^m - 2 nontrivial
    subsets of s2-cycles."""
    c2 = perms.cycles(t.sigma2)
    masks = [sum(1 << j for j, c in enumerate(c2) if perms.cycles_intersect(cyc, c))
             for cyc in perms.cycles(t.sigma1)]
    return _strict_hall(_subset_counts(masks, len(c2)), t.colors)


def _max_flow(cap: dict[tuple, Fraction], source, sink):
    """Exact max flow by shortest augmenting paths on rational capacities;
    returns (value, residual capacities)."""
    residual: dict[tuple, Fraction] = dict(cap)
    adj: dict[object, set] = {}
    for u, v in cap:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
        residual.setdefault((v, u), Fraction(0))
    total = Fraction(0)
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in parent and residual.get((u, v), 0) > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return total, residual
        bottleneck = None
        v = sink
        while parent[v] is not None:
            u = parent[v]
            r = residual[(u, v)]
            bottleneck = r if bottleneck is None else min(bottleneck, r)
            v = u
        v = sink
        while parent[v] is not None:
            u = parent[v]
            residual[(u, v)] -= bottleneck
            residual[(v, u)] += bottleneck
            v = u
        total += bottleneck


def _flow_with_forced_arc(arcs, m1, demands, forced, eps):
    """Row sums 1, column sums demands, arc `forced` carrying at least eps;
    returns the arc flows or None if infeasible."""
    cap: dict[tuple, Fraction] = {}
    for i in range(m1):
        cap[("src", ("B", i))] = Fraction(1)
    for j, d in enumerate(demands):
        cap[(("G", j), "snk")] = Fraction(d)
    big = Fraction(m1 + 1)
    for i, j in arcs:
        cap[(("B", i), ("G", j))] = big
    fi, fj = forced
    cap[("src", ("B", fi))] -= eps
    cap[(("G", fj), "snk")] -= eps
    if cap[("src", ("B", fi))] < 0 or cap[(("G", fj), "snk")] < 0:
        return None
    value, residual = _max_flow(cap, "src", "snk")
    if value != Fraction(m1) - eps:
        return None
    flows = {}
    for i, j in arcs:
        sent = residual.get((("G", j), ("B", i)), Fraction(0))
        flows[(i, j)] = sent + (eps if (i, j) == forced else Fraction(0))
    return flows


def marriage_condition_flow(t: KerovTriple) -> bool:
    """Transportation reformulation: True iff the system

        sum_j x_{i,j} = 1 for each s1-cycle i,
        sum_i x_{i,j} = colors[j] - 1 for each s2-cycle j,

    over arcs of intersecting cycles admits a strictly positive rational
    solution.  Each arc is tested with a forced flow of 1/(k+1)!; convex
    averaging of the per-arc witnesses then gives a strictly positive
    solution, so the check is equivalent to strict feasibility."""
    c1 = perms.cycles(t.sigma1)
    c2 = perms.cycles(t.sigma2)
    k = len(t.sigma1)
    m1 = len(c1)
    sets2 = [set(c) for c in c2]
    arcs = [(i, j) for i, cyc in enumerate(c1) for j in range(len(c2))
            if not sets2[j].isdisjoint(cyc)]
    demands = [c - 1 for c in t.colors]
    eps = Fraction(1, factorial(k + 1))
    witnesses = []
    for arc in arcs:
        flows = _flow_with_forced_arc(arcs, m1, demands, arc, eps)
        if flows is None:
            return False
        witnesses.append(flows)
    avg = {arc: sum((w[arc] for w in witnesses), Fraction(0)) / len(witnesses)
           for arc in arcs}
    if not all(x > 0 for x in avg.values()):
        raise ArithmeticError("averaged flow is not strictly positive")
    for i in range(m1):
        if sum((avg[a] for a in arcs if a[0] == i), Fraction(0)) != 1:
            raise ArithmeticError(f"averaged flow leaves s1-cycle {i} unbalanced")
    for j, d in enumerate(demands):
        if sum((avg[a] for a in arcs if a[1] == j), Fraction(0)) != d:
            raise ArithmeticError(f"averaged flow misses the demand of s2-cycle {j}")
    return True


def _compositions_fixed(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Tuples of `parts` integers >= 2 summing to total: the colorings of
    the s2-cycles, with total |C(s1)| + |C(s2)|."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 2:
            yield (total,)
        return
    for first in range(2, total - 2 * (parts - 1) + 1):
        for rest in _compositions_fixed(total - first, parts - 1):
            yield (first,) + rest


def candidate_triples(k: int) -> Iterator[KerovTriple]:
    """All triples meeting the factorization and degree conditions, before
    the marriage filter."""
    for s1, s2 in perms.factorizations_of_cycle(k):
        m1 = perms.cycle_count(s1)
        m2 = perms.cycle_count(s2)
        if m1 < m2:
            continue
        for colors in _compositions_fixed(m1 + m2, m2):
            yield KerovTriple(s1, s2, colors)


@lru_cache(maxsize=CACHE_SIZE)
def kerov_polynomial_by_counting(k: int) -> RatPoly:
    """K_k with Sigma_k = K_k(R_2, R_3, ...): each triple passing the
    marriage condition adds 1 to the coefficient of prod_i R_i^{s_i}, where
    s_i is the number of s2-cycles colored i.  The marriage condition sees a
    pair only through its intersection pattern, so the count folds over
    perms.factorization_patterns."""
    if k < 1:
        raise ValueError("k must be >= 1")
    terms: Counter = Counter()
    for (m2, masks), mult in perms.factorization_patterns(perms.canonical_cycle(k)).items():
        m1 = len(masks)
        if m1 < m2:
            continue
        counts = _subset_counts(masks, m2)
        for colors in _compositions_fixed(m1 + m2, m2):
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

    l the number of parts of mu and m_i the multiplicity of part i.  With
    functionals.r_in_terms_of_s it shares only the partition sum, not the
    coefficient, so composing the two checks one formula against its
    inverse.  The table is cached, so it is returned read-only.

    >>> print(s_in_terms_of_r(4)[4])
    R4 + 3/2*R2^2
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    return MappingProxyType({j: _partition_sum("R", j, lambda l: perm(j - 1, l - 1))
                             for j in range(2, k_max + 1)})


def kerov_polynomial_by_conversion(k: int) -> RatPoly:
    """K_k obtained independently: substitute the S_j(R) inversion into the
    counting-generated J_k and expand."""
    jpoly = j_polynomial_by_counting(k)
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
        hits = [sum(1 for m in masks if m >> j & 1) for j in (0, 1)]
        for ja, jb in ((j1, j2), (j2, j1)):
            if hits[0] >= ja and hits[1] >= jb:
                count += mult
    return count
