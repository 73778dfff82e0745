"""Character values on multirectangular diagrams as exact polynomials in the
block parameters p_i, q_i, coefficient-extraction identities, and generation
of the character polynomial J_k in the shape functionals S_j.

The central sum runs over factorizations s1 o s2 = pi: each coloring phi2 of
the s2-cycles by blocks 1..r induces phi1 on the s1-cycles by taking the
maximum phi2-color over intersecting s2-cycles, and contributes
sign(s1) * prod q_{phi1} * prod p_{phi2}.

This sum and the J_k count run as folds over one pass of
perms.factorization_patterns (122 tally keys, intersection patterns, at
k = 7, not k! pairs).  The sum counts the colorings of each pattern over a
frontier of states, so it costs patterns x frontier states, not r^m2
colorings.  J_k by extraction reads only terms of degree at most 1 in each
p_i, so it sums only the injective colorings; the count walks each
pattern's labelings as chains of sets of s2-cycles and drops a chain at the
first label that is the maximum of no s1-cycle.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, perm, prod
from typing import Sequence

from symchar import perms
from symchar.perms import Perm
from symchar.ratpoly import CACHE_SIZE, Mono, RatPoly, Var


def stanley_character_poly(pi: Perm, r: int) -> RatPoly:
    """The normalized character of pi on the r-block diagram p x q, fully
    expanded as an exact polynomial in p_1..p_r, q_1..q_r."""
    from symchar import functionals

    if r < 1:
        raise ValueError("need at least one block")
    return functionals._multirect_factorization_sum(pi, r)


def pq_bracket(poly: RatPoly, js: Sequence[int]) -> Fraction:
    """[p_1 q_1^{j_1 - 1} ... p_l q_l^{j_l - 1}] as an exact-monomial
    coefficient."""
    mono: dict[Var, int] = {}
    for slot, j in enumerate(js, 1):
        if j < 2:
            raise ValueError("indices must be >= 2")
        mono[("p", slot)] = 1
        mono[("q", slot)] = j - 1
    return poly.coefficient_of(mono)


def p_bracket(poly: RatPoly, indices: Sequence[int]) -> RatPoly:
    """[p_{i_1} ... p_{i_s}] with the q-variables kept: the sub-polynomial of
    terms whose p-part is exactly one power of each listed p-index.  The
    p-variables lead every canonical monomial, so such a term starts with
    that prefix and goes on with no other p; distinct terms keep distinct
    suffixes.  Most terms differ from the prefix in their first factor, so
    that factor is compared before the slice.  An index that is not an int
    (a bool included) raises TypeError."""
    for i in indices:
        if type(i) is not int:
            raise TypeError(f"indices must be ints, got {type(i).__name__}")
    order = sorted(indices)
    if len(set(order)) != len(order):
        raise ValueError("indices must be distinct")
    if order and order[0] < 1:
        raise ValueError("indices must be >= 1")
    prefix = tuple((("p", i), 1) for i in order)
    n, head = len(prefix), prefix[0] if prefix else None
    return RatPoly._from_canonical({
        mono[n:]: coeff for mono, coeff in poly.terms()
        if (head is None or mono and mono[0] == head) and mono[:n] == prefix
        and (len(mono) == n or mono[n][0][0] != "p")})


def check_s_coefficient_formula(k: int, indices: Sequence[int]) -> bool:
    """True iff, with p treated as variables and q as constants,

        [p_{i_1} ... p_{i_s}] S_k = (-1)^{s-1} (k-1)(k-2)...(k-s+1) q_{i_s}^{k-s}

    for 1 <= s <= k - 1, and 0 otherwise.  The left side is extracted from
    the symbolic multirectangular S_k and compared as a polynomial in q.
    """
    from symchar import functionals

    indices = tuple(indices)
    if not indices or list(indices) != sorted(set(indices)):
        raise ValueError("indices must be strictly increasing")
    if indices[0] < 1:
        raise ValueError("indices must be >= 1")
    s = len(indices)
    r = indices[-1]
    got = p_bracket(functionals.s_functional_multirect_symbolic(r, k), indices)
    if 1 <= s <= k - 1:
        coeff = Fraction((-1) ** (s - 1) * perm(k - 1, s - 1))
        expected = RatPoly.variable(("q", indices[-1])) ** (k - s) * coeff
    else:
        expected = RatPoly.zero()
    return got == expected


def j_monomial_multisets(k: int) -> list[tuple[int, ...]]:
    """Sorted multisets (j_1 <= ... <= j_l), j_i >= 2, that can index a
    monomial of J_k: the total S-weight sum(j_i) is at most k + 1.  Listed
    in lexicographic order."""
    from symchar import diagrams

    return sorted(mu[::-1] for n in range(2, k + 2) for mu in diagrams.partitions(n)
                  if mu[-1] >= 2)


@lru_cache(maxsize=CACHE_SIZE)
def j_polynomial_by_counting(k: int) -> RatPoly:
    """J_k with Sigma_k = J_k(S_2, S_3, ...), generated by counting triples
    (s1, s2, labeling).

    For each factorization s1 o s2 = (1..k) and bijective labeling of the
    s2-cycles by 1..l, every s1-cycle is assigned the maximum label over the
    s2-cycles it intersects; a triple whose label-i count is j_i - 1 for all
    i contributes to the iterated derivative of J_k with respect to
    S_{j_1}..S_{j_l}, with global sign (-1)^{l-1}.

    A labeling is read from the top label down as a chain of sets of
    s2-cycles: the s2-cycle j added to the set V of higher labels takes a
    label that is the maximum of N(V + {j}) - N(V) s1-cycles, N the subset
    counts of perms._subset_counts, and a branch stops where that count is
    0, as every labeling through it leaves a label the maximum of none.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    by_multiset: Counter = Counter()
    for (m2, masks), mult in perms.factorization_patterns(perms.canonical_cycle(k)).items():
        if len(masks) < m2:
            continue  # some label would be the maximum of no s1-cycle
        counts, full = perms._subset_counts(masks, m2), (1 << m2) - 1
        chains = [(0, ())]
        while chains:
            v, parts = chains.pop()
            if v == full:
                by_multiset[tuple(sorted(parts))] += mult
                continue
            for j in range(m2):
                w = v | 1 << j
                if counts[w] != counts[v]:  # also skips j already in v
                    chains.append((w, parts + (counts[w] - counts[v] + 1,)))
    terms: dict[Mono, Fraction] = {}
    for key, total in by_multiset.items():
        mono = tuple((("S", j), e) for j, e in sorted(Counter(key).items()))
        terms[mono] = Fraction((-1) ** (len(key) - 1) * total, factorial(len(key)))
    return RatPoly._from_canonical(terms)


def j_polynomial_via_stanley(k: int) -> RatPoly:
    """J_k reconstructed from coefficient extraction on the character's
    multirectangular polynomial, an independent route to the same object.
    The polynomial has one block per S-factor of the longest monomial, and
    only its p-multilinear part is built, from the colorings that give each
    s2-cycle its own block, as pq_bracket reads only terms of degree 1 in
    each of p_1..p_l: at k = 9, 1,211 of the full polynomial's 13,596 terms,
    for 41 brackets."""
    from symchar import functionals

    if k < 1:
        raise ValueError("k must be >= 1")
    multisets = j_monomial_multisets(k)
    poly = functionals._multirect_factorization_sum(
        perms.canonical_cycle(k), max(map(len, multisets)), multilinear=True)
    terms: dict[Mono, Fraction] = {}
    for ms in multisets:
        deriv = pq_bracket(poly, ms)
        if not deriv:
            continue
        mults = Counter(ms)
        mono = tuple((("S", j), e) for j, e in sorted(mults.items()))
        terms[mono] = deriv / prod(map(factorial, mults.values()))
    return RatPoly._from_canonical(terms)
