"""Character values on multirectangular diagrams as exact polynomials in the
block parameters p_i, q_i, coefficient-extraction identities, and generation
of the character polynomial J_k in the shape functionals S_j.

The central sum runs over factorizations s1 o s2 = pi: each coloring phi2 of
the s2-cycles by blocks 1..r induces phi1 on the s1-cycles by taking the
maximum phi2-color over intersecting s2-cycles, and contributes
sign(s1) * prod q_{phi1} * prod p_{phi2}.

This sum and the J_k count run as folds over one pass of
perms.factorization_patterns, so after that pass their cost scales with the
number of distinct intersection patterns (100 at k = 7), not with the k!
pairs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as iterperms
from math import factorial, perm, prod
from typing import Sequence

from symchar import perms
from symchar.diagrams import partitions
from symchar.functionals import (_multirect_factorization_sum, _owner_lists,
                                 s_functional_multirect_symbolic)
from symchar.perms import Perm
from symchar.ratpoly import CACHE_SIZE, Mono, RatPoly, Var, _collect


def stanley_character_poly(pi: Perm, r: int) -> RatPoly:
    """The normalized character of pi on the r-block diagram p x q, fully
    expanded as an exact polynomial in p_1..p_r, q_1..q_r."""
    if r < 1:
        raise ValueError("need at least one block")
    return _multirect_factorization_sum(pi, r)


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


def derivative_via_stanley(poly: RatPoly, js: Sequence[int], r: int) -> Fraction:
    """Iterated S-derivative at zero read off as the coefficient of
    p_1 q_1^{j_1-1} ... p_l q_l^{j_l-1}; needs r >= l blocks."""
    if r < len(js):
        raise ValueError(f"need at least {len(js)} blocks, polynomial built with {r}")
    return pq_bracket(poly, js)


def p_bracket(poly: RatPoly, indices: Sequence[int]) -> RatPoly:
    """[p_{i_1} ... p_{i_s}] with the q-variables kept: the sub-polynomial of
    terms whose p-part is exactly one power of each listed p-index."""
    wanted = {("p", i) for i in indices}
    if len(wanted) != len(indices):
        raise ValueError("indices must be distinct")
    pairs = []
    for mono, coeff in poly.terms():
        p_part = {v: e for v, e in mono if v[0] == "p"}
        if set(p_part) != wanted or any(e != 1 for e in p_part.values()):
            continue
        pairs.append((tuple((v, e) for v, e in mono if v[0] != "p"), coeff))
    return RatPoly._from_canonical(_collect(pairs))


def check_s_coefficient_formula(k: int, indices: Sequence[int],
                               q_values: Sequence[object] | None = None) -> bool:
    """True iff, with p treated as variables and q as constants,

        [p_{i_1} ... p_{i_s}] S_k = (-1)^{s-1} (k-1)(k-2)...(k-s+1) q_{i_s}^{k-s}

    for 1 <= s <= k - 1, and 0 otherwise.  The left side is extracted from
    the symbolic multirectangular S_k; the comparison is polynomial in q
    unless concrete q_values are supplied.
    """
    indices = tuple(indices)
    if not indices or list(indices) != sorted(set(indices)):
        raise ValueError("indices must be strictly increasing")
    s = len(indices)
    r = indices[-1]
    got = p_bracket(s_functional_multirect_symbolic(r, k), indices)
    if 1 <= s <= k - 1:
        coeff = Fraction((-1) ** (s - 1) * perm(k - 1, s - 1))
        expected = RatPoly.variable(("q", indices[-1])) ** (k - s) * coeff
    else:
        expected = RatPoly.zero()
    if q_values is None:
        return got == expected
    assignment = {("q", i): v for i, v in enumerate(q_values, 1)}
    return got.evaluate(assignment) == expected.evaluate(assignment)


def check_bracket_identity(poly: RatPoly, j1: int, j2: int) -> bool:
    """True iff (j1+j2-1) [p_1 q_1^{j1+j2-1}] F = -[p_1 p_2 q_2^{j1+j2-2}] F
    holds exactly for the given multirectangular polynomial."""
    if j1 < 2 or j2 < 2:
        raise ValueError("j1, j2 must be >= 2")
    m = j1 + j2
    lhs = (m - 1) * poly.coefficient_of({("p", 1): 1, ("q", 1): m - 1})
    rhs = -poly.coefficient_of({("p", 1): 1, ("p", 2): 1, ("q", 2): m - 2})
    return lhs == rhs


def j_monomial_multisets(k: int) -> list[tuple[int, ...]]:
    """Sorted multisets (j_1 <= ... <= j_l), j_i >= 2, that can index a
    monomial of J_k: the total S-weight sum(j_i) is at most k + 1.  Listed
    in lexicographic order."""
    return sorted(mu[::-1] for n in range(2, k + 2) for mu in partitions(n) if mu[-1] >= 2)


@lru_cache(maxsize=CACHE_SIZE)
def j_polynomial_by_counting(k: int) -> RatPoly:
    """J_k with Sigma_k = J_k(S_2, S_3, ...), generated by counting triples
    (s1, s2, labeling).

    For each factorization s1 o s2 = (1..k) and bijective labeling of the
    s2-cycles by 1..l, every s1-cycle is assigned the maximum label over the
    s2-cycles it intersects; a triple whose label-i count is j_i - 1 for all
    i contributes to the iterated derivative of J_k with respect to
    S_{j_1}..S_{j_l}, with global sign (-1)^{l-1}.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    by_multiset: Counter = Counter()
    for (m2, masks), mult in perms.factorization_patterns(perms.canonical_cycle(k)).items():
        if len(masks) < m2:
            continue  # some label would be the maximum of no s1-cycle
        adj = _owner_lists(m2, masks)
        for labeling in iterperms(range(1, m2 + 1)):
            counts = [0] * m2
            for a in adj:
                counts[max([labeling[j] for j in a]) - 1] += 1
            if 0 not in counts:
                by_multiset[tuple(sorted(c + 1 for c in counts))] += mult
    terms: dict[Mono, Fraction] = {}
    for key, total in by_multiset.items():
        mono = tuple((("S", j), e) for j, e in sorted(Counter(key).items()))
        terms[mono] = Fraction((-1) ** (len(key) - 1) * total, factorial(len(key)))
    return RatPoly._from_canonical(terms)


def j_polynomial_via_stanley(k: int, r: int | None = None) -> RatPoly:
    """J_k reconstructed from coefficient extraction on the character's
    multirectangular polynomial, an independent route to the same object."""
    multisets = j_monomial_multisets(k)
    l_max = max(len(m) for m in multisets)
    if r is None:
        r = l_max
    poly = stanley_character_poly(perms.canonical_cycle(k), r)
    terms: dict[Mono, Fraction] = {}
    for ms in multisets:
        deriv = derivative_via_stanley(poly, ms, r)
        if not deriv:
            continue
        mults = Counter(ms)
        mono = tuple((("S", j), e) for j, e in sorted(mults.items()))
        terms[mono] = deriv / prod(map(factorial, mults.values()))
    return RatPoly._from_canonical(terms)
