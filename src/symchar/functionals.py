"""Shape functionals S_k and free cumulants R_k of Young diagrams, each
available through several independent computation routes.

S_k is (k-1) times the integral of contents^{k-2} over the diagram; it can
be evaluated by box integrals grouped by content, from shifted Frobenius
coordinates in doubled integers, or symbolically on a multirectangular
diagram.  R_k is obtained from the exact S-values by truncated power-series
composition over integers (one kernel serves one R_k and the whole table),
as the leading coefficient of the dilated normalized character (a k-th
finite difference), or by the minimal-factorization sum on multirectangular
diagrams.  Symbolically, R_k in the S_j is the closed composition formula,
one monomial per partition of k into parts >= 2; its inverse,
kerov.s_in_terms_of_r, is the same partition sum with another coefficient.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from itertools import product as iproduct
from math import comb, factorial, lcm, prod
from typing import Callable, Iterator, Mapping, Sequence

from symchar import perms
from symchar.charoracle import normalized_character
from symchar.diagrams import (FrobeniusCoords, MultiRect, Partition, check_partition, dilate,
                              partitions)
from symchar.ratpoly import CACHE_SIZE, RatPoly, _as_fraction


def s_functional_boxes(rows: Partition, k: int) -> Fraction:
    """S_k by exact box integrals of contents^{k-2}, grouped by content: a box
    of content d contributes ((d+1)^k - 2 d^k + (d-1)^k) / k to S_k."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return s_vector(rows, k)[k]


def s_functional_frobenius(fc: FrobeniusCoords, k: int) -> Fraction:
    """S_k = sum_i integral_{-1/2}^{1/2} (A_i+z)^{k-1} - (-B_i-z)^{k-1} dz,
    in doubled integers: k 2^k S_k = sum_i (u_i+1)^k - (u_i-1)^k + (-v_i-1)^k -
    (-v_i+1)^k for u_i = 2 A_i, v_i = 2 B_i, summed over the integers Q u_i +- Q,
    Q v_i +- Q and divided by Q^k, Q the common denominator of the coordinates."""
    if k < 2:
        raise ValueError("k must be >= 2")
    den = lcm(*(x.denominator for x in fc.A + fc.B))
    u = [2 * x.numerator * (den // x.denominator) for x in fc.A + fc.B]
    total = sum((x + den) ** k - (x - den) ** k for x in u[:len(fc.A)])
    total += sum((-x - den) ** k - (den - x) ** k for x in u[len(fc.A):])
    return Fraction(total, k * (2 * den) ** k)


@lru_cache(maxsize=CACHE_SIZE)
def s_functional_multirect_symbolic(r: int, k: int) -> RatPoly:
    """S_k of the r-block diagram p x q as an exact polynomial in the p_i, q_i.

    The integral over block i (x in [0, q_i], y in [Y_{i-1}, Y_i] with
    Y_i = p_1 + ... + p_i) has the closed corner form
    [(q_i-Y_{i-1})^k - (q_i-Y_i)^k - (-Y_{i-1})^k + (-Y_i)^k] / k.  Summed
    over the blocks, the (-Y)^k terms telescope to (-Y_r)^k, which cancels
    the q-free parts of the others, so

        k S_k = sum_i sum_{a=1}^{k-1} C(k,a) (-1)^(a+1) q_i^(k-a) (Y_i^a - Y_{i-1}^a).

    By the multinomial theorem, Y_i^a - Y_{i-1}^a is the sum of
    multinomial(a; e) p^e over exponent vectors e of p_1..p_i with |e| = a
    and e_i >= 1.  Each (i, e) owns one monomial, so every coefficient is
    written down directly, without polynomial products.
    """
    if r < 1:
        raise ValueError("need at least one block")
    if k < 2:
        raise ValueError("k must be >= 2")
    terms = {}
    for i in range(1, r + 1):
        for a in range(1, k):
            scale = (-1) ** (a + 1) * comb(k, a) * factorial(a)
            for rest in combinations_with_replacement(range(1, i + 1), a - 1):
                e = Counter(rest + (i,))
                mono = tuple((("p", j), x) for j, x in sorted(e.items())) + ((("q", i), k - a),)
                terms[mono] = Fraction(scale // prod(map(factorial, e.values())), k)
    return RatPoly._from_canonical(terms)


def s_functional_multirect(m: MultiRect, k: int) -> Fraction:
    """S_k of a concrete multirectangle from the corner form of
    s_functional_multirect_symbolic, k S_k = (-Y_r)^k +
    sum_i (q_i-Y_{i-1})^k - (q_i-Y_i)^k, in the integers D q_i and D Y_i over
    D^k, D the common denominator of the p_i and q_i: O(r) powers, no
    polynomial."""
    if k < 2:
        raise ValueError("k must be >= 2")
    den = lcm(*(x.denominator for x in m.p + m.q))
    y = total = 0
    for p, q in zip(m.p, m.q):
        width = q.numerator * (den // q.denominator)
        total += (width - y) ** k
        y += p.numerator * (den // p.denominator)
        total -= (width - y) ** k
    return Fraction(total + (-y) ** k, k * den ** k)


def s_vector(diagram: Partition | MultiRect, k_max: int) -> dict[int, Fraction]:
    """S_k for 2 <= k <= k_max as a map: s_functional_multirect on a
    non-integral MultiRect, else the sum of s_functional_boxes over one tally
    of boxes per content (row i holds 1-i .. lam_i-i), d^k stepped in k."""
    if isinstance(diagram, MultiRect):
        if not diagram.is_integral():
            return {k: s_functional_multirect(diagram, k) for k in range(2, k_max + 1)}
        diagram = diagram.to_partition()
    tally = Counter()
    for i, r in enumerate(check_partition(diagram), 1):
        tally.update(range(1 - i, r + 1 - i))
    powers = {d: d * d for d in range(min(tally, default=0) - 1, max(tally, default=0) + 2)}
    out = {}
    for k in range(2, k_max + 1):
        out[k] = Fraction(sum(m * (powers[d + 1] - 2 * powers[d] + powers[d - 1])
                              for d, m in tally.items()), k)
        powers = {d: p * d for d, p in powers.items()}
    return out


def _scaled_powers(s_values: Mapping[int, object], n: int) -> Iterator:
    """Yield D, the lcm of the denominators of S_2..S_n, then for l = 1 ..
    n // 2 the integer coefficients c[d] = [z^d] (sum_j D S_j z^j)^l for
    d = 0..n, zero below 2l.  Every value goes through _as_fraction, so a
    float or RatPoly raises TypeError."""
    for j in range(2, n + 1):
        if j not in s_values:
            raise KeyError(f"missing S_{j} value")
    vals = [_as_fraction(s_values[j]) for j in range(2, n + 1)]
    den = lcm(*(x.denominator for x in vals))
    yield den
    ints = [0, 0] + [x.numerator * (den // x.denominator) for x in vals]
    power = ints
    for l in range(1, n // 2 + 1):
        yield power
        power = [0] * (2 * l + 2) + [sum(power[e] * ints[d - e] for e in range(2 * l, d - 1))
                                     for d in range(2 * l + 2, n + 1)]


def free_cumulant_from_s(s_values: Mapping[int, object], k: int) -> Fraction:
    """R_k from the exact S-values by the composition sum

        R_k = sum_{l>=1} (1/l!) (1-k)^{l-1} [z^k] S(z)^l,  S(z) = sum_{j>=2} S_j z^j,

    where [z^k] S(z)^l sums S_{j_1} ... S_{j_l} over ordered tuples
    j_1+...+j_l = k of parts >= 2, read off the truncated powers of S(z) in
    O(k^3) products.  With D the lcm of the denominators, [z^k] S(z)^l =
    c_l / D^l for the integers c_l of _scaled_powers, summed over one
    denominator L! D^L, L = k // 2.  S_{k-1} is never read: a part k - 1
    would leave 1 for the others.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    powers = _scaled_powers({**s_values, k - 1: 0}, k)
    den, top = next(powers), k // 2
    total = sum((1 - k) ** (l - 1) * (factorial(top) // factorial(l)) * den ** (top - l) * c[k]
                for l, c in enumerate(powers, 1))
    return Fraction(total, factorial(top) * den ** top)


def _partition_sum(family: str, n: int, coeff: Callable[[int], int]) -> RatPoly:
    """sum_mu coeff(l) / prod_i m_i! * x_mu over the partitions mu of n into
    parts >= 2, x the variables of `family`, l the number of parts of mu and
    m_i the multiplicity of part i: one monomial per partition."""
    terms = {}
    for mu in partitions(n):
        if mu[-1] >= 2:
            mult = Counter(mu)
            mono = tuple(((family, j), m) for j, m in sorted(mult.items()))
            terms[mono] = Fraction(coeff(len(mu)), prod(map(factorial, mult.values())))
    return RatPoly._from_canonical(terms)


@lru_cache(maxsize=CACHE_SIZE)
def r_in_terms_of_s(k: int) -> RatPoly:
    """R_k as an exact polynomial in the variables S_2 .. S_k, written down
    one monomial per partition mu of k into parts >= 2:

        R_k = sum_mu (1-k)^(l-1) / prod_i m_i! * S_mu,

    l the number of parts of mu and m_i the multiplicity of part i.  It is
    the composition sum of free_cumulant_from_s with the l! / prod_i m_i!
    orderings of mu in [z^k] S(z)^l gathered into one term.

    >>> print(r_in_terms_of_s(4))
    S4 - 3/2*S2^2
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    return _partition_sum("S", k, lambda l: (1 - k) ** (l - 1))


def r_vector_from_s(s_values: Mapping[int, object], k_max: int) -> dict[int, Fraction]:
    """R_k for 2 <= k <= k_max from the exact S-values S_2..S_k_max, by the
    sum of free_cumulant_from_s over one set of truncated powers of S(z):
    with the integer coefficients c_(l,d) of _scaled_powers for d <= k_max,
    R_k = sum_l (1-k)^(l-1) c_(l,k) / (l! D^l) over the one denominator
    L! D^L, L = k_max // 2.  That is O(k_max^3) products in all, where
    calling free_cumulant_from_s for each k costs O(k_max^4)."""
    if k_max < 2:
        return {}
    powers = _scaled_powers(s_values, k_max)
    den, top = next(powers), k_max // 2
    acc = [0] * (k_max + 1)
    for l, c in enumerate(powers, 1):
        weight = factorial(top) // factorial(l) * den ** (top - l)
        for k in range(2 * l, k_max + 1):
            acc[k] += (1 - k) ** (l - 1) * weight * c[k]
    return {k: Fraction(acc[k], factorial(top) * den ** top) for k in range(2, k_max + 1)}


def r_vector(rows: Partition, k_max: int) -> dict[int, Fraction]:
    """R_k for 2 <= k <= k_max, computed from the S-values."""
    return r_vector_from_s(s_vector(rows, k_max), k_max)


def free_cumulant_by_interpolation(rows: Partition, k: int) -> Fraction:
    """R_k as the coefficient of s^k in s -> Sigma_{k-1} of the s-dilated
    diagram, a polynomial of degree k: the leading coefficient of its
    interpolant at the nodes s = 0..k (s = 0 is the empty diagram, where the
    normalized character vanishes), read as the k-th finite difference

        R_k = sum_{s=0..k} (-1)^(k-s) C(k,s) Sigma_{k-1}(s.rows) / k!.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    rows = check_partition(rows)
    values = [normalized_character(dilate(rows, s), k - 1) for s in range(1, k + 1)]
    den = lcm(*(v.denominator for v in values))
    total = sum((-1) ** (k - s) * comb(k, s) * v.numerator * (den // v.denominator)
                for s, v in enumerate(values, 1))
    return Fraction(total, factorial(k) * den)


def _owner_lists(m2: int, masks: Sequence[int]) -> list[list[int]]:
    """For each s1-cycle of a pattern (m2, masks) of
    perms.factorization_patterns, the s2-cycles it meets, in increasing order."""
    return [[j for j in range(m2) if mask >> j & 1] for mask in masks]


def _multirect_factorization_sum(pi: perms.Perm, r: int,
                                 cycle_total: int | None = None) -> RatPoly:
    """Sum over factorizations s1 o s2 = pi, only those with
    |C(s1)| + |C(s2)| = cycle_total when it is given, and over colorings
    phi2 of the s2-cycles by blocks 1..r, of sign(s1) prod_j p_{phi2(j)}
    prod_i q_{phi1(i)}, where phi1 gives each s1-cycle the largest phi2-color
    among the s2-cycles it meets.  Folds over perms.factorization_patterns."""
    names = [("p", i) for i in range(1, r + 1)] + [("q", i) for i in range(1, r + 1)]
    accum: Counter = Counter()
    for (m2, masks), mult in perms.factorization_patterns(pi).items():
        if cycle_total is not None and len(masks) + m2 != cycle_total:
            continue
        weight = mult if (len(pi) - len(masks)) % 2 == 0 else -mult
        adj = _owner_lists(m2, masks)
        for phi2 in iproduct(range(r), repeat=m2):
            exps = [0] * (2 * r)
            for color in phi2:
                exps[color] += 1
            for a in adj:
                exps[r + max([phi2[j] for j in a])] += 1
            accum[tuple(exps)] += weight
    return RatPoly._from_canonical({tuple((v, e) for v, e in zip(names, exps) if e): Fraction(c)
                                    for exps, c in accum.items() if c})


@lru_cache(maxsize=CACHE_SIZE)
def free_cumulant_multirect_symbolic(r: int, k: int) -> RatPoly:
    """R_k of the r-block diagram p x q by the minimal-factorization sum:
    pairs s1 o s2 = (1,...,k-1) in S(k-1) with |C(s1)| + |C(s2)| = k,
    colorings phi2 of the s2-cycles by blocks, sign(s1), q-factors attached
    to s1-cycles through the max rule and p-factors to s2-cycles."""
    if r < 1:
        raise ValueError("need at least one block")
    if k < 2:
        raise ValueError("k must be >= 2")
    return _multirect_factorization_sum(perms.canonical_cycle(k - 1), r, k)


def free_cumulant_multirect(m: MultiRect, k: int) -> Fraction:
    if not m.p:
        if k < 2:
            raise ValueError("k must be >= 2")
        return Fraction(0)
    return free_cumulant_multirect_symbolic(len(m.p), k).evaluate(m.assignment())
