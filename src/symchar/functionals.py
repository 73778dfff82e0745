"""Shape functionals S_k and free cumulants R_k of Young diagrams, each
available through several independent computation routes.

S_k is (k-1) times the integral of contents^{k-2} over the diagram: one power
sum over the minima and maxima of its profile (_profile), or over the Frobenius
half-shifts A_i +- 1/2, -B_i -+ 1/2, or symbolically on a multirectangle.
R_k comes from the exact S-values (the table by truncated power-series
composition, one R_k as one coefficient of an exponential, both in integers),
as the leading coefficient of the dilated normalized character (a k-th finite
difference), or by the minimal-factorization sum on multirectangular diagrams.
Symbolically, R_k in the S_j is the closed composition formula, one monomial
per partition of k into parts >= 2; its inverse, kerov.s_in_terms_of_r, is the
same partition sum with another coefficient.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Callable, Mapping, Sequence

from symchar import perms
from symchar.charoracle import normalized_character
from symchar.diagrams import FrobeniusCoords, MultiRect, Partition, check_partition, dilate
from symchar.ratpoly import CACHE_SIZE, Mono, RatPoly, Var, _as_fraction


def _profile(diagram: Partition | MultiRect) -> tuple[int, list[int], list[int]]:
    """(D, minima x, maxima y) of the profile, integers with k D^k S_k = sum x^k -
    sum y^k: the contents of a partition's addable and removable boxes (D = 1),
    or a MultiRect's corners D q_i - D Y_{i-1} and -D Y_r, and D q_i - D Y_i."""
    if isinstance(diagram, MultiRect):
        den = lcm(*(x.denominator for x in diagram.p + diagram.q))
        minima, maxima, y = [], [], 0
        for p, q in zip(diagram.p, diagram.q):
            width = q.numerator * (den // q.denominator)
            minima.append(width - y)
            y += p.numerator * (den // p.denominator)
            maxima.append(width - y)
        return den, minima + [-y], maxima
    rows = check_partition(diagram)
    return (1, [r - i for i, r in enumerate(rows) if not i or r < rows[i - 1]] + [-len(rows)],
            [r - i - 1 for i, r in enumerate(rows) if i == len(rows) - 1 or r > rows[i + 1]])


def _power_sum(den: int, xs: Sequence[int], ys: Sequence[int], k: int) -> Fraction:
    """S_k = (sum x^k - sum y^k) / (k den^k), from _profile or Frobenius bases."""
    if k < 2:
        raise ValueError("k must be >= 2")
    total = 0
    for x in xs:
        total += x ** k
    for y in ys:
        total -= y ** k
    return Fraction(total, k * den ** k)


def s_functional_boxes(rows: Partition, k: int) -> Fraction:
    """S_k of a partition, s_vector's k-th entry: the _power_sum of its _profile,
    the box integrals ((d+1)^k - 2 d^k + (d-1)^k) / k summed by parts."""
    return _power_sum(*_profile(rows), k)


_frobenius_memo: tuple = (None, 1, (), ())  # the FrobeniusCoords read last, its bases


def _frobenius_power_bases(fc: FrobeniusCoords) -> tuple[int, list[int], list[int]]:
    """(Q, added, subtracted): the half-shifts A_i +- 1/2 and -B_i -+ 1/2 of
    every coordinate as integers over one denominator Q, reduced by their gcd,
    whose k-th powers add up to k Q^k S_k.  A float or str raises TypeError."""
    ratios = [_as_fraction(x).as_integer_ratio() for x in fc.A + fc.B]
    den = lcm(*(d for _, d in ratios))
    twice = [2 * n * (den // d) for n, d in ratios]  # 2 A_i, then 2 B_i, times den
    a, b = twice[:len(fc.A)], twice[len(fc.A):]
    added = [x + den for x in a] + [-y - den for y in b]
    subtracted = [x - den for x in a] + [den - y for y in b]
    g = gcd(2 * den, *added, *subtracted)
    return 2 * den // g, [x // g for x in added], [x // g for x in subtracted]


def s_functional_frobenius(fc: FrobeniusCoords, k: int) -> Fraction:
    """S_k = sum_i integral_{-1/2}^{1/2} (A_i+z)^{k-1} - (-B_i-z)^{k-1} dz,
    so k S_k = sum_i (A_i+1/2)^k - (A_i-1/2)^k + (-B_i-1/2)^k - (-B_i+1/2)^k:
    the _power_sum of the half-shifts of _frobenius_power_bases over Q^k, as
    given, none cancelled against another (which would leave _profile's corners).

    The bases are kept in a one-entry memo keyed by the identity of `fc`, so
    the S_k of one FrobeniusCoords for several k read it once; one with list
    fields could change between calls, so it is read again on every call."""
    global _frobenius_memo
    memo = _frobenius_memo
    if memo[0] is not fc:
        memo = (fc, *_frobenius_power_bases(fc))
        if type(fc) is FrobeniusCoords and type(fc.A) is tuple and type(fc.B) is tuple:
            _frobenius_memo = memo
    return _power_sum(*memo[1:], k)


def _exponent_walk(variables: Sequence[Var], weights: Sequence[int],
                   top: int) -> list[tuple[Mono, int, int, int]]:
    """Every nonzero exponent vector e of `variables` (canonical order, weights
    never falling) with sum_i weights[i] e_i <= top, as (monomial, that weight,
    sum_i e_i, prod_i e_i!), each grown from its prefix with no sort or tally:
    the one-factor tuple ((var, e),) is built once per variable and exponent
    and every monomial that takes it shares it."""
    walk, live = [], [((), 0, 0, 1)]
    for var, w in zip(variables, weights):
        # a prefix with no room for w has none for the weights after it
        live = [state for state in live if state[1] + w <= top]
        factors = [((var, e),) for e in range(top // w + 1)]
        grown = []
        for mono, used, parts, fact in live:
            e, used = 1, used + w
            while used <= top:
                fact *= e
                grown.append((mono + factors[e], used, parts + e, fact))
                e += 1
                used += w
        walk += grown
        live += grown
    return walk


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
    and e_i >= 1.  So each nonzero e of p_1..p_r with |e| <= k - 1 owns one
    monomial, p^e q_i^(k-|e|) with i its last nonzero index, written down
    directly by one _exponent_walk, without polynomial products.
    """
    if r < 1:
        raise ValueError("need at least one block")
    if k < 2:
        raise ValueError("k must be >= 2")
    scale = [(-1) ** (a + 1) * comb(k, a) * factorial(a) for a in range(k)]
    q_factor = [[((("q", i), k - a),) for a in range(k)] for i in range(r + 1)]
    coeffs, terms = {}, {}
    for mono, a, _, fact in _exponent_walk([("p", i) for i in range(1, r + 1)], [1] * r, k - 1):
        num = scale[a] // fact
        coeff = coeffs.get(num)
        if coeff is None:  # each distinct coefficient is reduced once
            coeff = coeffs[num] = Fraction(num, k)
        terms[mono + q_factor[mono[-1][0][1]][a]] = coeff
    return RatPoly._from_canonical(terms)


def s_functional_multirect(m: MultiRect, k: int) -> Fraction:
    """S_k of a concrete multirectangle, the corner form of
    s_functional_multirect_symbolic: the _power_sum of its _profile."""
    return _power_sum(*_profile(m), k)


def s_vector(diagram: Partition | MultiRect, k_max: int) -> dict[int, Fraction]:
    """S_k for 2 <= k <= k_max of a partition or a MultiRect, the power sums
    of its _profile by running products: O(distinct parts) or O(r) per k."""
    den, minima, maxima = _profile(diagram)
    bases, powers, out = minima + maxima, minima + [-y for y in maxima], {}
    for k in range(2, k_max + 1):
        powers = list(map(mul, powers, bases))
        out[k] = Fraction(sum(powers), k * den ** k)
    return out


def _root(m: int, j: int) -> int:
    """The j-th root of m >= 1, rounded down: Newton's method in integers
    from a power of two above it, so no float is read."""
    r = 1 << -(-m.bit_length() // j)
    while (s := ((j - 1) * r + m // r ** (j - 1)) // j) < r:
        r = s
    return r


def _graded_base(ratios: Mapping[int, tuple[int, int]]) -> int:
    """The base c of the graded scaling of S_j by c^j, from S_j as a
    (numerator, denominator) for each j in increasing order, such that every
    c^j j S_j is an integer: 1 on a partition, where every j S_j is an
    integer, and 9973 on a 1/9973 grid, where j S_j is over 9973^j.

    Two such bases grow side by side.  At each j, each takes the part m of
    the denominator of j S_j that its j-th power lacks: the first all of m,
    the second the j-th root of m if m is an exact j-th power, else all of
    m.  Neither always divides the other, but a base serves iff each prime's
    exponent in it reaches e/j at every j, e that prime's exponent in the
    denominator of j S_j, so their gcd serves.  It divides the first, and
    with it the lcm of the denominators of the S_j."""
    c = least = 1
    for j, (_, den) in ratios.items():
        if j % den:
            den //= gcd(j, den)
            c *= den // gcd(den, c ** j)
            m = den // gcd(den, least ** j)
            if m >> j:  # a j-th power above 1 is at least 2^j
                r = _root(m, j)
                if r ** j == m:
                    m = r
            least *= m
    return gcd(c, least)


def free_cumulant_from_s(s_values: Mapping[int, object], k: int) -> Fraction:
    """R_k from the exact S-values S_2..S_k as one coefficient of an
    exponential, R_k = [z^k] (exp((1-k) S(z)) - 1) / (1-k): the composition
    sum of r_vector_from_s summed over l.  E' = (1-k) S' E reads the
    x_j = j S_j, and the series is graded, so with c = _graded_base, every
    c^j x_j is an integer (c = 1 on a partition) and the integers
    F_n = n! c^n E_n obey F_0 = 1, F_1 = 0 and
    F_n = sum_j (1-k) c^j x_j (n-1)!/(n-j)! F_{n-j}, and
    R_k = F_k / ((1-k) k! c^k): O(k^2) products.  S_{k-1} meets only
    F_1 = 0, so it is never read; a float or RatPoly value raises TypeError."""
    if k < 2:
        raise ValueError("k must be >= 2")
    parts = [j for j in range(2, k + 1) if j != k - 1]
    for j in parts:
        if j not in s_values:
            raise KeyError(f"missing S_{j} value")
    ratios = {j: _as_fraction(s_values[j]).as_integer_ratio() for j in parts}
    c = _graded_base(ratios)
    scaled = [0] * (k + 1)
    for j, (num, den) in ratios.items():
        scaled[j] = (1 - k) * j * num * c ** j // den
    f = [1, 0] + [0] * (k - 1)
    for n in parts:
        fall = 1  # (n-1)!/(n-j)!
        for j in range(2, n + 1):
            fall *= n - j + 1
            f[n] += scaled[j] * fall * f[n - j]
    return Fraction(f[k], (1 - k) * factorial(k) * c ** k)


def _partition_sums(family: str, low: int, top: int,
                    coeff: Callable[[int, int], int]) -> dict[int, RatPoly]:
    """For low <= n <= top, sum_mu coeff(n, l) / prod_i m_i! * x_mu over the
    partitions mu of n into parts >= 2, x the variables of `family`, l the
    number of parts of mu and m_i the multiplicity of part i: one monomial
    per partition, all from one _exponent_walk over x_2..x_top."""
    sums, coeffs = {n: {} for n in range(low, top + 1)}, {}
    for mono, n, l, fact in _exponent_walk([(family, j) for j in range(2, top + 1)],
                                           range(2, top + 1), top):
        if n >= low:
            key = (n, l, fact)
            value = coeffs.get(key)
            if value is None:  # each distinct coefficient is reduced once
                value = coeffs[key] = Fraction(coeff(n, l), fact)
            sums[n][mono] = value
    return {n: RatPoly._from_canonical(terms) for n, terms in sums.items()}


@lru_cache(maxsize=CACHE_SIZE)
def r_in_terms_of_s(k: int) -> RatPoly:
    """R_k as an exact polynomial in the variables S_2 .. S_k, written down
    one monomial per partition mu of k into parts >= 2:

        R_k = sum_mu (1-k)^(l-1) / prod_i m_i! * S_mu,

    l the number of parts of mu and m_i the multiplicity of part i.  It is
    the composition sum of r_vector_from_s with the l! / prod_i m_i!
    orderings of mu in [z^k] S(z)^l gathered into one term.

    >>> print(r_in_terms_of_s(4))
    S4 - 3/2*S2^2
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    return _partition_sums("S", k, k, lambda n, l: (1 - k) ** (l - 1))[k]


def r_vector_from_s(s_values: Mapping[int, object], k_max: int) -> dict[int, Fraction]:
    """R_k for 2 <= k <= k_max from the exact S-values S_2..S_k_max by the
    composition sum

        R_k = sum_{l>=1} (1/l!) (1-k)^{l-1} [z^k] S(z)^l,  S(z) = sum_{j>=2} S_j z^j,

    where [z^k] S(z)^l sums S_{j_1} ... S_{j_l} over ordered tuples
    j_1+...+j_l = k of parts >= 2.  The series is graded, so each S_j is
    scaled by D c^j: c = _graded_base, so that every c^j j S_j is an
    integer (c = 1 on a partition), and D is the lcm of the
    denominators of the c^j S_j, which divides lcm(2..k_max).  The truncated
    powers of sum_j D c^j S_j z^j to z^k_max are integer lists P_l,
    O(k_max^3) products for all l <= L = k_max // 2, shared by every k, and
    [z^k] S(z)^l = P_l[k] / (D^l c^k), zero below 2l; each R_k is summed
    over the one denominator L! D^L c^k.  A missing S_j raises KeyError, and
    a float or RatPoly value TypeError."""
    for j in range(2, k_max + 1):
        if j not in s_values:
            raise KeyError(f"missing S_{j} value")
    ratios = {j: _as_fraction(s_values[j]).as_integer_ratio() for j in range(2, k_max + 1)}
    c = _graded_base(ratios)
    if c > 1:  # c^j S_j, reduced
        ratios = {j: (num * c ** j // g, den // g)
                  for j, (num, den) in ratios.items() for g in [gcd(den, c ** j)]}
    den = lcm(*(d for _, d in ratios.values()))
    ints = [0, 0] + [num * (den // d) for num, d in ratios.values()]
    top, power = k_max // 2, ints
    acc = [0] * (k_max + 1)
    for l in range(1, top + 1):
        weight = factorial(top) // factorial(l) * den ** (top - l)
        for k in range(2 * l, k_max + 1):
            acc[k] += (1 - k) ** (l - 1) * weight * power[k]
        power = [0] * (2 * l + 2) + [sum(map(mul, power[2 * l:d - 1], ints[d - 2 * l:1:-1]))
                                     for d in range(2 * l + 2, k_max + 1)]
    whole = factorial(top) * den ** top
    return {k: Fraction(acc[k], whole * c ** k) for k in range(2, k_max + 1)}


def r_vector(rows: Partition | MultiRect, k_max: int) -> dict[int, Fraction]:
    """R_k for 2 <= k <= k_max of a partition or a multirectangle, from the
    S-values of s_vector, the power sums of its profile's corners."""
    return r_vector_from_s(s_vector(rows, k_max), k_max)


def _dilation_difference(rows: Partition, k: int, order: int) -> Fraction:
    """The order-th finite difference at s = 0 of s -> Sigma_{k-1}(s.rows),
    summed in integers over one common denominator:

        sum_{s=1..order} (-1)^(order-s) C(order,s) Sigma_{k-1}(s.rows),

    the s = 0 term dropping, as Sigma_{k-1} vanishes on the empty diagram."""
    values = [normalized_character(dilate(rows, s), k - 1) for s in range(1, order + 1)]
    den = lcm(*(v.denominator for v in values))
    return Fraction(sum((-1) ** (order - s) * comb(order, s) * v.numerator * (den // v.denominator)
                        for s, v in enumerate(values, 1)), den)


def free_cumulant_by_interpolation(rows: Partition, k: int) -> Fraction:
    """R_k as the coefficient of s^k in s -> Sigma_{k-1} of the s-dilated
    diagram, a polynomial of degree k: its k-th finite difference at s = 0,
    _dilation_difference(rows, k, k), over k!."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return _dilation_difference(check_partition(rows), k, k) / factorial(k)


def _multirect_factorization_sum(pi: perms.Perm, r: int, cycle_total: int | None = None,
                                 multilinear: bool = False) -> RatPoly:
    """Sum over factorizations s1 o s2 = pi, only those with
    |C(s1)| + |C(s2)| = cycle_total when it is given, and over colorings
    phi2 of the s2-cycles by blocks 1..r, of sign(s1) prod_j p_{phi2(j)}
    prod_i q_{phi1(i)}, where phi1 gives each s1-cycle the largest phi2-color
    among the s2-cycles it meets.  Folds over perms.factorization_patterns.
    If multilinear, only the injective colorings phi2 are summed, which give
    exactly the terms of degree at most 1 in every p_i.

    A monomial is one int key: the exponents of p_1..p_r, q_1..q_r, each at
    most k = len(pi), as base-(k+1) digits.  The s2-cycles are colored in bit
    order over a frontier of states (per s1-cycle, the largest color so far,
    -1 outside its bits) mapping keys to counts: patterns x states, not r^m2
    colorings.  If multilinear, a state also ends with the bitmask of the
    colors taken, each s2-cycle takes a color outside it, and a pattern with
    more s2-cycles than colors is skipped.
    """
    base = len(pi) + 1
    powers = [base ** c for c in range(2 * r)]
    accum: Counter = Counter()
    colors, used = range(r), (0,) * multilinear  # used: no block taken yet
    for (m2, masks), mult in perms.factorization_patterns(pi).items():
        if (cycle_total is not None and len(masks) + m2 != cycle_total
                or multilinear and m2 > r):
            continue
        weight = mult if (len(pi) - len(masks)) % 2 == 0 else -mult
        if r == 1:  # one coloring
            accum[m2 + len(masks) * base] += weight
            continue
        touch, close = [[] for _ in range(m2)], [[] for _ in range(m2)]
        for i, mask in enumerate(masks):
            close[mask.bit_length() - 1].append(i)  # at its top bit, i adds its q-digit
            for j in range(mask.bit_length() - 1):
                if mask >> j & 1:
                    touch[j].append(i)
        frontier = {(-1,) * len(masks) + used: {0: weight}}
        for touch_j, close_j in zip(touch, close):
            step: dict[tuple[int, ...], dict[int, int]] = {}
            for state, keys in frontier.items():
                if multilinear:
                    colors = [c for c in range(r) if not state[-1] >> c & 1]
                for c in colors:
                    top = list(state)
                    if multilinear:
                        top[-1] |= 1 << c
                    for i in touch_j:
                        if top[i] < c:
                            top[i] = c
                    shift = powers[c]
                    for i in close_j:
                        shift += powers[r + max(top[i], c)]
                        top[i] = -1
                    bucket = step.setdefault(tuple(top), {})
                    for key, count in keys.items():
                        key += shift
                        bucket[key] = bucket.get(key, 0) + count
            frontier = step
        for keys in frontier.values():  # every s1-cycle has closed: -1 throughout
            accum.update(keys)
    names = [("p", i) for i in range(1, r + 1)] + [("q", i) for i in range(1, r + 1)]
    terms = {}
    for key, c in accum.items():
        if c:
            mono = []
            for v in names:
                key, e = divmod(key, base)
                if e:
                    mono.append((v, e))
            terms[tuple(mono)] = Fraction(c)
    return RatPoly._from_canonical(terms)


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
