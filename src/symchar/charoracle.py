"""Irreducible characters of the symmetric group.

chi^lam(mu) is computed by the Murnaghan-Nakayama rule: recursively remove a
border strip whose length is the largest remaining part of mu, with sign
(-1)^height.  Dimensions come from the hook length formula.  The normalized
character Sigma_k multiplies the character ratio on the class (k, 1^{n-k})
by the falling factorial n(n-1)...(n-k+1) and is 0 for k > n.

normalized_character works on the beta-set beta_i = lam_i + r - i instead.  A
k-strip removal moves one beta_i to beta_i - k, and dim lam = n! Delta(beta) /
prod_i beta_i! with Delta(beta) = prod_{i<j} (beta_i - beta_j), so in the ratio
of dimensions only beta_i! and the factors of Delta with index i change:

    Sigma_k(lam) = sum_i beta_i (beta_i-1) ... (beta_i-k+1)
                   prod_{j != i} (beta_i - k - beta_j) / (beta_i - beta_j).

The unsorted product carries the sign (-1)^height; a term is 0 when beta_i < k
or beta_i - k is another beta_j.  The strip recursion and hook dimension serve
normalized_character_general, which stays an independent route to Sigma_k.

Term i is -1/k times the residue at z = beta_i of

    f(z) = z (z-1) ... (z-k+1) prod_j (z - k - beta_j) / (z - beta_j),

the factor j = i giving beta_i - k - beta_i = -k.  The zero terms are the
poles that cancel, beta_i < k against a factor of the falling factorial and
beta_i - k = beta_j against z - k - beta_j, so f = prod_(c in Z) (z - c) /
prod_(b in P) (z - b) with P the poles (the beta_i >= k with beta_i - k
outside the beta-set) and Z the j < k and the beta_j + k outside it, |Z| =
|P| + k.  The residues of f sum to minus its residue at infinity, which at
w = 1/z, f = w^(-k) prod_Z (1 - c w) / prod_P (1 - b w), gives

    -k Sigma_k = [w^(k+1)] prod_(c in Z) (1 - c w) / prod_(b in P) (1 - b w),

Biane's product formula for Sigma_k (LNM 1815, 2003) at a beta-set.  The sum
multiplies about |P| r integers, the series 2|P| + k integers of about k + 2
times the digits of sum Z + sum P each; normalized_character takes the
series when (2|P| + k) k^2 < 32 |P| r, so a small k on a diagram of many
rows (such as k <= 8 on 600 boxes in 30 rows) runs the series, and a k in
the hundreds or thousands over few poles, such as k = 2500 on (3000, 2000)
or k = 1999 on a column of 2,000 boxes, the sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm, prod
from typing import Sequence

from symchar.diagrams import Partition, check_partition

_MEMO_SIZE = 256  # entries per memo, oldest dropped first, as ratpoly.CACHE_SIZE
_mn_cache: dict[tuple[Partition, Partition], int] = {}
_dim_cache: dict[Partition, int] = {}


def clear_caches() -> None:
    _mn_cache.clear()
    _dim_cache.clear()


def _strip_removals(rows: Partition, length: int) -> list[tuple[Partition, int]]:
    """All ways to remove a border strip of the given length.

    Returns (smaller partition, height) pairs, height = rows spanned - 1.
    Computed on the beta-set beta_i = lam_i + (r - 1 - i): removing a strip
    of length t moves one beta number down by t onto a free slot.
    """
    r = len(rows)
    if r == 0 or length < 1:
        return []
    beta = [rows[i] + (r - 1 - i) for i in range(r)]
    present = set(beta)
    out = []
    for b in beta:
        nb = b - length
        if nb < 0 or nb in present:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((present - {b}) | {nb}, reverse=True)
        new_rows = tuple(new_beta[j] - (r - 1 - j) for j in range(r))
        while new_rows and new_rows[-1] == 0:
            new_rows = new_rows[:-1]
        out.append((new_rows, height))
    return out


def mn_character(rows: Partition, mu: Sequence[int]) -> int:
    """chi^rows on the class of cycle type mu, |rows| = |mu| required."""
    rows, mu = check_partition(rows), _cycle_type(mu)
    if sum(rows) != sum(mu):
        raise ValueError(f"size mismatch: |{rows}| = {sum(rows)} vs |{mu}| = {sum(mu)}")
    return _mn_recurse(rows, mu)


def _cycle_type(mu: Sequence[int]) -> Partition:
    """The parts of mu, positive integers, in descending order."""
    mu = tuple(sorted(mu, reverse=True))
    if not all(isinstance(m, int) for m in mu):
        raise TypeError("cycle type parts must be integers")
    if mu and mu[-1] < 1:
        raise ValueError("cycle type parts must be positive")
    return mu


def _mn_recurse(rows: Partition, mu: Partition) -> int:
    """chi^rows(mu) for mu sorted in descending order.  Once only parts 1
    remain the class is the identity, where the character is the dimension,
    so the recursion depth is the number of parts >= 2."""
    if not mu or mu[0] == 1:
        return dimension(rows)
    key = (rows, mu)
    cached = _mn_cache.get(key)
    if cached is not None:
        return cached
    total = 0
    rest = mu[1:]
    for smaller, height in _strip_removals(rows, mu[0]):
        total += (-1) ** height * _mn_recurse(smaller, rest)
    if len(_mn_cache) >= _MEMO_SIZE:
        del _mn_cache[next(iter(_mn_cache))]
    _mn_cache[key] = total
    return total


def dimension(rows: Partition) -> int:
    """n! / product of hook lengths; the division is exact.  The columns
    u' < j <= u, u a part and u' the next smaller one (or 0), all have height
    c, the number of parts >= u, so in row i (from 0) the hooks over them are
    the u - u' integers up to lam_i - i + c - u' - 1: one falling factorial
    per (row, run of equal parts), not one factor per box."""
    rows = check_partition(rows)
    cached = _dim_cache.get(rows)
    if cached is not None:
        return cached
    below = rows + (0,)
    runs = [(c, below[c], u - below[c]) for c, u in enumerate(rows, 1) if below[c] < u]
    denom, first = 1, 0
    for i, lam in enumerate(rows):
        if runs[first][0] == i:  # row i opens the next run
            first += 1
        denom *= prod(perm(lam - i + c - nxt - 1, w) for c, nxt, w in runs[first:])
    dim, rest = divmod(factorial(sum(rows)), denom)
    if rest:
        raise ArithmeticError(f"hook product {denom} does not divide {sum(rows)}!")
    if len(_dim_cache) >= _MEMO_SIZE:
        del _dim_cache[next(iter(_dim_cache))]
    _dim_cache[rows] = dim
    return dim


def _beta_poles(rows: Partition, k: int) -> tuple[list[int], list[int]]:
    """The beta-set of rows, and its poles for Sigma_k: the beta_i >= k with
    beta_i - k not in the set, the terms of the beta-set sum that are not 0."""
    beta = [x + len(rows) - 1 - i for i, x in enumerate(rows)]
    present = set(beta)
    return beta, [b for b in beta if b >= k and b - k not in present]


def _takes_series(poles: int, k: int, rows: int) -> bool:
    """The cost rule of the module docstring; 32 is where the two kernels met
    over partitions of up to 10,000 boxes at k up to 2,500."""
    return (2 * poles + k) * k * k < 32 * poles * rows


def _beta_sum(beta: list[int], poles: list[int], k: int) -> Fraction:
    """Sigma_k by the beta-set sum over its poles, in integers, with one
    Fraction built at the end."""
    num, den = 0, 1
    for b in poles:
        term_num, term_den = perm(b, k), 1
        for c in beta:
            if c != b:
                term_num *= b - k - c
                term_den *= b - c
        num, den = num * term_den + term_num * den, den * term_den
    return Fraction(num, den)


def _residue_series(beta: list[int], poles: list[int], k: int) -> int:
    """Sigma_k from -k Sigma_k = [w^(k+1)] prod_(c in Z) (1 - c w) / prod_(b in P) (1 - b w),
    P the poles and Z the j < k and the b + k outside the beta-set (|Z| =
    |P| + k), read at w = 1/X for X = 2^m: X^(k+1) times the series is
    X prod_Z (X - c) / prod_P (X - b) = sum_n a_n X^(k+1-n).  Each |a_n| is
    at most s^n, s = sum Z + sum P, so for X >= 4 s^(k+2) the terms past
    n = k + 1 add less than 1/2, and a_(k+1) is the last digit, in
    [-X/2, X/2), of the rounded quotient: two products and one division of
    integers.  Raises ArithmeticError if k does not divide a_(k+1)."""
    present = set(beta)
    zeros = [j for j in range(k) if j not in present] + [b + k for b in beta if b + k not in present]
    m = (k + 2) * (sum(zeros) + sum(poles)).bit_length() + 2
    x, half = 1 << m, 1 << m - 1
    den = prod(x - b for b in poles)
    quotient = ((prod(x - c for c in zeros) << m + 1) + den) // (2 * den)
    coeff = ((quotient + half) & (x - 1)) - half
    sigma, rest = divmod(-coeff, k)
    if rest:
        raise ArithmeticError(f"{k} does not divide the residue sum {-coeff}")
    return sigma


def normalized_character(rows: Partition, k: int) -> Fraction:
    """Sigma_k = n(n-1)...(n-k+1) chi^rows((k, 1^{n-k})) / dim rows, 0 if k > n,
    by the residue series or the beta-set sum, whichever costs less."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = check_partition(rows)
    if k > sum(rows):
        return Fraction(0)
    beta, poles = _beta_poles(rows, k)
    if _takes_series(len(poles), k, len(beta)):
        return Fraction(_residue_series(beta, poles, k))
    return _beta_sum(beta, poles, k)


def normalized_character_general(rows: Partition, pi_type: Sequence[int]) -> Fraction:
    """Sigma_pi for pi of the given cycle type on k = sum(pi_type) points,
    embedded in S(n) by padding with fixed points."""
    rows, pi_type = check_partition(rows), _cycle_type(pi_type)
    k = sum(pi_type)
    n = sum(rows)
    if k > n:
        return Fraction(0)
    padded = tuple(sorted(pi_type + (1,) * (n - k), reverse=True))
    return Fraction(perm(n, k) * mn_character(rows, padded), dimension(rows))
