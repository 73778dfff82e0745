import random
from math import factorial, prod

import pytest

from symchar import charoracle, perms
from symchar.charoracle import (
    dimension,
    mn_character,
    normalized_character,
    normalized_character_general,
)
from symchar.diagrams import conjugate, partitions, partitions_up_to
from symchar.stanley import stanley_character_poly


def centralizer_order(mu):
    mults = {}
    for part in mu:
        mults[part] = mults.get(part, 0) + 1
    z = 1
    for part, m in mults.items():
        z *= part ** m * factorial(m)
    return z


def test_standard_representation_brute_force():
    # The permutation representation of S(3) on 3 points is trivial + the
    # representation of (2,1): its character is (#fixed points) - 1.
    for p in perms.all_perms(3):
        fixed = sum(1 for i in range(1, 4) if p[i - 1] == i)
        assert mn_character((2, 1), perms.cycle_type(p)) == fixed - 1


def test_character_table_s3():
    table = {
        (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
        (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
        (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
    }
    for lam, row in table.items():
        for mu, value in row.items():
            assert mn_character(lam, mu) == value


def test_mn_examples():
    assert mn_character((2, 1), (3,)) == -1
    assert mn_character((2, 2), (4,)) == 0  # no border strip of size 4
    with pytest.raises(ValueError):
        mn_character((2, 1), (2, 2))


def test_inexact_rows_and_classes_raise_type_error():
    # neither a diagram nor a cycle type is read from floats
    with pytest.raises(TypeError, match="row lengths must be integers"):
        normalized_character((2.9, 1), 2)
    for mu in ((2.5, 1), (2, 1.0)):
        with pytest.raises(TypeError, match="cycle type parts must be integers"):
            mn_character((2, 1), mu)
        with pytest.raises(TypeError, match="cycle type parts must be integers"):
            normalized_character_general((2, 1), mu)


def test_mn_identity_class_equals_hook_dimension():
    # Full strip recursion against the hook length formula, all n <= 8.
    for rows in partitions_up_to(8):
        n = sum(rows)
        assert mn_character(rows, (1,) * n) == dimension(rows)


def hook_lengths(rows):
    """The hook length of every box, row by row: the box-by-box reference
    for dimension's one falling factorial per (row, run of equal parts)."""
    conj = conjugate(rows)
    return [
        (rows[i] - j) + (conj[j - 1] - (i + 1)) + 1
        for i in range(len(rows))
        for j in range(1, rows[i] + 1)
    ]


def test_dimension_examples():
    assert dimension((2, 1)) == 2
    assert sorted(hook_lengths((2, 1))) == [1, 1, 3]
    for n in range(1, 8):
        assert dimension((n,)) == 1
    assert dimension((4, 3, 1)) == 70
    assert sorted(hook_lengths((4, 3, 1))) == sorted([6, 4, 3, 1, 4, 2, 1, 1])


def _dimension_by_boxes(rows):
    return factorial(sum(rows)) // prod(hook_lengths(rows))


def test_dimension_by_runs_matches_hook_product():
    # one falling factorial per (row, run of equal parts) against the
    # box-by-box hook product, caches cleared so that every value is computed
    charoracle.clear_caches()
    for rows in partitions_up_to(14):
        assert dimension(rows) == _dimension_by_boxes(rows), rows
    two_rows = [(600, 500), (700, 400), (800, 800), (1000, 100), (1599, 1), (1100,)]
    staircase = tuple(range(140, 0, -1))
    for rows in two_rows + [staircase, (30,) * 30]:
        assert dimension(rows) == _dimension_by_boxes(rows), rows
    charoracle.clear_caches()


def test_dimension_squares_sum_to_group_order():
    for n in range(1, 8):
        assert sum(dimension(rows) ** 2 for rows in partitions(n)) == factorial(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_column_orthogonality(n):
    for mu in partitions(n):
        total = sum(mn_character(lam, mu) ** 2 for lam in partitions(n))
        assert total == centralizer_order(mu)


@pytest.mark.parametrize("n", range(1, 7))
def test_conjugate_transpose_symmetry(n):
    for mu in partitions(n):
        eps = (-1) ** (n - len(mu))
        for lam in partitions(n):
            assert mn_character(conjugate(lam), mu) == eps * mn_character(lam, mu)


def test_normalized_character_examples():
    for rows in [(1,), (2, 1), (4, 3, 1), (2, 2)]:
        assert normalized_character(rows, 1) == sum(rows)
    assert normalized_character((2, 1), 3) == -3
    assert normalized_character((2, 1), 5) == 0  # k > n
    assert normalized_character((), 1) == 0


def test_normalized_matches_full_recursion():
    # the beta-set sum equals the strip recursion over hook dimensions
    for n in range(13):
        for rows in partitions(n):
            for k in range(1, n + 3):
                assert normalized_character(rows, k) == \
                    normalized_character_general(rows, (k,))
    for k in range(1, 9):
        assert normalized_character((800, 520), k) == \
            normalized_character_general((800, 520), (k,))


def _kernels_agree(rows, k):
    beta, poles = charoracle._beta_poles(rows, k)
    return charoracle._residue_series(beta, poles, k) == charoracle._beta_sum(beta, poles, k)


def test_residue_series_matches_beta_sum():
    # both kernels called directly, so each also meets the inputs that
    # normalized_character sends to the other one, k > n included
    for n in range(13):
        for rows in partitions(n):
            for k in range(1, n + 3):
                assert _kernels_agree(rows, k), (rows, k)
    rng = random.Random(23)
    for n in (40, 120, 300, 450, 600):
        for _ in range(3):
            parts, left = [], n
            while left:
                parts.append(rng.randint(1, min(left, rng.choice((3, 2 * round(n ** 0.5), left)))))
                left -= parts[-1]
            rows = tuple(sorted(parts, reverse=True))
            for k in range(1, 21):
                assert _kernels_agree(rows, k), (rows, k)


def test_normalized_character_picks_the_cheaper_kernel():
    def takes_series(rows, k):
        beta, poles = charoracle._beta_poles(rows, k)
        return charoracle._takes_series(len(poles), k, len(beta))
    # k in the thousands over one pole: the series would read k + 2 numbers
    # of thousands of digits each, minutes where the sum takes milliseconds
    assert not takes_series((3000, 2000), 2500)
    assert not takes_series((1,) * 2000, 1999)
    # a small k on a diagram of many rows
    rows = (48, 45, 44, 40, 38, 33, 31, 30, 27, 27, 25, 24, 20, 19, 17, 16, 16,
            15, 14, 12, 10, 9, 9, 7, 6, 5, 4, 3, 2, 2, 1, 1)
    assert sum(rows) == 600 and takes_series(rows, 8)


@pytest.mark.parametrize("k", [1, 2, 3, 50, 1999])
def test_normalized_character_column_vs_row(k):
    # Sigma_k of the conjugate is (-1)^(k-1) Sigma_k; the column has 2,000
    # beta numbers, the row one
    n = 2000
    assert normalized_character((1,) * n, k) == (-1) ** (k - 1) * normalized_character((n,), k)


def test_normalized_character_general():
    # identity on k points: the falling factorial itself
    assert normalized_character_general((2, 2), (1, 1)) == 4 * 3
    assert normalized_character_general((4, 3, 1), (1, 1, 1)) == 8 * 7 * 6
    # transposition in S(2) against (2,2): chi((2,1,1)) vanishes
    assert normalized_character_general((2, 2), (2,)) == 0
    # k > n
    assert normalized_character_general((2, 1), (2, 2)) == 0


@pytest.mark.parametrize("cycle_type, pi", [((3, 2), (2, 3, 1, 5, 4)), ((2, 1), (2, 1, 3))])
def test_normalized_character_general_deep_two_row(cycle_type, pi):
    # 1,320 boxes: the padded cycle type has over 1,300 parts 1, which end at
    # the dimension instead of one recursion level each
    a, b = 800, 520
    want = stanley_character_poly(pi, 2).evaluate(
        {("p", 1): 1, ("p", 2): 1, ("q", 1): a, ("q", 2): b})
    assert normalized_character_general((a, b), cycle_type) == want


def test_sigma2_of_square():
    assert normalized_character((2, 2), 2) == 0


def _mn_smallest_part_first(rows, mu):
    # independent recursion order: strip the smallest part first
    if not mu:
        return 1
    total = 0
    for smaller, height in charoracle._strip_removals(rows, mu[-1]):
        total += (-1) ** height * _mn_smallest_part_first(smaller, mu[:-1])
    return total


@pytest.mark.parametrize("n", range(1, 7))
def test_strip_order_independence(n):
    for lam in partitions(n):
        for mu in partitions(n):
            assert mn_character(lam, mu) == _mn_smallest_part_first(lam, mu)


def test_caches_can_be_cleared():
    mn_character((3, 2), (2, 2, 1))
    assert charoracle._mn_cache
    charoracle.clear_caches()
    assert not charoracle._mn_cache
    assert mn_character((3, 2), (2, 2, 1)) == mn_character((3, 2), (1, 2, 2))


def test_memos_are_bounded():
    # 2 x 256 distinct shapes fill each memo twice over its bound: each keeps
    # at most 256 entries, dropping the oldest first, and every value it kept
    # or dropped is what a fresh computation gives
    charoracle.clear_caches()
    shapes = [rows for n in range(3, 16) for rows in partitions(n)][:2 * 256]
    assert len(shapes) == 512
    cycle = {rows: (3,) + (1,) * (sum(rows) - 3) for rows in shapes}
    chars = {}
    for i, rows in enumerate(shapes):
        # each shape adds one key (rows, (3, 1, ...)) to _mn_cache
        chars[rows] = mn_character(rows, cycle[rows])
        assert list(charoracle._mn_cache) == [(s, cycle[s]) for s in shapes[max(0, i - 255):i + 1]]
    dims = {rows: dimension(rows) for rows in shapes}
    mn_memo, dim_memo = dict(charoracle._mn_cache), dict(charoracle._dim_cache)
    assert len(mn_memo) == 256 and 0 < len(dim_memo) <= 256 and shapes[-1] in dim_memo
    charoracle.clear_caches()
    for (rows, mu), value in mn_memo.items():
        assert value == charoracle._mn_recurse(rows, mu) == chars[rows]
    for rows, value in dim_memo.items():
        assert value == _dimension_by_boxes(rows)
    charoracle.clear_caches()
    for rows in shapes:
        assert mn_character(rows, cycle[rows]) == chars[rows]
        assert dimension(rows) == dims[rows] == _dimension_by_boxes(rows)
    charoracle.clear_caches()
