import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from symchar.charoracle import normalized_character
from symchar.diagrams import FrobeniusCoords, MultiRect, dilate, frobenius, partitions, partitions_up_to
from symchar.functionals import (
    free_cumulant_by_interpolation,
    free_cumulant_from_s,
    free_cumulant_multirect,
    free_cumulant_multirect_symbolic,
    r_in_terms_of_s,
    r_vector,
    r_vector_from_s,
    s_functional_boxes,
    s_functional_frobenius,
    s_functional_multirect,
    s_functional_multirect_symbolic,
    s_vector,
)
from symchar.ratpoly import RatPoly, S, dilation_var


def test_single_box_s_functionals():
    # S_k = (k-1) * integral of contents^(k-2): the integrals of (x-y)^2 over
    # the boxes of contents 0, 1 and -1 are 1/6, 7/6 and 7/6
    assert s_functional_boxes((1,), 2) == 1  # plain area
    assert s_functional_boxes((1,), 4) == 3 * Fraction(1, 6)
    assert s_functional_boxes((2,), 4) - s_functional_boxes((1,), 4) == 3 * Fraction(7, 6)
    assert s_functional_boxes((1, 1), 4) - s_functional_boxes((1,), 4) == 3 * Fraction(7, 6)
    assert s_functional_boxes((2, 1), 4) == 3 * (Fraction(1, 6) + 2 * Fraction(7, 6))


def test_content_tally_counts_boxes():
    # at k = 2 every box adds (d+1)^2 - 2 d^2 + (d-1)^2 = 2, so S_2 = sum_d m_d
    for rows, n in [((1,), 1), ((2, 1), 3), ((4, 3, 1), 8), ((), 0)]:
        assert s_vector(rows, 2) == {2: n}
    for rows in partitions_up_to(8):
        assert s_vector(rows, 2)[2] == sum(rows)


def _s_by_boxes(rows, k):
    # one exact box integral per box, contents d = j - i
    total = 0
    for i, r in enumerate(rows, 1):
        for j in range(1, r + 1):
            d = j - i
            total += (d + 1) ** k - 2 * d ** k + (d - 1) ** k
    return Fraction(total, k)


def test_s_vector_matches_per_box_sum():
    shapes = [rows for n in range(13) for rows in partitions(n)]
    big = (49, 45, 45, 40, 38, 33, 33, 30, 28, 27, 25, 22, 22, 20, 18, 17, 15, 13,
           12, 10, 9, 9, 8, 7, 5, 5, 4, 3, 2, 2, 2, 1, 1)
    assert sum(big) == 600
    for rows in shapes + [big]:
        assert s_vector(rows, 16) == {k: _s_by_boxes(rows, k) for k in range(2, 17)}


def _s_by_half_shifts(fc, k):
    half = Fraction(1, 2)
    total = Fraction(0)
    for a, b in zip(fc.A, fc.B):
        total += (a + half) ** k - (a - half) ** k
        total += (-b - half) ** k - (-b + half) ** k
    return total / k


def test_s_functional_frobenius_rational_coordinates():
    cases = [((Fraction(1, 3),), (Fraction(5, 7),)),
             ((Fraction(9, 4), Fraction(1, 6)), (Fraction(3), Fraction(2, 5))),
             ((Fraction(7, 2), Fraction(5)), (Fraction(5, 2), Fraction(-1, 3)))]
    for A, B in cases:
        fc = FrobeniusCoords(A, B)
        for k in range(2, 12):
            assert s_functional_frobenius(fc, k) == _s_by_half_shifts(fc, k)


def test_s_functional_boxes_examples():
    for rows in [(1,), (2, 1), (4, 3, 1), (3, 3)]:
        assert s_functional_boxes(rows, 2) == sum(rows)
    assert s_functional_boxes((2, 1), 3) == 0
    assert s_functional_boxes((2, 1), 4) == Fraction(15, 2)
    assert s_functional_boxes((1,), 4) == Fraction(1, 2)
    assert s_functional_boxes((), 5) == 0


def test_s_functional_frobenius_examples():
    assert s_functional_frobenius(frobenius((2, 1)), 2) == 3
    assert s_functional_frobenius(frobenius((2, 1)), 3) == 0
    assert s_functional_frobenius(frobenius((1,)), 4) == Fraction(1, 2)


def test_s_routes_agree_exhaustively():
    for rows in partitions_up_to(8):
        fc = frobenius(rows)
        for k in range(2, 9):
            assert s_functional_boxes(rows, k) == s_functional_frobenius(fc, k)


def test_s_multirect_matches_boxes():
    for p1, q1 in product(range(1, 4), repeat=2):
        m = MultiRect((p1,), (q1,))
        for k in range(2, 7):
            assert s_functional_multirect(m, k) == \
                s_functional_boxes(m.to_partition(), k)
    m = MultiRect((1, 2), (3, 1))
    for k in range(2, 7):
        assert s_functional_multirect(m, k) == s_functional_boxes((3, 1, 1), k)


def _s_multirect_by_powers(r, k):
    # the block corner form expanded by RatPoly powers, term by term
    total = RatPoly.zero()
    y_prev = RatPoly.zero()
    for i in range(1, r + 1):
        y_next = y_prev + RatPoly.variable(("p", i))
        qi = RatPoly.variable(("q", i))
        total = total + ((qi - y_prev) ** k - (qi - y_next) ** k
                         - (-y_prev) ** k + (-y_next) ** k)
        y_prev = y_next
    return total * Fraction(1, k)


def test_s_multirect_symbolic_matches_power_expansion():
    for r in range(1, 5):
        for k in range(2, 9):
            assert str(s_functional_multirect_symbolic(r, k)) == str(_s_multirect_by_powers(r, k))


def test_s_multirect_corner_form_matches_symbolic():
    # 200 seeded random rational multirectangles, zero entries included
    rng = random.Random(7)
    for _ in range(200):
        r = rng.randint(1, 3)
        p = [Fraction(rng.randint(0, 9), rng.randint(1, 7)) for _ in range(r)]
        q = sorted((Fraction(rng.randint(0, 9), rng.randint(1, 7)) for _ in range(r)),
                   reverse=True)
        m = MultiRect(p, q)
        for k in range(2, 13):
            want = s_functional_multirect_symbolic(r, k).evaluate(m.assignment())
            assert s_functional_multirect(m, k) == want
        assert s_vector(m, 12) == {k: s_functional_multirect(m, k) for k in range(2, 13)}


def _compositions_ge2(total):
    # ordered tuples of integers >= 2 summing to total
    if total == 0:
        yield ()
    for first in range(2, total + 1):
        for tail in _compositions_ge2(total - first):
            yield (first,) + tail


def _r_by_composition_sum(s_values, k):
    # R_k = sum over compositions (j_1..j_l) of k, parts >= 2, of
    # (1-k)^(l-1)/l! S_{j_1}...S_{j_l}
    total = 0
    for comp in _compositions_ge2(k):
        term = Fraction((1 - k) ** (len(comp) - 1), factorial(len(comp)))
        for j in comp:
            term = term * s_values[j]
        total = total + term
    return total


def test_power_series_r_matches_composition_sum():
    assert sorted(_compositions_ge2(6)) == [(2, 2, 2), (2, 4), (3, 3), (4, 2), (6,)]
    for rows in partitions_up_to(8):
        svals = s_vector(rows, 14)
        for k in range(2, 15):
            assert free_cumulant_from_s(svals, k) == _r_by_composition_sum(svals, k)
    for k in range(2, 17):
        svars = {j: S(j) for j in range(2, k + 1)}
        assert r_in_terms_of_s(k) == _r_by_composition_sum(svars, k)


def test_free_cumulant_from_s_rational_matches_symbolic():
    # denominators 13..23 exceed every k, so D S_j carries real scaling
    shapes = [MultiRect((Fraction(1, 13),), (Fraction(5, 17),)),
              MultiRect((Fraction(2, 19), Fraction(3, 23)), (Fraction(7, 13), Fraction(2, 17)))]
    for m in shapes:
        svals = {j: s_functional_multirect(m, j) for j in range(2, 13)}
        for k in range(2, 13):
            want = r_in_terms_of_s(k).evaluate({("S", j): svals[j] for j in range(2, k + 1)})
            assert free_cumulant_from_s(svals, k) == want


def test_r_vector_from_s_matches_free_cumulant_from_s():
    # one set of series powers for the whole table, per-k sums as reference
    inputs = [s_vector(rows, 24) for rows in ((), (1,), (3, 2, 1), (7, 7, 4, 1))]
    inputs.append(s_vector(MultiRect.from_strings("1/2,3/2,5/3", "7/2,2,1"), 24))
    inputs.append({j: Fraction((-1) ** j * j, 7 + j) for j in range(2, 25)})
    for svals in inputs:
        for k_max in (2, 3, 4, 5, 24):
            table = r_vector_from_s(svals, k_max)
            assert table == {k: free_cumulant_from_s(svals, k) for k in range(2, k_max + 1)}
    assert r_vector_from_s({}, 1) == {}
    with pytest.raises(KeyError, match="missing S_3 value"):
        r_vector_from_s({2: Fraction(1), 4: Fraction(1)}, 4)
    with pytest.raises(TypeError):
        r_vector_from_s({2: 0.5, 3: 0}, 3)
    for bad in ({2: 0.5, 3: 0.25, 4: 1.5}, {j: S(j) for j in range(2, 5)},
                {2: '1/2', 3: '0', 4: '3'}, {2: 'x', 3: 1, 4: 3}):
        for fn in (r_vector_from_s, free_cumulant_from_s):
            with pytest.raises(TypeError):
                fn(bad, 4)


def test_free_cumulant_low_orders_symbolic():
    assert r_in_terms_of_s(2) == S(2)
    assert r_in_terms_of_s(3) == S(3)
    assert r_in_terms_of_s(4) == S(4) - Fraction(3, 2) * S(2) ** 2
    for k in (0, 1):
        with pytest.raises(ValueError, match="k must be >= 2"):
            r_in_terms_of_s(k)


def test_free_cumulant_from_s_examples():
    svals = s_vector((2, 1), 4)
    assert free_cumulant_from_s(svals, 2) == 3
    assert free_cumulant_from_s(svals, 3) == 0
    assert free_cumulant_from_s(svals, 4) == -6
    # K_3 evaluation closes the loop with the character oracle
    assert free_cumulant_from_s(svals, 4) + free_cumulant_from_s(svals, 2) == \
        normalized_character((2, 1), 3)
    with pytest.raises(KeyError, match="missing S_4 value"):
        free_cumulant_from_s({2: Fraction(3)}, 4)
    # no composition of k into parts >= 2 uses S_{k-1}
    svals = s_vector((4, 3, 1), 6)
    del svals[5]
    assert free_cumulant_from_s(svals, 6) == r_vector((4, 3, 1), 6)[6]


def test_free_cumulant_by_interpolation_examples():
    assert free_cumulant_by_interpolation((2, 1), 2) == 3
    assert free_cumulant_by_interpolation((2, 1), 4) == -6
    assert free_cumulant_by_interpolation((), 3) == 0


def test_r_routes_agree():
    for rows in partitions_up_to(4):
        svals = s_vector(rows, 5)
        for k in range(2, 6):
            assert free_cumulant_from_s(svals, k) == \
                free_cumulant_by_interpolation(rows, k)


def test_free_cumulant_multirect_rectangle():
    for p1, q1 in product(range(1, 5), repeat=2):
        m = MultiRect((p1,), (q1,))
        assert free_cumulant_multirect(m, 2) == p1 * q1
        svals = s_vector(m.to_partition(), 3)
        assert free_cumulant_multirect(m, 3) == free_cumulant_from_s(svals, 3)
        assert free_cumulant_multirect(m, 3) == p1 * q1 * (q1 - p1)


def test_free_cumulant_multirect_two_blocks():
    for p in product(range(1, 3), repeat=2):
        for q in ((2, 1), (3, 2), (2, 2)):
            m = MultiRect(p, q)
            svals = s_vector(m.to_partition(), 5)
            for k in range(2, 6):
                assert free_cumulant_multirect(m, k) == \
                    free_cumulant_from_s(svals, k)


@pytest.mark.parametrize("k", range(2, 6))
def test_multirect_homogeneity_symbolic(k):
    # scaling p -> s*p and q -> s*q multiplies R_k by s^k, as polynomials
    s = dilation_var()
    for r in (1, 2):
        poly = free_cumulant_multirect_symbolic(r, k)
        scaled = poly.substitute(
            {("p", i): s * RatPoly.variable(("p", i)) for i in range(1, r + 1)}
            | {("q", i): s * RatPoly.variable(("q", i)) for i in range(1, r + 1)})
        assert scaled == s ** k * poly


def test_scale_homogeneity_examples():
    assert s_functional_boxes((2, 2), 4) == 16 * s_functional_boxes((1,), 4) == 8
    r4 = free_cumulant_from_s(s_vector((4, 4, 2, 2), 4), 4)
    assert r4 == 16 * -6
    assert dilate((2, 1), 2) == (4, 4, 2, 2)


def test_r_from_s_truncation():
    # R_k = S_k - (k-1)/2 sum_{j1+j2=k} S_{j1}S_{j2} + (>= 3 factors)
    for k in range(2, 11):
        quad = RatPoly.zero()
        for j1 in range(2, k - 1):
            if k - j1 >= 2:
                quad = quad + S(j1) * S(k - j1)
        remainder = r_in_terms_of_s(k) - S(k) + Fraction(k - 1, 2) * quad
        assert all(sum(e for _, e in mono) >= 3 for mono, _ in remainder.items())


def test_empty_multirect():
    empty = MultiRect((), ())
    assert s_functional_multirect(empty, 3) == 0
    assert free_cumulant_multirect(empty, 3) == 0


def test_vectors():
    assert s_vector((), 5) == {k: 0 for k in range(2, 6)}
    assert r_vector((), 5) == {k: 0 for k in range(2, 6)}
    rv = r_vector((2, 1), 4)
    assert rv == {2: 3, 3: 0, 4: -6}
