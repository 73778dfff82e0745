import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, lcm, prod

import pytest

from symchar import perms
from symchar.charoracle import normalized_character
from symchar.diagrams import FrobeniusCoords, MultiRect, dilate, frobenius, partitions, partitions_up_to
from symchar.functionals import (
    _dilation_difference,
    _exponent_walk,
    _frobenius_power_bases,
    _graded_base,
    _multirect_factorization_sum,
    _profile,
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
from symchar.ratpoly import RatPoly, S
from symchar.verify import integral_multirects


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


def _s_by_content_tally(rows, k_max):
    # one term per content: m_d boxes of content d add m_d ((d+1)^k - 2 d^k + (d-1)^k)
    tally = Counter(j - i for i, r in enumerate(rows, 1) for j in range(1, r + 1))
    return {k: Fraction(sum(m * ((d + 1) ** k - 2 * d ** k + (d - 1) ** k)
                            for d, m in tally.items()), k)
            for k in range(2, k_max + 1)}


def _random_partition(rng, n):
    parts = []
    while n:
        parts.append(rng.randint(1, min(n, rng.choice((5, 40, n)))))
        n -= parts[-1]
    return tuple(sorted(parts, reverse=True))


def test_s_vector_summed_by_parts_matches_content_tally():
    # s_vector reads the contents of the addable and removable boxes, where
    # the second difference of the tally is nonzero, from the rows
    for rows in partitions_up_to(12):
        assert s_vector(rows, 14) == _s_by_content_tally(rows, 14), rows
    assert s_vector((), 40) == _s_by_content_tally((), 40) == {k: 0 for k in range(2, 41)}
    rng = random.Random(31)
    for n in (100, 250, 500, 750, 1000):
        rows = _random_partition(rng, n)
        assert s_vector(rows, 40) == _s_by_content_tally(rows, 40), rows


def test_profile_of_partitions():
    # the minima and maxima of a partition's profile interlace, starting and
    # ending with a minimum; sum x = sum y, and (sum x^2 - sum y^2) / 2 = n
    for rows in [()] + list(partitions_up_to(12)):
        den, minima, maxima = _profile(rows)
        assert den == 1
        corners = sorted([(x, "min") for x in minima] + [(y, "max") for y in maxima])
        assert [kind for _, kind in corners] == ["min", "max"] * len(maxima) + ["min"], rows
        assert len({x for x, _ in corners}) == len(corners), rows
        assert sum(minima) == sum(maxima)
        assert Fraction(sum(x * x for x in minima) - sum(y * y for y in maxima), 2) == sum(rows)


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


def test_s_functional_frobenius_memo_follows_its_coordinates():
    # the power bases of the coordinates read last are kept, keyed by
    # identity, so each call must still answer for the object it is given
    big, small = frobenius((9, 7, 7, 4, 2, 1)), frobenius((5, 5, 2))
    twin = FrobeniusCoords(tuple(Fraction(x) for x in big.A), tuple(Fraction(x) for x in big.B))
    assert twin == big and twin is not big
    # coordinates exactly 1 apart share a half-shift, and A_1 = -B_2 gives
    # both of theirs with opposite signs
    apart = FrobeniusCoords((Fraction(10, 3), Fraction(7, 3), Fraction(2, 9)),
                            (Fraction(1, 5), Fraction(-10, 3), Fraction(6, 5)))
    for k in range(2, 14):
        for fc in (big, small, big, twin, apart, small, apart):
            assert s_functional_frobenius(fc, k) == _s_by_half_shifts(fc, k), (fc, k)
    # a FrobeniusCoords of lists can change between calls: it is read afresh
    A, B = [Fraction(5, 2), Fraction(1, 2)], [Fraction(3, 2), Fraction(1, 2)]
    mutable = FrobeniusCoords(A, B)
    first = s_functional_frobenius(mutable, 4)
    assert first == _s_by_half_shifts(mutable, 4)
    A[0] = Fraction(9, 2)
    assert s_functional_frobenius(mutable, 4) == _s_by_half_shifts(mutable, 4) != first


def test_frobenius_power_bases_are_the_half_shifts():
    # two bases per coordinate, in order, none cancelled against another's
    half = Fraction(1, 2)
    for fc in (frobenius((9, 7, 7, 4, 2, 1)), frobenius(()),
               FrobeniusCoords((Fraction(10, 3), Fraction(7, 3)), (Fraction(1, 5), Fraction(-10, 3)))):
        den, added, subtracted = _frobenius_power_bases(fc)
        assert [Fraction(b, den) for b in added] == [a + half for a in fc.A] + [-b - half for b in fc.B]
        assert [Fraction(b, den) for b in subtracted] == \
            [a - half for a in fc.A] + [-b + half for b in fc.B]


def test_s_functional_frobenius_coordinates_must_be_exact():
    # a float or str coordinate is not read as the rational it is near or spells
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        s_functional_frobenius(FrobeniusCoords((0.1,), (0.5,)), 2)
    with pytest.raises(TypeError, match="expected an exact rational, got str"):
        s_functional_frobenius(FrobeniusCoords(("1/2",), (Fraction(1, 2),)), 2)


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


def _s_by_corner_loop(m, k):
    # k D^k S_k = (-D Y_r)^k + sum_i (D q_i - D Y_{i-1})^k - (D q_i - D Y_i)^k,
    # summed block by block over one running height
    den = lcm(*(x.denominator for x in m.p + m.q))
    y = total = 0
    for p, q in zip(m.p, m.q):
        width = q.numerator * (den // q.denominator)
        total += (width - y) ** k
        y += p.numerator * (den // p.denominator)
        total -= (width - y) ** k
    return Fraction(total + (-y) ** k, k * den ** k)


def test_s_multirect_matches_corner_loop():
    # seeded random rational multirectangles, zero entries and denominators
    # 1, 2, 3 and 7 included, and the empty one
    rng = random.Random(36)
    shapes = [MultiRect((), ())]
    for _ in range(500):
        r = rng.randint(1, 4)
        p = [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 7))) for _ in range(r)]
        q = sorted((Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 7))) for _ in range(r)),
                   reverse=True)
        shapes.append(MultiRect(p, q))
    for m in shapes:
        want = {k: _s_by_corner_loop(m, k) for k in range(2, 13)}
        assert s_vector(m, 12) == want, m
        assert {k: s_functional_multirect(m, k) for k in want} == want, m


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


def _exponent_walk_by_product(variables, weights, top):
    # the reference enumeration: every exponent vector in the box
    # e_i <= top // w_i, kept when it is nonzero and within the weight
    out = []
    for exps in product(*(range(top // w + 1) for w in weights)):
        weight = sum(e * w for e, w in zip(exps, weights))
        if any(exps) and weight <= top:
            mono = tuple((var, e) for var, e in zip(variables, exps) if e)
            out.append((mono, weight, sum(exps), prod(map(factorial, exps))))
    return sorted(out)


def test_exponent_walk_matches_product_enumeration():
    # unit weights, the multirect case, and weights 2..top, the partition sums
    cases = [([("p", i) for i in range(1, n + 1)], [1] * n, top)
             for n, top in [(1, 1), (1, 5), (3, 4), (5, 3), (4, 6), (8, 2)]]
    cases += [([("S", j) for j in range(2, top + 1)], range(2, top + 1), top)
              for top in range(2, 11)]
    for variables, weights, top in cases:
        got = sorted(_exponent_walk(variables, weights, top))
        assert got == _exponent_walk_by_product(variables, weights, top)


def test_s_multirect_symbolic_matches_power_expansion():
    # r <= 4 at k <= 8, then three of the larger shapes the benchmark builds
    shapes = [(r, k) for r in range(1, 5) for k in range(2, 9)] + [(4, 10), (6, 7), (8, 4)]
    for r, k in shapes:
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
    # a few with 6 and 8 blocks, k <= 7
    for r in (6, 8) * 3:
        p = [Fraction(rng.randint(0, 9), rng.randint(1, 7)) for _ in range(r)]
        q = sorted((Fraction(rng.randint(0, 9), rng.randint(1, 7)) for _ in range(r)),
                   reverse=True)
        m = MultiRect(p, q)
        for k in range(2, 8):
            assert s_functional_multirect(m, k) == s_functional_multirect_symbolic(r, k).evaluate(
                m.assignment())


def test_s_vector_one_route_per_multirect():
    # s_vector reads every MultiRect, integral or not, by its corners; on an
    # integral one it must give what the rows of its partition give
    shapes = list(integral_multirects(3, 3)) + [MultiRect((0, 2, 1), (5, 3, 0))]
    for m in shapes:
        assert s_vector(m, 12) == s_vector(m.to_partition(), 12)
    # a 10^6 x 10^6 square: the corner form costs O(r) powers, where a tally
    # of its 10^12 boxes would never return
    square = MultiRect((10 ** 6,), (10 ** 6,))
    assert s_vector(square, 2)[2] == r_vector(square, 2)[2] == 10 ** 12


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
    for k in range(2, 19):
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
    # on a 1/9973 grid both kernels scale S_j by powers of c, built from the
    # denominators, where one common denominator of all S_j holds 9973^40
    grid = Fraction(1, 9973)
    shapes = [MultiRect((grid,), (grid,)),
              MultiRect((3 * grid, 5 * grid), (7 * grid, 2 * grid)),
              MultiRect((grid, Fraction(1, 2), 9972 * grid), (4 * grid, 3 * grid, grid))]
    for m in shapes:
        svals = s_vector(m, 40)
        table = r_vector_from_s(svals, 40)
        assert all(free_cumulant_from_s(svals, k) == table[k] for k in range(2, 41))
        assert table[2] == m.box_count()
    # one grid box is the unit box scaled by 1/9973, and R_k(s lam) =
    # s^k R_k(lam); j S_j is over 9973^j, so c = 9973 is the least base
    svals = s_vector(shapes[0], 40)
    assert _graded_base({j: v.as_integer_ratio() for j, v in svals.items()}) == 9973
    unit = r_vector((1,), 40)
    assert r_vector_from_s(svals, 40) == {k: unit[k] * grid ** k for k in range(2, 41)}
    # here the j-th roots alone would give c = 200, twice the whole missing
    # parts; the base is their gcd
    m = MultiRect.from_strings("3/2,9/25,5/2", "4,1,3/4")
    svals = s_vector(m, 20)
    assert _graded_base({j: v.as_integer_ratio() for j, v in svals.items()}) == 100
    assert r_vector_from_s(svals, 20) == {k: free_cumulant_from_s(svals, k) for k in range(2, 21)}


def test_r_vector_from_s_matches_free_cumulant_from_s():
    # the table from one set of series powers against the one coefficient of
    # an exponential per k, two kernels that share no code; the table is also
    # checked against the composition sum up to k = 19 (about 0.7 s for the
    # six inputs; F(k-1) compositions at k)
    inputs = [s_vector(rows, 24) for rows in ((), (1,), (3, 2, 1), (7, 7, 4, 1))]
    inputs.append(s_vector(MultiRect.from_strings("1/2,3/2,5/3", "7/2,2,1"), 24))
    inputs.append({j: Fraction((-1) ** j * j, 7 + j) for j in range(2, 25)})
    for svals in inputs:
        for k_max in (2, 3, 4, 5, 24):
            table = r_vector_from_s(svals, k_max)
            assert table == {k: free_cumulant_from_s(svals, k) for k in range(2, k_max + 1)}
        assert all(table[k] == _r_by_composition_sum(svals, k) for k in range(2, 20))
    # a rational multirectangle deep into the table
    svals = s_vector(MultiRect((Fraction(1, 2), Fraction(3, 2), Fraction(5, 3)),
                               (Fraction(7, 2), 2, 1)), 60)
    assert r_vector_from_s(svals, 60) == {k: free_cumulant_from_s(svals, k) for k in range(2, 61)}
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
    with pytest.raises(KeyError, match="missing S_3 value"):
        free_cumulant_from_s({2: 1, 4: 1, 5: 1, 6: 1}, 6)
    with pytest.raises(KeyError, match="missing S_6 value"):
        free_cumulant_from_s({2: 1, 3: 1, 4: 1, 5: 1}, 6)
    for bad in (0.5, S(2)):
        with pytest.raises(TypeError, match="expected an exact rational"):
            free_cumulant_from_s({2: 1, 3: bad, 4: 1, 5: 1, 6: 1}, 6)
        with pytest.raises(TypeError, match="expected an exact rational"):
            free_cumulant_from_s({2: 1, 3: 1, 4: 1, 5: 1, 6: bad}, 6)
    # no composition of k into parts >= 2 uses S_{k-1}
    svals = s_vector((4, 3, 1), 6)
    del svals[5]
    assert free_cumulant_from_s(svals, 6) == r_vector((4, 3, 1), 6)[6]
    assert free_cumulant_from_s({**svals, 5: 0.5}, 6) == r_vector((4, 3, 1), 6)[6]


def test_free_cumulant_by_interpolation_examples():
    assert free_cumulant_by_interpolation((2, 1), 2) == 3
    assert free_cumulant_by_interpolation((2, 1), 4) == -6
    assert free_cumulant_by_interpolation((), 3) == 0


@pytest.mark.parametrize("k", range(2, 6))
def test_dilated_character_fits_degree_bound(k):
    # s -> Sigma_{k-1} of the s-dilated diagram is a polynomial of degree at
    # most k, so its (k+1)-th finite difference vanishes, and its k-th is
    # k! R_k, here R_k by composition from S.
    rows = (2, 1)
    assert _dilation_difference(rows, k, k + 1) == 0
    assert _dilation_difference(rows, k, k) == factorial(k) * r_vector(rows, k)[k]


def test_r_routes_agree():
    for rows in partitions_up_to(4):
        svals = s_vector(rows, 5)
        for k in range(2, 6):
            assert free_cumulant_from_s(svals, k) == \
                free_cumulant_by_interpolation(rows, k)


def _coloring_sum_reference(pi, r, cycle_total=None):
    # the coloring sum one coloring at a time: every phi2 in [r]^m2 of every
    # factorization pattern, phi1 of an s1-cycle the largest phi2-color
    # among the s2-cycles it meets
    names = [("p", i) for i in range(1, r + 1)] + [("q", i) for i in range(1, r + 1)]
    accum = Counter()
    for (m2, masks), mult in perms.factorization_patterns(pi).items():
        if cycle_total is not None and len(masks) + m2 != cycle_total:
            continue
        weight = mult if (len(pi) - len(masks)) % 2 == 0 else -mult
        owners = [[j for j in range(m2) if mask >> j & 1] for mask in masks]
        for phi2 in product(range(r), repeat=m2):
            exps = [0] * (2 * r)
            for color in phi2:
                exps[color] += 1
            for a in owners:
                exps[r + max(phi2[j] for j in a)] += 1
            accum[tuple(exps)] += weight
    return RatPoly({tuple((v, e) for v, e in zip(names, exps) if e): c
                    for exps, c in accum.items() if c})


@pytest.mark.parametrize("pi, r, cycle_total", [
    *((perms.canonical_cycle(k), r, total) for k in range(1, 7) for r in range(1, 4)
      for total in (None, k + 1)),
    (perms.canonical_cycle(7), 4, None),
    *((pi, r, None) for pi in ((2, 1, 4, 3), (2, 3, 1, 5, 4), (3, 5, 4, 2, 1))
      for r in range(1, 4)),
])
def test_multirect_factorization_sum_matches_coloring_loop(pi, r, cycle_total):
    # the multilinear mode is exactly the full sum's terms of degree at most 1
    # in every p_i
    want = _coloring_sum_reference(pi, r, cycle_total)
    part = RatPoly({mono: c for mono, c in want.terms()
                    if all(e == 1 for (fam, _), e in mono if fam == "p")})
    for multilinear, expected in ((False, want), (True, part)):
        got = _multirect_factorization_sum(pi, r, cycle_total, multilinear)
        assert got == expected, multilinear
        assert str(got) == str(expected)


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
    # scaling p -> s*p and q -> s*q multiplies R_k by s^k, as polynomials:
    # every monomial has p/q-degree k
    for r in (1, 2):
        poly = free_cumulant_multirect_symbolic(r, k)
        assert not poly.is_zero()
        assert all(sum(exp for _, exp in mono) == k for mono, _ in poly.terms())


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
