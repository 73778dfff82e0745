from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symchar import perms
from symchar.charoracle import normalized_character
from symchar.diagrams import MultiRect, partitions, partitions_up_to
from symchar.functionals import (free_cumulant_from_s, r_in_terms_of_s, r_vector, r_vector_from_s,
                                 s_vector)
from symchar.kerov import (
    _candidate_patterns,
    kerov_polynomial_by_conversion,
    kerov_polynomial_by_counting,
    kerov_quadratic_derivative,
    marriage_condition,
    marriage_condition_flow,
    s_in_terms_of_r,
)
from symchar.ratpoly import R, RatPoly, S
from symchar.stanley import j_polynomial_by_counting

K_EXPECTED = {
    1: "R2",
    2: "R3",
    3: "R4 + R2",
    4: "R5 + 5*R3",
    5: "R6 + 15*R4 + 5*R2^2 + 8*R2",
    6: "R7 + 35*R5 + 35*R3*R2 + 84*R3",
}

def test_marriage_single_cycle_vacuous():
    # one s2-cycle, met by the one s1-cycle: no nontrivial subset to check
    assert marriage_condition((1,), 1, (2,))
    assert marriage_condition_flow((1,), 1, (2,))


def test_marriage_failing_transposition():
    # sigma1 = (1 2), sigma2 = (2 3): the fixed point {1} of sigma2 meets
    # only one sigma1-cycle, but its color demands one husband exclusively.
    # s2-cycles (1), (2 3) are bits 0, 1; s1-cycles (1 2), (3) meet 3 and 2.
    assert not marriage_condition((2, 3), 2, (2, 2))
    assert not marriage_condition_flow((2, 3), 2, (2, 2))


@pytest.mark.parametrize("masks, m2, colors", [
    ((1,), 1, (2, 2)),      # one color too many
    ((2, 3), 2, (3, 1)),    # a color below 2
    ((2, 3), 2, (2, 3)),    # total 5, not 2 + 2
    ((0, 3), 2, (2, 2)),    # an s1-cycle meeting no s2-cycle
    ((4, 3), 2, (2, 2)),    # a third s2-cycle
])
def test_marriage_rejects_an_inconsistent_pattern(masks, m2, colors):
    for condition in (marriage_condition, marriage_condition_flow):
        with pytest.raises(ValueError, match="^need masks in 1..2"):
            condition(masks, m2, colors)


def test_color_sum_invariant():
    for k in range(1, 6):
        for _, masks, _, colorings in _candidate_patterns(k):
            for colors in colorings:
                assert sum(c - 1 for c in colors) == len(masks)


@pytest.mark.parametrize("k", range(1, 8))
def test_marriage_equivalence(k):
    for m2, masks, _, colorings in _candidate_patterns(k):
        for colors in colorings:
            assert marriage_condition(masks, m2, colors) == \
                marriage_condition_flow(masks, m2, colors), (m2, masks, colors)


@pytest.mark.parametrize("k", sorted(K_EXPECTED))
def test_kerov_polynomials_match_display(k):
    assert kerov_polynomial_by_counting(k) == RatPoly.from_text(K_EXPECTED[k])


def test_k5_r2r2_triple_count():
    # ten labeled triples behind the second derivative 2! * 5 of the R2^2 term
    assert kerov_polynomial_by_counting(5).coefficient_of({("R", 2): 2}) == 5
    assert kerov_polynomial_by_counting(5).derivative_at_zero(
        [("R", 2), ("R", 2)]) == 10
    # by a walk over all 120 pairs: two s2-cycles colored 2 need two s1-cycles
    passing = 0
    for s1, s2 in perms.factorizations_of_cycle(5):
        c1, c2 = perms.cycles(s1), perms.cycles(s2)
        if len(c1) == len(c2) == 2:
            masks = [sum(1 << j for j, c in enumerate(c2) if set(cyc) & set(c)) for cyc in c1]
            passing += marriage_condition(masks, 2, (2, 2))
    assert passing == 5


def test_s_in_terms_of_r_low_orders():
    table = s_in_terms_of_r(4)
    assert table[2] == R(2)
    assert table[3] == R(3)
    assert table[4] == R(4) + Fraction(3, 2) * R(2) ** 2
    with pytest.raises(ValueError, match="k_max must be >= 2"):
        s_in_terms_of_r(1)


def test_s_in_terms_of_r_table_is_read_only():
    table = s_in_terms_of_r(4)
    with pytest.raises(TypeError):
        table[4] = None
    with pytest.raises(TypeError):
        del table[3]
    assert s_in_terms_of_r(4) == {2: R(2), 3: R(3), 4: R(4) + Fraction(3, 2) * R(2) ** 2}
    assert str(kerov_polynomial_by_conversion(3)) == "R4 + R2"


def _s_by_triangular_inversion(k_max):
    # R_k = S_k + (products of S_j, j <= k - 2), solved for S_k order by order
    inv = {}
    for k in range(2, k_max + 1):
        lower = r_in_terms_of_s(k) - S(k)
        inv[k] = R(k) - lower.substitute({("S", j): inv[j] for j in range(2, k - 1)})
    return inv


def test_s_in_terms_of_r_matches_triangular_inversion():
    assert s_in_terms_of_r(12) == _s_by_triangular_inversion(12)


def _partition_from_parts(parts):
    rows, total = [], 0
    for part in parts:
        if total + part > 30:
            break
        rows.append(part)
        total += part
    return tuple(sorted(rows, reverse=True))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 30), max_size=30).map(_partition_from_parts),
       st.integers(2, 16))
def test_s_in_terms_of_r_inverts_r_from_s(rows, k):
    svals = s_vector(rows, k)
    rvals = {j: free_cumulant_from_s(svals, j) for j in range(2, k + 1)}
    assert s_in_terms_of_r(k)[k].evaluate({("R", j): v for j, v in rvals.items()}) == svals[k]


def test_s_in_terms_of_r_inverts_the_numeric_series_at_k24():
    # R from the truncated power series of r_vector_from_s shares no step
    # with the closed form; every S_j, j <= 24, enters S_24 through R_2..R_24
    table = s_in_terms_of_r(24)
    shapes = [(1,), (3, 2, 1), (7, 7, 4, 1), MultiRect.from_strings("1/2,3/2,5/3", "7/2,2,1")]
    for shape in shapes:
        svals = s_vector(shape, 24)
        rvals = r_vector_from_s(svals, 24)
        assert table[24].evaluate({("R", j): v for j, v in rvals.items()}) == svals[24]


def test_s_in_terms_of_r_round_trip():
    table = s_in_terms_of_r(10)
    for k in range(2, 11):
        back = r_in_terms_of_s(k).substitute(
            {("S", j): table[j] for j in range(2, k + 1)})
        assert back == R(k)


def test_conversion_by_hand_k3():
    # S4 - 3/2 S2^2 + S2 with S4 = R4 + 3/2 R2^2 and S2 = R2 gives R4 + R2
    jpoly = S(4) - Fraction(3, 2) * S(2) ** 2 + S(2)
    table = s_in_terms_of_r(4)
    assert jpoly.substitute({("S", j): table[j] for j in (2, 3, 4)}) == R(4) + R(2)


@pytest.mark.parametrize("k", range(1, 6))
def test_count_equals_conversion(k):
    assert kerov_polynomial_by_counting(k) == kerov_polynomial_by_conversion(k)


@pytest.mark.parametrize("k", range(1, 9))
def test_coefficients_nonnegative_integers_and_leading_term(k):
    poly = kerov_polynomial_by_counting(k)
    for _, coeff in poly.items():
        assert coeff.denominator == 1
        assert coeff >= 0
    assert poly.coefficient_of({("R", k + 1): 1}) == 1


def test_evaluation_against_oracle():
    for rows in partitions_up_to(6):
        n = sum(rows)
        rvals = r_vector(rows, n + 1)
        assign = {("R", j): v for j, v in rvals.items()}
        for k in range(1, n + 1):
            assert kerov_polynomial_by_counting(k).evaluate(assign) == \
                normalized_character(rows, k)


def test_k9_and_j8_against_oracle():
    k9 = kerov_polynomial_by_counting(9)
    j8 = j_polynomial_by_counting(8)
    shapes = [rows for n in (8, 9, 10) for rows in partitions(n)]
    assert len(shapes) == 94
    for rows in shapes:
        r_assign = {("R", j): v for j, v in r_vector(rows, 10).items()}
        s_assign = {("S", j): v for j, v in s_vector(rows, 9).items()}
        assert k9.evaluate(r_assign) == normalized_character(rows, 9), rows
        assert j8.evaluate(s_assign) == normalized_character(rows, 8), rows


def test_evaluation_beyond_diagram_size():
    # for k > n the normalized character vanishes, and the polynomial
    # identity still holds because the falling factorial passes through 0
    for rows in partitions_up_to(3):
        n = sum(rows)
        rvals = r_vector(rows, 7)
        assign = {("R", j): v for j, v in rvals.items()}
        for k in range(n + 1, 7):
            assert kerov_polynomial_by_counting(k).evaluate(assign) == 0
            assert normalized_character(rows, k) == 0


def test_quadratic_derivative_counts():
    assert kerov_quadratic_derivative(5, 2, 2) == 10
    assert kerov_quadratic_derivative(6, 2, 3) == 35
    assert kerov_quadratic_derivative(6, 3, 2) == 35
    assert kerov_quadratic_derivative(4, 2, 2) == 0


def test_quadratic_derivative_against_polynomial():
    for k in range(1, 8):
        kpoly = kerov_polynomial_by_counting(k)
        for j1 in range(2, k):
            for j2 in range(j1, k + 2 - j1):
                assert kerov_quadratic_derivative(k, j1, j2) == \
                    kpoly.derivative_at_zero([("R", j1), ("R", j2)])
