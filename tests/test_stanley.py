from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from itertools import permutations as iterperms
from itertools import product
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symchar import functionals, perms, stanley
from symchar.charoracle import normalized_character_general
from symchar.diagrams import MultiRect
from symchar.ratpoly import P, Q, RatPoly, S, _collect
from symchar.stanley import (
    check_s_coefficient_formula,
    j_monomial_multisets,
    j_polynomial_by_counting,
    j_polynomial_via_stanley,
    p_bracket,
    pq_bracket,
    stanley_character_poly,
)

J_EXPECTED = {
    1: "S2",
    2: "S3",
    3: "S4 - 3/2*S2^2 + S2",
    4: "S5 - 4*S3*S2 + 5*S3",
    5: "S6 - 5*S4*S2 - 5/2*S3^2 + 25/6*S2^3 + 15*S4 - 35/2*S2^2 + 8*S2",
}


def test_identity_permutation_single_point():
    poly = stanley_character_poly((1,), 3)
    assert poly == P(1) * Q(1) + P(2) * Q(2) + P(3) * Q(3)


def test_transposition_one_block():
    assert stanley_character_poly((2, 1), 1) == P(1) * Q(1) ** 2 - P(1) ** 2 * Q(1)


def test_three_cycle_against_oracle():
    poly = stanley_character_poly(perms.canonical_cycle(3), 1)
    value = poly.evaluate({("p", 1): 2, ("q", 1): 2})
    assert value == normalized_character_general((2, 2), (3,))
    assert value == -12


def test_character_formula_small_sweep():
    # all pi in S(k), k <= 4, blocks r <= 2, entries <= 2
    for k in range(1, 5):
        for pi in perms.all_perms(k):
            ptype = perms.cycle_type(pi)
            for r in (1, 2):
                poly = stanley_character_poly(pi, r)
                for p in product(range(1, 3), repeat=r):
                    for q in product(range(1, 3), repeat=r):
                        if any(q[i] < q[i + 1] for i in range(r - 1)):
                            continue
                        m = MultiRect(p, q)
                        assign = {}
                        for i in range(1, r + 1):
                            assign[("p", i)] = p[i - 1]
                            assign[("q", i)] = q[i - 1]
                        assert poly.evaluate(assign) == \
                            normalized_character_general(m.to_partition(), ptype)


def test_s_coefficient_formula_examples():
    # [p_i] S_k = q_i^{k-1}
    got = p_bracket(functionals.s_functional_multirect_symbolic(2, 5), (2,))
    assert got == Q(2) ** 4
    # k=4, s=2, indices (1,2): -3 * q2^2
    got = p_bracket(functionals.s_functional_multirect_symbolic(2, 4), (1, 2))
    assert got == -3 * Q(2) ** 2
    # s = k: coefficient 0
    assert check_s_coefficient_formula(3, (1, 2, 3))
    assert p_bracket(functionals.s_functional_multirect_symbolic(3, 3), (1, 2, 3)).is_zero()


def test_s_coefficient_formula_sweep():
    for k in range(2, 7):
        for s in range(1, k + 2):
            assert check_s_coefficient_formula(k, tuple(range(1, s + 1)))
            assert check_s_coefficient_formula(k, tuple(range(2, s + 2)))


def _p_bracket_by_sets(poly, indices):
    # the reference form of p_bracket: compare each term's p-part as a set
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


# p-exponents 1-2 and more p-variables than any index list names
_var_st = st.one_of(
    st.tuples(st.sampled_from([("p", i) for i in range(1, 5)]), st.integers(1, 2)),
    st.tuples(st.sampled_from([("q", 1), ("q", 2), ("S", 2), ("S", 3), ("R", 2)]),
              st.integers(1, 3)))
_poly_st = st.dictionaries(
    st.lists(_var_st, max_size=6).map(lambda pairs: tuple(dict(pairs).items())),
    st.fractions(min_value=-5, max_value=5, max_denominator=6), max_size=12).map(RatPoly)


@settings(max_examples=100, deadline=None)
@given(poly=_poly_st, indices=st.lists(st.integers(1, 5), unique=True, max_size=4))
@example(poly=P(1) * Q(1) + Q(2) * S(2) + 3 - P(2) ** 2, indices=[])
@example(poly=P(1) * P(2) * Q(1) + P(1) * Q(2) + P(1) * P(3) - P(1) ** 2 * P(2) + P(1),
         indices=[2, 1])
def test_p_bracket_matches_set_form(poly, indices):
    # unsorted and empty index lists, and indices no term carries; the
    # product gives terms with exactly the listed p-part, and with a square
    # of one of them where a term of poly already holds that p; the second
    # example's terms share their first factor p1 with the prefix, or its
    # variable with another exponent
    marked = poly * RatPoly({tuple((("p", i), 1) for i in indices): 1}) + poly
    for f in (poly, marked):
        assert p_bracket(f, indices) == _p_bracket_by_sets(f, indices)


def test_p_bracket_rejects_duplicate_indices():
    for indices in ([1, 1], [2, 1, 2]):
        with pytest.raises(ValueError, match="indices must be distinct"):
            p_bracket(P(1) * P(2) * Q(1), indices)


def test_p_bracket_rejects_inexact_indices():
    # ("p", 1.0), ("p", True) and ("p", Fraction(1)) compare equal to ("p", 1)
    for indices in ([1.0], [True], [2, 1.0], [Fraction(1)], [1, False]):
        with pytest.raises(TypeError, match="indices must be ints"):
            p_bracket(P(1) * P(2) * Q(1), indices)


def test_bracket_indices_start_at_one():
    # no polynomial has a block p_0 or p_-1: reading one is an error, not an
    # empty bracket, nor a failing coefficient identity
    for indices in ([0], [2, 0], [-1, 1]):
        with pytest.raises(ValueError, match="indices must be >= 1"):
            p_bracket(P(1) * P(2) * Q(1), indices)
    for indices in ((0,), (0, 1), (-1, 2, 3)):
        with pytest.raises(ValueError, match="indices must be >= 1"):
            check_s_coefficient_formula(3, indices)
    assert p_bracket(P(1) * P(2) * Q(1), [2, 1]) == Q(1)
    assert p_bracket(P(1) * P(2) * Q(1), []).is_zero()


def test_derivative_via_stanley_on_s_monomials():
    for m in (2, 3, 4):
        poly = functionals.s_functional_multirect_symbolic(2, m)
        for j in (2, 3, 4):
            assert pq_bracket(poly, (j,)) == (1 if j == m else 0)
    # product S2*S3: both orders give 1
    prod = (functionals.s_functional_multirect_symbolic(2, 2)
            * functionals.s_functional_multirect_symbolic(2, 3))
    assert pq_bracket(prod, (2, 3)) == 1
    assert pq_bracket(prod, (3, 2)) == 1


def test_derivative_via_stanley_on_character():
    poly = stanley_character_poly(perms.canonical_cycle(3), 1)
    assert pq_bracket(poly, (4,)) == 1
    assert pq_bracket(poly, (2,)) == 1  # J_3 has S_2 with coefficient 1


@pytest.mark.parametrize("k", sorted(J_EXPECTED))
def test_j_polynomials_match_display(k):
    assert j_polynomial_by_counting(k) == RatPoly.from_text(J_EXPECTED[k])


def _j_by_labelings(k):
    # the labeling loop that the chains of j_polynomial_by_counting replace:
    # every bijective labeling of the s2-cycles of every pattern, each
    # s1-cycle counted at the largest label among the s2-cycles it meets,
    # the labelings that leave a label the maximum of none dropped
    by_multiset = Counter()
    for (m2, masks), mult in perms.factorization_patterns(perms.canonical_cycle(k)).items():
        adj = [[j for j in range(m2) if mask >> j & 1] for mask in masks]
        for labeling in iterperms(range(1, m2 + 1)):
            counts = [0] * m2
            for a in adj:
                counts[max(labeling[j] for j in a) - 1] += 1
            if 0 not in counts:
                by_multiset[tuple(sorted(c + 1 for c in counts))] += mult
    return RatPoly({tuple((("S", j), e) for j, e in Counter(key).items()):
                    Fraction((-1) ** (len(key) - 1) * total, factorial(len(key)))
                    for key, total in by_multiset.items()})


@pytest.mark.parametrize("k", range(1, 10))
def test_j_count_matches_labeling_loop(k):
    got, want = j_polynomial_by_counting(k), _j_by_labelings(k)
    assert got == want
    assert str(got) == str(want)


@pytest.mark.parametrize("k", range(1, 9))
def test_j_count_equals_stanley_extraction(k):
    assert j_polynomial_by_counting(k) == j_polynomial_via_stanley(k)


@pytest.mark.parametrize("k", [0, -2])
def test_j_via_stanley_rejects_k_below_one(k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        j_polynomial_via_stanley(k)


def test_j_extraction_independent_of_extra_blocks():
    # an empty top block leaves the r-block polynomial, so the brackets that
    # J_k reads need only as many blocks as its longest monomial has factors
    for k in range(1, 6):
        pi = perms.canonical_cycle(k)
        for r in (1, 2, 3):
            emptied = stanley_character_poly(pi, r + 1).substitute({("p", r + 1): RatPoly.zero()})
            assert emptied == stanley_character_poly(pi, r), (k, r)


def test_order_does_not_matter():
    for k in range(1, 7):
        poly = stanley_character_poly(perms.canonical_cycle(k), 3)
        for ms in j_monomial_multisets(k):
            if len(ms) > 3 or len(set(ms)) == 1:
                continue
            values = {pq_bracket(poly, order) for order in set(iterperms(ms))}
            assert len(values) == 1, (k, ms, values)


def _bracket_identity_holds(poly, j1, j2):
    # (j1+j2-1) [p_1 q_1^{j1+j2-1}] F = -[p_1 p_2 q_2^{j1+j2-2}] F
    m = j1 + j2
    return ((m - 1) * poly.coefficient_of({("p", 1): 1, ("q", 1): m - 1})
            == -poly.coefficient_of({("p", 1): 1, ("p", 2): 1, ("q", 2): m - 2}))


def test_bracket_identity_on_s_monomial():
    # F = S_{j1+j2}: both sides reduce to the single-S coefficient formula
    for j1, j2 in ((2, 2), (2, 3), (3, 4)):
        poly = functionals.s_functional_multirect_symbolic(2, j1 + j2)
        assert _bracket_identity_holds(poly, j1, j2)


def test_bracket_identity_quadratic_vanishes():
    poly = (functionals.s_functional_multirect_symbolic(2, 2)
            * functionals.s_functional_multirect_symbolic(2, 3))
    m = 4  # j1 = j2 = 2
    assert poly.coefficient_of({("p", 1): 1, ("q", 1): m - 1}) == 0
    assert poly.coefficient_of({("p", 1): 1, ("p", 2): 1, ("q", 2): m - 2}) == 0
    assert _bracket_identity_holds(poly, 2, 2)


def test_graded_leading_terms():
    # weight j-1 for S_j: the two top weights of J_k are
    # S_{k+1} - (k/2) sum_{j1+j2=k+1} S_{j1} S_{j2}
    for k in range(3, 8):
        expected = S(k + 1)
        for j1 in range(2, k):
            j2 = k + 1 - j1
            if j2 >= 2:
                expected = expected - Fraction(k, 2) * S(j1) * S(j2)
        diff = j_polynomial_by_counting(k) - expected
        for mono, _ in diff.items():
            weight = sum((idx - 1) * e for (_, idx), e in mono)
            assert weight < k - 1, (k, mono)


def test_polynomial_identity_on_rational_diagrams():
    # Sigma_k, J_k(S) and K_k(R) are the same polynomial function, so they
    # must agree on generalized diagrams with non-integer block sizes.
    from symchar.functionals import free_cumulant_from_s, s_functional_multirect
    from symchar.kerov import kerov_polynomial_by_counting

    m = MultiRect((Fraction(1, 2), Fraction(3, 2)), (Fraction(5, 2), Fraction(1)))
    assign = {}
    for i in (1, 2):
        assign[("p", i)] = m.p[i - 1]
        assign[("q", i)] = m.q[i - 1]
    svals = {j: s_functional_multirect(m, j) for j in range(2, 7)}
    rvals = {j: free_cumulant_from_s(svals, j) for j in range(2, 7)}
    for k in range(1, 6):
        sigma = stanley_character_poly(perms.canonical_cycle(k), 2).evaluate(assign)
        via_j = j_polynomial_by_counting(k).evaluate(
            {("S", j): v for j, v in svals.items()})
        via_k = kerov_polynomial_by_counting(k).evaluate(
            {("R", j): v for j, v in rvals.items()})
        assert sigma == via_j == via_k


def _cycles_intersect(c1, c2):
    return not set(c1).isdisjoint(c2)


def test_chunked_aggregation_is_order_independent():
    # the factorization stream can be split by one-line prefix and the
    # per-chunk sums merged in any order
    k, r = 4, 2
    pi = perms.canonical_cycle(k)
    full = stanley_character_poly(pi, r)
    chunks = {}
    for s1, s2 in perms.factorizations_of_cycle(k):
        chunks.setdefault(s1[0], []).append((s1, s2))
    merged = RatPoly.zero()
    for prefix in sorted(chunks, reverse=True):
        part = RatPoly.zero()
        for s1, s2 in chunks[prefix]:
            sg = perms.sign(s1)
            c1, c2 = perms.cycles(s1), perms.cycles(s2)
            for phi2 in product(range(1, r + 1), repeat=len(c2)):
                term = RatPoly.const(sg)
                for cyc in c1:
                    color = max(phi2[j] for j, c in enumerate(c2)
                                if _cycles_intersect(cyc, c))
                    term = term * Q(color)
                for color in phi2:
                    term = term * P(color)
                part = part + term
        merged = merged + part
    assert merged == full


def test_j_monomial_multisets_bound():
    assert (2,) in j_monomial_multisets(1)
    for ms in j_monomial_multisets(6):
        assert sum(ms) <= 7
        assert all(j >= 2 for j in ms)
    for k in range(1, 9):
        brute = {ms for l in range(1, k + 2) for ms in combinations_with_replacement(range(2, k + 2), l)
                 if sum(ms) <= k + 1}
        assert j_monomial_multisets(k) == sorted(brute)
