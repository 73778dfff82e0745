import importlib
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symchar
from symchar import functionals, kerov, stanley
from symchar.charoracle import normalized_character
from symchar.diagrams import dilate
from symchar.ratpoly import (
    P,
    Q,
    R,
    RatPoly,
    S,
    dilation_var,
    interpolate_univariate,
    make_var,
    mono_weight,
    parse_var_name,
)


def test_make_var_validation():
    with pytest.raises(ValueError):
        make_var("S", 1)
    with pytest.raises(ValueError):
        make_var("p", 0)
    with pytest.raises(ValueError):
        make_var("s", 2)
    with pytest.raises(ValueError):
        make_var("T", 1)
    assert parse_var_name("R7") == ("R", 7)
    assert parse_var_name("s") == ("s", 1)
    with pytest.raises(ValueError):
        parse_var_name("S")


def test_ring_trivials():
    assert (S(2) + (-S(2))).is_zero()
    assert S(2) * S(3) == RatPoly({((("S", 2), 1), (("S", 3), 1)): 1})
    assert Fraction(1, 2) * S(2) ** 2 + Fraction(1, 2) * S(2) ** 2 == S(2) ** 2


def test_coefficient_of():
    j4 = S(5) - 4 * S(2) * S(3) + 5 * S(3)
    assert j4.coefficient_of({("S", 3): 1}) == 5
    k5 = R(6) + 15 * R(4) + 5 * R(2) ** 2 + 8 * R(2)
    assert k5.coefficient_of({("R", 2): 2}) == 5
    assert RatPoly.zero().coefficient_of({("S", 2): 1}) == 0


def test_derivative_at_zero():
    f = Fraction(-3, 2) * S(2) ** 2
    assert f.derivative_at_zero([("S", 2), ("S", 2)]) == -3
    assert S(4).derivative_at_zero([("S", 4)]) == 1
    assert (5 * R(2) ** 2).derivative_at_zero([("R", 2), ("R", 2)]) == 10
    # S/R variables are zeroed after differentiation, constants survive
    assert (S(2) + RatPoly.const(3)).derivative_at_zero([]) == 3
    # leftover p/q variables are an error
    with pytest.raises(ValueError):
        (P(1) * S(2)).derivative_at_zero([("S", 2)])


def test_derivative_equals_multiplicity_times_coefficient():
    f = 7 * S(2) ** 3 - 2 * S(3) ** 2 + S(2)
    assert f.derivative_at_zero([("S", 2)] * 3) == 6 * 7
    assert f.derivative_at_zero([("S", 3)] * 2) == 2 * (-2)


def test_evaluate():
    assert S(2).evaluate({("S", 2): 3}) == 3
    assert (R(4) + R(2)).evaluate({("R", 4): -6, ("R", 2): 3}) == -3
    f = P(1) * Q(1) ** 2 - P(1) ** 2 * Q(1)
    assert f.evaluate({("p", 1): 2, ("q", 1): 2}) == 0
    with pytest.raises(KeyError):
        S(2).evaluate({("S", 3): 1})
    # the whole assignment is validated, also the variables that do not occur
    with pytest.raises(TypeError):
        S(2).evaluate({("S", 2): 1, ("S", 3): 0.5})
    # values must be int or Fraction; text is not parsed
    with pytest.raises(TypeError):
        S(2).evaluate({("S", 2): "1/2"})
    with pytest.raises(ValueError):
        S(2).evaluate({("S", 2): 1, ("S", 1): 0})
    with pytest.raises(KeyError, match="assignment missing variables: R2, S3"):
        (S(3) * R(2) + S(2)).evaluate({("S", 2): 1})


def test_substitute():
    f = S(4) - Fraction(3, 2) * S(2) ** 2 + S(2)
    g = f.substitute({("S", 4): R(4) + Fraction(3, 2) * R(2) ** 2, ("S", 2): R(2)})
    assert g == R(4) + R(2)


def test_canonical_text():
    k6 = R(7) + 35 * R(5) + 35 * R(3) * R(2) + 84 * R(3)
    assert str(k6) == "R7 + 35*R5 + 35*R3*R2 + 84*R3"
    j5 = (S(6) - 5 * S(2) * S(4) - Fraction(5, 2) * S(3) ** 2
          + Fraction(25, 6) * S(2) ** 3 + 15 * S(4)
          - Fraction(35, 2) * S(2) ** 2 + 8 * S(2))
    assert str(j5) == ("S6 - 5*S4*S2 - 5/2*S3^2 + 25/6*S2^3 + 15*S4"
                       " - 35/2*S2^2 + 8*S2")
    assert str(RatPoly.zero()) == "0"
    assert str(RatPoly.const(Fraction(-5, 2))) == "-5/2"
    with pytest.raises(TypeError):
        RatPoly.const("1/2")
    assert str(P(1) * Q(1) ** 2 - P(1) ** 2 * Q(1)) == "p1*q1^2 - p1^2*q1"


def test_text_round_trip():
    samples = [
        "R7 + 35*R5 + 35*R3*R2 + 84*R3",
        "S6 - 5*S4*S2 - 5/2*S3^2 + 25/6*S2^3 + 15*S4 - 35/2*S2^2 + 8*S2",
        "p1*q1^2 - p1^2*q1",
        "0",
        "-5/2",
        "s^2",
        "-p1^2*q1 + 3",
    ]
    for text in samples:
        poly = RatPoly.from_text(text)
        assert str(poly) == text
        assert RatPoly.from_text(str(poly)) == poly


def test_from_text_rejects_a_sign_without_a_term():
    for text in ["S2--S3", "S2+-S3", "S2+", "-"]:
        with pytest.raises(ValueError, match="^malformed polynomial text"):
            RatPoly.from_text(text)
    poly = RatPoly.from_text("S2 - S3")
    assert poly == S(2) - S(3) and str(poly) == "-S3 + S2"
    assert RatPoly.from_text(str(poly)) == poly


def test_json_round_trip():
    poly = R(6) + 15 * R(4) + 5 * R(2) ** 2 + 8 * R(2)
    assert RatPoly.from_json(poly.to_json()) == poly
    doc = poly.to_json_dict()
    assert doc["terms"][0] == {"mono": {"R6": 1}, "coeff": "1"}


def test_mono_weight():
    poly = R(3) * R(2)
    ((mono, _),) = poly.items()
    assert mono_weight(mono) == 5
    ((mono, _),) = (P(1) * Q(2) ** 3).items()
    assert mono_weight(mono) == 4


def test_interpolation_basics():
    const = interpolate_univariate([(0, 5), (1, 5), (2, 5)], 0)
    assert const == RatPoly.const(5)
    sq = interpolate_univariate([(0, 0), (1, 1), (2, 4)], 2)
    assert sq == dilation_var() ** 2
    with pytest.raises(ValueError, match="degree bound violated"):
        interpolate_univariate([(0, 0), (1, 1), (2, 4), (3, 10)], 2)
    with pytest.raises(ValueError, match="distinct"):
        interpolate_univariate([(1, 1), (1, 2)], 1)
    with pytest.raises(ValueError, match="at least"):
        interpolate_univariate([(0, 0)], 2)


@pytest.mark.parametrize("k", range(2, 6))
def test_dilated_character_fits_degree_bound(k):
    # s -> Sigma_{k-1} of the s-dilated diagram is a polynomial of degree
    # at most k; one extra node exercises the consistency check.
    rows = (2, 1)
    points = [(0, Fraction(0))]
    points += [(s, normalized_character(dilate(rows, s), k - 1))
               for s in range(1, k + 2)]
    interpolate_univariate(points, k)


VARS = [("S", 2), ("S", 3), ("R", 2), ("p", 1), ("q", 1), ("s", 1)]
mono_st = st.dictionaries(st.sampled_from(VARS), st.integers(1, 3), max_size=3)
coeff_st = st.fractions(min_value=-5, max_value=5, max_denominator=6)
poly_st = st.lists(st.tuples(mono_st, coeff_st), max_size=4).map(
    lambda items: sum(
        (RatPoly({tuple(m.items()): c}) for m, c in items), RatPoly.zero()))


@settings(max_examples=60, deadline=None)
@given(f=poly_st, g=poly_st, h=poly_st)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f + (-f)).is_zero()
    assert f * RatPoly.const(1) == f
    assert (f * RatPoly.zero()).is_zero()
    assert (f * g) * h == f * (g * h)


@settings(max_examples=60, deadline=None)
@given(f=poly_st)
def test_serialization_round_trips_exactly(f):
    assert RatPoly.from_text(str(f)) == f
    assert RatPoly.from_json(f.to_json()) == f


def _evaluate_term_by_term(poly, values):
    total = Fraction(0)
    for mono, coeff in poly.terms():
        term = coeff
        for var, exp in mono:
            term *= values[var] ** exp
        total += term
    return total


value_st = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-7, max_value=7, max_denominator=12),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 25)))


@settings(max_examples=80, deadline=None)
@given(f=poly_st, c=coeff_st, values=st.lists(value_st, min_size=len(VARS), max_size=len(VARS)))
def test_evaluate_matches_term_by_term(f, c, values):
    assign = dict(zip(VARS, values))
    for poly in (f, f + c, RatPoly.const(c), RatPoly.zero()):
        got = poly.evaluate(assign)
        assert type(got) is Fraction
        assert got == _evaluate_term_by_term(poly, assign)
    assert RatPoly.zero().evaluate({}) == 0
    assert RatPoly.const(c).evaluate({}) == c


@settings(max_examples=40, deadline=None)
@given(f=poly_st, g=poly_st)
def test_substitute_commutes_with_evaluate(f, g):
    assign = {v: Fraction(i - 2, 3) for i, v in enumerate(VARS)}
    direct = f.substitute({("S", 2): g}).evaluate(assign)
    composed = f.evaluate({**assign, ("S", 2): g.evaluate(assign)})
    assert direct == composed


def test_every_cache_is_bounded():
    caches = {id(obj): obj
              for info in pkgutil.iter_modules(symchar.__path__)
              for obj in vars(importlib.import_module(f"symchar.{info.name}")).values()
              if hasattr(obj, "cache_info")}
    assert len(caches) >= 6
    assert all(fn.cache_info().maxsize is not None for fn in caches.values())


TRUSTED_SITES = {
    "s_functional_multirect_symbolic": lambda: [
        functionals.s_functional_multirect_symbolic(r, k)
        for r in range(1, 5) for k in range(2, 10)],
    "_multirect_factorization_sum": lambda: [
        functionals.free_cumulant_multirect_symbolic(r, k)  # r = 4 at k = 9 takes 1.5 s
        for r in range(1, 5) for k in range(2, 10 if r < 4 else 9)] + [
        stanley.stanley_character_poly(pi, 2) for pi in ((2, 1, 4, 3), (2, 3, 1, 5, 4))],
    "kerov_polynomial_by_counting": lambda: [
        kerov.kerov_polynomial_by_counting(k) for k in range(1, 10)],
    "j_polynomial_by_counting": lambda: [
        stanley.j_polynomial_by_counting(k) for k in range(1, 9)],
    "j_polynomial_via_stanley": lambda: [
        stanley.j_polynomial_via_stanley(k) for k in range(1, 8)],
    "r_in_terms_of_s": lambda: [functionals.r_in_terms_of_s(k) for k in range(2, 19)],
    "s_in_terms_of_r": lambda: list(kerov.s_in_terms_of_r(18).values()),
    # every path that merges terms, with sums that cancel where the path can
    "_collect": lambda: [
        (S(2) + S(3)) * (S(2) - S(3)),
        (S(2) + S(3)) + (S(3) - S(2)),
        RatPoly({((("S", 2), 1),): 1, ((("S", 3), 0), (("S", 2), 1)): -1, (): 2}),
        (S(2) * S(3) + S(3) ** 2).substitute({("S", 3): -S(2)}),
        (S(2) ** 3 * S(3) - S(3) * S(4))._diff(("S", 3)),
        RatPoly.from_text("S2 + S3 - S2"),
        RatPoly.from_text("S2 - S2"),
        RatPoly.from_json_dict({"terms": [{"mono": {"S2": 1}, "coeff": "1"},
                                          {"mono": {"S3": 1}, "coeff": "1"},
                                          {"mono": {"S2": 1}, "coeff": "-1"}]}),
        RatPoly.from_json_dict({"terms": [{"mono": {"S2": 1}, "coeff": "1"},
                                          {"mono": {"S2": 1}, "coeff": "-1"}]}),
        stanley.p_bracket(P(1) * Q(1) + P(1) * Q(2) - P(1) * P(2) + P(2), [1])],
}


@pytest.mark.parametrize("site", sorted(TRUSTED_SITES))
def test_trusted_constructor_sites_are_canonical(site):
    # each site skips RatPoly(...) normalization; renormalizing its output
    # must change nothing, and every coefficient is a non-zero Fraction
    for poly in TRUSTED_SITES[site]():
        assert RatPoly(dict(poly.terms())) == poly
        assert all(type(c) is Fraction and c for _, c in poly.terms())


def test_merged_terms_cancel():
    # equal monomials sum, and a zero sum leaves no term
    assert (S(2) + S(3)) * (S(2) - S(3)) == S(2) ** 2 - S(3) ** 2
    assert len(list(((S(2) + S(3)) * (S(2) - S(3))).terms())) == 2
    assert (S(2) * S(3) + S(3) ** 2).substitute({("S", 3): -S(2)}).is_zero()
    assert (4 * S(3) + S(2) * S(3)).derivative_at_zero([("S", 3)]) == 4
    assert RatPoly.from_text("S2 + S3 - S2") == S(3)
    assert RatPoly.from_text("S2 - S2").is_zero()
    assert RatPoly.from_text("S2*S3*S2") == S(2) ** 2 * S(3)
    assert RatPoly.from_json_dict({"terms": [{"mono": {"S2": 1}, "coeff": "1"},
                                             {"mono": {"S2": 1}, "coeff": "-1"}]}).is_zero()
    assert stanley.p_bracket(P(1) * Q(1) + P(1) * Q(2) - P(1) * P(2), [1]) == Q(1) + Q(2)
    assert RatPoly({((("S", 2), 1),): 1, ((("S", 3), 0), (("S", 2), 1)): -1}).is_zero()


def test_constructor_validates_every_monomial():
    # a zero coefficient does not skip the check of its monomial
    with pytest.raises(ValueError, match="unknown variable family"):
        RatPoly({((("X", 1), 1),): 0})
    with pytest.raises(ValueError):
        RatPoly({(("X", 1), 1): 0})
