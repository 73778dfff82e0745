from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symchar import charoracle, functionals, stanley, verify
from symchar.charoracle import normalized_character, normalized_character_general
from symchar.diagrams import MultiRect, conjugate
from symchar.ratpoly import P, Q


def _partitions(n_max):
    """Partitions of at most n_max boxes: the longest prefix of the drawn
    parts that fits, sorted."""
    def build(parts):
        rows, total = [], 0
        for part in parts:
            if total + part > n_max:
                break
            rows.append(part)
            total += part
        return tuple(sorted(rows, reverse=True))
    return st.lists(st.integers(1, n_max), max_size=n_max).map(build)


_rational = st.builds(Fraction, st.integers(1, 9), st.integers(1, 5))


@st.composite
def _multirects(draw):
    r = draw(st.integers(1, 3))
    p = draw(st.lists(_rational, min_size=r, max_size=r))
    q = draw(st.lists(_rational, min_size=r, max_size=r))
    return MultiRect(p, sorted(q, reverse=True))


@settings(max_examples=50, deadline=None)
@given(_partitions(40), st.integers(2, 16))
def test_s_box_vs_frobenius_random(rows, k):
    assert verify.check_s_box_vs_frobenius([(rows, functionals.s_vector(rows, k))]) == (True, "")


@settings(max_examples=30, deadline=None)
@given(_partitions(20), st.integers(2, 6))
def test_r_composition_vs_interpolation_random(rows, k):
    assert verify.check_r_composition_vs_interpolation([rows], k) == (True, "")


@settings(max_examples=50, deadline=None)
@given(_multirects(), st.integers(2, 6))
def test_r_multirect_random(m, k):
    assert verify.check_r_multirect([m], k) == (True, "")


@settings(max_examples=50, deadline=None)
@given(_multirects(), st.integers(2, 8))
def test_s_multirect_random(m, k):
    # the corner form against the symbolic multinomial form, and against the
    # S_k, read from its rows, of the partition of the diagram scaled by the
    # common denominator D of the entries, S_k being homogeneous of degree k
    s = functionals.s_functional_multirect(m, k)
    symbolic = functionals.s_functional_multirect_symbolic(len(m.p), k)
    assert s == symbolic.evaluate(m.assignment())
    den = lcm(*(x.denominator for x in m.p + m.q))
    scaled = MultiRect([den * x for x in m.p], [den * x for x in m.q]).to_partition()
    assert s == functionals.s_vector(scaled, k)[k] / den ** k


@settings(max_examples=50, deadline=None)
@given(_partitions(30), st.data())
def test_sigma_beta_set_vs_mn_random(rows, data):
    # the beta-set sum against the strip recursion over hook dimensions, and
    # Sigma_k(lam') = (-1)^(k-1) Sigma_k(lam)
    k = data.draw(st.integers(1, sum(rows) + 1))
    sigma = normalized_character(rows, k)
    assert sigma == normalized_character_general(rows, (k,))
    assert normalized_character(conjugate(rows), k) == (-1) ** (k - 1) * sigma


# `symchar verify` prints these names, so they are pinned output, as literal
# strings: each row's name must keep reading the bounds its arguments read.
SUITE_6_5 = [
    "s-box-vs-frobenius[n<=6,k<=5]",
    "s-multirect-vs-boxes[entries<=2,r<=2,k<=5]",
    "r-composition-vs-interpolation[n<=6,k<=5]",
    "r-multirect-vs-composition[entries<=2,r<=2,k<=5]",
    "kerov-count-vs-conversion[k<=5]",
    "j-count-vs-stanley[k<=5]",
    "eval-vs-oracle[n<=6,k<=5]",
    "stanley-vs-oracle[k<=4,r<=2,entries<=2]",
    "s-coefficient-formula[k<=5]",
    "bracket-identity[k<=5,j1+j2<=7]",
    "order-independence[k<=5,l<=3]",
    "r-from-s-truncation[k<=5]",
    "graded-leading-term[k<=5]",
    "homogeneity[n*s^2<=36,k<=5]",
    "marriage-subset-vs-flow[k<=5]",
    "catalan-minimal-factorizations[k<=5]",
    "quadratic-count-vs-derivative[k<=5]",
    "dilation-polynomiality[n<=4,k<=5]",
]
SUITE_8_8 = [
    "s-box-vs-frobenius[n<=8,k<=8]",
    "s-multirect-vs-boxes[entries<=2,r<=2,k<=8]",
    "r-composition-vs-interpolation[n<=6,k<=5]",
    "r-multirect-vs-composition[entries<=2,r<=2,k<=5]",
    "kerov-count-vs-conversion[k<=6]",
    "j-count-vs-stanley[k<=5]",
    "eval-vs-oracle[n<=8,k<=8]",
    "stanley-vs-oracle[k<=4,r<=2,entries<=2]",
    "s-coefficient-formula[k<=7]",
    "bracket-identity[k<=6,j1+j2<=7]",
    "order-independence[k<=5,l<=3]",
    "r-from-s-truncation[k<=8]",
    "graded-leading-term[k<=6]",
    "homogeneity[n*s^2<=36,k<=6]",
    "marriage-subset-vs-flow[k<=5]",
    "catalan-minimal-factorizations[k<=7]",
    "quadratic-count-vs-derivative[k<=6]",
    "dilation-polynomiality[n<=4,k<=5]",
]


@pytest.mark.parametrize("max_n, max_k, names", [(6, 5, SUITE_6_5), (8, 8, SUITE_8_8)],
                         ids=["default", "8-8"])
def test_default_suite_names_in_order(max_n, max_k, names):
    results = verify.run_checks(max_n, max_k)
    assert [r.name for r in results] == names
    assert all(r.passed for r in results)


def _failed(results):
    return {r.name: r.detail for r in results if not r.passed}


def test_homogeneity_reports_the_failing_dilation(monkeypatch):
    # S_3 of the dilated diagram 2.(1,) = (2, 2) is off by one
    s_vector = functionals.s_vector

    def off_by_one(diagram, k_max):
        out = s_vector(diagram, k_max)
        if diagram == (2, 2) and 3 in out:
            out[3] += 1
        return out

    monkeypatch.setattr(functionals, "s_vector", off_by_one)
    assert verify.check_homogeneity(36, 6) == (False, "lam=(1,) k=3 s=2")
    failed = _failed(verify.run_checks(3, 3))
    assert failed["homogeneity[n*s^2<=36,k<=3]"] == "lam=(1,) k=3 s=2"


def test_bracket_identity_reports_the_failing_pair(monkeypatch):
    # an extra p_1 q_1^3 breaks the identity at m = j1 + j2 = 4 only
    stanley_character_poly = stanley.stanley_character_poly
    monkeypatch.setattr(stanley, "stanley_character_poly",
                        lambda pi, r: stanley_character_poly(pi, r) + P(1) * Q(1) ** 3)
    assert verify.check_bracket_identity(6, 7) == (False, "k=1 m=4")
    failed = _failed(verify.run_checks(3, 3))
    assert failed["bracket-identity[k<=3,j1+j2<=7]"] == "k=1 m=4"


@pytest.mark.parametrize("extra", [lambda rows: sum(rows) ** 2, lambda rows: sum(rows) * len(rows)],
                         ids=["n^2", "n*rows"])
def test_dilation_polynomiality_reports_the_failing_degree(monkeypatch, extra):
    # adding n^2 (degree 4 in s) or n times the row count (degree 3, one past
    # the bound) to Sigma_1 makes s -> Sigma_1(s.lam) of degree > 2 on every
    # non-empty diagram; the first one checked is (1,)
    normalized_character = charoracle.normalized_character
    monkeypatch.setattr(charoracle, "normalized_character",
                        lambda rows, k: normalized_character(rows, k) + (extra(rows) if k == 1 else 0))
    assert verify.check_dilation_polynomiality(4, 5) == (False, "lam=(1,) k=2: degree bound violated")
    failed = _failed(verify.run_checks(3, 3))
    assert failed["dilation-polynomiality[n<=3,k<=3]"] == "lam=(1,) k=2: degree bound violated"
