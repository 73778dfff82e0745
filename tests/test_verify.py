from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from symchar import functionals, stanley, verify
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
    assert verify.check_s_box_vs_frobenius([rows], k) == (True, "")


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
    # content tally of the diagram scaled by the common denominator D of the
    # entries, S_k being homogeneous of degree k
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
    # an extra p_1 q_1^3 breaks the identity at j1 + j2 = 4 only
    stanley_character_poly = stanley.stanley_character_poly
    monkeypatch.setattr(stanley, "stanley_character_poly",
                        lambda pi, r: stanley_character_poly(pi, r) + P(1) * Q(1) ** 3)
    assert verify.check_bracket_identity(6, 7) == (False, "k=1 j1=2 j2=2")
    failed = _failed(verify.run_checks(3, 3))
    assert failed["bracket-identity[k<=3,j1+j2<=7]"] == "k=1 j1=2 j2=2"
