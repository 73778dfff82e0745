"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every comparison is exact (tolerance zero); runtime budgets are asserted
where stated.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import time

from symchar import kerov, stanley, verify
from symchar.diagrams import partitions_up_to
from symchar.ratpoly import RatPoly

K_KNOWN = {
    1: "R2",
    2: "R3",
    3: "R4 + R2",
    4: "R5 + 5*R3",
    5: "R6 + 15*R4 + 5*R2^2 + 8*R2",
    6: "R7 + 35*R5 + 35*R3*R2 + 84*R3",
}

J_KNOWN = {
    1: "S2",
    2: "S3",
    3: "S4 - 3/2*S2^2 + S2",
    4: "S5 - 4*S3*S2 + 5*S3",
    5: "S6 - 5*S4*S2 - 5/2*S3^2 + 25/6*S2^3 + 15*S4 - 35/2*S2^2 + 8*S2",
}


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number} {status}: {description}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)
    assert ok, detail or description


def test_criterion_1_kerov_polynomials():
    kerov.kerov_polynomial_by_counting.cache_clear()
    start = time.monotonic()
    mismatches = [
        k for k in range(1, 7)
        if kerov.kerov_polynomial_by_counting(k) != RatPoly.from_text(K_KNOWN[k])
    ]
    elapsed_small = time.monotonic() - start
    ok = not mismatches and elapsed_small < 10.0
    detail = f"mismatches={mismatches} elapsed={elapsed_small:.2f}s"
    start = time.monotonic()
    high_ok = all(
        kerov.kerov_polynomial_by_counting(k) == kerov.kerov_polynomial_by_conversion(k)
        for k in (7, 8))
    elapsed_high = time.monotonic() - start
    ok = ok and high_ok and elapsed_high < 300.0
    _report(1, "K_k term-for-term for k=1..6 (<10s); k=7,8 vs conversion (<5min)",
            ok, detail + f" high={high_ok} elapsed_high={elapsed_high:.2f}s")


def test_criterion_2_j_polynomials():
    stanley.j_polynomial_by_counting.cache_clear()
    start = time.monotonic()
    mismatches = [
        k for k in range(1, 6)
        if stanley.j_polynomial_by_counting(k) != RatPoly.from_text(J_KNOWN[k])
    ]
    elapsed = time.monotonic() - start
    _report(2, "J_k term-for-term for k=1..5 (<10s)",
            not mismatches and elapsed < 10.0,
            f"mismatches={mismatches} elapsed={elapsed:.2f}s")


def test_criterion_3_oracle_consistency():
    start = time.monotonic()
    ok, detail = verify.check_eval_vs_oracle(max_n=8, max_k=8)
    elapsed = time.monotonic() - start
    _report(3, "K_k and J_k evaluate to Sigma_k for all |lam| <= 8, k <= |lam| (<2min)",
            ok and elapsed < 120.0, f"{detail} elapsed={elapsed:.2f}s")


def test_criterion_4_stanley_formula():
    start = time.monotonic()
    ok, detail = verify.check_stanley_character_vs_oracle(max_k=5, max_r=2, max_entry=3)
    elapsed = time.monotonic() - start
    _report(4, "character formula vs oracle for all pi in S(k), k<=5, r<=2, "
               "entries<=3 (<5min)",
            ok and elapsed < 300.0, f"{detail} elapsed={elapsed:.2f}s")


def _failures(*results):
    return [detail for ok, detail in results if not ok]


def test_criterion_5_route_equalities():
    failures = _failures(
        verify.check_s_box_vs_frobenius(partitions_up_to(8), 8),
        verify.check_r_composition_vs_interpolation(partitions_up_to(6), 5),
        verify.check_r_multirect(verify.integral_multirects(3, 2), 5),
        verify.check_kerov_count_vs_conversion(7),
    )
    _report(5, "route equalities: S boxes=Frobenius (n<=8,k<=8); R composition="
               "interpolation (n<=6,k<=5) = multirectangular; K count=conversion (k<=7)",
            not failures, f"failures={failures[:3]}")


def test_criterion_6_identity_suite():
    failures = _failures(
        verify.check_s_coefficient_formula(7),
        verify.check_bracket_identity(6, 7),
        verify.check_order_does_not_matter(6, 3),
        verify.check_rands_truncation(10),
        verify.check_graded_leading_term(7),
        verify.check_homogeneity(36, 6),
    )
    _report(6, "identity suite: coefficient formula (k<=7), bracket identity "
               "(k<=6), order independence (l<=3), quadratic truncation (k<=10), "
               "graded leading term (k<=7), dilation homogeneity (n*s^2<=36)",
            not failures, f"failures={failures[:3]}")


def test_criterion_7_marriage_equivalence():
    start = time.monotonic()
    ok, detail = verify.check_marriage_equivalence(6)
    elapsed = time.monotonic() - start
    _report(7, "subset marriage check agrees with transportation flow check "
               "on every factorization pattern and coloring, k<=6 (<10min)",
            ok and elapsed < 600.0, f"{detail} elapsed={elapsed:.2f}s")


def test_criterion_8_combinatorial_sanity():
    failures = []
    ok, detail = verify.check_catalan_minimal_factorizations(8)
    if not ok:
        failures.append(detail)
    if kerov.kerov_quadratic_derivative(5, 2, 2) != 10:
        failures.append("d2/dR2^2 K5 != 10")
    if kerov.kerov_quadratic_derivative(6, 2, 3) != 35:
        failures.append("[R3 R2] K6 != 35")
    if kerov.kerov_quadratic_derivative(4, 2, 2) != 0:
        failures.append("[R2^2] K4 != 0")
    _report(8, "minimal factorizations are Catalan-many (k<=8); quadratic "
               "counts reproduce 10 and 35 independently",
            not failures, f"failures={failures}")
