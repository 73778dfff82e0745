"""Cross-route and identity checks, over size bounds or given diagrams.

Every check recomputes the same quantity through at least two independent
routes and demands exact equality.  Each function returns (passed, detail)
with the first counterexample in detail on failure; run_checks assembles the
set used by the command-line verifier.  No other module compares two routes,
except stanley.check_s_coefficient_formula, which the benchmark's symbolic
workload times by name; check_s_coefficient_formula here runs it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations as iterperms
from itertools import product as iproduct
from math import comb, factorial
from typing import NamedTuple

from symchar import charoracle, functionals, kerov, perms, stanley
from symchar.diagrams import MultiRect, dilate, frobenius, partitions_up_to
from symchar.ratpoly import RatPoly, interpolate_univariate


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def check_s_box_vs_frobenius(diagrams, max_k: int):
    for rows in diagrams:
        fc = frobenius(rows)
        for k, a in functionals.s_vector(rows, max_k).items():
            b = functionals.s_functional_frobenius(fc, k)
            if a != b:
                return False, f"lam={rows} k={k}: boxes {a} != frobenius {b}"
    return True, ""


def integral_multirects(max_entry: int, max_r: int, n_cap: int | None = None):
    """Integral MultiRects by block count 1..max_r, entries 1..max_entry, <= n_cap boxes."""
    for r in range(1, max_r + 1):
        for p in iproduct(range(1, max_entry + 1), repeat=r):
            for q in iproduct(range(1, max_entry + 1), repeat=r):
                if any(q[i] < q[i + 1] for i in range(r - 1)):
                    continue
                m = MultiRect(p, q)
                if n_cap is not None and m.box_count() > n_cap:
                    continue
                yield m


def check_s_multirect_vs_boxes(max_entry: int, max_r: int, max_k: int, n_cap: int):
    for m in integral_multirects(max_entry, max_r, n_cap):
        rows = m.to_partition()
        for k in range(2, max_k + 1):
            a = functionals.s_functional_multirect(m, k)
            b = functionals.s_functional_boxes(rows, k)
            if a != b:
                return False, f"p={m.p} q={m.q} k={k}: {a} != {b}"
    return True, ""


def check_r_composition_vs_interpolation(diagrams, max_k: int):
    for rows in diagrams:
        rvals = functionals.r_vector_from_s(functionals.s_vector(rows, max_k), max_k)
        for k in range(2, max_k + 1):
            a = rvals[k]
            b = functionals.free_cumulant_by_interpolation(rows, k)
            if a != b:
                return False, f"lam={rows} k={k}: composition {a} != interpolation {b}"
    return True, ""


def check_r_multirect(multirects, max_k: int):
    for m in multirects:
        rvals = functionals.r_vector_from_s(functionals.s_vector(m, max_k), max_k)
        for k in range(2, max_k + 1):
            a = functionals.free_cumulant_multirect(m, k)
            b = rvals[k]
            if a != b:
                return False, f"p={m.p} q={m.q} k={k}: factorization sum {a} != {b}"
    return True, ""


def check_kerov_count_vs_conversion(max_k: int):
    for k in range(1, max_k + 1):
        a = kerov.kerov_polynomial_by_counting(k)
        b = kerov.kerov_polynomial_by_conversion(k)
        if a != b:
            return False, f"k={k}: counting {a} != conversion {b}"
    return True, ""


def check_j_count_vs_stanley(max_k: int):
    for k in range(1, max_k + 1):
        a = stanley.j_polynomial_by_counting(k)
        b = stanley.j_polynomial_via_stanley(k)
        if a != b:
            return False, f"k={k}: counting {a} != extraction {b}"
    return True, ""


def check_eval_vs_oracle(max_n: int, max_k: int):
    """evaluate(K_k, R(lam)) = Sigma_k(lam) = evaluate(J_k, S(lam))."""
    for rows in partitions_up_to(max_n):
        top = min(sum(rows), max_k)
        svals = functionals.s_vector(rows, top + 1)
        rvals = functionals.r_vector(rows, top + 1)
        s_assign = {("S", j): v for j, v in svals.items()}
        r_assign = {("R", j): v for j, v in rvals.items()}
        for k in range(1, top + 1):
            sigma = charoracle.normalized_character(rows, k)
            via_k = kerov.kerov_polynomial_by_counting(k).evaluate(r_assign)
            if via_k != sigma:
                return False, f"lam={rows} k={k}: K gives {via_k}, oracle {sigma}"
            via_j = stanley.j_polynomial_by_counting(k).evaluate(s_assign)
            if via_j != sigma:
                return False, f"lam={rows} k={k}: J gives {via_j}, oracle {sigma}"
    return True, ""


def check_stanley_character_vs_oracle(max_k: int, max_r: int, max_entry: int):
    for k in range(1, max_k + 1):
        for pi in perms.all_perms(k):
            ptype = perms.cycle_type(pi)
            polys = {r: stanley.stanley_character_poly(pi, r) for r in range(1, max_r + 1)}
            for m in integral_multirects(max_entry, max_r):
                got = polys[len(m.p)].evaluate(m.assignment())
                want = charoracle.normalized_character_general(m.to_partition(), ptype)
                if got != want:
                    return False, f"pi={pi} p={m.p} q={m.q}: {got} != {want}"
    return True, ""


def check_s_coefficient_formula(max_k: int):
    for k in range(2, max_k + 1):
        for s in range(1, k + 2):
            if not stanley.check_s_coefficient_formula(k, tuple(range(1, s + 1))):
                return False, f"k={k} indices=1..{s}"
            if not stanley.check_s_coefficient_formula(k, tuple(range(2, s + 2))):
                return False, f"k={k} indices=2..{s + 1}"
    return True, ""


def check_bracket_identity(max_k: int, sum_cap: int):
    """(j1+j2-1) [p_1 q_1^{j1+j2-1}] F = -[p_1 p_2 q_2^{j1+j2-2}] F for F the
    two-block character polynomial of the k-cycle, j1 + j2 <= sum_cap."""
    for k in range(1, max_k + 1):
        poly = stanley.stanley_character_poly(perms.canonical_cycle(k), 2)
        for j1 in range(2, sum_cap - 1):
            for j2 in range(j1, sum_cap - j1 + 1):
                m = j1 + j2
                lhs = (m - 1) * poly.coefficient_of({("p", 1): 1, ("q", 1): m - 1})
                if lhs != -poly.coefficient_of({("p", 1): 1, ("p", 2): 1, ("q", 2): m - 2}):
                    return False, f"k={k} j1={j1} j2={j2}"
    return True, ""


def check_order_does_not_matter(max_k: int, max_l: int = 3):
    for k in range(1, max_k + 1):
        poly = stanley.stanley_character_poly(perms.canonical_cycle(k), max_l)
        for ms in stanley.j_monomial_multisets(k):
            if len(ms) > max_l or len(set(ms)) == 1:
                continue
            values = {stanley.pq_bracket(poly, order) for order in set(iterperms(ms))}
            if len(values) != 1:
                return False, f"k={k} multiset={ms}: values {sorted(values)}"
    return True, ""


def check_rands_truncation(max_k: int):
    """R_k - S_k + (k-1)/2 sum_{j1+j2=k} S_{j1} S_{j2} has only terms with at
    least three S-factors."""
    for k in range(2, max_k + 1):
        expansion = functionals.r_in_terms_of_s(k)
        quad = RatPoly.zero()
        for j1 in range(2, k - 1):
            j2 = k - j1
            if j2 < 2:
                continue
            quad = quad + RatPoly.variable(("S", j1)) * RatPoly.variable(("S", j2))
        remainder = expansion - RatPoly.variable(("S", k)) + Fraction(k - 1, 2) * quad
        for mono, _ in remainder.items():
            if sum(e for _, e in mono) < 3:
                return False, f"k={k}: low-degree remainder term {mono}"
    return True, ""


def check_graded_leading_term(max_k: int):
    """With S_j graded at j - 1, the two top weights of J_k are
    S_{k+1} - (k/2) sum_{j1+j2=k+1} S_{j1} S_{j2}."""
    for k in range(3, max_k + 1):
        jpoly = stanley.j_polynomial_by_counting(k)
        expected = RatPoly.variable(("S", k + 1))
        for j1 in range(2, k):
            j2 = k + 1 - j1
            if j2 < 2:
                continue
            expected = expected - Fraction(k, 2) * (
                RatPoly.variable(("S", j1)) * RatPoly.variable(("S", j2)))
        diff = jpoly - expected
        for mono, _ in diff.items():
            weight = sum((idx - 1) * e for (_, idx), e in mono)
            if weight >= k - 1:
                return False, f"k={k}: unexpected top-weight term {mono}"
    return True, ""


def check_homogeneity(budget: int, max_k: int):
    """S_k and R_k scale as s^k under dilation, for n * s^2 <= budget."""
    for s in range(2, int(budget ** 0.5) + 1):
        for rows in partitions_up_to(budget // (s * s)):
            small = functionals.s_vector(rows, max_k)
            big = functionals.s_vector(dilate(rows, s), max_k)
            r_small = functionals.r_vector_from_s(small, max_k)
            r_big = functionals.r_vector_from_s(big, max_k)
            for k in range(2, max_k + 1):
                if big[k] != s ** k * small[k] or r_big[k] != s ** k * r_small[k]:
                    return False, f"lam={rows} k={k} s={s}"
    return True, ""


def check_marriage_equivalence(max_k: int):
    for k in range(1, max_k + 1):
        for m2, masks, _, colorings in kerov._candidate_patterns(k):
            for colors in colorings:
                subset = kerov.marriage_condition(masks, m2, colors)
                flow = kerov.marriage_condition_flow(masks, m2, colors)
                if subset != flow:
                    return False, (f"k={k} m2={m2} masks={masks} colors={colors}: "
                                   f"subset {subset}, flow {flow}")
    return True, ""


def check_catalan_minimal_factorizations(max_k: int):
    for k in range(1, max_k + 1):
        patterns = perms.factorization_patterns(perms.canonical_cycle(k))
        pairs = sum(patterns.values())
        minimal = sum(n for (m2, masks), n in patterns.items() if len(masks) + m2 == k + 1)
        if pairs != factorial(k):
            return False, f"k={k}: {pairs} pairs, expected {factorial(k)}"
        catalan = comb(2 * k, k) // (k + 1)
        if minimal != catalan:
            return False, f"k={k}: {minimal} minimal pairs, Catalan is {catalan}"
    return True, ""


def check_quadratic_vs_derivative(max_k: int):
    for k in range(1, max_k + 1):
        kpoly = kerov.kerov_polynomial_by_counting(k)
        for j1 in range(2, k):
            for j2 in range(j1, k + 2 - j1):
                counted = kerov.kerov_quadratic_derivative(k, j1, j2)
                deriv = kpoly.derivative_at_zero([("R", j1), ("R", j2)])
                if counted != deriv:
                    return False, f"k={k} j1={j1} j2={j2}: count {counted}, derivative {deriv}"
    return True, ""


def check_dilation_polynomiality(max_n: int, max_k: int):
    """s -> Sigma_{k-1} of the s-dilated diagram fits a polynomial of degree
    at most k even with one extra node."""
    for rows in partitions_up_to(min(max_n, 4)):
        for k in range(2, max_k + 1):
            points = [(0, Fraction(0))]
            points += [(s, charoracle.normalized_character(dilate(rows, s), k - 1))
                       for s in range(1, k + 2)]
            try:
                interpolate_univariate(points, k)
            except ValueError as exc:
                return False, f"lam={rows} k={k}: {exc}"
    return True, ""


def run_checks(max_n: int, max_k: int) -> list[CheckResult]:
    """The command-line verification suite, clipped to keep the default run
    interactive; the named bound appears in each check name."""
    if max_n <= 0 or max_k <= 0:
        return []
    results = []

    def record(name, fn, *args):
        passed, detail = fn(*args)
        results.append(CheckResult(name, passed, detail))

    kk = max_k
    record(f"s-box-vs-frobenius[n<={max_n},k<={kk}]",
           check_s_box_vs_frobenius, partitions_up_to(max_n), kk)
    record(f"s-multirect-vs-boxes[entries<=2,r<=2,k<={kk}]",
           check_s_multirect_vs_boxes, 2, 2, kk, max_n)
    record(f"r-composition-vs-interpolation[n<={min(max_n, 6)},k<={min(kk, 5)}]",
           check_r_composition_vs_interpolation, partitions_up_to(min(max_n, 6)), min(kk, 5))
    record(f"r-multirect-vs-composition[entries<=2,r<=2,k<={min(kk, 5)}]",
           check_r_multirect, integral_multirects(2, 2, max_n), min(kk, 5))
    record(f"kerov-count-vs-conversion[k<={min(kk, 6)}]",
           check_kerov_count_vs_conversion, min(kk, 6))
    record(f"j-count-vs-stanley[k<={min(kk, 5)}]",
           check_j_count_vs_stanley, min(kk, 5))
    record(f"eval-vs-oracle[n<={max_n},k<={min(kk, 8)}]",
           check_eval_vs_oracle, max_n, min(kk, 8))
    record(f"stanley-vs-oracle[k<={min(kk, 4)},r<=2,entries<=2]",
           check_stanley_character_vs_oracle, min(kk, 4), 2, 2)
    record(f"s-coefficient-formula[k<={min(kk, 7)}]",
           check_s_coefficient_formula, min(kk, 7))
    record(f"bracket-identity[k<={min(kk, 6)},j1+j2<=7]",
           check_bracket_identity, min(kk, 6), 7)
    record(f"order-independence[k<={min(kk, 5)},l<=3]",
           check_order_does_not_matter, min(kk, 5))
    record(f"r-from-s-truncation[k<={min(kk, 10)}]",
           check_rands_truncation, min(kk, 10))
    record(f"graded-leading-term[k<={min(kk, 6)}]",
           check_graded_leading_term, min(kk, 6))
    record(f"homogeneity[n*s^2<=36,k<={min(kk, 6)}]",
           check_homogeneity, 36, min(kk, 6))
    record(f"marriage-subset-vs-flow[k<={min(kk, 5)}]",
           check_marriage_equivalence, min(kk, 5))
    record(f"catalan-minimal-factorizations[k<={min(kk, 7)}]",
           check_catalan_minimal_factorizations, min(kk, 7))
    record(f"quadratic-count-vs-derivative[k<={min(kk, 6)}]",
           check_quadratic_vs_derivative, min(kk, 6))
    record(f"dilation-polynomiality[n<={min(max_n, 4)},k<={min(kk, 5)}]",
           check_dilation_polynomiality, max_n, min(kk, 5))
    return results
