import ast
import importlib
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from symchar import charoracle, functionals, kerov, verify
from symchar.cli import main
from symchar.diagrams import MultiRect
from symchar.ratpoly import RatPoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_pinned_outputs(capsys):
    code, out, _ = run(capsys, "poly", "--k", "6", "--basis", "R")
    assert code == 0
    assert out == "R7 + 35*R5 + 35*R3*R2 + 84*R3\n"
    code, out, _ = run(capsys, "poly", "--k", "2", "--basis", "S")
    assert code == 0
    assert out == "S3\n"


def test_poly_routes_agree(capsys):
    # k = 8 is the top of cli.LIMITS; stanley stays at small k for speed
    for k, routes in ((4, ("count", "convert", "stanley")), (8, ("count", "convert"))):
        for basis in ("R", "S"):
            outputs = set()
            for route in routes:
                code, out, _ = run(capsys, "poly", "--k", str(k), "--basis", basis,
                                   "--route", route)
                assert code == 0
                outputs.add(out)
            assert len(outputs) == 1


def test_poly_bound_error(capsys):
    code, out, err = run(capsys, "poly", "--k", "9", "--basis", "R")
    assert code == 1
    assert not out
    assert "between 1 and 8" in err
    code, _, _ = run(capsys, "poly", "--k", "0")
    assert code == 1


def test_poly_json_round_trips(capsys):
    code, out, _ = run(capsys, "poly", "--k", "5", "--json")
    assert code == 0
    poly = RatPoly.from_json(out)
    assert str(poly) == "R6 + 15*R4 + 5*R2^2 + 8*R2"


def test_character_outputs(capsys):
    code, out, _ = run(capsys, "character", "--lambda", "2,1", "--k", "3")
    assert (code, out) == (0, "-3\n")
    code, out, _ = run(capsys, "character", "--lambda", "2,1", "--k", "5")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "character", "--lambda", "4,3,1", "--k", "1")
    assert (code, out) == (0, "8\n")


def test_character_malformed_partition(capsys):
    code, _, err = run(capsys, "character", "--lambda", "3,4", "--k", "1")
    assert code == 1
    assert "error" in err


def test_character_json(capsys):
    code, out, _ = run(capsys, "character", "--lambda", "2,1", "--k", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"lambda": [2, 1], "k": 3, "value": "-3"}


def test_cumulants_table(capsys):
    code, out, _ = run(capsys, "cumulants", "--lambda", "2,1", "--max-k", "4")
    assert code == 0
    assert out.splitlines() == ["k\tS_k\tR_k", "2\t3\t3", "3\t0\t0", "4\t15/2\t-6"]


def test_cumulants_single_box(capsys):
    code, out, _ = run(capsys, "cumulants", "--lambda", "1", "--max-k", "3")
    assert code == 0
    assert out.splitlines()[1:] == ["2\t1\t1", "3\t0\t0"]


def test_cumulants_empty_diagram(capsys):
    code, out, _ = run(capsys, "cumulants", "--lambda", "", "--max-k", "4")
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.split("\t")[1:] == ["0", "0"]


def test_cumulants_multirect_matches_partition(capsys):
    code, out_pq, _ = run(capsys, "cumulants", "--p", "1,2", "--q", "3,1",
                          "--max-k", "4")
    assert code == 0
    code, out_lam, _ = run(capsys, "cumulants", "--lambda", "3,1,1", "--max-k", "4")
    assert code == 0
    assert out_pq == out_lam


def test_cumulants_rational_multirect(capsys):
    code, out, _ = run(capsys, "cumulants", "--p", "1/2", "--q", "3/2",
                       "--max-k", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["S"]["2"] == "3/4"
    assert doc["routes_agree"] is True


def test_cumulants_large_max_k_homogeneity(capsys):
    # R_k(2 lam) = 2^k R_k(lam), with (6,6,4,4,2,2) the 2-dilation of (3,2,1)
    code, out, _ = run(capsys, "cumulants", "--lambda", "3,2,1", "--max-k", "40", "--json")
    assert code == 0
    small = json.loads(out)["R"]
    code, out, _ = run(capsys, "cumulants", "--lambda", "6,6,4,4,2,2", "--max-k", "40",
                       "--json")
    assert code == 0
    big = json.loads(out)["R"]
    assert sorted(map(int, small)) == list(range(2, 41))
    for k in range(2, 41):
        assert Fraction(big[str(k)]) == 2 ** k * Fraction(small[str(k)])


def test_cumulants_rational_multirect_max_k_100(capsys):
    # S_k comes from the corner form in O(r) per k, not from the O(k^3)-term
    # symbolic polynomial; R_k from S is most of the remaining time.
    start = time.monotonic()
    code, out, _ = run(capsys, "cumulants", "--p", "1/2,3/2,5/3", "--q", "7/2,2,1",
                       "--max-k", "100", "--json")
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 60.0
    doc = json.loads(out)
    assert doc["routes_agree"] is True
    assert sorted(map(int, doc["S"])) == sorted(map(int, doc["R"])) == list(range(2, 101))
    m = MultiRect.from_strings("1/2,3/2,5/3", "7/2,2,1")
    for k in range(2, 13):
        want = functionals.s_functional_multirect_symbolic(3, k).evaluate(m.assignment())
        assert Fraction(doc["S"][str(k)]) == want


def test_cumulants_usage_errors(capsys):
    code, _, err = run(capsys, "cumulants", "--lambda", "2,1", "--p", "1",
                       "--q", "1")
    assert code == 1
    code, _, err = run(capsys, "cumulants")
    assert code == 1
    code, _, err = run(capsys, "cumulants", "--p", "1")
    assert code == 1
    for max_k in ("101", "400"):
        assert run(capsys, "cumulants", "--lambda", "2,1", "--max-k", max_k) == (
            1, "", "symchar cumulants: error: --max-k must be between 2 and 100\n")
    assert run(capsys, "cumulants", "--lambda", "2,1", "--max-k", "1")[0] == 1
    code, out, _ = run(capsys, "cumulants", "--lambda", "2,1", "--max-k", "100")
    assert code == 0
    assert len(out.splitlines()) == 100


@pytest.mark.parametrize("route, diagram", [
    ("s_functional_frobenius", ("--lambda", "2,1")),
    ("free_cumulant_by_interpolation", ("--p", "1,2", "--q", "3,1")),
    ("free_cumulant_multirect", ("--p", "1/2,3/2", "--q", "5/2,1")),
])
def test_cumulants_detects_route_fault(capsys, monkeypatch, route, diagram):
    argv = ("cumulants", *diagram, "--max-k", "5")
    code, table, _ = run(capsys, *argv)
    assert code == 0
    code, doc, _ = run(capsys, *argv, "--json")
    assert code == 0
    original = getattr(functionals, route)
    monkeypatch.setattr(functionals, route,
                        lambda x, k: original(x, k) + (1 if k == 3 else 0))
    assert run(capsys, *argv) == (2, table, "route mismatch detected\n")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 2
    assert json.loads(out) == {**json.loads(doc), "routes_agree": False}


BOXES_ERROR = "error: the diagram must have at most 10000 boxes, rows and columns\n"
DIGITS_ERROR = ("symchar cumulants: error: the entries of --p/--q must have at most 100 digits"
                " each\n")
ENTRIES_ERROR = "symchar cumulants: error: --p and --q must have at most 24 entries each\n"


def _large_denominators(n):
    """n entries 1/D_i of distinct 97-digit denominators, whose common
    denominator grows with every entry."""
    return ",".join(f"1/{10 ** 96 + 2 * i + 1}" for i in range(n))


@pytest.mark.parametrize("argv, message", [
    (("character", "--lambda", "2,1", "--k", "10001"),
     "symchar character: error: --k must be between 1 and 10000\n"),
    (("character", "--lambda", "2,1", "--k", "0"), "symchar character: error: --k must be >= 1\n"),
    (("character", "--lambda", "1" * 51, "--k", "3"), "symchar character: " + BOXES_ERROR),
    (("character", "--lambda", "5001,5000", "--k", "3"), "symchar character: " + BOXES_ERROR),
    (("cumulants", "--lambda", "1" * 51, "--max-k", "100"), "symchar cumulants: " + BOXES_ERROR),
    (("cumulants", "--p", "1000000000", "--q", "1"), "symchar cumulants: " + BOXES_ERROR),
    (("cumulants", "--p", "101,0", "--q", "100,0"), "symchar cumulants: " + BOXES_ERROR),
    # rational entries count at the grid of their common denominator
    (("cumulants", "--p", "1/1000003", "--q", "1000033/7"), "symchar cumulants: " + BOXES_ERROR),
    (("cumulants", "--p", "1/2,20001/2", "--q", "1,0"), "symchar cumulants: " + BOXES_ERROR),
    (("poly", "--k", "0"), "symchar poly: error: --k must be >= 1\n"),
    (("verify", "--max-n", "21"), "symchar verify: error: --max-n must be between 1 and 20\n"),
    (("verify", "--max-k", "21"), "symchar verify: error: --max-k must be between 1 and 20\n"),
    # one box of 1/D x 1/D fits any common denominator D, which has a bound of its own
    (("cumulants", "--p", "1/10007", "--q", "1/10007"), "symchar cumulants: error: the entries"
     " of --p/--q must have a common denominator of at most 10000\n"),
    # an exponent is sized from its text: Fraction would write out 10^1000000
    (("cumulants", "--p", "1e-1000000", "--q", "1", "--max-k", "2"), DIGITS_ERROR),
    (("cumulants", "--p", "1", "--q", "1e-10000000", "--max-k", "2"), DIGITS_ERROR),
    (("cumulants", "--p", "1/2," + "1" * 101, "--q", "2,1"), DIGITS_ERROR),
    # the entry count is bounded before any entry is parsed or sized
    (("cumulants", "--p", _large_denominators(25), "--q", ",".join(["1"] * 25)), ENTRIES_ERROR),
    (("cumulants", "--p", "1", "--q", ",".join(["1"] * 25)), ENTRIES_ERROR),
    (("cumulants", "--p", _large_denominators(24), "--q", ",".join(["1"] * 24)),
     "symchar cumulants: " + BOXES_ERROR),
    # far past the bound, where sizing the entries would take seconds
    (("cumulants", "--p", _large_denominators(1000), "--q", ",".join(["1"] * 1000)),
     ENTRIES_ERROR),
])
def test_oversize_input_exits_with_one_line(capsys, argv, message):
    start = time.perf_counter()
    assert run(capsys, *argv) == (1, "", message)
    assert time.perf_counter() - start < 1


@pytest.fixture
def digit_limit():
    """The int-to-str digit limit of Python 3.10.7+, restored afterwards."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit before Python 3.10.7")
    before = sys.get_int_max_str_digits()
    yield before
    sys.set_int_max_str_digits(before)


def test_largest_inputs_print_exact_values(capsys, digit_limit):
    # Sigma_2500 of (3000, 2000) has 8,000 digits, past the default limit of
    # 4,300; main lifts it while the command runs and restores it after
    code, out, _ = run(capsys, "character", "--lambda", "3000,2000", "--k", "2500")
    assert code == 0
    assert sys.get_int_max_str_digits() == digit_limit
    assert len(out) > 4300
    sys.set_int_max_str_digits(0)  # to read the values back here
    assert Fraction(out) == charoracle.normalized_character((3000, 2000), 2500)
    code, out, _ = run(capsys, "character", "--lambda", "5000,5000", "--k", "10000")
    assert code == 0
    assert Fraction(out) == charoracle.normalized_character((5000, 5000), 10000)
    code, out, _ = run(capsys, "cumulants", "--p", "1/100", "--q", "100", "--max-k", "100",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["routes_agree"] is True
    assert Fraction(doc["S"]["100"]) == functionals.s_functional_multirect(
        MultiRect.from_strings("1/100", "100"), 100)


def test_cumulants_accepts_denominator_at_bound(capsys):
    code, out, _ = run(capsys, "cumulants", "--p", "1/9973", "--q", "1/9973", "--max-k", "6",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["routes_agree"] is True
    assert doc["S"]["2"] == "1/99460729"


def test_unknown_and_missing_arguments(capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "poly")[0] == 1


def test_verify_rejects_non_positive_sizes(capsys):
    for flag, value in (("--max-n", "-1"), ("--max-n", "0"), ("--max-k", "0")):
        for json_flag in ((), ("--json",)):
            code, out, err = run(capsys, "verify", flag, value, *json_flag)
            assert code == 1
            assert out == ""
            assert err == f"symchar verify: error: {flag} must be >= 1\n"


def test_verify_small_bounds_pass(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--max-k", "3")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--max-k", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]
    assert all(entry["status"] == "pass" for entry in doc["checks"])
    assert all(set(entry) == {"check", "status"} for entry in doc["checks"])


def test_outputs_deterministic_across_processes():
    # canonical ordering must not depend on per-process string hashing
    import subprocess

    cmd = [sys.executable, "-m", "symchar.cli", "poly", "--k", "5", "--json"]
    runs = {subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            for _ in range(2)}
    assert len(runs) == 1
    cmd = [sys.executable, "-m", "symchar.cli", "verify", "--max-n", "2",
           "--max-k", "2", "--json"]
    runs = {subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            for _ in range(2)}
    assert len(runs) == 1


def test_outputs_are_deterministic(capsys):
    first = run(capsys, "poly", "--k", "6")
    second = run(capsys, "poly", "--k", "6")
    assert first == second
    first = run(capsys, "verify", "--max-n", "3", "--max-k", "3")
    second = run(capsys, "verify", "--max-n", "3", "--max-k", "3")
    assert first == second


def test_injected_fault_breaks_verification(capsys, monkeypatch):
    # flipping the sign of one border-strip removal must fail the suite
    original = charoracle._strip_removals

    def flipped(rows, length):
        removals = original(rows, length)
        if rows == (2, 1) and length == 3:
            return [(smaller, height + 1) for smaller, height in removals]
        return removals

    monkeypatch.setattr(charoracle, "_strip_removals", flipped)
    charoracle.clear_caches()
    try:
        code, out, _ = run(capsys, "verify", "--max-n", "4", "--max-k", "4")
    finally:
        monkeypatch.undo()
        charoracle.clear_caches()
    assert code == 2
    assert "FAIL" in out


def test_verify_json_reports_failure_detail(capsys, monkeypatch):
    monkeypatch.setattr(verify, "check_catalan_minimal_factorizations",
                        lambda max_k: (False, "boom"))
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--max-k", "3", "--json")
    assert code == 2
    checks = json.loads(out)["checks"]
    failed = [c for c in checks if c["status"] == "fail"]
    assert len(failed) == 1
    assert failed[0]["check"].startswith("catalan-minimal-factorizations")
    assert failed[0]["detail"] == "boom"
    assert all(set(c) == {"check", "status"} for c in checks if c["status"] == "pass")


def test_marriage_check_reports_the_failing_pattern(capsys, monkeypatch):
    monkeypatch.setattr(kerov, "marriage_condition_flow",
                        lambda masks, m2, colors: not kerov.marriage_condition(masks, m2, colors))
    ok, detail = verify.check_marriage_equivalence(3)
    assert not ok
    assert detail == "k=1 m2=1 masks=(1,) colors=(2,): subset True, flow False"
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--max-k", "3", "--json")
    assert code == 2
    failed = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert [c["check"] for c in failed] == ["marriage-subset-vs-flow[k<=3]"]
    assert failed[0]["detail"] == detail


LIBRARY = {"symchar", "symchar.cli", "symchar.charoracle", "symchar.diagrams",
           "symchar.functionals", "symchar.kerov", "symchar.perms", "symchar.ratpoly",
           "symchar.stanley", "symchar.verify"}


def _fresh_footprint(statement):
    """The symchar modules, and dataclasses, that a statement adds to the
    modules of a fresh interpreter."""
    code = ("import sys\nbefore = set(sys.modules)\n" + statement + "\n"
            "print(sorted(m for m in set(sys.modules) - before"
            " if m == 'dataclasses' or m.split('.')[0] == 'symchar'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    return set(ast.literal_eval(out.splitlines()[-1]))


@pytest.mark.parametrize("argv, modules", [
    (None, {"symchar"}),
    (["character", "--lambda", "3,2,1", "--k", "3", "--json"],
     {"symchar", "symchar.cli", "symchar.diagrams", "symchar.charoracle"}),
    (["poly", "--k", "4", "--json"], LIBRARY - {"symchar.verify"}),
    (["poly", "--k", "4", "--basis", "S", "--route", "stanley"], LIBRARY - {"symchar.verify"}),
    (["cumulants", "--p", "1/2", "--q", "3", "--max-k", "4", "--json"], LIBRARY),
    (["verify", "--max-n", "2", "--max-k", "2"], LIBRARY),
])
def test_start_up_footprint(argv, modules):
    # a fresh process loads only the modules its command calls, and never
    # dataclasses
    statement = ("import symchar" if argv is None else
                 f"from symchar.cli import main\nassert main({argv!r}) == 0")
    assert _fresh_footprint(statement) == modules


def test_package_exports_load_on_first_use():
    import symchar

    star = {}
    exec("from symchar import *", star)
    for name in symchar.__all__:
        obj = getattr(symchar, name)
        assert obj is getattr(importlib.import_module(obj.__module__), name)
        assert star[name] is obj
    assert set(symchar.__all__) <= set(dir(symchar))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        symchar.no_such_name
