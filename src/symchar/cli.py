"""Command-line surface: generate character polynomials, evaluate normalized
characters and cumulants, and run the verification suite.

Exit codes: 0 success, 1 usage error, 2 verification failure.  Every size
an argument sets is bounded by LIMITS, so an accepted command finishes in a
few seconds, and an oversize one exits 1 with a one-line message.

Each command imports the library modules its route runs, and a library
module imports a sibling at module level only if its import-time
definitions or per-call kernels need it, or a module it imports loads it
anyway; any other sibling is imported at the entry of the functions that
call it.  Without bytecode to reuse (a fresh checkout run with
PYTHONDONTWRITEBYTECODE=1), every line a command imports is compiled from
source, about 8 us a line.
"""

from __future__ import annotations

import argparse
import sys
from math import lcm
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from symchar.diagrams import MultiRect, Partition
    from symchar.ratpoly import RatPoly

# (command, argument) -> (least, largest) accepted value.  "boxes" bounds the
# diagram of --lambda or --p/--q (see _diagram_size), "denominator" the
# common denominator of the entries of --p/--q, "entries" the number of
# entries of --p and of --q, and "digits" the digits of each entry (see
# _entry_digits); the last two are read from the text before it is parsed, as
# sizing many entries of distinct denominators takes quadratic time.  The
# route check of cumulants builds R_k in 2r variables for r blocks, steeply
# in r: about 2 s for 24 unit blocks on a 2-vCPU VM.
LIMITS = {
    ("poly", "--k"): (1, 8),
    ("character", "--k"): (1, 10_000),
    ("character", "boxes"): (0, 10_000),
    ("cumulants", "--max-k"): (2, 100),
    ("cumulants", "boxes"): (0, 10_000),
    ("cumulants", "denominator"): (1, 10_000),
    ("cumulants", "entries"): (0, 24),
    ("cumulants", "digits"): (0, 100),
    ("verify", "--max-n"): (1, 20),
    ("verify", "--max-k"): (1, 20),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="symchar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", parents=[], help="print J_k or K_k",
                          description="Generate the character polynomial for a k-cycle.")
    poly.add_argument("--k", type=int, required=True)
    poly.add_argument("--basis", choices=("R", "S"), default="R",
                      help="R: free cumulants (Kerov polynomial); S: shape functionals")
    poly.add_argument("--route", choices=("count", "convert", "stanley"), default="count",
                      help="generation route; all routes agree")
    poly.add_argument("--json", action="store_true")

    character = sub.add_parser("character", help="normalized character Sigma_k")
    character.add_argument("--lambda", dest="lam", required=True,
                           help='partition, e.g. "4,3,1"; empty string for the empty diagram')
    character.add_argument("--k", type=int, required=True)
    character.add_argument("--json", action="store_true")

    cumulants = sub.add_parser("cumulants", help="table of S_k and R_k")
    cumulants.add_argument("--lambda", dest="lam", default=None)
    cumulants.add_argument("--p", dest="p", default=None, help='block heights, e.g. "1,2"')
    cumulants.add_argument("--q", dest="q", default=None, help='block widths, e.g. "3,1"')
    cumulants.add_argument("--max-k", type=int, default=4)
    cumulants.add_argument("--json", action="store_true")

    ver = sub.add_parser("verify", help="run the cross-route verification suite")
    ver.add_argument("--max-n", type=int, default=6)
    ver.add_argument("--max-k", type=int, default=5)
    ver.add_argument("--json", action="store_true")
    return parser


def _poly_for(k: int, basis: str, route: str) -> RatPoly:
    if basis == "S" and route != "convert":
        from symchar import stanley

        if route == "count":
            return stanley.j_polynomial_by_counting(k)
        return stanley.j_polynomial_via_stanley(k)
    from symchar import kerov

    if basis == "S":
        from symchar import functionals

        return kerov.kerov_polynomial_by_counting(k).substitute(
            {("R", j): functionals.r_in_terms_of_s(j) for j in range(2, k + 2)})
    if route == "count":
        return kerov.kerov_polynomial_by_counting(k)
    if route == "convert":
        return kerov.kerov_polynomial_by_conversion(k)
    from symchar import stanley

    table = kerov.s_in_terms_of_r(k + 1)
    return stanley.j_polynomial_via_stanley(k).substitute(
        {("S", j): poly for j, poly in table.items()})


def _denominator(multirect: MultiRect) -> int:
    """The common denominator of the entries of a multirectangle."""
    return lcm(*(x.denominator for x in multirect.p + multirect.q))


def _entry_digits(text: str) -> int:
    """An upper bound on the decimal digits of an entry of --p/--q, read from
    its text: its digit characters, plus the size of an exponent such as the
    -300 of 1e-300, which Fraction would write out as a power of ten.  Only
    an entry with few digit characters has its exponent parsed."""
    digits = sum(c.isdigit() for c in text)
    _, e, exponent = text.lower().partition("e")
    if e and digits <= LIMITS["cumulants", "digits"][1]:
        try:
            digits += abs(int(exponent))
        except ValueError:
            pass  # a malformed entry, which parsing reports
    return digits


def _diagram_size(diagram: Partition | MultiRect) -> int:
    """The boxes of a partition.  A multirectangle is scaled by the common
    denominator D of its entries, which makes it integral, and sized by the
    largest of its boxes, rows and columns: a block of zero width or height
    adds no boxes but still enters the integers of the S_k kernel."""
    from symchar.diagrams import MultiRect

    if not isinstance(diagram, MultiRect):
        return sum(diagram)
    den = _denominator(diagram)
    return int(max(den * den * diagram.box_count(), den * sum(diagram.p),
                   den * max(diagram.q, default=0)))


def _rejects(command: str, argument: str, value: int) -> bool:
    """True, after a one-line message on stderr, if LIMITS rejects the value."""
    low, high = LIMITS[command, argument]
    if low <= value <= high:
        return False
    if argument == "boxes":
        message = f"the diagram must have at most {high} boxes, rows and columns"
    elif argument == "denominator":
        message = f"the entries of --p/--q must have a common denominator of at most {high}"
    elif argument == "entries":
        message = f"--p and --q must have at most {high} entries each"
    elif argument == "digits":
        message = f"the entries of --p/--q must have at most {high} digits each"
    elif value < low:
        message = f"{argument} must be >= {low}"
    else:
        message = f"{argument} must be between {low} and {high}"
    print(f"symchar {command}: error: {message}", file=sys.stderr)
    return True


def _cmd_poly(args) -> int:
    if _rejects("poly", "--k", args.k):
        return 1
    poly = _poly_for(args.k, args.basis, args.route)
    if args.json:
        print(poly.to_json())
    else:
        print(poly)
    return 0


def _cmd_character(args) -> int:
    from symchar.diagrams import parse_partition

    try:
        rows = parse_partition(args.lam)
    except ValueError as exc:
        print(f"symchar character: error: {exc}", file=sys.stderr)
        return 1
    if _rejects("character", "--k", args.k) or _rejects(
            "character", "boxes", _diagram_size(rows)):
        return 1
    from symchar import charoracle

    value = charoracle.normalized_character(rows, args.k)
    if args.json:
        import json

        print(json.dumps({"lambda": list(rows), "k": args.k, "value": str(value)},
                         sort_keys=True))
    else:
        print(value)
    return 0


def _cumulant_rows(rows, multirect, k_max):
    """Rows (k, S_k, R_k) plus whether the verify checks that are cheap at
    this size agree with them."""
    from symchar import functionals, verify

    svals = functionals.s_vector(rows if multirect is None else multirect, k_max)
    rvals = functionals.r_vector_from_s(svals, k_max)
    table = [(k, s, rvals[k]) for k, s in svals.items()]
    if multirect is not None:
        rows = multirect.to_partition() if multirect.is_integral() else None
    diagrams = [] if rows is None else [rows]
    checks = (
        verify.check_s_box_vs_frobenius([(d, svals) for d in diagrams]),
        verify.check_r_composition_vs_interpolation(
            [d for d in diagrams if sum(d) <= 6], min(k_max, 5)),
        verify.check_r_multirect([] if multirect is None else [multirect], min(k_max, 6)),
    )
    return table, all(passed for passed, _ in checks)


def _cmd_cumulants(args) -> int:
    from symchar.diagrams import MultiRect, parse_partition

    if (args.p is None) != (args.q is None):
        print("symchar cumulants: error: --p and --q must be given together",
              file=sys.stderr)
        return 1
    if (args.lam is None) == (args.p is None):
        print("symchar cumulants: error: give either --lambda or --p/--q",
              file=sys.stderr)
        return 1
    if _rejects("cumulants", "--max-k", args.max_k):
        return 1
    p_entries, q_entries = ([], []) if args.p is None else (args.p.split(","), args.q.split(","))
    if _rejects("cumulants", "entries", max(len(p_entries), len(q_entries))) or _rejects(
            "cumulants", "digits", max(map(_entry_digits, p_entries + q_entries), default=0)):
        return 1
    try:
        rows = parse_partition(args.lam) if args.lam is not None else None
        multirect = (MultiRect.from_strings(args.p, args.q)
                     if args.p is not None else None)
    except ValueError as exc:
        print(f"symchar cumulants: error: {exc}", file=sys.stderr)
        return 1
    if _rejects("cumulants", "boxes", _diagram_size(rows if multirect is None else multirect)):
        return 1
    if multirect is not None and _rejects("cumulants", "denominator", _denominator(multirect)):
        return 1
    table, agree = _cumulant_rows(rows, multirect, args.max_k)
    if args.json:
        import json

        doc = {
            "S": {str(k): str(s) for k, s, _ in table},
            "R": {str(k): str(r) for k, _, r in table},
            "routes_agree": agree,
        }
        if rows is not None:
            doc["lambda"] = list(rows)
        else:
            doc["p"] = [str(x) for x in multirect.p]
            doc["q"] = [str(x) for x in multirect.q]
        print(json.dumps(doc, sort_keys=True))
    else:
        print("k\tS_k\tR_k")
        for k, s_val, r_val in table:
            print(f"{k}\t{s_val}\t{r_val}")
        if not agree:
            print("route mismatch detected", file=sys.stderr)
    return 0 if agree else 2


def _cmd_verify(args) -> int:
    if _rejects("verify", "--max-n", args.max_n) or _rejects(
            "verify", "--max-k", args.max_k):
        return 1
    from symchar import verify

    results = verify.run_checks(args.max_n, args.max_k)
    failed = [r for r in results if not r.passed]
    if args.json:
        import json

        doc = {"checks": [{"check": r.name, "status": "pass"} if r.passed else
                          {"check": r.name, "status": "fail", "detail": r.detail}
                          for r in results]}
        print(json.dumps(doc, sort_keys=True))
    else:
        for r in results:
            line = f"{'PASS' if r.passed else 'FAIL'} {r.name}"
            if not r.passed and r.detail:
                line += f"  ({r.detail})"
            print(line)
        if results:
            print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 2 if failed else 0


def main(argv=None) -> int:
    """Run one command.  Exact values can pass the int-to-str digit limit of
    Python 3.10.7+, so it is lifted while the command runs; LIMITS keeps
    every number to a size that prints in well under a second."""
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    if args.command == "poly":
        return _cmd_poly(args)
    if args.command == "character":
        return _cmd_character(args)
    if args.command == "cumulants":
        return _cmd_cumulants(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
