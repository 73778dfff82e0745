"""Regenerate perfbench/reference.json from the code in src/.

Usage (from the repository root):

    python3 perfbench/make_reference.py

The reference holds the K_k and J_k texts and a digest of the canonical
output of every op whose inputs come from a fixed catalog, so the benchmark
can check outputs without recomputing them.  Regenerate it only from a
commit whose outputs are trusted: the benchmark treats any difference from
it as a wrong answer.  The pinned K_1..K_6 and J_1..J_5 are the known values
from the literature and are never regenerated; this script refuses to write
a reference that disagrees with them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import read_commit  # noqa: E402
from workloads import (  # noqa: E402
    POOL, POOL_MAXK, R_MULTIRECT_SHAPES, REFERENCE_PATH, ROOT, SMR_SHAPES, WORKLOADS, Lib, Op,
    cli_catalog, digest, poly_dict_text, quad_pairs,
)

PINNED_K = {
    1: "R2",
    2: "R3",
    3: "R4 + R2",
    4: "R5 + 5*R3",
    5: "R6 + 15*R4 + 5*R2^2 + 8*R2",
    6: "R7 + 35*R5 + 35*R3*R2 + 84*R3",
}
PINNED_J = {
    1: "S2",
    2: "S3",
    3: "S4 - 3/2*S2^2 + S2",
    4: "S5 - 4*S3*S2 + 5*S3",
    5: "S6 - 5*S4*S2 - 5/2*S3^2 + 25/6*S2^3 + 15*S4 - 35/2*S2^2 + 8*S2",
}


def main() -> int:
    lib = Lib()
    ref = {
        "generated_from": read_commit(ROOT),
        "pinned": {"K": {str(k): v for k, v in PINNED_K.items()},
                   "J": {str(k): v for k, v in PINNED_J.items()}},
        "K": {str(k): str(lib.kerov.kerov_polynomial_by_counting(k)) for k in range(1, 10)},
        "J": {str(k): str(lib.stanley.j_polynomial_by_counting(k)) for k in range(1, 9)},
        "digests": {},
    }
    for family, pinned in (("K", PINNED_K), ("J", PINNED_J)):
        for k, text in pinned.items():
            if ref[family][str(k)] != text:
                print(f"{family}_{k} is {ref[family][str(k)]!r}, pinned {text!r}",
                      file=sys.stderr)
                return 1
    digests = ref["digests"]

    def put(op: Op, text: str) -> None:
        digests[op.key] = digest(text)

    fn = lib.functionals
    for rk in R_MULTIRECT_SHAPES:
        put(Op("R_multirect", rk), str(fn.free_cumulant_multirect_symbolic(*rk)))
    for k in (5, 6, 7, 8):
        for j1, j2 in quad_pairs(k):
            put(Op("quad", (k, j1, j2)), str(lib.kerov.kerov_quadratic_derivative(k, j1, j2)))
    for rk in SMR_SHAPES:
        put(Op("S_multirect", rk), str(fn.s_functional_multirect_symbolic(*rk)))
    for k in range(10, 19):
        put(Op("R_in_S", (k,)), str(fn.r_in_terms_of_s(k)))
    for k in (10, 12, 14, 16, 18):
        put(Op("S_in_R", (k,)), poly_dict_text(lib.kerov.s_in_terms_of_r(k)))

    diagrams = WORKLOADS["diagrams"]
    state = diagrams.prepare(lib, ref)
    for pool_id, rows in enumerate(POOL):
        for maxk in POOL_MAXK:
            out = diagrams.execute(lib, state, Op("diagram", (rows, maxk, pool_id)))
            problem = diagrams.check(lib, state, ref, Op("diagram", (rows, maxk, None)), out)
            if problem:
                print(problem, file=sys.stderr)
                return 1
            put(Op("diagram", (rows, maxk, pool_id)), diagrams.canonical(out))

    for argv in cli_catalog():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = lib.cli.main(list(argv))
        if code != 0:
            print(f"symchar {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
        put(Op("cli", argv), stdout.getvalue())

    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {REFERENCE_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
