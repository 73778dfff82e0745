"""The four benchmark workloads: the op list each makes from a seed, the
library call each op makes, and the check each output must pass.

Every workload is a closed loop with one caller that waits for each op.  An
op is one user-level request ("give me K_9", "evaluate this diagram", one
``symchar`` command line).  The op *set* of a pass is fixed per workload, or
stratified (fixed counts per size class); the seed picks the remaining
details and the order.  That keeps the work per pass the same from seed to
seed, so run-to-run spread reflects the program and the machine rather than
the draw.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"
OP_TIMEOUT_S = 60

LAYERS = ("perms", "diagrams", "ratpoly", "charoracle", "functionals",
          "stanley", "kerov", "verify", "cli")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class Lib:
    """The symchar modules, imported once per process."""

    def __init__(self):
        for name in LAYERS:
            setattr(self, name, importlib.import_module(f"symchar.{name}"))
        self.RatPoly = self.ratpoly.RatPoly


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple

    @property
    def key(self) -> str:
        """Reference key; diagram ops are keyed by pool slot, not rows."""
        if self.kind == "diagram":
            return f"pool:{self.args[2]},{self.args[1]}"
        if self.kind == "cli":
            return "cli:" + " ".join(self.args)
        return f"{self.kind}:" + ",".join(str(a) for a in self.args)


class ColdCacheError(RuntimeError):
    """A result cache was not empty when an op that must start cold began."""


# -- result caches ------------------------------------------------------

def result_caches(lib: Lib) -> dict[str, object]:
    """Every lru_cache'd public function of the package, by label, found
    through its public cache_clear/cache_info handle."""
    out = {}
    for name in LAYERS:
        module = getattr(lib, name)
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                out[f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"] = obj
    return out


def _memo_size(charoracle, attr: str) -> int:
    # charoracle exposes only clear_caches(); its entry counts are read from
    # its module-level memo tables.
    table = getattr(charoracle, attr, None)
    return len(table) if isinstance(table, dict) else 0


def oracle_cache_entries(charoracle) -> int:
    return _memo_size(charoracle, "_mn_cache") + _memo_size(charoracle, "_dim_cache")


def dim_cache_entries(charoracle) -> int:
    return _memo_size(charoracle, "_dim_cache")


def clear_result_caches(lib: Lib, keep: tuple[str, ...] = ()) -> None:
    for label, fn in result_caches(lib).items():
        if label not in keep:
            fn.cache_clear()
    lib.charoracle.clear_caches()


def assert_cold(lib: Lib, keep: tuple[str, ...] = ()) -> None:
    """Raise ColdCacheError unless every result cache outside ``keep`` is
    empty."""
    for label, fn in result_caches(lib).items():
        if label not in keep and fn.cache_info().currsize != 0:
            raise ColdCacheError(f"{label} holds {fn.cache_info().currsize} entries")
    entries = oracle_cache_entries(lib.charoracle)
    if entries:
        raise ColdCacheError(f"charoracle caches hold {entries} entries")


# -- shared helpers -----------------------------------------------------

class OpTimeout(Exception):
    pass


@contextmanager
def deadline(seconds: float):
    """Raise OpTimeout in this (main) thread after ``seconds``."""
    def on_alarm(signum, frame):
        raise OpTimeout(f"exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(command: list[str], timeout: float, capture: bool) -> tuple[int, str, str]:
    """Run a process to its end and return (exit code, stdout, stderr).

    The timeout is an alarm, not subprocess's own: a timed wait there polls
    in steps of up to 50 ms, which would quantize every time measured."""
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    with subprocess.Popen(command, stdout=pipe, stderr=pipe, text=True,
                          env=child_env(), cwd=ROOT) as proc:
        try:
            with deadline(timeout):
                out, err = proc.communicate()
        except OpTimeout:
            proc.kill()
            proc.wait()
            raise
    return proc.returncode, out or "", err or ""


def random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    """A partition of n with parts drawn uniformly below about 2 sqrt(n)."""
    cap = max(1, round(2 * math.sqrt(n)))
    parts, left = [], n
    while left:
        part = rng.randint(1, min(left, cap))
        parts.append(part)
        left -= part
    return tuple(sorted(parts, reverse=True))


def perm_of_type(cycle_type: tuple[int, ...]) -> tuple[int, ...]:
    """One-line form of the permutation (1..a)(a+1..a+b)... of that type."""
    images, start = [], 1
    for length in cycle_type:
        images.extend(range(start + 1, start + length))
        images.append(start)
        start += length
    return tuple(images)


def poly_dict_text(polys: dict) -> str:
    return "\n".join(f"{j}: {polys[j]}" for j in sorted(polys))


def quad_pairs(k: int) -> list[tuple[int, int]]:
    """(j1, j2) pairs for which K_k has a mixed quadratic derivative."""
    return [(j1, j2) for j1 in range(2, k) for j2 in range(j1, k + 2 - j1)]


class Workload:
    name = ""
    in_process = True
    cold_ops = False           # clear every result cache before each op
    keep: tuple[str, ...] = ()  # caches set-up fills and ops may read
    setup_reps = 5
    # Every op is timed at least this often, spread over the run, so that its
    # best time escapes the host's slow stretches (see run.best_latencies).
    min_passes = 3

    def make_ops(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def prepare(self, lib: Lib, ref: dict) -> dict:
        """Warm-up users would not pay per op; returns the state ops read."""
        return {}

    def execute(self, lib: Lib, state: dict, op: Op):
        raise NotImplementedError

    def check(self, lib: Lib, state: dict, ref: dict, op: Op, out) -> str | None:
        """None if the output is right, else a one-line reason."""
        raise NotImplementedError

    def schedule(self, ops: list[Op], seed: int) -> list[int]:
        """Indices into ``ops`` in the order one untraced pass runs them."""
        return list(range(len(ops)))

    def ops_per_pass(self) -> int:
        return len(self.make_ops(0))

    def tail_percentile(self) -> int:
        """Highest whole percentile that leaves at least ten ops of the op
        list beyond it."""
        return math.floor(100 * (1 - 10 / self.ops_per_pass()))


def _digest_mismatch(ref: dict, key: str, text: str) -> str | None:
    want = ref["digests"].get(key)
    if want is None:
        return f"no reference digest for {key}"
    return None if digest(text) == want else f"{key}: digest differs from reference"


# -- enumerate ------------------------------------------------------------

# Many cheap ops around the median and the tail make op_p50_ms and
# op_tail_ms order statistics of a dense set, not of one or two ops.
R_MULTIRECT_SHAPES = tuple((r, k) for r in (1, 2, 3) for k in range(4, 9) if (r, k) != (3, 8))
# Ops of 0.1 s and more; every other enumerate op is cheap and runs
# CHEAP_REPEATS times per pass.
HEAVY_OPS = {("K_count", 8), ("K_count", 9), ("J_count", 7), ("J_count", 8),
             ("J_stanley", 6), ("J_stanley", 7), ("quad", 8), ("catalan", 8)}
CHEAP_REPEATS = 3


class Enumerate(Workload):
    """Factorization enumeration: K_k and J_k by counting, J_k by the
    Stanley route, the multirect R sum, quadratic counts, Catalan check."""

    name = "enumerate"
    cold_ops = True
    min_passes = 2

    def make_ops(self, seed):
        rng = random.Random(seed)
        ops = [Op("K_count", (k,)) for k in range(1, 10)]
        ops += [Op("J_count", (k,)) for k in range(1, 9)]
        ops += [Op("J_stanley", (k,)) for k in range(1, 8)]
        ops += [Op("R_multirect", rk) for rk in R_MULTIRECT_SHAPES]
        ops += [Op("quad", (k, j1, j2)) for k in (5, 6, 7) for j1, j2 in quad_pairs(k)]
        ops += [Op("quad", (8, j1, j2)) for j1, j2 in rng.sample(quad_pairs(8), 2)]
        ops += [Op("catalan", (m,)) for m in range(3, 9)]
        rng.shuffle(ops)
        return ops

    def schedule(self, ops, seed):
        """A pass takes about 12 s, most of it in K_9, Stanley J_7 and J_8, so
        the cheap ops, the ones op_p50_ms and op_tail_ms are read from, run
        three times per pass at seeded places, for six samples a run."""
        order = list(range(len(ops)))
        order += [i for i, op in enumerate(ops)
                  if (op.kind, op.args[0]) not in HEAVY_OPS] * (CHEAP_REPEATS - 1)
        random.Random(seed).shuffle(order)
        return order

    def execute(self, lib, state, op):
        a = op.args
        if op.kind == "K_count":
            return lib.kerov.kerov_polynomial_by_counting(*a)
        if op.kind == "J_count":
            return lib.stanley.j_polynomial_by_counting(*a)
        if op.kind == "J_stanley":
            return lib.stanley.j_polynomial_via_stanley(*a)
        if op.kind == "R_multirect":
            return lib.functionals.free_cumulant_multirect_symbolic(*a)
        if op.kind == "quad":
            return lib.kerov.kerov_quadratic_derivative(*a)
        if op.kind == "catalan":
            return lib.verify.check_catalan_minimal_factorizations(*a)
        raise ValueError(op.kind)

    def check(self, lib, state, ref, op, out):
        kind, a = op.kind, op.args
        if kind in ("K_count", "J_count", "J_stanley"):
            family = "K" if kind == "K_count" else "J"
            text = str(out)
            pinned = ref["pinned"][family].get(str(a[0]))
            if pinned is not None and text != pinned:
                return f"{op.key}: {text!r} != pinned {pinned!r}"
            want = ref[family][str(a[0])]
            return None if text == want else f"{op.key}: differs from reference {family}_{a[0]}"
        if kind == "R_multirect":
            return _digest_mismatch(ref, op.key, str(out))
        if kind == "quad":
            k, j1, j2 = a
            deriv = lib.RatPoly.from_text(ref["K"][str(k)]).derivative_at_zero(
                [("R", j1), ("R", j2)])
            if out != deriv:
                return f"{op.key}: count {out} != derivative of K_{k} {deriv}"
            return _digest_mismatch(ref, op.key, str(out))
        if kind == "catalan":
            passed, detail = out
            return None if passed else f"{op.key}: {detail}"
        raise ValueError(kind)


# -- symbolic -------------------------------------------------------------

SMR_SHAPES = ((1, 7), (2, 7), (3, 6), (4, 5), (4, 7), (4, 10), (5, 6), (6, 4),
              (6, 7), (7, 5), (8, 4), (8, 7))


class Symbolic(Workload):
    """RatPoly products: symbolic multirect S_k, the coefficient formula,
    the S/R inversions and K_k by conversion from precomputed J_k."""

    name = "symbolic"
    cold_ops = True
    keep = ("stanley.j_polynomial_by_counting",)
    setup_reps = 3

    def make_ops(self, seed):
        rng = random.Random(seed)
        ops = [Op("S_multirect", rk) for rk in SMR_SHAPES]
        for k in range(2, 8):
            for r in (1, 2, 4, 6):
                s = rng.randint(1, r)
                indices = tuple(sorted(rng.sample(range(1, r), s - 1))) + (r,)
                ops.append(Op("coef", (k, indices)))
        ops += [Op("R_in_S", (k,)) for k in range(10, 19)]
        ops += [Op("S_in_R", (k,)) for k in (10, 12, 14, 16, 18)]
        ops += [Op("K_convert", (k,)) for k in range(1, 9)]
        rng.shuffle(ops)
        return ops

    def prepare(self, lib, ref):
        # K_k by conversion reads J_k by counting; computing J_k here keeps
        # factorization enumeration out of every timed op.
        for k in range(1, 9):
            lib.stanley.j_polynomial_by_counting(k)
        return {}

    def execute(self, lib, state, op):
        a = op.args
        if op.kind == "S_multirect":
            return lib.functionals.s_functional_multirect_symbolic(*a)
        if op.kind == "coef":
            return lib.stanley.check_s_coefficient_formula(*a)
        if op.kind == "R_in_S":
            return lib.functionals.r_in_terms_of_s(*a)
        if op.kind == "S_in_R":
            return lib.kerov.s_in_terms_of_r(*a)
        if op.kind == "K_convert":
            return lib.kerov.kerov_polynomial_by_conversion(*a)
        raise ValueError(op.kind)

    def check(self, lib, state, ref, op, out):
        kind, a = op.kind, op.args
        if kind == "coef":
            return None if out is True else f"{op.key}: coefficient formula fails"
        if kind == "K_convert":
            want = ref["K"][str(a[0])]
            return None if str(out) == want else f"{op.key}: differs from K_{a[0]} by counting"
        if kind == "S_in_R":
            return _digest_mismatch(ref, op.key, poly_dict_text(out))
        return _digest_mismatch(ref, op.key, str(out))


# -- diagrams -------------------------------------------------------------

POOL_SIZES = (40, 120, 240, 360, 480, 600)
POOL = tuple(random_partition(random.Random(1000 + n), n) for n in POOL_SIZES)
POOL_MAXK = tuple(range(9, 21))
DIAGRAM_MAXK = (20,) * 15 + tuple(k for k in range(9, 17) for _ in range(10)) + (17,) * 5
FRESH_DIAGRAMS = 70
# ((pool id, None) or (None, size), max-k) per diagram op: a fixed pairing of sizes
# with max-k, so a seed changes shapes, not how much work a pass holds.
DIAGRAM_SLOTS = tuple(zip(
    [(i, None) for i in range(len(POOL)) for _ in range(5)]
    + [(None, 10 + round(i * 590 / (FRESH_DIAGRAMS - 1))) for i in range(FRESH_DIAGRAMS)],
    random.Random(0).sample(DIAGRAM_MAXK, len(DIAGRAM_MAXK))))
RATIONALS = tuple(Fraction(a, b) for b in (1, 2, 3) for a in range(1, 3 * b + 1))
DEEP_TYPES = ((3, 2), (2, 2), (2, 1), (3,))
MULTIRECT_OPS = 20
GENERAL_OPS = 10
POLY_K = range(1, 9)


class Diagrams(Workload):
    """Per-diagram evaluation: the Murnaghan-Nakayama oracle, S_k by two
    routes, R_k from S (max-k up to 20), K_k and J_k evaluated."""

    name = "diagrams"
    keep = ("functionals.s_functional_multirect_symbolic",
            "functionals.free_cumulant_multirect_symbolic")

    def make_ops(self, seed):
        rng = random.Random(seed)
        ops = []
        for (pool_id, n), maxk in DIAGRAM_SLOTS:
            rows = POOL[pool_id] if pool_id is not None else random_partition(rng, n)
            ops.append(Op("diagram", (rows, maxk, pool_id)))
        for i in range(MULTIRECT_OPS):
            r = 1 + i % 3
            p = tuple(rng.choice(RATIONALS) for _ in range(r))
            q = tuple(sorted((rng.choice(RATIONALS) for _ in range(r)), reverse=True))
            ops.append(Op("multirect", (p, q, 9 + i % 4)))
        for i in range(GENERAL_OPS):
            ops.append(Op("general", (random_partition(rng, 12 + i), 2 + i % 5)))
        for cycle_type in DEEP_TYPES:
            a = rng.randint(600, 800)
            ops.append(Op("general_deep", ((a, rng.randint(1100 - a, a)), cycle_type)))
        rng.shuffle(ops)
        return ops

    def prepare(self, lib, ref):
        RatPoly = lib.RatPoly
        fn = lib.functionals
        for r in (1, 2, 3):
            for k in range(2, 13):
                fn.s_functional_multirect_symbolic(r, k)
            for k in range(2, 8):
                fn.free_cumulant_multirect_symbolic(r, k)
        return {
            "K": {k: RatPoly.from_text(ref["K"][str(k)]) for k in POLY_K},
            "J": {k: RatPoly.from_text(ref["J"][str(k)]) for k in POLY_K},
            "deep": {t: lib.stanley.stanley_character_poly(perm_of_type(t), 2)
                     for t in DEEP_TYPES},
        }

    def _evaluate_polys(self, state, svals, rvals):
        s_assign = {("S", j): v for j, v in svals.items()}
        r_assign = {("R", j): v for j, v in rvals.items()}
        return ([state["K"][k].evaluate(r_assign) for k in POLY_K],
                [state["J"][k].evaluate(s_assign) for k in POLY_K])

    def execute(self, lib, state, op):
        fn, oracle = lib.functionals, lib.charoracle
        if op.kind == "diagram":
            rows, maxk, _ = op.args
            sigma = [oracle.normalized_character(rows, k) for k in POLY_K]
            svals = fn.s_vector(rows, maxk)
            fc = lib.diagrams.frobenius(rows)
            sfrob = {k: fn.s_functional_frobenius(fc, k) for k in range(2, maxk + 1)}
            rvals = {k: fn.free_cumulant_from_s(svals, k) for k in range(2, maxk + 1)}
            return sigma, svals, sfrob, rvals, self._evaluate_polys(state, svals, rvals)
        if op.kind == "multirect":
            p, q, maxk = op.args
            m = lib.diagrams.MultiRect(p, q)
            svals = {k: fn.s_functional_multirect(m, k) for k in range(2, maxk + 1)}
            rvals = {k: fn.free_cumulant_from_s(svals, k) for k in range(2, maxk + 1)}
            rfact = {k: fn.free_cumulant_multirect(m, k) for k in range(2, 8)}
            return rvals, rfact, self._evaluate_polys(state, svals, rvals)
        if op.kind == "general":
            rows, k = op.args
            return (oracle.normalized_character_general(rows, (k,)),
                    oracle.normalized_character(rows, k))
        if op.kind == "general_deep":
            rows, cycle_type = op.args
            return oracle.normalized_character_general(rows, cycle_type)
        raise ValueError(op.kind)

    def check(self, lib, state, ref, op, out):
        if op.kind == "diagram":
            rows, maxk, pool_id = op.args
            sigma, svals, sfrob, rvals, (via_k, via_j) = out
            if svals != sfrob:
                return f"lam of {sum(rows)} boxes: S by boxes != S by Frobenius"
            if not via_k == sigma == via_j:
                return f"lam of {sum(rows)} boxes: K(R), Sigma and J(S) disagree"
            if pool_id is None:
                return None
            return _digest_mismatch(ref, op.key, self.canonical(out))
        if op.kind == "multirect":
            rvals, rfact, (via_k, via_j) = out
            if any(rvals[k] != rfact[k] for k in rfact):
                return f"multirect {op.args[:2]}: R from S != factorization sum"
            return None if via_k == via_j else f"multirect {op.args[:2]}: K(R) != J(S)"
        if op.kind == "general":
            return None if out[0] == out[1] else f"general {op.args}: {out[0]} != {out[1]}"
        if op.kind == "general_deep":
            (a, b), cycle_type = op.args
            want = state["deep"][cycle_type].evaluate(
                {("p", 1): 1, ("p", 2): 1, ("q", 1): a, ("q", 2): b})
            return None if out == want else f"general {op.args}: {out} != multirect {want}"
        raise ValueError(op.kind)

    @staticmethod
    def canonical(out) -> str:
        sigma, svals, _, rvals, _ = out
        return "|".join([
            ",".join(str(v) for v in sigma),
            ",".join(str(svals[k]) for k in sorted(svals)),
            ",".join(str(rvals[k]) for k in sorted(rvals)),
        ])


# -- cli ------------------------------------------------------------------

CLI_LAMBDAS = ("1", "2,1", "3,2,1", "4,4,2", "5,3,3,1", "6,5,4,3,2,1", "8,6,6,3,1",
               "10,9,7,7,4,2", "12,10,8,8,5,3,2,1", "20,15,15,10,5",
               "30,25,20,10,5,5,1", "40,30,30,20,10,5,5")
CUM_LAMBDAS = ("2,1", "3,2,1", "4,4,2", "5,3,3,1", "6,5,4,3,2,1", "10,9,7,7,4,2",
               "20,15,15,10,5", "40,30,30,20,10,5,5")
CUM_MULTIRECTS = (("1", "3"), ("1,2", "3,1"), ("1/2,3/2", "5/2,1"), ("2,1,1", "4,3,1"),
                  ("1/3,1,2", "3,2,1/2"), ("3/2,1/2", "2,2"))
POLY_ROUTES = ("count", "convert", "stanley")


def _json_flag(on: bool) -> tuple[str, ...]:
    return ("--json",) if on else ()


def cli_catalog() -> list[tuple[str, ...]]:
    """Every command line the cli workload can draw, for the reference."""
    out = []
    for on in (False, True):
        for k in range(1, 8):
            for basis in ("R", "S"):
                for route in POLY_ROUTES:
                    if route != "stanley" or k <= 6:
                        out.append(("poly", "--k", str(k), "--basis", basis,
                                    "--route", route) + _json_flag(on))
        for lam in CLI_LAMBDAS:
            for k in range(1, 9):
                out.append(("character", "--lambda", lam, "--k", str(k)) + _json_flag(on))
        for lam in CUM_LAMBDAS:
            for max_k in (4, 8, 12):
                out.append(("cumulants", "--lambda", lam, "--max-k", str(max_k))
                           + _json_flag(on))
        for p, q in CUM_MULTIRECTS:
            for max_k in (4, 8):
                out.append(("cumulants", "--p", p, "--q", q, "--max-k", str(max_k))
                           + _json_flag(on))
        out.append(("verify",) + _json_flag(on))
    return out


class Cli(Workload):
    """Each op is one ``symchar`` command in a fresh interpreter."""

    name = "cli"
    in_process = False
    # ops of about 0.1 s, most of it interpreter start-up, follow the host's
    # speed closely; more repeats per op keep their best time steady
    min_passes = 4

    def make_ops(self, seed):
        rng = random.Random(seed)
        argvs = []
        for k in (k for k in range(1, 8) for _ in range(2)):
            routes = POLY_ROUTES if k <= 6 else POLY_ROUTES[:2]
            argvs.append(("poly", "--k", str(k), "--basis", rng.choice("RS"),
                          "--route", rng.choice(routes)) + _json_flag(rng.random() < 0.5))
        for lam in CLI_LAMBDAS:
            argvs.append(("character", "--lambda", lam, "--k", str(rng.randint(1, 8)))
                         + _json_flag(rng.random() < 0.5))
        for max_k in (4, 4, 8, 8, 12, 12):
            argvs.append(("cumulants", "--lambda", rng.choice(CUM_LAMBDAS), "--max-k",
                          str(max_k)) + _json_flag(rng.random() < 0.5))
        for p, q in CUM_MULTIRECTS:
            argvs.append(("cumulants", "--p", p, "--q", q, "--max-k",
                          str(rng.choice((4, 8)))) + _json_flag(rng.random() < 0.5))
        argvs += [("verify",), ("verify", "--json")]
        rng.shuffle(argvs)
        return [Op("cli", argv) for argv in argvs]

    def execute(self, lib, state, op):
        command = [sys.executable, "-m", "symchar.cli"]
        if state.get("trace_out"):
            command = [sys.executable, str(HERE / "cli_child.py"), state["trace_out"]]
        code, stdout, stderr = run_child(command + list(op.args), OP_TIMEOUT_S, True)
        if code not in (0, 2):
            raise RuntimeError(f"exit {code}: {stderr.strip()[-200:]}")
        return code, stdout

    def check(self, lib, state, ref, op, out):
        code, stdout = out
        if code != 0:
            return f"{op.key}: exit {code}"
        return _digest_mismatch(ref, op.key, stdout)


WORKLOADS = {w.name: w for w in (Enumerate(), Symbolic(), Diagrams(), Cli())}
