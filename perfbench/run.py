"""symchar benchmark harness.

Usage (from the repository root):

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 10 --trace 0

Runs one workload (see workloads.py) in a single process and thread, checks
every op's output, prints a human-readable report, and prints as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures end to end: it repeats the workload's op list until
``--seconds`` of ops have run and at least ``min_passes`` times, times each
op as the best of its passes, and reports wall_s, op_p50_ms, op_tail_ms,
setup_s, peak_rss_mb and success_rate.  ``--trace 1`` runs one pass
under the tracer (tracer.py) between two untraced ones, and reports the
per-module metrics.  The same seed gives the same op list, so every count
in a traced run repeats exactly.  ``--workload all`` runs each workload in
a fresh process of its own.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import ROOT as ROOT_SPAN  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    LAYERS, OP_TIMEOUT_S, ROOT, SRC, WORKLOADS, Lib, assert_cold, clear_result_caches,
    deadline, dim_cache_entries, load_reference, oracle_cache_entries, run_child,
)

OUT_DIR = ROOT / ".perfbench_out"
SETUP_TIMEOUT_S = 120
RUN_TIMEOUT_S = 180
UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MB", "success_rate": "ratio"}


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    mismatches: list[tuple[str, str]] = field(default_factory=list)
    dim_misses: int = 0
    peak_cache_entries: int = 0
    child_import_s: list[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(workload, lib, state, ref, ops, tracer: Tracer | None = None) -> PassResult:
    """Run every op once, in order, and check each output.  The pass time
    is the sum of op latencies; cache resets and checks are not timed."""
    result = PassResult()
    if not workload.cold_ops:
        clear_result_caches(lib, workload.keep)
    trace_out = state.get("trace_out")
    for op in ops:
        if workload.cold_ops:
            clear_result_caches(lib, workload.keep)
            assert_cold(lib, workload.keep)
        dim_before = dim_cache_entries(lib.charoracle)
        guard = deadline(OP_TIMEOUT_S) if workload.in_process else nullcontext()
        if tracer is not None:
            tracer.set_root(f"op:{op.kind}")
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            with guard:
                out = workload.execute(lib, state, op)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"[:200]
        result.latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
            tracer.set_root(ROOT_SPAN)
        result.dim_misses += dim_cache_entries(lib.charoracle) - dim_before
        result.peak_cache_entries = max(result.peak_cache_entries,
                                        oracle_cache_entries(lib.charoracle))
        if trace_out and tracer is not None and error is None:
            with open(trace_out) as fh:
                child = json.load(fh)
            os.unlink(trace_out)
            tracer.merge({(f, p): rec for f, p, *rec in child["stats"]},
                         child["yields"], child["terms_out"])
            result.dim_misses += child["dim_misses"]
            result.peak_cache_entries = max(result.peak_cache_entries,
                                            child["cache_entries"])
            result.child_import_s.append(child["import_s"])
        if error is not None:
            result.failures.append((op.key, error))
            continue
        detail = workload.check(lib, state, ref, op, out)
        if detail is not None:
            result.mismatches.append((op.key, detail))
    return result


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    index = max(0, math.ceil(percentile / 100 * len(ordered)) - 1)
    return ordered[index]


def setup_command(workload, seed: int) -> list[str]:
    """A fresh process that does the workload's set-up and exits: interpreter
    start, import, input generation and warm-up (for cli, a bare
    ``import symchar.cli``)."""
    if workload.in_process:
        return [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
                "--seed", str(seed), "--setup-only"]
    return [sys.executable, "-c", "import symchar.cli"]


def time_setup(command: list[str]) -> float:
    t0 = time.perf_counter()
    code, _, _ = run_child(command, SETUP_TIMEOUT_S, False)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up exited {code}")
    return elapsed


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def read_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((SRC / "symchar").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "commit": read_commit(ROOT),
        "source_sha256": source_digest(),
    }


def best_latencies(n_ops: int, schedule: list[int], passes: list[PassResult]) -> list[float]:
    """Each op's latency: the best of its runs in this run's passes.

    On a shared host, other tenants slow this process by 1.3x to 1.6x for
    stretches from seconds to over a minute; single samples and per-pass
    sums inherit that (20 s runs of a fixed loop: 20% spread of the median
    sample, 4% of the best one), so each op is timed as its best repeat, as
    timeit does."""
    best = [math.inf] * n_ops
    for p in passes:
        for i, t in zip(schedule, p.latencies):
            best[i] = min(best[i], t)
    return best


def end_to_end_metrics(workload, ops, schedule, passes, setup_samples) -> tuple[dict, dict]:
    best = best_latencies(len(ops), schedule, passes)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) + len(p.mismatches) for p in passes)
    percentile = workload.tail_percentile()
    tail = nearest_rank(best, percentile)
    usage = resource.getrusage(resource.RUSAGE_SELF if workload.in_process
                               else resource.RUSAGE_CHILDREN)
    values = {
        "wall_s": sum(best),
        "op_p50_ms": statistics.median(best) * 1000,
        "op_tail_ms": tail * 1000,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "success_rate": 1 - failed / attempted,
    }
    info = {"tail_percentile": percentile, "tail_samples": len(best),
            "tail_beyond": sum(1 for t in best if t > tail),
            "error_rate": failed / attempted, "pass_walls_s": [p.wall for p in passes],
            "setup_samples_s": setup_samples,
            "op_best_s": [[op.key, t] for op, t in zip(ops, best)]}
    return values, info


def layer_metrics(tracer: Tracer, untraced: PassResult, traced: PassResult,
                  import_s: float) -> dict:
    modules = tracer.module_totals()
    values = {}
    for layer in LAYERS:
        calls, self_s = modules.get(layer, (0, 0.0))
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
    mul = ("ratpoly.RatPoly.__mul__", "ratpoly.RatPoly.__rmul__")
    dim_calls = tracer.calls("charoracle.dimension")
    values.update({
        "perms.pairs": tracer.yields.get("perms.factorizations_of_cycle", 0),
        "ratpoly.mul_calls": sum(tracer.calls(m) for m in mul),
        "ratpoly.mul_s": sum(tracer.total_s(m) for m in mul),
        "ratpoly.terms_out": tracer.terms_out,
        "ratpoly.eval_calls": tracer.calls("ratpoly.RatPoly.evaluate"),
        "ratpoly.eval_s": tracer.total_s("ratpoly.RatPoly.evaluate"),
        "functionals.r_from_s_s": tracer.total_s("functionals.free_cumulant_from_s"),
        "charoracle.dim_hit_ratio":
            (dim_calls - traced.dim_misses) / dim_calls if dim_calls else 0.0,
        "charoracle.cache_entries": traced.peak_cache_entries,
        "cli.import_s": (statistics.median(traced.child_import_s)
                         if traced.child_import_s else import_s),
        "trace.overhead_ratio": traced.wall / untraced.wall,
    })
    return values


LAYER_UNITS = {"calls": "count", "self_s": "s", "pairs": "count", "mul_calls": "count",
               "mul_s": "s", "terms_out": "count", "eval_calls": "count", "eval_s": "s",
               "r_from_s_s": "s", "dim_hit_ratio": "ratio", "cache_entries": "count",
               "import_s": "s", "overhead_ratio": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True,
                        help="one workload, or all of them, each in a fresh process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only import, make the inputs and warm up (timed by the parent)")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in a fresh process of its own; the last line
    combines their results, with metrics named <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        code, stdout, stderr = run_child(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], RUN_TIMEOUT_S, True)
        sys.stdout.write(stdout)
        sys.stderr.write(stderr)
        if code != 0:
            return code
        result = json.loads(stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symchar" / "__init__.py").is_file():
        print(f"perfbench: no symchar sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        lib, ref = Lib(), load_reference()
        workload.prepare(lib, ref)
        workload.make_ops(args.seed)
        return 0

    setup = setup_command(workload, args.seed)
    setup_samples = [] if args.trace else [time_setup(setup)]
    t0 = time.perf_counter()
    lib = Lib()
    import_s = time.perf_counter() - t0
    ref = load_reference()
    ops = workload.make_ops(args.seed)
    state = workload.prepare(lib, ref)

    passes: list[PassResult] = []
    trace_doc = None
    if args.trace:
        untraced = run_pass(workload, lib, state, ref, ops)
        OUT_DIR.mkdir(exist_ok=True)
        tracer = Tracer()
        traced_state = state if workload.in_process else dict(
            state, trace_out=str(OUT_DIR / f"child-{os.getpid()}.json"))
        tracer.install()
        try:
            traced = run_pass(workload, lib, traced_state, ref, ops, tracer)
        finally:
            tracer.restore()
        # an untraced pass on each side of the traced one, the faster kept
        after = run_pass(workload, lib, state, ref, ops)
        passes = [untraced, traced, after]
        values = layer_metrics(tracer, min(untraced, after, key=lambda p: p.wall), traced,
                               import_s)
        units = {name: LAYER_UNITS[name.split(".", 1)[1]] for name in values}
        info = {"untraced_wall_s": [untraced.wall, after.wall], "traced_wall_s": traced.wall}
        trace_doc = tracer.export()
    else:
        # Set-up repeats run between passes, so that they sample the same
        # stretch of time as the ops; their time does not count as measuring.
        schedule = workload.schedule(ops, args.seed)
        pass_ops = [ops[i] for i in schedule]
        measured = 0.0
        while len(passes) < workload.min_passes or measured < args.seconds:
            t0 = time.perf_counter()
            passes.append(run_pass(workload, lib, state, ref, pass_ops))
            measured += time.perf_counter() - t0
            if len(setup_samples) < workload.setup_reps:
                setup_samples.append(time_setup(setup))
        while len(setup_samples) < workload.setup_reps:
            setup_samples.append(time_setup(setup))
        values, info = end_to_end_metrics(workload, ops, schedule, passes, setup_samples)
        units = UNITS

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    mismatches = [m for p in passes for m in p.mismatches]
    env = environment(args.seed)
    report = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
              "passes": len(passes), "ops": len(ops), "op_runs": attempted, "environment": env,
              "metrics": values, "info": info,
              "failures": sorted(set(failures)), "mismatches": sorted(set(mismatches)),
              "trace_spans": trace_doc}
    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str))

    print(f"perfbench {workload.name}: seed {args.seed}, {len(ops)} ops, {len(passes)} passes, "
          f"{attempted} op runs, trace {args.trace}")
    for name, value in values.items():
        print(f"  {name:26s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'error_rate':26s} {info['error_rate']:14.6g} ratio"
              f"  ({len(failures) + len(mismatches)} of {attempted} ops)")
        print(f"  op_tail_ms is p{info['tail_percentile']} of {info['tail_samples']} "
              f"ops ({info['tail_beyond']} beyond it)")
    for key, error in sorted(set(failures))[:10]:
        print(f"  failed: {key}  {error}")
    for key, detail in sorted(set(mismatches))[:10]:
        print(f"  WRONG: {key}  {detail}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  report: {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": len(failures) + len(mismatches),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
