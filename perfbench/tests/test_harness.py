"""Tests of the benchmark harness itself (not of symchar).

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import inspect
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, ColdCacheError, Lib, Op  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return Lib()


def _bindings():
    """Every (namespace, attribute) -> object binding the tracer may touch."""
    out = {}
    for module in tracer_mod.symchar_modules():
        for attr, obj in vars(module).items():
            out[(module.__name__, attr)] = obj
    ratpoly = sys.modules["symchar.ratpoly"].RatPoly
    for attr, obj in vars(ratpoly).items():
        out[("RatPoly", attr)] = obj
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_op_list(name):
    workload = WORKLOADS[name]
    first = workload.make_ops(7)
    assert first == workload.make_ops(7)
    assert first != workload.make_ops(8)
    assert len(first) == workload.ops_per_pass()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_seeded_op_has_a_reference(name):
    ref = workloads.load_reference()
    for op in WORKLOADS[name].make_ops(3):
        if op.kind in ("cli", "R_multirect", "quad", "S_multirect", "R_in_S", "S_in_R") or (
                op.kind == "diagram" and op.args[2] is not None):
            assert op.key in ref["digests"], op.key


def test_tail_percentile_leaves_ten_ops_beyond_it():
    for workload in WORKLOADS.values():
        samples = list(range(workload.ops_per_pass()))
        tail = run.nearest_rank(samples, workload.tail_percentile())
        assert len([s for s in samples if s > tail]) >= 10


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_schedule_runs_every_op_and_is_seeded(name):
    workload = WORKLOADS[name]
    ops = workload.make_ops(5)
    order = workload.schedule(ops, 5)
    assert order == workload.schedule(ops, 5)
    assert set(order) == set(range(len(ops)))
    if name == "enumerate":
        counts = {i: order.count(i) for i in set(order)}
        assert set(counts.values()) == {1, workloads.CHEAP_REPEATS}
        assert counts[ops.index(Op("K_count", (9,)))] == 1


def test_best_latency_is_the_best_run_of_each_op():
    passes = [run.PassResult(latencies=[3.0, 5.0, 1.0]), run.PassResult(latencies=[2.0, 6.0, 4.0])]
    assert run.best_latencies(2, [0, 1, 0], passes) == [1.0, 5.0]


def test_tracer_wraps_and_restores_originals(lib):
    before = _bindings()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert lib.perms.cycles is not before[("symchar.perms", "cycles")]
        # stanley binds the functionals function by name; both are wrapped
        assert (lib.stanley.s_functional_multirect_symbolic
                is lib.functionals.s_functional_multirect_symbolic)
        assert (lib.stanley.s_functional_multirect_symbolic
                is not before[("symchar.functionals", "s_functional_multirect_symbolic")])
        lib.kerov.kerov_polynomial_by_counting.cache_clear()
        tracer.set_root("op:test")
        tracer.enabled = True
        lib.kerov.kerov_polynomial_by_counting(4)
        lib.RatPoly.variable(("S", 2)) * lib.RatPoly.variable(("S", 3))
        tracer.enabled = False
    finally:
        tracer.restore()
    assert _bindings() == before
    assert tracer.yields["perms.factorizations_of_cycle"] == 24
    assert tracer.calls("perms.cycles") == 48
    assert tracer.calls("ratpoly.RatPoly.__mul__") == 1
    assert ("kerov.kerov_polynomial_by_counting", "op:test") in tracer.stats
    modules = tracer.module_totals()
    assert modules["perms"][0] > 0 and modules["kerov"][1] > 0


def test_tracer_restores_after_an_exception(lib):
    before = _bindings()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        with pytest.raises(ValueError):
            lib.perms.canonical_cycle(0)
        assert len(tracer.stack) == 1
    finally:
        tracer.restore()
    assert _bindings() == before


def test_generator_steps_are_spans_of_the_generator(lib):
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        assert sum(1 for _ in lib.perms.factorizations_of_cycle(3)) == 6
        tracer.enabled = False
    finally:
        tracer.restore()
    # six items plus the step that ends the iteration
    assert tracer.calls("perms.factorizations_of_cycle") == 7
    # compose and inverse run inside __next__, so their parent is the generator
    assert tracer.stats[("perms.compose", "perms.factorizations_of_cycle")][0] == 6
    assert inspect.isgeneratorfunction(lib.perms.factorizations_of_cycle)


def test_cold_cache_guard_fires(lib):
    workloads.clear_result_caches(lib)
    workloads.assert_cold(lib)
    lib.functionals.s_functional_multirect_symbolic(1, 3)
    with pytest.raises(ColdCacheError, match="s_functional_multirect_symbolic"):
        workloads.assert_cold(lib)
    workloads.assert_cold(lib, keep=("functionals.s_functional_multirect_symbolic",))
    workloads.clear_result_caches(lib)
    lib.charoracle.normalized_character((2, 1), 2)
    with pytest.raises(ColdCacheError, match="charoracle"):
        workloads.assert_cold(lib)
    workloads.clear_result_caches(lib)
    workloads.assert_cold(lib)


def test_cold_cache_guard_stops_a_pass(lib, monkeypatch):
    """An op that must start cold never runs on a warm cache."""
    workload = WORKLOADS["enumerate"]
    monkeypatch.setattr(workloads, "clear_result_caches", lambda lib, keep=(): None)
    monkeypatch.setattr(run, "clear_result_caches", lambda lib, keep=(): None)
    lib.kerov.kerov_polynomial_by_counting(2)
    with pytest.raises(ColdCacheError):
        run.run_pass(workload, lib, {}, workloads.load_reference(), [Op("K_count", (2,))])
    workloads.clear_result_caches(lib)


def test_small_pass_checks_outputs(lib):
    ref = workloads.load_reference()
    workload = WORKLOADS["enumerate"]
    ops = [Op("K_count", (5,)), Op("J_stanley", (4,)), Op("catalan", (5,))]
    result = run.run_pass(workload, lib, {}, ref, ops)
    assert len(result.latencies) == 3
    assert not result.failures and not result.mismatches
    bad_ref = dict(ref, K=dict(ref["K"], **{"5": "R6"}), pinned={"K": {}, "J": {}})
    result = run.run_pass(workload, lib, {}, bad_ref, ops[:1])
    assert result.mismatches and result.mismatches[0][0] == "K_count:5"


def test_an_op_that_raises_is_a_failed_op_not_a_crash(lib):
    class Raising(workloads.Workload):
        name = "raising"

        def execute(self, lib, state, op):
            if op.args[0]:
                raise RecursionError("too deep")
            return 1

        def check(self, lib, state, ref, op, out):
            return None

    ops = [Op("x", (True,)), Op("x", (False,))]
    result = run.run_pass(Raising(), lib, {}, {}, ops)
    assert len(result.latencies) == 2
    assert result.failures == [("x:True", "RecursionError: too deep")]
    assert not result.mismatches
