"""Tests of the benchmark's own code: generators, tracer, and a tiny smoke run.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import inspect
import json
import math
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import harness, machine, tracing, workloads
from perfbench.workloads import Grid, Run, Vqe, VqeSampled

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ORIGINAL_SVD = np.linalg.svd
TINY = {
    "grid": Grid(n=6, rounds=4, check_n=6),
    "vqe": Vqe(n=4, layers=2),
    "run": Run(n=5, shots=50, check_n=4),
    "vqe_sampled": VqeSampled(shots=100),
}


def public_callables(prog):
    """(owner, name, object) for every public function and method of the program."""
    for module in vars(prog).values():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj):
                yield module, name, obj
            elif inspect.isclass(obj):
                for method, fn in vars(obj).items():
                    if not method.startswith("_") and inspect.isfunction(fn):
                        yield obj, method, fn


# -- generators ----------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda rng: workloads.brickwork_ansatz(rng, 6, 3),
    lambda rng: workloads.heisenberg_terms(rng, 6),
    lambda rng: workloads.long_range_gates(rng, 6),
])
def test_generators_are_deterministic_for_a_seed(make):
    first = make(np.random.default_rng(5))
    assert make(np.random.default_rng(5)) == first
    assert make(np.random.default_rng(6)) != first


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_inputs_are_deterministic_for_a_seed(name):
    workload = TINY[name]
    prog = harness.import_program()
    items = lambda seed: [  # noqa: E731
        workload.item(workload.setup(prog, np.random.default_rng(seed)), i) for i in range(8)
    ]
    assert items(3) == items(3)
    assert items(3) != items(4)


def test_generated_kernel_text_parses_to_the_generated_gates():
    prog = harness.import_program()
    gates = workloads.long_range_gates(np.random.default_rng(1), 5)
    kernel = prog.parser.parse(workloads.kernel_text("main", gates, range(5))).kernels["main"]
    program = prog.ir.flatten(prog.ir.bind_parameters(kernel, [0.25]))
    unitaries = [i for i in program if i.kind is not prog.ir.GateKind.MEASURE]
    assert unitaries == workloads.bound_instructions(prog, gates, 0.25)


# -- tracer --------------------------------------------------------------------


def test_tracer_restores_every_wrapped_name():
    prog = harness.import_program()
    before = list(public_callables(prog))
    tracer = tracing.Tracer()
    modules = {name: getattr(prog, name) for name in harness.TRACED_MODULES}
    hosts = [m for name, m in sys.modules.items() if name.split(".")[0] == "mpsqvm"]
    tracer.install(modules, hosts)
    try:
        assert prog.vqe.run_program is prog.backends.run_program
        assert np.linalg.svd is not ORIGINAL_SVD
        tracer.begin(0)
        TINY["run"].op(prog, TINY["run"].setup(prog, np.random.default_rng(0)), (0.5, 1))
        tracer.end()
    finally:
        tracer.remove()
    assert len(tracer.started) > 0
    names = {tracer.names[i] for i in tracer.name_id}
    expected = {tracing.PARSE, tracing.RUN_PROGRAM, tracing.ROUTED, tracing.SVD, tracing.SAMPLE}
    assert expected <= names
    assert all(getattr(owner, name) is obj for owner, name, obj in before)
    assert np.linalg.svd is ORIGINAL_SVD


def test_traced_run_leaves_no_wrapper_behind():
    harness.run(TINY["vqe"], seed=2, seconds=0.05, trace=True)
    prog = SimpleNamespace(**{
        name.split(".", 1)[1]: m for name, m in sys.modules.items() if name.startswith("mpsqvm.")
    })
    assert not [name for _, name, obj in public_callables(prog) if hasattr(obj, "__wrapped__")]
    assert np.linalg.svd is ORIGINAL_SVD


def test_spans_outside_operations_are_not_recorded():
    prog = harness.import_program()
    tracer = tracing.Tracer()
    tracer.install({"mps": prog.mps}, [prog.mps])
    try:
        prog.mps.MpsState(2).apply_one_qubit(np.eye(2), 0)
    finally:
        tracer.remove()
    assert len(tracer.started) == 0


# -- smoke run -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_emits_every_metric(name):
    for trace, spec_key in ((False, "end_to_end"), (True, "per_layer")):
        report = harness.run(TINY[name], seed=1, seconds=0.05, trace=trace)
        line = harness.result_line(report)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0, report["failures"]
        assert line["attempted"] >= harness.FINGERPRINT_OPS
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
        json.dumps(line)


class Flaky:
    """Raises on odd operations and returns a wrong answer on every third."""

    name = "flaky"
    reference_svds = 0

    def size(self):
        return "tiny"

    def setup(self, prog, rng):
        return None

    def item(self, inputs, i):
        return i

    def op(self, prog, inputs, i):
        if i % 2:
            raise RuntimeError("boom")
        return i + (i % 3 == 0)

    def summarize(self, output):
        return output

    def check(self, prog, inputs, item, record, cache):
        return None if record == item else "wrong answer"


@pytest.mark.parametrize("trace", [False, True])
def test_failures_are_counted_not_fatal(trace):
    report = harness.run(Flaky(), seed=1, seconds=1e-9, trace=trace)
    loops = 2 if trace else 1  # a traced run has an untraced and a traced loop
    assert report["attempted"] == loops * harness.FINGERPRINT_OPS
    assert report["failed"] == loops * 6  # operations 0, 1, 3, 5, 6, 7
    assert not harness.result_line(report)["correct"]


def test_benchmark_json_lists_the_workloads():
    listed = [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]
    assert SPEC["workloads"] == listed


def test_fingerprint_repeats_exactly():
    report = harness.run(TINY["run"], seed=4, seconds=0.05, trace=True)
    first = report["fingerprint"]
    second = harness.run(TINY["run"], seed=4, seconds=0.2, trace=True)["fingerprint"]
    assert first == second
    assert first["mps.swaps_inserted"] > 0
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    assert metrics["trace.sample_nested_spans"] > 0
    assert 0 < metrics["trace.sample_wrapper_share"] < 1


def test_run_check_catches_a_routing_bug(monkeypatch):
    workload = TINY["run"]
    prog = harness.import_program()
    inputs = workload.setup(prog, np.random.default_rng(0))
    item = workload.item(inputs, 0)
    counts = workload.summarize(workload.op(prog, inputs, item))
    assert workload.check(prog, inputs, item, counts, {}) is None
    monkeypatch.setattr(prog.mps.MpsState, "apply_two_qubit_routed", lambda *args: None)
    assert "fidelity" in workload.check(prog, inputs, item, counts, {})


def test_times_are_normalized_by_the_reference_around_them():
    nominal = machine.reference_s(2)
    refs = [nominal, 2 * nominal, nominal]
    assert machine.normalized([0.3, 0.6], refs, 2) == pytest.approx([0.2, 0.4])


def test_tail_is_highest_percentile_with_ten_beyond():
    times = [float(t) for t in range(1, 41)]
    value, pct, beyond = harness.tail(times)
    assert (value, pct, beyond) == (pytest.approx(30.64), 76, 10)
    assert harness.tail([float(t) for t in range(1, 61)])[1:] == (84, 10)
    assert harness.tail([1.0, 2.0, 3.0]) == (3.0, 100, 0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vqe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
