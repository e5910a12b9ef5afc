"""Closed-loop timing of one workload, its correctness checks, and its report.

One process runs one workload. Set-up (a fresh import of ``mpsqvm`` plus
building the workload's inputs) is repeated ``SETUP_REPEATS`` times and its
median reported. Operations then run back to back from a single caller for
the given number of seconds, after one untimed warm-up operation. Every
operation's output is checked against an oracle once the timed loop is over.

A reference computation (``machine.reference``) runs before the first
set-up or operation and after each one; the bounded times are reported at
reference speed, so that the machine's own speed changes cancel. Wall times
are kept in the full report.

With tracing on, the seconds are split: the first half runs untraced, the
second half runs with every public callable of the program wrapped, and the
difference of the two ``op_p50_s`` values is reported as tracing overhead.
"""

from __future__ import annotations

import importlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .machine import normalized, reference
from .tracing import CHI_BUCKETS, Tracer, layer_metrics, span_cost_s
from .workloads import ROOT

SRC = ROOT / "src"
SETUP_REPEATS = 11
#: Operations whose exact counts form the fingerprint; every run makes at
#: least this many, so the fingerprint never depends on timing.
FINGERPRINT_OPS = 8
TRACED_MODULES = ("parser", "ir", "backends", "mps", "vqe", "bench")

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "mps.two_site_s": "s",
    "mps.two_site_calls": "count",
    "mps.svd_s": "s",
    "mps.contract_update_s": "s",
    "mps.svd_keep_ratio": "ratio",
    **{f"mps.two_site_us.chi{b}": "us" for b in CHI_BUCKETS},
    "mps.route_s": "s",
    "mps.routed_gates": "count",
    "mps.swaps_inserted": "count",
    "mps.swap_share": "ratio",
    "backends.run_program_s": "s",
    "backends.dispatch_self_s": "s",
    "mps.one_qubit_s": "s",
    "mps.one_qubit_calls": "count",
    "mps.expect_s": "s",
    "mps.expect_calls": "count",
    "mps.expect_ms_per_term": "ms",
    "mps.sample_s": "s",
    "mps.sample_us_per_shot": "us",
    "trace.span_cost_us": "us",
    "trace.sample_nested_spans": "count",
    "trace.sample_wrapper_share": "ratio",
    "trace.two_site_nested_spans": "count",
    "trace.two_site_wrapper_share": "ratio",
    "vqe.energy_s": "s",
    "vqe.state_preps": "count",
    "parser.parse_s": "s",
    "ir.bind_flatten_s": "s",
    "ir.gates": "count",
    "bench.generate_s": "s",
    "mps.max_chi": "count",
    "mps.peak_bytes": "B",
    "mps.trunc_err_sq": "1",
    "setup.parse_s": "s",
    "setup.bind_flatten_s": "s",
    "setup.generate_s": "s",
    "trace.untraced_op_p50_s": "s",
    "trace.op_p50_s": "s",
    "trace.overhead_s": "s",
    "trace.spans_per_op": "count",
}

FINGERPRINT = (
    "mps.two_site_calls", "mps.swaps_inserted", "mps.max_chi", "mps.peak_bytes", "vqe.state_preps",
)


class ProgramNotFound(RuntimeError):
    """``mpsqvm`` could not be imported from this checkout's ``src``."""


def import_program() -> SimpleNamespace:
    """Import ``mpsqvm`` afresh from ``src`` and return its modules by name."""
    for name in [m for m in sys.modules if m == "mpsqvm" or m.startswith("mpsqvm.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("mpsqvm")
    except ImportError as exc:
        raise ProgramNotFound(f"cannot import mpsqvm from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(package.__file__).resolve().parents:
        raise ProgramNotFound(f"mpsqvm was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{
        name.split(".", 1)[1]: module
        for name, module in sys.modules.items()
        if name.startswith("mpsqvm.")
    })


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def tail(times: list[float]) -> tuple[float, int, int]:
    """(value, percentile, ops beyond it) at the highest whole percentile
    (numpy's linear interpolation) with at least 10 operations beyond it; the
    maximum if no percentile has 10 beyond it."""
    ordered = np.sort(times)
    for pct in range(99, -1, -1):
        value = float(np.percentile(ordered, pct))
        beyond = len(ordered) - int(np.searchsorted(ordered, value, side="right"))
        if beyond >= 10:
            return value, pct, beyond
    return float(ordered[-1]), 100, 0


def timed_setup(workload, seed: int):
    start = time.perf_counter()
    prog = import_program()
    inputs = workload.setup(prog, np.random.default_rng(seed))
    return time.perf_counter() - start, prog, inputs


def timed_loop(workload, prog, inputs, seconds: float, tracer: Tracer | None = None):
    """Run operations for ``seconds`` (at least ``FINGERPRINT_OPS`` of them).

    Returns one ``(item, seconds, record, error)`` per operation, where
    ``record`` is the summarized output and ``error`` a traceback if the
    operation raised, and the reference times before the first and after
    each operation.
    """
    results = []
    refs = [reference(workload.reference_svds)]
    start = time.perf_counter()
    while len(results) < FINGERPRINT_OPS or time.perf_counter() - start < seconds:
        i = len(results)
        item = workload.item(inputs, i)
        if tracer is not None:
            tracer.begin(i)
        t0 = time.perf_counter()
        try:
            output = workload.op(prog, inputs, item)
        except Exception:  # counted in error_rate, reported below
            results.append((item, time.perf_counter() - t0, None, traceback.format_exc()))
        else:
            results.append((item, time.perf_counter() - t0, workload.summarize(output), None))
        finally:
            if tracer is not None:
                tracer.end()
        refs.append(reference(workload.reference_svds))
    return results, refs


def check_all(workload, prog, inputs, results) -> list[str]:
    """One failure message per operation that raised or failed its check."""
    cache: dict = {}
    failures = []
    for i, (item, _, record, error) in enumerate(results):
        reason = error or workload.check(prog, inputs, item, record, cache)
        if reason:
            failures.append(f"operation {i} ({item!r}): {reason}")
    return failures


def warm_up(workload, prog, inputs) -> None:
    """One untimed operation, so lazy set-up and caches are done before timing."""
    try:
        workload.op(prog, inputs, workload.item(inputs, 0))
    except Exception:  # the timed loop meets and counts the same failure
        pass


def end_to_end(workload, seed: int, seconds: float, report: dict) -> tuple[int, list[str]]:
    """Untraced run: fills ``report`` and returns (attempted, failures)."""
    svds = workload.reference_svds
    setups, setup_refs = [], [reference(svds)]
    for _ in range(SETUP_REPEATS):
        seconds_taken, prog, inputs = timed_setup(workload, seed)
        setups.append(seconds_taken)
        setup_refs.append(reference(svds))
    warm_up(workload, prog, inputs)
    results, refs = timed_loop(workload, prog, inputs, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = [t for _, t, _, _ in results]
    times = normalized(wall, refs, svds)
    tail_value, pct, beyond = tail(times)
    values = {
        "setup_s": statistics.median(normalized(setups, setup_refs, svds)),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": rss_mb,
    }
    report["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    report["tail"] = {"percentile": pct, "beyond": beyond, "ops": len(times)}
    report["wall"] = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(wall),
        "reference_p50_s": statistics.median(refs),
    }
    report["setup_runs_s"] = setups
    report["setup_reference_s"] = setup_refs
    report["op_times_s"] = wall
    report["reference_s"] = refs
    return len(results), check_all(workload, prog, inputs, results)


def per_layer(workload, seed: int, seconds: float, report: dict) -> tuple[int, list[str]]:
    """Half untraced, half traced: fills ``report``, returns (attempted, failures)."""
    _, prog, inputs = timed_setup(workload, seed)
    warm_up(workload, prog, inputs)
    untraced, _ = timed_loop(workload, prog, inputs, seconds / 2)
    tracer = Tracer()
    modules = {name: getattr(prog, name) for name in TRACED_MODULES}
    hosts = [m for name, m in sys.modules.items() if name.split(".")[0] == "mpsqvm"]
    tracer.install(modules, hosts)
    try:
        tracer.begin(-1)
        traced_inputs = workload.setup(prog, np.random.default_rng(seed))
        tracer.end()
        traced, _ = timed_loop(workload, prog, traced_inputs, seconds / 2, tracer)
    finally:
        tracer.remove()
    layers = layer_metrics(tracer, len(traced), FINGERPRINT_OPS, span_cost_s())
    # Wall seconds, like the spans they are compared with.
    untraced_p50 = statistics.median(t for _, t, _, _ in untraced)
    traced_p50 = statistics.median(t for _, t, _, _ in traced)
    layers.update({
        "trace.untraced_op_p50_s": untraced_p50,
        "trace.op_p50_s": traced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
        "trace.spans_per_op": sum(1 for op in tracer.op if op >= 0) / len(traced),
    })
    report["metrics"] = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    report["fingerprint"] = {k: layers[k] for k in FINGERPRINT}
    report["tracer"] = tracer
    failures = check_all(workload, prog, inputs, untraced)
    failures += check_all(workload, prog, traced_inputs, traced)
    return len(untraced) + len(traced), failures


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full report (see ``result_line``).

    A traced report carries the ``Tracer`` under ``"tracer"`` for saving.
    """
    report = {"workload": workload.name, "size": workload.size(), "env": environment(seed)}
    measure = per_layer if trace else end_to_end
    attempted, failures = measure(workload, seed, seconds, report)
    report.update({
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures,
    })
    return report


def result_line(report: dict) -> dict:
    """The four-key result object printed as the last line of stdout."""
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }
