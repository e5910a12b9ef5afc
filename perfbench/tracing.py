"""In-memory span tracer over the program's public callables, and the
per-layer metrics derived from its spans.

``Tracer.install`` wraps every public function and every public method of a
public class defined in the traced modules, plus ``numpy.linalg.svd``, and
binds each wrapper at every name through which the program looks the
original up (``vqe.run_program`` as well as ``backends.run_program``).
``remove`` puts every original back. Spans are recorded only between
``begin`` and ``end``, so untimed oracle work never shows up; they are kept
in flat arrays until ``save`` writes them out.
"""

from __future__ import annotations

import array
import functools
import inspect
import time
from collections import defaultdict

import numpy as np

SVD = "numpy.linalg.svd"
TWO_SITE = "mps.MpsState.apply_two_qubit_adjacent"
ROUTED = "mps.MpsState.apply_two_qubit_routed"
ONE_QUBIT = "mps.MpsState.apply_one_qubit"
EXPECT = "mps.MpsState.expectation_pauli"
SAMPLE = "mps.MpsState.sample"
RUN_PROGRAM = "backends.run_program"
ENERGY = "vqe.energy"
PARSE = "parser.parse"
BIND = "ir.bind_parameters"
FLATTEN = "ir.flatten"
GENERATE = "bench.generate_round_circuit"
APPLY = (ONE_QUBIT, ROUTED, TWO_SITE)
CHI_BUCKETS = (2, 4, 8, 16, 32, 64, 128)


def _run_program_note(args, state):
    if not hasattr(state, "memory_estimate_bytes"):  # dense backend
        return len(args[0]), 0, 0, 0.0
    return (
        len(args[0]), state.max_bond_seen, state.memory_estimate_bytes(), state.trunc_error_sq
    )


#: Facts recorded with a span, from the call's positional arguments and its
#: result; the program makes each of these calls positionally.
NOTES = {
    SVD: lambda args, result: args[0].shape,
    TWO_SITE: lambda args, result: args[0].bond_vectors[args[2]].size,
    ROUTED: lambda args, result: abs(args[2] - args[3]),
    SAMPLE: lambda args, result: args[1],
    RUN_PROGRAM: _run_program_note,
}


class Tracer:
    """Spans as parallel arrays: name id, start, end, parent span, operation."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array.array("H")
        self.started = array.array("d")
        self.ended = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.notes: dict[int, object] = {}
        self.active = False
        self._op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, op: int) -> None:
        """Record spans for operation ``op`` (-1 marks the traced set-up)."""
        self._op = op
        self.active = True

    def end(self) -> None:
        self.active = False

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)
        tracer, clock, stack = self, time.perf_counter, self._stack
        name_ids, starts, ends, parents, ops = (
            self.name_id, self.started, self.ended, self.parent, self.op
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(tracer._op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                tracer.active = False
                try:
                    tracer.notes[idx] = note(args, result)
                finally:
                    tracer.active = True
            return result

        return traced

    # -- installing and removing wrappers -----------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, modules: dict[str, object], hosts: list[object]) -> None:
        """Wrap the public callables of ``modules`` (short name -> module).

        A wrapped function is rebound in every module of ``hosts`` that holds
        it; methods are replaced on their class.
        """
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self._wrap(obj, f"{short}.{attr}")
                    for host in hosts:
                        for host_attr, value in list(vars(host).items()):
                            if value is obj:
                                self._patch(host, host_attr, traced)
                elif inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, method, self._wrap(fn, f"{short}.{attr}.{method}"))
        self._patch(np.linalg, "svd", self._wrap(np.linalg.svd, SVD))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.started),
            end=np.frombuffer(self.ended),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def span_cost_s() -> float:
    """Seconds an active span wrapper adds to one call, measured on a no-op
    function with a throwaway tracer (median of 5 runs of 20,000 calls)."""
    calls = 20000
    tracer = Tracer()

    def noop():
        return None

    traced = tracer._wrap(noop, "noop")
    tracer.begin(0)
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - plain) / calls)
    tracer.end()
    return float(np.median(costs))


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(
    tracer: Tracer, ops: int, fingerprint_ops: int, span_cost: float
) -> dict[str, float]:
    """Per-layer numbers from the spans of operations ``0 .. ops-1``.

    Times and counts are means per operation. The fingerprint counts
    (two-site calls, inserted SWAPs, state preparations, max chi and peak
    bytes) cover only the first ``fingerprint_ops`` operations, whose inputs
    are fixed by the seed, so they repeat exactly from run to run.

    A span's time includes the wrappers of the spans nested in it (for
    example ``conditional_prob_zero`` inside ``sample``); ``span_cost`` (the
    seconds one wrapper adds) turns their count into the share of the
    sampling and two-site times that is tracing, not program.
    """
    ids = np.frombuffer(tracer.name_id, dtype=np.uint16)
    dur = np.frombuffer(tracer.ended) - np.frombuffer(tracer.started)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    op = np.frombuffer(tracer.op, dtype=np.int64)
    by_name = {name: i for i, name in enumerate(tracer.names)}
    notes = tracer.notes
    fp = min(fingerprint_ops, ops)

    def spans(name: str, phase: str = "ops") -> np.ndarray:
        if name not in by_name:
            return np.empty(0, dtype=np.int64)
        in_phase = op == -1 if phase == "setup" else op >= 0
        return np.flatnonzero((ids == by_name[name]) & in_phase)

    def total(name: str, phase: str = "ops") -> float:
        return float(dur[spans(name, phase)].sum())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def parent_in(i: int, name_ids: set[int]) -> bool:
        return parent[i] >= 0 and int(ids[parent[i]]) in name_ids

    def nested_spans(name: str) -> int:
        """Spans of operations with an ancestor span called ``name``."""
        target = by_name.get(name)
        if target is None:
            return 0
        id_list, parent_list = ids.tolist(), parent.tolist()
        under = [False] * len(id_list)
        for i, p in enumerate(parent_list):
            under[i] = p >= 0 and (id_list[p] == target or under[p])
        return int(np.count_nonzero(np.array(under, dtype=bool) & (op >= 0)))

    def has_ancestor(i: int, name: str) -> bool:
        target = by_name.get(name)
        i = parent[i]
        while i >= 0:
            if ids[i] == target:
                return True
            i = parent[i]
        return False

    two_site = spans(TWO_SITE)
    svd = spans(SVD)
    two_site_id = {by_name[TWO_SITE]} if TWO_SITE in by_name else set()
    svd_shape = {int(parent[i]): notes[i] for i in svd if i in notes and parent_in(i, two_site_id)}
    svd_in_two_site = float(sum(dur[i] for i in svd if int(parent[i]) in svd_shape))
    kept = computed = 0
    bucket_time: dict[int, float] = defaultdict(float)
    bucket_calls: dict[int, int] = defaultdict(int)
    children: dict[int, list[int]] = defaultdict(list)
    for i in two_site:
        children[int(parent[i])].append(int(i))
        shape = svd_shape.get(int(i))
        if shape is None or i not in notes:  # the call raised
            continue
        kept += notes[i]
        computed += min(shape)
        chi = max(shape) // 2
        bucket = min(128, max(2, 1 << (chi - 1).bit_length()))
        bucket_time[bucket] += dur[i]
        bucket_calls[bucket] += 1

    route_s = 0.0
    routed_gates = swaps = swaps_fp = 0
    for i in spans(ROUTED):
        distance = notes.get(i, 0)
        if distance > 1 and len(children[int(i)]) == 2 * distance - 1:
            route_s += dur[i] - dur[children[int(i)][distance - 1]]
            routed_gates += 1
            swaps += 2 * (distance - 1)
            if op[i] < fp:
                swaps_fp += 2 * (distance - 1)

    run_program = spans(RUN_PROGRAM)
    apply_ids = {by_name[name] for name in APPLY if name in by_name}
    inside_apply = sum(
        dur[i] for name in APPLY for i in spans(name)
        if not parent_in(i, apply_ids) and has_ancestor(i, RUN_PROGRAM)
    )
    preps = [i for i in run_program if has_ancestor(i, ENERGY)]
    energy = spans(ENERGY)
    prepared = [i for i in run_program if i in notes]
    first = [notes[i] for i in prepared if op[i] < fp]
    shots = sum(notes.get(i, 0) for i in spans(SAMPLE))
    expect_calls = len(spans(EXPECT))
    two_site_calls = len(two_site)
    sample_nested = nested_spans(SAMPLE)
    two_site_nested = nested_spans(TWO_SITE)

    metrics = {
        "mps.two_site_s": total(TWO_SITE) / ops,
        "mps.two_site_calls": float(np.count_nonzero(op[two_site] < fp)) / fp,
        "mps.svd_s": svd_in_two_site / ops,
        "mps.contract_update_s": (total(TWO_SITE) - svd_in_two_site) / ops,
        "mps.svd_keep_ratio": ratio(kept, computed),
    }
    for b in CHI_BUCKETS:
        metrics[f"mps.two_site_us.chi{b}"] = 1e6 * ratio(bucket_time[b], bucket_calls[b])
    metrics.update({
        "mps.route_s": route_s / ops,
        "mps.routed_gates": routed_gates / ops,
        "mps.swaps_inserted": swaps_fp / fp,
        "mps.swap_share": ratio(swaps, two_site_calls),
        "backends.run_program_s": total(RUN_PROGRAM) / ops,
        "backends.dispatch_self_s": (total(RUN_PROGRAM) - inside_apply) / ops,
        "mps.one_qubit_s": total(ONE_QUBIT) / ops,
        "mps.one_qubit_calls": len(spans(ONE_QUBIT)) / ops,
        "mps.expect_s": total(EXPECT) / ops,
        "mps.expect_calls": expect_calls / ops,
        "mps.expect_ms_per_term": 1e3 * ratio(total(EXPECT), expect_calls),
        "mps.sample_s": total(SAMPLE) / ops,
        "mps.sample_us_per_shot": 1e6 * ratio(total(SAMPLE), shots),
        "trace.span_cost_us": 1e6 * span_cost,
        "trace.sample_nested_spans": sample_nested / ops,
        "trace.sample_wrapper_share": ratio(sample_nested * span_cost, total(SAMPLE)),
        "trace.two_site_nested_spans": two_site_nested / ops,
        "trace.two_site_wrapper_share": ratio(two_site_nested * span_cost, total(TWO_SITE)),
        "vqe.energy_s": total(ENERGY) / ops,
        "vqe.state_preps": ratio(
            sum(1 for i in preps if op[i] < fp),
            np.count_nonzero(op[energy] < fp),
        ),
        "parser.parse_s": total(PARSE) / ops,
        "ir.bind_flatten_s": (total(BIND) + total(FLATTEN)) / ops,
        "ir.gates": sum(notes[i][0] for i in prepared) / ops,
        "bench.generate_s": total(GENERATE) / ops,
        "mps.max_chi": float(max((f[1] for f in first), default=0)),
        "mps.peak_bytes": float(max((f[2] for f in first), default=0)),
        "mps.trunc_err_sq": sum(notes[i][3] for i in prepared) / ops,
        "setup.parse_s": total(PARSE, "setup"),
        "setup.bind_flatten_s": total(BIND, "setup") + total(FLATTEN, "setup"),
        "setup.generate_s": total(GENERATE, "setup"),
    })
    return {name: float(value) for name, value in metrics.items()}
