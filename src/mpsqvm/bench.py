"""Round-structured random circuits and the memory-scaling grid study.

A *round* is a layer of random single-qubit gates followed by a layer of
nearest-neighbor CNOTs; the very first round is preceded by Hadamards on all
qubits. The CNOT layer alternates brickwork parity between rounds, so
entanglement spreads and the bond dimension doubles where layers of different
parity meet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .gates import apply_program
from .ir import GateKind, Instruction
from .mps import MpsState, TruncationPolicy

DEFAULT_POOL = ("X", "Y", "Z", "RX", "RY", "RZ")


@dataclass(frozen=True)
class RoundCircuitSpec:
    n: int
    rounds: int
    seed: int
    single_qubit_pool: tuple[str, ...] = DEFAULT_POOL

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least 2 qubits")
        if self.rounds < 1:
            raise ValueError("need at least 1 round")
        for name in self.single_qubit_pool:
            if GateKind(name).num_qubits != 1:
                raise ValueError(f"{name} is not a single-qubit gate")


def generate_round_circuit(spec: RoundCircuitSpec) -> list[Instruction]:
    """Deterministic random circuit for the given spec."""
    rng = np.random.default_rng(spec.seed)
    program: list[Instruction] = []
    for r in range(1, spec.rounds + 1):
        if r == 1:
            program.extend(Instruction(GateKind.H, (q,)) for q in range(spec.n))
        for q in range(spec.n):
            kind = GateKind(spec.single_qubit_pool[rng.integers(len(spec.single_qubit_pool))])
            params = (float(rng.uniform(0.0, 2.0 * np.pi)),) if kind.num_params else ()
            program.append(Instruction(kind, (q,), params))
        start = 0 if r % 2 == 1 else 1
        program.extend(
            Instruction(GateKind.CNOT, (a, a + 1)) for a in range(start, spec.n - 1, 2)
        )
    return program


@dataclass
class BenchRecord:
    """Aggregated statistics of one (n, rounds) grid cell."""

    n: int
    rounds: int
    peak_bytes: list[int] = field(default_factory=list)
    max_bonds: list[int] = field(default_factory=list)
    skipped: bool = False

    @property
    def mean_bytes(self) -> float:
        return float(np.mean(self.peak_bytes))

    @property
    def std_bytes(self) -> float:
        return float(np.std(self.peak_bytes))

    @property
    def mean_chi(self) -> float:
        return float(np.mean(self.max_bonds))

    @property
    def max_chi(self) -> int:
        return int(max(self.max_bonds))


class _OverBudget(Exception):
    """Raised between gates to abandon a run that blew its budget."""


def _run_budgeted(
    program: list[Instruction],
    n: int,
    policy: TruncationPolicy | None,
    chi_budget: int,
    time_budget: float,
) -> MpsState | None:
    """Simulate, returning None if the chi or wall-clock budget is exceeded."""
    start = time.perf_counter()

    def check_budgets(state: MpsState) -> None:
        if state.max_bond_seen > chi_budget:
            raise _OverBudget
        if time.perf_counter() - start > time_budget:
            raise _OverBudget

    try:
        return apply_program(MpsState(n, policy), program, check_budgets)
    except _OverBudget:
        return None


def run_grid(
    qubits: list[int],
    rounds: list[int],
    seeds_per_cell: int,
    policy: TruncationPolicy | None = None,
    chi_budget: int = 4096,
    time_budget: float = 60.0,
) -> list[BenchRecord]:
    """One record per (n, rounds) cell, aggregated over ``seeds_per_cell`` runs.

    Cells whose runs blow the chi or per-seed time budget are marked skipped
    rather than aborting the grid; ``time_budget=inf`` never fires.
    """
    if not qubits or not rounds:
        raise ValueError("qubit and round lists must be non-empty")
    if seeds_per_cell < 1:
        raise ValueError(f"seeds_per_cell must be >= 1, got {seeds_per_cell}")
    records: list[BenchRecord] = []
    for n in qubits:
        for m in rounds:
            record = BenchRecord(n=n, rounds=m)
            for seed in range(seeds_per_cell):
                program = generate_round_circuit(RoundCircuitSpec(n, m, seed))
                state = _run_budgeted(program, n, policy, chi_budget, time_budget)
                if state is None:
                    record.skipped = True
                    record.peak_bytes.clear()
                    record.max_bonds.clear()
                    break
                record.peak_bytes.append(state.memory_estimate_bytes())
                record.max_bonds.append(state.max_bond_seen)
            records.append(record)
    return records


def emit_report(records: list[BenchRecord]) -> tuple[str, str]:
    """(CSV text, gnuplot-style surface data) for a list of grid records."""
    if not records:
        raise ValueError("no records to report")
    lines = ["n,rounds,mean_bytes,std_bytes,mean_chi,max_chi,skipped"]
    for r in records:
        if r.skipped:
            lines.append(f"{r.n},{r.rounds},,,,,true")
        else:
            lines.append(
                f"{r.n},{r.rounds},{r.mean_bytes!r},{r.std_bytes!r},"
                f"{r.mean_chi!r},{r.max_chi},false"
            )
    csv_text = "\n".join(lines) + "\n"

    blocks: list[str] = []
    by_n: dict[int, list[BenchRecord]] = {}
    for r in records:
        by_n.setdefault(r.n, []).append(r)
    for n in sorted(by_n):
        rows = [
            f"{r.n} {r.rounds} {r.mean_bytes!r} {r.std_bytes!r}"
            for r in sorted(by_n[n], key=lambda r: r.rounds)
            if not r.skipped
        ]
        if rows:
            blocks.append("\n".join(rows))
    plot_text = "\n\n".join(blocks) + "\n"
    return csv_text, plot_text
