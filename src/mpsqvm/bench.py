"""Round-structured random circuits and the memory-scaling grid study.

A *round* is a layer of random single-qubit gates followed by a layer of
nearest-neighbor CNOTs; the very first round is preceded by Hadamards on all
qubits. The CNOT layer alternates brickwork parity between rounds, so
entanglement spreads and the bond dimension doubles where layers of different
parity meet. :func:`check_cells` is the one rule for a grid's qubit and
round lists: ``run_grid`` applies it before the first cell, and the CLI
applies it to ``--qubits`` and ``--rounds``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .gates import apply_program, check_count, check_real
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
        check_count("n", self.n, 2)
        check_count("rounds", self.rounds)
        check_count("seed", self.seed, 0)
        if not self.single_qubit_pool:
            raise ValueError("need at least 1 gate in the pool")
        for name in self.single_qubit_pool:  # a MEASURE needs a classical target
            if GateKind(name).num_qubits != 1 or name == "MEASURE":
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


def check_cells(qubits: list[int], rounds: list[int]) -> None:
    """A ``ValueError`` unless both lists are non-empty and
    :class:`RoundCircuitSpec` takes every ``(n, rounds)`` cell of the grid,
    the rule the CLI applies to ``--qubits`` and ``--rounds`` too."""
    if not qubits or not rounds:
        raise ValueError("qubit and round lists must be non-empty")
    for n, m in itertools.product(qubits, rounds):
        RoundCircuitSpec(n, m, 0)


class _OverBudget(Exception):
    """Raised between gates to abandon a run that blew its budget."""


def run_grid(
    qubits: list[int],
    rounds: list[int],
    seeds_per_cell: int,
    policy: TruncationPolicy | None = None,
    chi_budget: int = 4096,
    time_budget: float = 60.0,
) -> list[BenchRecord]:
    """One record per (n, rounds) cell, aggregated over ``seeds_per_cell`` runs.

    A cell is skipped as soon as any one of its seeds exceeds the chi or the
    time budget, and the statistics of its earlier seeds are dropped; the
    grid goes on with the next cell. The time budget of a seed runs from the
    start of its simulation, after its circuit is generated;
    ``time_budget=inf`` never fires. Before the first cell, the cells are
    checked by :func:`check_cells`, ``seeds_per_cell`` must be an integer
    >= 1 (:func:`~mpsqvm.gates.check_count`), and ``chi_budget`` and
    ``time_budget`` are real numbers (:func:`~mpsqvm.gates.check_real`), at
    least 1 and at least 0.
    """
    check_cells(qubits, rounds)
    check_count("seeds_per_cell", seeds_per_cell)
    # "not >=" so that NaN, which fails every comparison, is rejected too
    for name, value, low in (("chi_budget", chi_budget, 1), ("time_budget", time_budget, 0)):
        if not check_real(name, value) >= low:
            raise ValueError(f"{name} must be >= {low}, got {value}")

    def check_budgets(state: MpsState) -> None:
        if state.max_bond_seen > chi_budget or time.perf_counter() > deadline:
            raise _OverBudget

    records: list[BenchRecord] = []
    for n in qubits:
        for m in rounds:
            record = BenchRecord(n=n, rounds=m)
            try:
                for seed in range(seeds_per_cell):
                    program = generate_round_circuit(RoundCircuitSpec(n, m, seed))
                    deadline = time.perf_counter() + time_budget
                    state = apply_program(MpsState(n, policy), program, check_budgets)
                    record.peak_bytes.append(state.memory_estimate_bytes())
                    record.max_bonds.append(state.max_bond_seen)
            except _OverBudget:
                record = BenchRecord(n, m, skipped=True)
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

    shown = sorted((r for r in records if not r.skipped), key=lambda r: (r.n, r.rounds))
    blocks = [
        "\n".join(f"{r.n} {r.rounds} {r.mean_bytes!r} {r.std_bytes!r}" for r in group)
        for _, group in itertools.groupby(shown, key=lambda r: r.n)
    ]
    plot_text = "\n\n".join(blocks) + "\n"
    return csv_text, plot_text
