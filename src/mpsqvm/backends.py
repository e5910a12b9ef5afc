"""Common execution contract over the two interchangeable backends.

``run_program`` builds a fresh state on either the MPS simulator or the dense
oracle and applies a flattened program to it with
:func:`~mpsqvm.gates.apply_program`; ``execute`` additionally samples the
measured qubits and assembles a :class:`RunRecord`. Both backends sample
through the one function :func:`~mpsqvm.mps.sample_sequential` (one uniform
variate per qubit per shot), so a fixed seed yields identical counts across
backends when truncation is off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dense import DenseState
from .gates import apply_program, measured_qubits
from .ir import Instruction, num_qubits
from .mps import MpsState, TruncationPolicy

BACKENDS = ("mps", "dense")


@dataclass
class RunRecord:
    """Results of one program execution."""

    counts: dict[str, int] = field(default_factory=dict)
    max_bond_seen: int | None = None
    memory_estimate_bytes: int = 0
    trunc_error_sq: float = 0.0
    wall_time: float = 0.0

    def to_json_dict(self) -> dict:
        """Everything but ``wall_time``, so equal runs give equal JSON."""
        return {
            "counts": self.counts,
            "max_bond_seen": self.max_bond_seen,
            "memory_estimate_bytes": self.memory_estimate_bytes,
            "trunc_error_sq": self.trunc_error_sq,
        }


def run_program(
    program: list[Instruction],
    n: int | None = None,
    backend: str = "mps",
    policy: TruncationPolicy | None = None,
) -> MpsState | DenseState:
    if n is None:
        n = num_qubits(program)
    elif n < num_qubits(program):
        raise ValueError(
            f"program touches qubit {num_qubits(program) - 1}, register has {n}"
        )
    state: MpsState | DenseState
    if backend == "mps":
        state = MpsState(n, policy)
    elif backend == "dense":
        state = DenseState(n)
    else:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return apply_program(state, program)


def execute(
    program: list[Instruction],
    n: int | None = None,
    backend: str = "mps",
    policy: TruncationPolicy | None = None,
    shots: int = 1024,
    seed: int | None = None,
) -> RunRecord:
    """Run the program, sample measured qubits, and collect run statistics."""
    start = time.perf_counter()
    targets = measured_qubits(program)
    state = run_program(program, n, backend, policy)
    record = RunRecord()
    if isinstance(state, MpsState):
        record.max_bond_seen = state.max_bond_seen
        record.memory_estimate_bytes = state.memory_estimate_bytes()
        record.trunc_error_sq = state.trunc_error_sq
    else:
        record.memory_estimate_bytes = 16 * state.amps.size
    if targets:
        rng = np.random.default_rng(seed)
        full_counts = state.sample(shots, rng)
        for bits, count in sorted(full_counts.items()):
            key = "".join(bits[q] for q in targets)
            record.counts[key] = record.counts.get(key, 0) + count
    record.wall_time = time.perf_counter() - start
    return record
