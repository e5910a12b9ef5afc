"""Common execution contract over the two interchangeable backends.

``run_program`` builds a fresh state on either the MPS simulator or the dense
oracle and applies a program to it with :func:`~mpsqvm.gates.apply_program`,
which binds the program's named angle slots from the values it is given, so
a kernel's gates run as they are at each new value, with nothing rebuilt.
``execute`` additionally samples the measured qubits and assembles a
:class:`RunRecord`. Both backends sample through the one function
:func:`~mpsqvm.mps.sample_sequential` (one uniform variate per qubit per
shot), so a fixed seed yields identical counts across backends when
truncation is off.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .dense import DenseState
from .gates import apply_program, measured_qubits
from .ir import Instruction, num_qubits
from .mps import MpsState, TruncationPolicy

BACKENDS = ("mps", "dense")


@dataclass
class RunRecord:
    """Results of one program execution, field for field the ``run`` JSON.

    Equal runs give equal records, so nothing timed belongs here.
    """

    counts: dict[str, int] = field(default_factory=dict)
    max_bond_seen: int | None = None
    memory_estimate_bytes: int = 0
    trunc_error_sq: float = 0.0


def run_program(
    program: Sequence[Instruction],
    n: int | None = None,
    backend: str = "mps",
    policy: TruncationPolicy | None = None,
    values: Mapping[str, float] | None = None,
) -> MpsState | DenseState:
    """A fresh ``n``-qubit state (default: the program's span) with the
    program applied, its named angle slots bound from ``values``."""
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
    return apply_program(state, program, values=values)


def execute(
    program: list[Instruction],
    n: int | None = None,
    backend: str = "mps",
    policy: TruncationPolicy | None = None,
    shots: int = 1024,
    seed: int | None = None,
) -> RunRecord:
    """Run the program, sample measured qubits, and collect run statistics."""
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
        key_of = itemgetter(*targets)  # one character, or a tuple of them
        for bits, count in sorted(state.sample(shots, np.random.default_rng(seed)).items()):
            key = "".join(key_of(bits))
            record.counts[key] = record.counts.get(key, 0) + count
    return record
