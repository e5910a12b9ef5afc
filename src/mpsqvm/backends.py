"""Common execution contract over the interchangeable backends.

A backend is a class in :data:`BACKENDS`, built as ``cls(n, policy)`` for
``n`` qubits in ``|0...0>`` (``dense`` ignores ``policy``). Its states have
``apply_one_qubit``, ``apply_two_qubit_routed``, ``expectation_pauli``,
``sample`` and ``copy``, and the three reads of a :class:`RunRecord`: the
attributes ``max_bond_seen`` and ``trunc_error_sq`` and the method
``memory_estimate_bytes()``. Adding a backend takes one entry here and no
other edit.

``run_program`` builds a fresh state of the named backend and applies a
program to it with :func:`~mpsqvm.gates.apply_program`, which binds the
program's named angle slots from the values it is given, so a kernel's gates
run as they are at each new value, with nothing rebuilt. ``execute``
additionally samples the measured qubits and assembles a :class:`RunRecord`.
Both backends sample through the one function
:func:`~mpsqvm.mps.sample_sequential` (one uniform variate per qubit per
shot), so a fixed seed yields identical counts across backends when
truncation is off.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .dense import DenseState
from .gates import apply_program, measured_qubits
from .ir import Instruction, num_qubits
from .mps import MpsState, TruncationPolicy

#: Backend name -> state class; ``BACKENDS[name](n, policy)`` is a fresh state
BACKENDS = {"mps": MpsState, "dense": DenseState}


@dataclass
class RunRecord:
    """Results of one program execution, field for field the ``run`` JSON.

    Equal runs give equal records, so nothing timed belongs here.
    """

    counts: dict[str, int]
    max_bond_seen: int | None
    memory_estimate_bytes: int
    trunc_error_sq: float


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
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {tuple(BACKENDS)}")
    return apply_program(BACKENDS[backend](n, policy), program, values=values)


def execute(
    program: Sequence[Instruction],
    n: int | None = None,
    backend: str = "mps",
    policy: TruncationPolicy | None = None,
    shots: int = 1024,
    seed: int | None = None,
) -> RunRecord:
    """Run the program, sample measured qubits, and collect run statistics."""
    targets = measured_qubits(program)
    state = run_program(program, n, backend, policy)
    counts: dict[str, int] = {}
    if targets:
        key_of = itemgetter(*targets)  # one character, or a tuple of them
        for bits, count in sorted(state.sample(shots, np.random.default_rng(seed)).items()):
            key = "".join(key_of(bits))
            counts[key] = counts.get(key, 0) + count
    return RunRecord(counts, state.max_bond_seen, state.memory_estimate_bytes(),
                     state.trunc_error_sq)
