"""Common execution contract over the interchangeable backends.

A backend is a class in :data:`BACKENDS`, built as ``cls(n, policy)`` for
``n`` qubits in ``|0...0>`` (``dense`` ignores ``policy``). Its states have
two gate methods, ``apply_one_qubit(gate, q)`` and
``apply_two_qubit_routed(gate, q1, q2)`` on any pair, and
``expectation_pauli``, ``sample(shots, rng, upto=None)`` (the bits of
qubits ``0..upto-1``, by default the whole register) and ``copy``, and the
three reads of a :class:`RunRecord`: the attributes ``max_bond_seen`` and
``trunc_error_sq`` and the method ``memory_estimate_bytes()``. The gate loop
sends every two-qubit gate to ``apply_two_qubit_routed``, and the state
decides how to place the pair: the MPS sends a forward neighbour pair
``(q, q+1)`` straight to its two-site update. Adding a backend takes one
entry here and no other edit.

:func:`register_size` is the one register rule: the backend name, the
register size (the dense oracle's cap on ``dense``) and the program's qubit
span. ``run_program`` applies it first, and the CLI applies it while it reads
its inputs. ``run_program`` then builds a fresh state of the named backend
and applies the program to it with :func:`~mpsqvm.gates.apply_program`, which binds the
program's named angle slots from the values it is given, so a kernel's gates
run as they are at each new value, with nothing rebuilt. ``execute``
additionally samples qubits ``0..t`` up to its last MEASURE target ``t``
(a bit depends only on its own variate and the bits before it, so this gives
the counts of a walk over the whole register), cuts each sampled key down to
the MEASURE targets with :func:`readout`, and assembles a :class:`RunRecord`.
:func:`readout` is the one projection of sampled bits: the sampled VQE
estimator reads each term's parity through it too. Both backends sample
through the one function :func:`~mpsqvm.mps.sample_sequential` (one uniform
variate per qubit per shot), so a fixed seed yields identical counts across
backends when truncation is off.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .dense import DenseState, check_register
from .gates import apply_program, check_count, measured_qubits
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


def readout(counts: Mapping[str, int], qubits: Sequence[int]) -> dict[str, int]:
    """Full-register ``counts`` cut down to the bits of ``qubits``, in that order.

    Keys are walked in sorted order, and each cut key keeps the place where
    it first appears, so equal samples give equal dicts, key order included.
    ``qubits`` must not be empty.
    """
    key_of = itemgetter(*qubits)  # one character, or a tuple of them
    cut: dict[str, int] = {}
    for bits, count in sorted(counts.items()):
        key = "".join(key_of(bits))
        cut[key] = cut.get(key, 0) + count
    return cut


def register_size(program: Sequence[Instruction], n: int | None, backend: str) -> int:
    """The register that ``backend`` runs ``program`` on: ``n``, or the
    program's span if ``n`` is None. A ``ValueError`` unless ``backend`` is
    a name in :data:`BACKENDS`, ``n`` is a register that backend holds
    (:func:`~mpsqvm.dense.check_register` on ``dense``, an integer >= 1
    otherwise) and the register covers every qubit the program touches."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {tuple(BACKENDS)}")
    span = num_qubits(program)
    n = span if n is None else n
    if backend == "dense":
        check_register(n)
    else:
        check_count("n", n)
    if n < span:
        raise ValueError(f"register of {n} qubit(s) is smaller than the "
                         f"program's qubit span {span}")
    return n


def run_program(
    program: Sequence[Instruction],
    n: int | None = None,
    backend: str = "mps",
    policy: TruncationPolicy | None = None,
    values: Mapping[str, float] | None = None,
) -> MpsState | DenseState:
    """A fresh ``n``-qubit state (default: the program's span) with the
    program applied, its named angle slots bound from ``values``; the
    register is checked by :func:`register_size` first."""
    n = register_size(program, n, backend)
    return apply_program(BACKENDS[backend](n, policy), program, values=values)


def execute(
    program: Sequence[Instruction],
    n: int | None = None,
    backend: str = "mps",
    policy: TruncationPolicy | None = None,
    shots: int = 1024,
    seed: int | None = None,
) -> RunRecord:
    """Run the program, sample up to its last measured qubit, and collect run
    statistics; ``shots`` and a ``seed`` that is not ``None`` are checked
    before any gate is applied."""
    check_count("shots", shots)
    if seed is not None:
        check_count("seed", seed, 0)
    targets = measured_qubits(program)
    state = run_program(program, n, backend, policy)
    rng = np.random.default_rng(seed)
    counts = readout(state.sample(shots, rng, max(targets) + 1), targets) if targets else {}
    return RunRecord(counts, state.max_bond_seen, state.memory_estimate_bytes(),
                     state.trunc_error_sq)
