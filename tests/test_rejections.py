"""Rejecting branches that no other test reaches in process: each input, the
exact exception type and the exact message."""

import math

import pytest

from mpsqvm import GateKind, Instruction, run_program
from mpsqvm.bench import RoundCircuitSpec, emit_report, run_grid
from mpsqvm.gates import gate_matrix
from mpsqvm.hamiltonian import HamiltonianFormatError, PauliHamiltonian, parse_hamiltonian
from mpsqvm.ir import IrError

REJECTED = {
    "unknown-backend": (
        lambda: run_program([Instruction(GateKind.H, (0,))], backend="gpu"),
        ValueError, "unknown backend 'gpu'; expected one of ('mps', 'dense')",
    ),
    "two-qubit-pool-gate": (
        lambda: RoundCircuitSpec(4, 2, 0, ("RX", "CNOT")),
        ValueError, "CNOT is not a single-qubit gate",
    ),
    "empty-grid": (
        lambda: run_grid([], [2], 1),
        ValueError, "qubit and round lists must be non-empty",
    ),
    "empty-report": (
        lambda: emit_report([]),
        ValueError, "no records to report",
    ),
    "measure-matrix": (
        lambda: gate_matrix(Instruction(GateKind.MEASURE, (0,), classical_target=0)),
        ValueError, "MEASURE has no unitary matrix",
    ),
    "no-terms": (
        lambda: PauliHamiltonian(()),
        ValueError, "Hamiltonian needs at least one term",
    ),
    "nan-coefficient": (
        lambda: PauliHamiltonian(((math.nan, "Z"),)),
        ValueError, "non-finite coefficient nan",
    ),
    "negative-qubit": (
        lambda: Instruction(GateKind.X, (-1,)),
        IrError, "negative qubit index in (-1,)",
    ),
    "comment-only-file": (
        lambda: parse_hamiltonian("# no terms here\n\n   # nor here\n"),
        HamiltonianFormatError, "no terms found",
    ),
    "three-fields": (
        lambda: parse_hamiltonian("0.5 ZZ\n1.0 Z Z\n"),
        HamiltonianFormatError, "line 2: expected '<coeff> <pauli-string>', got '1.0 Z Z'",
    ),
}


@pytest.mark.parametrize("call, kind, message", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_with_exact_message(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message
