"""The input contract of the two simulator states: each bad input is rejected
by both with the same ``ValueError`` message, before the state changes."""

import numpy as np
import pytest

from mpsqvm import DenseState, GateKind, Instruction, MpsState, TruncationPolicy
from mpsqvm.gates import apply_program, gate_matrix
from tests.conftest import ghz3_program, mps_statevector

X = gate_matrix(Instruction(GateKind.X, (0,)))
CNOT = gate_matrix(Instruction(GateKind.CNOT, (0, 1)))

BAD_INPUTS = {
    "qubit-out-of-range": (
        lambda s: s.apply_one_qubit(X, 3), "qubit 3 out of range for 3 qubits"
    ),
    "repeated-qubit": (
        lambda s: s.apply_two_qubit_routed(CNOT, 1, 1), "gate needs distinct qubits, got (1, 1)"
    ),
    "4x4-on-one-qubit": (
        lambda s: s.apply_one_qubit(CNOT, 0),
        "expected a 2x2 matrix on qubits (0,), got shape (4, 4)",
    ),
    "2x2-on-two-qubits": (
        lambda s: s.apply_two_qubit_routed(X, 0, 2),
        "expected a 4x4 matrix on qubits (0, 2), got shape (2, 2)",
    ),
    "not-unitary": (
        lambda s: s.apply_one_qubit(2 * X, 1), "matrix is not unitary (deviation 3.000e+00)"
    ),
    "pauli-length": (
        lambda s: s.expectation_pauli("ZZ"), "Pauli string length 2 != qubit count 3"
    ),
    "pauli-label": (lambda s: s.expectation_pauli("XQZ"), "unknown Pauli label 'Q'"),
}


def amplitudes(state) -> np.ndarray:
    return state.amps.copy() if isinstance(state, DenseState) else mps_statevector(state)


@pytest.mark.parametrize("make", [
    lambda: MpsState(3, TruncationPolicy(cutoff=0.0)), lambda: DenseState(3)
], ids=["mps", "dense"])
@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_rejected_alike(make, case):
    call, message = BAD_INPUTS[case]
    program = ghz3_program() + [Instruction(GateKind.RY, (2,), (0.3,))]
    state = apply_program(make(), program)
    before = amplitudes(state)
    with pytest.raises(ValueError) as info:
        call(state)
    assert str(info.value) == message
    np.testing.assert_array_equal(amplitudes(state), before)
