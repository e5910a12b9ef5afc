"""The input contract of the two simulator states: each bad input is rejected
by both with the same ``ValueError`` message, before the state changes."""

import numpy as np
import pytest

from mpsqvm import DenseState, GateKind, Instruction, MpsState, TruncationPolicy
from mpsqvm.gates import SWAP_MATRIX, apply_program, gate_matrix, pauli_matrix
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


@pytest.mark.parametrize("matrix", [
    X, CNOT, gate_matrix(Instruction(GateKind.H, (0,))), pauli_matrix("X"), SWAP_MATRIX,
], ids=["X", "CNOT", "H", "pauli-X", "SWAP"])
def test_gate_table_is_read_only(matrix):
    """A write into a shared table matrix would change that gate for the whole process."""
    with pytest.raises(ValueError, match="read-only"):
        matrix[0, 0] = 0
    with pytest.raises(ValueError):
        matrix.setflags(write=True)


@pytest.mark.parametrize("make", [lambda: MpsState(2), lambda: DenseState(2)], ids=["mps", "dense"])
def test_writable_copy_of_table_matrix_checked_in_full(make):
    """Only the table's own objects skip the unitarity test, not equal arrays."""
    state = make()
    with pytest.raises(ValueError) as info:
        state.apply_one_qubit(2 * pauli_matrix("X"), 0)
    assert str(info.value) == "matrix is not unitary (deviation 3.000e+00)"
    spoiled = pauli_matrix("X").copy()
    state.apply_one_qubit(spoiled, 0)
    spoiled[0, 1] = 2
    with pytest.raises(ValueError) as info:
        state.apply_one_qubit(spoiled, 0)
    assert str(info.value) == "matrix is not unitary (deviation 3.000e+00)"


GATE_CALLS = {
    "one-qubit": (gate_matrix(Instruction(GateKind.H, (0,))), lambda s, g: s.apply_one_qubit(g, 1)),
    "routed": (CNOT, lambda s, g: s.apply_two_qubit_routed(g, 2, 0)),
    "adjacent": (CNOT, lambda s, g: s.apply_two_qubit_adjacent(g, 1)),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("backend, call", [
    ("mps", "one-qubit"), ("mps", "routed"), ("mps", "adjacent"),
    ("dense", "one-qubit"), ("dense", "routed"),  # a statevector has no adjacent method
])
def test_single_non_finite_entry_rejected(backend, call, fill):
    """One NaN or infinity at any position, the rest of a unitary untouched."""
    unitary, apply = GATE_CALLS[call]
    state = apply_program(MpsState(3) if backend == "mps" else DenseState(3), ghz3_program())
    before = amplitudes(state)
    for index in np.ndindex(unitary.shape):
        gate = unitary.copy()
        gate[index] = fill
        with pytest.raises(ValueError, match="matrix is not unitary"):
            apply(state, gate)
    np.testing.assert_array_equal(amplitudes(state), before)
