"""The input contract of the two simulator states: each bad input is rejected
by both with the same ``ValueError`` message, before the state changes."""

import numpy as np
import pytest

from mpsqvm import (
    CompositeInstruction,
    DenseState,
    GateKind,
    Instruction,
    MpsState,
    TruncationPolicy,
    bind_parameters,
    flatten,
    run_program,
)
from mpsqvm import gates
from mpsqvm.gates import SWAP_MATRIX, apply_program, gate_matrix, pauli_matrix, qubits_swapped
from mpsqvm.ir import IrError
from tests.conftest import ghz3_program, mps_statevector, random_program

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
    qubits_swapped(CNOT),
], ids=["X", "CNOT", "H", "pauli-X", "SWAP", "CNOT-reversed"])
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


class TestQubitsSwapped:
    def test_table_gates_map_to_frozen_table_objects(self):
        """CNOT maps to one frozen product, built once; CZ and SWAP to themselves."""
        cz = gate_matrix(Instruction(GateKind.CZ, (0, 1)))
        reversed_cnot = qubits_swapped(CNOT)
        assert qubits_swapped(CNOT) is reversed_cnot
        assert reversed_cnot.tobytes() == (SWAP_MATRIX @ CNOT @ SWAP_MATRIX).tobytes()
        assert qubits_swapped(cz) is cz and qubits_swapped(SWAP_MATRIX) is SWAP_MATRIX
        other = CNOT.copy()
        assert qubits_swapped(other).tobytes() == reversed_cnot.tobytes()
        assert qubits_swapped(other) is not reversed_cnot

    def test_check_gate_skips_only_the_exact_object(self, monkeypatch):
        """With a wrong 4x4 identity, every matrix tested in full fails, so
        passing shows the test was skipped."""
        monkeypatch.setitem(gates._IDENTITY, 4, np.zeros((4, 4)))
        reversed_cnot = qubits_swapped(CNOT)
        gates.check_gate(reversed_cnot, (0, 1), 2)
        with pytest.raises(ValueError, match="matrix is not unitary"):
            gates.check_gate(reversed_cnot.copy(), (0, 1), 2)
        # the routed CNOT with q1 > q2 runs without one test in full
        state = MpsState(3)
        state.apply_two_qubit_routed(CNOT, 2, 0)
        with pytest.raises(ValueError, match="matrix is not unitary"):
            state.apply_two_qubit_routed(CNOT.copy(), 2, 0)

    def test_copy_of_reversed_cnot_checked_in_full(self):
        spoiled = qubits_swapped(CNOT).copy()
        spoiled[0, 0] = 2
        with pytest.raises(ValueError) as info:
            MpsState(2).apply_two_qubit_adjacent(spoiled, 0)
        assert str(info.value) == "matrix is not unitary (deviation 3.000e+00)"


def _counters(state):
    if isinstance(state, DenseState):
        return ()
    return state.trunc_error_sq, state.entries, state.peak_entries, state.max_bond_seen


def _arrays(state):
    if isinstance(state, DenseState):
        return [state.amps]
    return state.site_tensors + state.bond_vectors


def assert_states_identical(a, b):
    assert _counters(a) == _counters(b)
    assert [(x.shape, x.tobytes()) for x in _arrays(a)] == [
        (x.shape, x.tobytes()) for x in _arrays(b)
    ]


def random_kernel(rng: np.random.Generator, n: int) -> tuple[CompositeInstruction, list[float]]:
    """A kernel of 1-3 formals whose slots repeat over RX, RY and RZ among
    fixed gates, with a MEASURE of every qubit at the end, and its values."""
    formals = [f"t{i}" for i in range(int(rng.integers(1, 4)))]
    program = random_program(n, 40, rng)
    for _ in range(12):
        kind = [GateKind.RX, GateKind.RY, GateKind.RZ][rng.integers(3)]
        slot = formals[rng.integers(len(formals))]
        program.insert(int(rng.integers(len(program) + 1)),
                       Instruction(kind, (int(rng.integers(n)),), (slot,)))
    program += [Instruction(GateKind.MEASURE, (q,), (), classical_target=q) for q in range(n)]
    values = [float(v) for v in rng.uniform(-2 * np.pi, 2 * np.pi, len(formals))]
    return CompositeInstruction("k", tuple(formals), tuple(program)), values


class TestBindingInTheGateLoop:
    @pytest.mark.parametrize("backend", ["mps", "dense"])
    def test_equals_bound_and_flattened_kernel(self, backend):
        rng = np.random.default_rng(15)
        for trial in range(25):
            n = int(rng.integers(2, 6))
            kernel, values = random_kernel(rng, n)
            # every other MPS trial truncates, so the counters move too
            policy = TruncationPolicy(cutoff=0.0 if trial % 2 else 1e-2)
            mapping = dict(zip(kernel.formal_params, values))
            state = run_program(kernel.children, n, backend, policy, mapping)
            reference = run_program(flatten(bind_parameters(kernel, values)), n, backend, policy)
            assert_states_identical(state, reference)

    @pytest.mark.parametrize("values", [None, {"a": 0.1}, {"a": 0.1, "c": 0.2}])
    def test_unbound_slot_raises_the_flatten_message(self, values):
        kernel = CompositeInstruction("k", ("a", "b"), (
            Instruction(GateKind.RX, (0,), ("a",) if values else (0.1,)),
            Instruction(GateKind.RY, (1,), ("b",)),
        ))
        with pytest.raises(IrError) as old:
            flatten(CompositeInstruction("k", (), kernel.children[1:]))
        assert str(old.value) == "unbound parameter(s) ['b'] in RY (1,)"
        with pytest.raises(IrError) as new:
            run_program(kernel.children, 2, values=values)
        assert str(new.value) == str(old.value)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("backend", ["mps", "dense"])
    @pytest.mark.parametrize("kind", [GateKind.RX, GateKind.RY, GateKind.RZ])
    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_a_value_error(self, backend, kind, angle):
        program = [Instruction(GateKind.H, (0,)), Instruction(kind, (1,), ("t",))]
        with pytest.raises(ValueError):
            run_program(program, 2, backend, values={"t": angle})

    @pytest.mark.parametrize("make", [lambda: MpsState(3), lambda: DenseState(3)],
                             ids=["mps", "dense"])
    def test_on_step_fires_once_per_gate(self, make):
        kernel, values = random_kernel(np.random.default_rng(3), 3)
        steps = []
        apply_program(make(), kernel.children, steps.append,
                      dict(zip(kernel.formal_params, values)))
        gate_count = sum(g.kind is not GateKind.MEASURE for g in kernel.children)
        assert len(steps) == gate_count == 40 + 12

    def test_one_matrix_per_kind_and_slot(self, monkeypatch):
        """All gates with one slot and kind get the same read-only matrix."""
        seen = []
        state = MpsState(3)
        monkeypatch.setattr(state, "apply_one_qubit", lambda g, q: seen.append(g))
        program = [Instruction(GateKind.RZ, (q,), ("t",)) for q in (0, 1, 2, 0)] + [
            Instruction(GateKind.RX, (1,), ("t",)), Instruction(GateKind.RZ, (2,), ("u",)),
        ]
        apply_program(state, program, values={"t": 0.3, "u": 0.3})
        assert [id(g) for g in seen[:4]] == [id(seen[0])] * 4
        assert len({id(g) for g in seen}) == 3
        assert not any(g.flags.writeable for g in seen)


@pytest.mark.parametrize("backend", ["mps", "dense"])
def test_copy_evolves_apart(backend):
    """A gate on the copy leaves the original's amplitudes, expectations and
    counters as they were."""
    policy = TruncationPolicy(cutoff=1e-2, max_bond=2)
    state = run_program(random_program(4, 30, np.random.default_rng(7)), 4, backend, policy)
    paulis = ["ZIII", "XXII", "IYZX", "ZZZZ"]
    amps, counters = amplitudes(state), _counters(state)
    values = [state.expectation_pauli(p) for p in paulis]
    other = state.copy()
    assert_states_identical(other, state)
    apply_program(other, [Instruction(GateKind.H, (1,)), Instruction(GateKind.CNOT, (3, 0)),
                          Instruction(GateKind.CZ, (1, 2))])
    assert amplitudes(other).tobytes() != amps.tobytes()
    assert _counters(other) != counters or backend == "dense"
    assert amplitudes(state).tobytes() == amps.tobytes()
    assert [state.expectation_pauli(p) for p in paulis] == values
    assert _counters(state) == counters
