"""The contract of the simulator states in ``BACKENDS``: each bad input is
rejected by every backend with the same ``ValueError`` message, before the
state changes, and each state reports its own run record."""

import ast
import json

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
    execute,
    flatten,
    parse,
    run_program,
)
from mpsqvm import gates, mps
from mpsqvm.backends import BACKENDS, readout
from mpsqvm.gates import SWAP_MATRIX, apply_program, gate_matrix, pauli_matrix, qubits_swapped
from mpsqvm.ir import IrError
from tests.conftest import REPO_ROOT, ghz3_program, mps_statevector, random_program

X = gate_matrix(Instruction(GateKind.X, (0,)))
CNOT = gate_matrix(Instruction(GateKind.CNOT, (0, 1)))

BAD_INPUTS = {
    "qubit-out-of-range": (
        lambda s: s.apply_one_qubit(X, 3), "qubit 3 out of range for 3 qubits"
    ),
    "negative-qubit": (
        lambda s: s.apply_one_qubit(X, -1), "qubit -1 out of range for 3 qubits"
    ),
    "adjacent-past-the-end": (
        lambda s: s.apply_two_qubit_routed(CNOT, 2, 3), "qubit 3 out of range for 3 qubits"
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
    "pauli-label-first": (lambda s: s.expectation_pauli("QXZ"), "unknown Pauli label 'Q'"),
    "pauli-label-middle": (lambda s: s.expectation_pauli("XQX"), "unknown Pauli label 'Q'"),
    "pauli-lower-case": (lambda s: s.expectation_pauli("xyz"), "unknown Pauli label 'x'"),
    # of two bad labels, the first in sorted order is named, not the first in place
    "pauli-two-bad-labels": (
        lambda s: s.expectation_pauli("ZQA"), "unknown Pauli label 'A'"
    ),
    "pauli-upper-before-lower": (
        lambda s: s.expectation_pauli("xZQ"), "unknown Pauli label 'Q'"
    ),
}


def amplitudes(state) -> np.ndarray:
    return state.amps.copy() if isinstance(state, DenseState) else mps_statevector(state)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_rejected_alike(backend, case):
    call, message = BAD_INPUTS[case]
    program = ghz3_program() + [Instruction(GateKind.RY, (2,), (0.3,))]
    state = apply_program(BACKENDS[backend](3, TruncationPolicy(cutoff=0.0)), program)
    before = amplitudes(state)
    with pytest.raises(ValueError) as info:
        call(state)
    assert str(info.value) == message
    np.testing.assert_array_equal(amplitudes(state), before)


#: Dense calls on neither one nor two qubits: its gate methods take any qubit count
OTHER_ARITY = {
    "three-qubits": (lambda s: s.apply_one_qubit(np.eye(8), 0, 1, 2), (0, 1, 2)),
    "no-qubits": (lambda s: s.apply_two_qubit_routed(np.eye(1)), ()),
}


@pytest.mark.parametrize("call, qubits", OTHER_ARITY.values(), ids=OTHER_ARITY.keys())
def test_dense_gate_on_other_arity_rejected(call, qubits):
    state = apply_program(DenseState(3), ghz3_program())
    before = amplitudes(state)
    with pytest.raises(ValueError) as info:
        call(state)
    assert type(info.value) is ValueError
    assert str(info.value) == f"a gate acts on 1 or 2 qubits, got {qubits}"
    np.testing.assert_array_equal(amplitudes(state), before)


def test_check_gate_rejects_three_qubits():
    with pytest.raises(ValueError) as info:
        gates.check_gate(np.eye(8), (0, 1, 2), 3)
    assert type(info.value) is ValueError
    assert str(info.value) == "a gate acts on 1 or 2 qubits, got (0, 1, 2)"


@pytest.mark.parametrize("backend", BACKENDS)
def test_range_checked_before_distinctness(backend):
    """``(3, 3)`` on 3 qubits breaks both rules; the range is named."""
    message = "qubit 3 out of range for 3 qubits"
    with pytest.raises(ValueError, match=f"^{message}$"):
        gates.check_gate(CNOT, (3, 3), 3)
    with pytest.raises(ValueError, match=f"^{message}$"):
        BACKENDS[backend](3).apply_two_qubit_routed(CNOT, 3, 3)


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


@pytest.mark.parametrize("backend", BACKENDS)
def test_writable_copy_of_table_matrix_checked_in_full(backend):
    """Only the table's own objects skip the unitarity test, not equal arrays."""
    state = BACKENDS[backend](2)
    with pytest.raises(ValueError) as info:
        state.apply_one_qubit(2 * pauli_matrix("X"), 0)
    assert str(info.value) == "matrix is not unitary (deviation 3.000e+00)"
    spoiled = pauli_matrix("X").copy()
    state.apply_one_qubit(spoiled, 0)
    spoiled[0, 1] = 2
    with pytest.raises(ValueError) as info:
        state.apply_one_qubit(spoiled, 0)
    assert str(info.value) == "matrix is not unitary (deviation 3.000e+00)"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("size", [2, 4])
def test_unitarity_tolerance_boundary(backend, size):
    """Off unitary by 1e-11 passes, by 1e-8 fails: UNITARY_TOL sits between."""
    apply = (lambda s, g: s.apply_one_qubit(g, 0)) if size == 2 else (
        lambda s, g: s.apply_two_qubit_routed(g, 0, 1))
    for dev, ok in ((1e-11, True), (1e-8, False)):
        gate = np.eye(size, dtype=complex)
        gate[0, 0] = np.sqrt(1 + dev)  # U+ U - I has one entry, dev
        if ok:
            apply(BACKENDS[backend](2), gate)
        else:
            with pytest.raises(ValueError, match="matrix is not unitary"):
                apply(BACKENDS[backend](2), gate)


def test_imaginary_residue_boundary():
    assert gates.real_expectation(complex(0.25, 1e-11)) == 0.25
    with pytest.raises(RuntimeError, match="imaginary residue"):
        gates.real_expectation(complex(0.25, 1e-6))


GATE_CALLS = {
    "one-qubit": (gate_matrix(Instruction(GateKind.H, (0,))), lambda s, g: s.apply_one_qubit(g, 1)),
    "routed": (CNOT, lambda s, g: s.apply_two_qubit_routed(g, 2, 0)),
    "adjacent": (CNOT, lambda s, g: s.apply_two_qubit_routed(g, 1, 2)),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("backend, call", [
    ("mps", "one-qubit"), ("mps", "routed"), ("mps", "adjacent"),
    ("dense", "one-qubit"), ("dense", "routed"), ("dense", "adjacent"),
])
def test_single_non_finite_entry_rejected(backend, call, fill):
    """One NaN or infinity at any position, the rest of a unitary untouched."""
    unitary, apply = GATE_CALLS[call]
    state = apply_program(BACKENDS[backend](3), ghz3_program())
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
    @pytest.mark.parametrize("backend", BACKENDS)
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
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", [GateKind.RX, GateKind.RY, GateKind.RZ])
    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_a_value_error(self, backend, kind, angle):
        program = [Instruction(GateKind.H, (0,)), Instruction(kind, (1,), ("t",))]
        with pytest.raises(ValueError):
            run_program(program, 2, backend, values={"t": angle})

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_on_step_fires_once_per_gate(self, backend):
        kernel, values = random_kernel(np.random.default_rng(3), 3)
        steps = []
        apply_program(BACKENDS[backend](3), kernel.children, steps.append,
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


class TestNeighbourDispatch:
    """``apply_program`` sends every two-qubit gate to
    ``apply_two_qubit_routed``; the MPS sends a forward neighbour pair
    ``(q, q+1)`` from there straight to ``apply_two_qubit_adjacent``, checked
    once and updated once, and the state is the one the router gives."""

    PROGRAM = [
        Instruction(GateKind.H, (0,)), Instruction(GateKind.H, (1,)),
        Instruction(GateKind.RY, (2,), (0.3,)), Instruction(GateKind.RX, (3,), (0.7,)),
        Instruction(GateKind.CNOT, (0, 1)), Instruction(GateKind.CNOT, (2, 1)),
        Instruction(GateKind.CZ, (1, 2)), Instruction(GateKind.CZ, (3, 2)),
        Instruction(GateKind.SWAP, (2, 3)), Instruction(GateKind.SWAP, (1, 0)),
        Instruction(GateKind.CNOT, (3, 0)), Instruction(GateKind.RY, (1,), (1.1,)),
        Instruction(GateKind.CNOT, (1, 2)), Instruction(GateKind.RX, (0,), (0.4,)),
        Instruction(GateKind.CNOT, (0, 3)),
    ]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("policy", [
        TruncationPolicy(cutoff=0.0), TruncationPolicy(cutoff=1e-2, max_bond=2),
    ], ids=["exact", "max_bond"])
    def test_every_pair_reaches_the_routed_method(self, monkeypatch, backend, policy):
        state = BACKENDS[backend](4, policy)
        # one list per routed call: the call, then what ran inside it
        calls, route = [], state.apply_two_qubit_routed

        def recording(gate, q1, q2):
            calls.append([(id(gate), q1, q2)])
            route(gate, q1, q2)
            calls[-1] = tuple(calls[-1])  # closed: nothing after it is recorded

        def watched(name, summary, original):
            def spy(*args):
                if calls and isinstance(calls[-1], list):
                    calls[-1].append((name, *summary(*args)))
                return original(*args)
            return spy

        monkeypatch.setattr(state, "apply_two_qubit_routed", recording)
        if backend == "mps":
            monkeypatch.setattr(state, "apply_two_qubit_adjacent", watched(
                "adjacent", lambda g, q: (id(g), q), state.apply_two_qubit_adjacent))
            monkeypatch.setattr(mps, "check_gate", watched(
                "check_gate", lambda g, qubits, n: (qubits,), mps.check_gate))
            monkeypatch.setattr(mps, "_two_site", watched(
                "two_site", lambda g, *rest: (id(g), rest[-1]), mps._two_site))
        steps = []
        apply_program(state, self.PROGRAM, steps.append)
        pairs = [instr.qubits for instr in self.PROGRAM if len(instr.qubits) == 2]
        assert [call[0][1:] for call in calls] == pairs
        assert len(steps) == len(self.PROGRAM)
        forward = [call for call in calls if call[0][2] == call[0][1] + 1]
        assert len(forward) == 4
        if backend == "mps":
            for (gate, q, _), *inside in forward:
                assert inside == [("adjacent", gate, q), ("check_gate", (q, q + 1)),
                                  ("two_site", gate, q)]
        monkeypatch.undo()

        reference = BACKENDS[backend](4, policy)
        for instr in self.PROGRAM:
            if len(instr.qubits) == 1:
                reference.apply_one_qubit(gate_matrix(instr), *instr.qubits)
            else:
                reference.apply_two_qubit_routed(gate_matrix(instr), *instr.qubits)
        assert_states_identical(state, reference)
        if backend == "mps" and policy.max_bond:
            assert state.trunc_error_sq > 0  # the truncating policy acted


@pytest.mark.parametrize("backend", BACKENDS)
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


class TestBackendTable:
    """A backend is an entry of ``BACKENDS``, built as ``cls(n, policy)``, and
    nothing outside its module and the table tells it apart by its class."""

    CONTRACT = ("apply_one_qubit", "apply_two_qubit_routed",
                "expectation_pauli", "sample", "copy", "memory_estimate_bytes")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_record_is_the_states_own(self, backend):
        n, policy = 4, TruncationPolicy(cutoff=1e-2, max_bond=2)
        program = random_program(n, 30, np.random.default_rng(7)) + [
            Instruction(GateKind.MEASURE, (q,), (), classical_target=q) for q in range(n)
        ]
        state = run_program(program, n, backend, policy)
        assert all(callable(getattr(state, name)) for name in self.CONTRACT)
        # the oracle needs no routing, so it has no neighbour-pair method
        assert backend == "mps" or not hasattr(state, "apply_two_qubit_adjacent")
        record = execute(program, n, backend, policy, shots=50, seed=1)
        reads = (record.max_bond_seen, record.memory_estimate_bytes, record.trunc_error_sq)
        assert reads == (state.max_bond_seen, state.memory_estimate_bytes(),
                         state.trunc_error_sq)
        if backend == "dense":
            assert reads == (None, 16 * 2**n, 0.0)
        else:
            assert state.trunc_error_sq > 0  # the truncating policy reached the record

    def test_no_state_class_outside_the_table(self):
        """No ``isinstance`` against a state class is left in ``src/mpsqvm``,
        and only the dense module, the table and the package exports name
        ``DenseState``."""
        checks, naming = [], set()
        for path in sorted((REPO_ROOT / "src" / "mpsqvm").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                name = (node.id if isinstance(node, ast.Name) else node.attr
                        if isinstance(node, ast.Attribute) else node.name
                        if isinstance(node, ast.alias) else None)
                if name == "DenseState":
                    naming.add(path.name)
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "isinstance" and len(node.args) == 2
                        and {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                        & {"MpsState", "DenseState"}):
                    checks.append(f"{path.name}:{node.lineno}")
        assert checks == []
        assert naming <= {"dense.py", "backends.py", "__init__.py"}


class TestReadout:
    """``readout`` is the one projection of sampled full-register keys: the
    ``run`` counts and the sampled VQE term parities both come from it."""

    OUT_OF_ORDER = """__qpu__ k(AcceleratorBuffer b) {
  H 0
  RY(1.1) 1
  H 2
  CNOT 0 1
  MEASURE 2 [0]
  MEASURE 0 [1]
}
"""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_execute_key_order_pinned(self, backend):
        """MEASUREs out of qubit order, and 5000 shots over two sampler
        blocks: the counts, key order included, are the pinned ones."""
        program = flatten(bind_parameters(parse(self.OUT_OF_ORDER).kernels["k"], []))
        record = execute(program, backend=backend, policy=TruncationPolicy(cutoff=0.0),
                         shots=5000, seed=3)
        assert json.dumps(record.counts) == '{"00": 1291, "10": 1229, "01": 1240, "11": 1240}'

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("cutoff", [0.0, 1e-2])
    def test_execute_walks_to_the_last_target(self, monkeypatch, backend, cutoff):
        """``execute`` samples qubits up to its last MEASURE target only, and
        its counts, key order included, are the full walk's cut by
        ``readout``: random MEASURE subsets, one shot to two sampler blocks."""
        cls = BACKENDS[backend]
        sample, walks = cls.sample, []

        def spy(self, shots, rng, upto=None):
            walks.append(upto)
            return sample(self, shots, rng, upto)

        monkeypatch.setattr(cls, "sample", spy)
        rng, policy = np.random.default_rng([31, int(cutoff > 0)]), TruncationPolicy(cutoff)
        short = 0  # programs whose last target is not the last qubit
        for _ in range(12):
            n = int(rng.integers(2, 9))
            targets = rng.permutation(n)[:rng.integers(1, n + 1)].tolist()
            program = random_program(n, 20, rng) + [
                Instruction(GateKind.MEASURE, (q,), (), classical_target=bit)
                for bit, q in enumerate(targets)
            ]
            state = run_program(program, n, backend, policy)
            short += max(targets) + 1 < n
            for shots in (1, 100, 4097, 9000):
                seed = int(rng.integers(2**31))
                walks.clear()
                record = execute(program, n, backend, policy, shots, seed)
                assert walks == [max(targets) + 1]
                full = readout(sample(state, shots, np.random.default_rng(seed)), targets)
                assert json.dumps(record.counts) == json.dumps(full)
        assert short >= 3

    def test_cuts_sorted_keys_and_keeps_first_appearance(self):
        counts = {"110": 1, "011": 2, "000": 4, "101": 8}
        assert list(readout(counts, [2, 0]).items()) == [("00", 4), ("10", 2), ("11", 8), ("01", 1)]
        assert readout(counts, [1]) == {"0": 12, "1": 3}
        assert readout(counts, [0, 0]) == {"00": 6, "11": 9}
