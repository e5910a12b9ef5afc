import numpy as np
import pytest

from mpsqvm import (
    DenseState,
    GateKind,
    Instruction,
    dense_run,
)
from mpsqvm.gates import apply_program, gate_matrix, rz
from mpsqvm.ir import IrError
from tests.conftest import bell_program, ghz3_program, random_program


class TestDenseRun:
    def test_bell(self):
        state = dense_run(bell_program(), 2)
        np.testing.assert_allclose(
            state.amps, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-12
        )

    def test_empty_program(self):
        state = dense_run([], 1)
        np.testing.assert_allclose(state.amps, [1, 0])

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError):
            dense_run([Instruction(GateKind.X, (3,))], 2)

    def test_qubit_cap(self, monkeypatch):
        monkeypatch.setenv("MPSQVM_ORACLE_QUBIT_CAP", "4")
        with pytest.raises(ValueError, match="1..4"):
            DenseState(5)
        DenseState(4)

    @pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5"])
    def test_qubit_cap_must_be_an_integer_at_least_1(self, monkeypatch, value):
        monkeypatch.setenv("MPSQVM_ORACLE_QUBIT_CAP", value)
        with pytest.raises(ValueError) as info:
            DenseState(1)
        assert str(info.value) == (
            f"MPSQVM_ORACLE_QUBIT_CAP: expected an integer >= 1, got '{value}'")

    def test_measure_is_skipped(self):
        program = bell_program() + [
            Instruction(GateKind.MEASURE, (0,), (), classical_target=0)
        ]
        state = dense_run(program, 2)
        assert np.vdot(state.amps, state.amps).real == pytest.approx(1.0)

    def test_gate_after_measure_rejected(self):
        program = [
            Instruction(GateKind.H, (0,)),
            Instruction(GateKind.MEASURE, (0,), (), classical_target=0),
            Instruction(GateKind.H, (0,)),
        ]
        with pytest.raises(IrError, match=r"H \(0,\) acts on qubit 0 after it was measured"):
            dense_run(program, 1)


class TestExpectationAndDistribution:
    def test_bell_zz(self):
        assert dense_run(bell_program(), 2).expectation_pauli("ZZ") == pytest.approx(1.0)

    def test_zero_state_x(self):
        assert dense_run([], 2).expectation_pauli("XI") == pytest.approx(0.0, abs=1e-12)

    def test_ghz_distribution(self):
        probs = np.abs(dense_run(ghz3_program(), 3).amps) ** 2
        assert probs[0b000] == pytest.approx(0.5)
        assert probs[0b111] == pytest.approx(0.5)
        assert probs.sum() == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dense_run([], 2).expectation_pauli("Z")


class TestGateAlgebra:
    def _random_state(self, n, rng):
        state = dense_run(random_program(n, 15, rng), n)
        return state

    def test_hh_is_identity(self, rng):
        state = self._random_state(3, rng)
        before = state.amps.copy()
        h = gate_matrix(Instruction(GateKind.H, (0,)))
        state.apply_one_qubit(h, 1)
        state.apply_one_qubit(h, 1)
        np.testing.assert_allclose(state.amps, before, atol=1e-12)

    def test_cnot_squared_is_identity(self, rng):
        state = self._random_state(3, rng)
        before = state.amps.copy()
        cnot = gate_matrix(Instruction(GateKind.CNOT, (0, 1)))
        state.apply_two_qubit_routed(cnot, 0, 2)
        state.apply_two_qubit_routed(cnot, 0, 2)
        np.testing.assert_allclose(state.amps, before, atol=1e-12)

    def test_rz_composition_up_to_phase(self, rng):
        state = self._random_state(2, rng)
        a = state.amps.copy()
        state.apply_one_qubit(rz(0.4), 0)
        state.apply_one_qubit(rz(0.9), 0)
        combined = a.reshape(2, 2)
        combined = np.tensordot(rz(1.3), combined, axes=([1], [0]))
        overlap = np.vdot(combined.reshape(-1), state.amps)
        assert abs(overlap) == pytest.approx(1.0)

    def test_norm_preserved_per_gate(self, rng):
        program = random_program(5, 30, rng)

        def check_norm(state):
            assert abs(np.vdot(state.amps, state.amps).real - 1) < 1e-10

        apply_program(DenseState(5), program, check_norm)
