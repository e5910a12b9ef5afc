"""Rejecting branches that no other test reaches in process: each input, the
exact exception type and the exact message."""

import math

import numpy as np
import pytest

from mpsqvm import (
    CompositeInstruction, GateKind, Instruction, TruncationPolicy, energy, execute, run_program,
)
from mpsqvm.backends import BACKENDS
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
    "nan-time-budget": (
        lambda: run_grid([2], [1], 1, time_budget=math.nan),
        ValueError, "time_budget must be >= 0, got nan",
    ),
    "nan-chi-budget": (
        lambda: run_grid([2], [1], 1, chi_budget=math.nan),
        ValueError, "chi_budget must be >= 1, got nan",
    ),
    "zero-chi-budget": (
        lambda: run_grid([2], [1], 1, chi_budget=0),
        ValueError, "chi_budget must be >= 1, got 0",
    ),
    "nan-max-bond": (
        lambda: TruncationPolicy(max_bond=math.nan),
        ValueError, "max_bond must be an integer, got nan",
    ),
    "fractional-max-bond": (
        lambda: TruncationPolicy(max_bond=2.5),
        ValueError, "max_bond must be an integer, got 2.5",
    ),
    "bool-max-bond": (
        lambda: TruncationPolicy(max_bond=True),
        ValueError, "max_bond must be an integer, got True",
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


_GATES = (Instruction(GateKind.H, (0,)), Instruction(GateKind.CNOT, (0, 1)),
          Instruction(GateKind.CZ, (2, 0)))
_ANSATZ = CompositeInstruction("a", ("t",), (*_GATES, Instruction(GateKind.RY, (1,), ("t",))))
_MEASURE = Instruction(GateKind.MEASURE, (1,), (), classical_target=0)

#: Every caller that samples, with its shot count as the last argument
SAMPLED = {
    "execute-no-measure": lambda backend, shots: execute(_GATES, backend=backend, shots=shots),
    "execute": lambda backend, shots: execute(
        (*_GATES, _MEASURE), backend=backend, shots=shots),
    "energy-identity-only": lambda backend, shots: energy(
        _ANSATZ, 0.3, PauliHamiltonian(((1.5, "III"),)), backend, shots=shots),
    "energy": lambda backend, shots: energy(
        _ANSATZ, 0.3, PauliHamiltonian(((1.5, "III"), (0.5, "ZXI"))), backend, shots=shots),
    "sample": lambda backend, shots: BACKENDS[backend](3).sample(
        shots, np.random.default_rng(0)),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("call", SAMPLED.values(), ids=SAMPLED.keys())
def test_shots_rejected_before_any_gate(monkeypatch, call, backend):
    applied = []
    for cls in BACKENDS.values():
        for name in ("apply_one_qubit", "apply_two_qubit_adjacent", "apply_two_qubit_routed"):
            monkeypatch.setattr(cls, name, lambda self, *args, name=name: applied.append(name))
    for shots in (0, -5):
        with pytest.raises(ValueError) as info:
            call(backend, shots)
        assert type(info.value) is ValueError
        assert str(info.value) == "shots must be >= 1"
        assert applied == []
    call(backend, 1)  # the gate methods are watched: one shot runs them
    assert applied or call is SAMPLED["sample"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("call", SAMPLED.values(), ids=SAMPLED.keys())
def test_non_integer_shots_rejected_before_any_gate(monkeypatch, call, backend):
    """A float or a bool is rejected before any gate runs; a numpy integer
    draws its count."""
    applied, drawn = [], []
    for cls in BACKENDS.values():
        for name in ("apply_one_qubit", "apply_two_qubit_adjacent", "apply_two_qubit_routed"):
            monkeypatch.setattr(cls, name, lambda self, *args, name=name: applied.append(name))

        def sample(self, *args, original=cls.sample):
            counts = original(self, *args)
            drawn.append(sum(counts.values()))
            return counts
        monkeypatch.setattr(cls, "sample", sample)
    for shots in (2.5, True):
        with pytest.raises(ValueError) as info:
            call(backend, shots)
        assert type(info.value) is ValueError
        assert str(info.value) == f"shots must be an integer, got {shots!r}"
        assert applied == [] and drawn == []
    call(backend, np.int64(3))
    assert drawn == [3] * len(drawn)
    assert drawn or call in (SAMPLED["execute-no-measure"], SAMPLED["energy-identity-only"])
