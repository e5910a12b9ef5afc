"""Rejecting branches that no other test reaches in process: each input, the
exact exception type and the exact message."""

import math
from functools import partial

import numpy as np
import pytest

from mpsqvm import (
    CompositeInstruction, DenseState, GateKind, Instruction, MpsState, TruncationPolicy, energy,
    execute, run_program, sweep,
)
from mpsqvm.backends import BACKENDS
from mpsqvm import bench
from mpsqvm.bench import RoundCircuitSpec, emit_report, run_grid
from mpsqvm.gates import gate_matrix
from mpsqvm.hamiltonian import HamiltonianFormatError, PauliHamiltonian, parse_hamiltonian
from mpsqvm.ir import IrError, inline

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
        ValueError, "time_budget must be > 0, got nan",
    ),
    "zero-time-budget": (
        lambda: run_grid([2], [1], 1, time_budget=0),
        ValueError, "time_budget must be > 0, got 0",
    ),
    "negative-time-budget": (
        lambda: run_grid([2], [1], 1, time_budget=-1.5),
        ValueError, "time_budget must be > 0, got -1.5",
    ),
    "nan-chi-budget": (
        lambda: run_grid([2], [1], 1, chi_budget=math.nan),
        ValueError, "chi_budget must be >= 1, got nan",
    ),
    "zero-chi-budget": (
        lambda: run_grid([2], [1], 1, chi_budget=0),
        ValueError, "chi_budget must be >= 1, got 0",
    ),
    "text-chi-budget": (
        lambda: run_grid([2], [1], 1, chi_budget="8"),
        ValueError, "chi_budget must be a real number, got '8'",
    ),
    "bool-chi-budget": (
        lambda: run_grid([2], [1], 1, chi_budget=True),
        ValueError, "chi_budget must be a real number, got True",
    ),
    "text-time-budget": (
        lambda: run_grid([2], [1], 1, time_budget="1"),
        ValueError, "time_budget must be a real number, got '1'",
    ),
    "text-dense-n": (
        lambda: DenseState("3"),
        ValueError, "n must be an integer, got '3'",
    ),
    "none-dense-n": (
        lambda: DenseState(None),
        ValueError, "n must be an integer, got None",
    ),
    "text-upto": (
        lambda: MpsState(3).sample(5, np.random.default_rng(0), "2"),
        ValueError, "upto must be an integer, got '2'",
    ),
    "infinite-sweep-start": (
        lambda: sweep(_ANSATZ, _HAMILTONIAN, start=math.inf),
        ValueError, "start must be a finite real number, got inf",
    ),
    "text-sweep-start": (
        lambda: sweep(_ANSATZ, _HAMILTONIAN, start="a"),
        ValueError, "start must be a finite real number, got 'a'",
    ),
    "nan-sweep-stop": (
        lambda: sweep(_ANSATZ, _HAMILTONIAN, stop=math.nan),
        ValueError, "stop must be a finite real number, got nan",
    ),
    "overflowing-sweep-range": (
        lambda: sweep(_ANSATZ, _HAMILTONIAN, start=-1e308, stop=1e308),
        ValueError, "stop - start is not finite, got start=-1e+308, stop=1e+308",
    ),
    "huge-sweep-start": (
        lambda: sweep(_ANSATZ, _HAMILTONIAN, start=10**400),
        ValueError, f"start must be a finite real number, got {10**400!r}",
    ),
    "huge-sweep-stop": (
        lambda: sweep(_ANSATZ, _HAMILTONIAN, stop=-10**400),
        ValueError, f"stop must be a finite real number, got {-10**400!r}",
    ),
    "huge-time-budget": (
        lambda: run_grid([2], [1], 1, time_budget=10**400),
        ValueError, f"time_budget must be a real number, got {10**400!r}",
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
    "bool-cutoff": (
        lambda: TruncationPolicy(cutoff=True),
        ValueError, "cutoff must be a finite number >= 0, got True",
    ),
    "text-cutoff": (
        lambda: TruncationPolicy(cutoff="0.1"),
        ValueError, "cutoff must be a finite number >= 0, got '0.1'",
    ),
    "none-cutoff": (
        lambda: TruncationPolicy(cutoff=None),
        ValueError, "cutoff must be a finite number >= 0, got None",
    ),
    "complex-cutoff": (
        lambda: TruncationPolicy(cutoff=1j),
        ValueError, "cutoff must be a finite number >= 0, got 1j",
    ),
    "text-relative": (
        lambda: TruncationPolicy(relative="absolute"),
        ValueError, "relative must be a bool, got 'absolute'",
    ),
    "none-relative": (
        lambda: TruncationPolicy(relative=None),
        ValueError, "relative must be a bool, got None",
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
        ValueError, "coefficient must be a finite real number, got nan",
    ),
    "complex-coefficient": (
        lambda: PauliHamiltonian(((1j, "Z"),)),
        ValueError, "coefficient must be a finite real number, got 1j",
    ),
    "bool-coefficient": (
        lambda: PauliHamiltonian(((True, "Z"),)),
        ValueError, "coefficient must be a finite real number, got True",
    ),
    "text-coefficient": (
        lambda: PauliHamiltonian((("0.5", "Z"),)),
        ValueError, "coefficient must be a finite real number, got '0.5'",
    ),
    "infinite-args": (
        lambda: inline(_ANSATZ, [math.inf]),
        IrError, "parameter 't' of kernel 'a' is inf, not finite",
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

#: ``theta`` of ``energy``, a bound value of ``run_program`` and a literal
#: angle: a finite real number within the float range, not a ``bool`` (a
#: literal angle that is text is a named slot, not a number)
_BAD_ANGLES = (("text", "0.3"), ("bool", True), ("none", None), ("complex", 1j),
               ("huge", 10**400), ("nan", math.nan), ("infinite", -math.inf))
for _label, _value in _BAD_ANGLES:
    REJECTED[f"{_label}-theta"] = (
        lambda v=_value: energy(_ANSATZ, v, _HAMILTONIAN),
        ValueError, f"theta must be a finite real number, got {_value!r}",
    )
    REJECTED[f"{_label}-value"] = (
        lambda v=_value: run_program(_ANSATZ.children, values={"t": v}),
        ValueError, f"t must be a finite real number, got {_value!r}",
    )
    if _label == "text":
        continue
    REJECTED[f"{_label}-angle"] = (
        lambda v=_value: execute([Instruction(GateKind.RX, (0,), (v,))]),
        ValueError, f"RX angle must be a finite real number, got {_value!r}",
    )

#: The register ``n`` of ``execute`` and ``run_program`` on each backend;
#: ``n=None`` is not a rejection: it runs on the program's span
for _backend in BACKENDS:
    for _driver, _run in (("execute", execute), ("run-program", run_program)):
        for _label, _value, _message in (
            ("text", "3", "n must be an integer, got '3'"),
            ("bool", True, "n must be an integer, got True"),
            ("below-span", 2, "register of 2 qubit(s) is smaller than the program's qubit span 3"),
        ):
            REJECTED[f"{_driver}-{_backend}-{_label}-n"] = (
                lambda run=_run, v=_value, b=_backend: run(_GATES, v, b),
                ValueError, _message,
            )

#: Every count argument but ``shots`` (see ``SAMPLED``) where it enters:
#: site -> (a call that passes the count ``v``, the count's name, the least
#: value it takes). Each call returns a value that compares by content.
COUNTS = {
    "mps-n": (lambda v: MpsState(v).memory_estimate_bytes(), "n", 1),
    "dense-n": (lambda v: DenseState(v).amps.tolist(), "n", 1),
    "mps-upto": (lambda v: MpsState(3).sample(4, np.random.default_rng(0), v), "upto", 1),
    "dense-upto": (lambda v: DenseState(3).sample(4, np.random.default_rng(0), v), "upto", 1),
    "spec-n": (lambda v: RoundCircuitSpec(v, 2, 0), "n", 2),
    "spec-rounds": (lambda v: RoundCircuitSpec(4, v, 0), "rounds", 1),
    "spec-seed": (lambda v: RoundCircuitSpec(4, 2, v), "seed", 0),
    "seeds-per-cell": (lambda v: run_grid([3], [1], v), "seeds_per_cell", 1),
    "sweep-count": (lambda v: sweep(_ANSATZ, _HAMILTONIAN, count=v), "count", 2),
    "execute-seed": (lambda v: execute((*_GATES, _MEASURE), seed=v), "seed", 0),
    "energy-seed": (lambda v: energy(_ANSATZ, 0.3, _HAMILTONIAN, shots=4, seed=v), "seed", 0),
    "max-bond": (lambda v: TruncationPolicy(max_bond=v), "max_bond", 1),
}
#: Rows pinned elsewhere: ``max_bond`` above and below 1 in test_cli,
#: ``seeds_per_cell`` below 1 in test_bench, and the range tests that run
#: after the type test for the dense register and ``upto`` (test_cli and
#: test_mps)
_PINNED = {"max-bond-fraction", "max-bond-bool", "max-bond-below", "seeds-per-cell-below",
           "dense-n-below", "mps-upto-below", "dense-upto-below"}

for _site, (_call, _name, _low) in COUNTS.items():
    for _label, _value, _message in (
        ("fraction", _low + 0.5, f"{_name} must be an integer, got {_low + 0.5}"),
        ("bool", True, f"{_name} must be an integer, got True"),
        ("below", _low - 1, f"{_name} must be >= {_low}, got {_low - 1}"),
    ):
        if f"{_site}-{_label}" not in _PINNED:
            REJECTED[f"{_site}-{_label}"] = (partial(_call, _value), ValueError, _message)


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
_HAMILTONIAN = PauliHamiltonian(((1.5, "III"), (0.5, "ZXI")))

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
        for name in ("apply_one_qubit", "apply_two_qubit_routed"):
            monkeypatch.setattr(cls, name, lambda self, *args, name=name: applied.append(name))
    for shots in (0, -5):
        with pytest.raises(ValueError) as info:
            call(backend, shots)
        assert type(info.value) is ValueError
        assert str(info.value) == f"shots must be >= 1, got {shots}"
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
        for name in ("apply_one_qubit", "apply_two_qubit_routed"):
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


@pytest.mark.parametrize("call, name, low", COUNTS.values(), ids=COUNTS.keys())
def test_numpy_integer_count_accepted(call, name, low):
    """A numpy integer passes the count rule and gives what the int gives."""
    assert call(np.int64(low + 2)) == call(low + 2)


#: Every caller that takes a sampling seed, with the seed as the last argument
SEEDED = {
    "execute": lambda backend, seed: execute((*_GATES, _MEASURE), backend=backend, seed=seed),
    "energy": lambda backend, seed: energy(
        _ANSATZ, 0.3, _HAMILTONIAN, backend, shots=4, seed=seed),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED.keys())
def test_seed_rejected_before_any_gate(monkeypatch, call, backend):
    applied = []
    for cls in BACKENDS.values():
        for name in ("apply_one_qubit", "apply_two_qubit_routed"):
            monkeypatch.setattr(cls, name, lambda self, *args, name=name: applied.append(name))
    for seed, message in ((1.5, "seed must be an integer, got 1.5"),
                          (True, "seed must be an integer, got True"),
                          (-1, "seed must be >= 0, got -1")):
        with pytest.raises(ValueError) as info:
            call(backend, seed)
        assert type(info.value) is ValueError
        assert str(info.value) == message
        assert applied == []
    call(backend, 0)  # the gate methods are watched: a valid seed runs them
    assert applied


def test_grid_cells_rejected_before_any_gate(monkeypatch):
    """A cell that ``RoundCircuitSpec`` rejects, anywhere in the grid, is
    rejected before the first cell runs."""
    entered = []
    original = bench.apply_program
    monkeypatch.setattr(bench, "apply_program",
                        lambda *args: entered.append(args[0].n) or original(*args))
    with pytest.raises(ValueError) as info:
        run_grid([5, 1], [2], 1)
    assert type(info.value) is ValueError
    assert str(info.value) == "n must be >= 2, got 1"
    assert entered == []
    run_grid([2], [1], 1)  # the gate loop is watched: a valid grid enters it
    assert entered == [2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_bad_value_rejected_before_any_gate(monkeypatch, backend):
    """A bound value that is not a finite real number is rejected before the
    first gate, even when the gates before its slot need no value."""
    applied = []
    for cls in BACKENDS.values():
        for name in ("apply_one_qubit", "apply_two_qubit_routed"):
            monkeypatch.setattr(cls, name, lambda self, *args, name=name: applied.append(name))
    for value, message in (("0.3", "t must be a finite real number, got '0.3'"),
                           (math.nan, "t must be a finite real number, got nan")):
        with pytest.raises(ValueError) as info:
            run_program(_ANSATZ.children, 3, backend, values={"t": value})
        assert type(info.value) is ValueError
        assert str(info.value) == message
        assert applied == []
    run_program(_ANSATZ.children, 3, backend, values={"t": 0.3})
    assert applied  # the gate methods are watched: a valid value runs them
