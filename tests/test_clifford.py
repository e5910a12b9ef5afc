"""The MPS against an exact oracle beyond the dense cap: Clifford programs,
whose Pauli expectations and stabilizers come from the Heisenberg-picture
propagator ``conjugate_pauli`` in ``tests/conftest.py``.

The programs route ``CZ 0 k`` for every ``k`` and long-range ``CNOT``s, each
in both qubit orders, so they run SWAP chains of every length at 20-100
qubits, where the dense oracle cannot follow."""

import numpy as np
import pytest

from mpsqvm import GateKind, Instruction, TruncationPolicy, run_program
from mpsqvm.dense import dense_run
from tests.conftest import assert_right_canonical, clifford_expectation, conjugate_pauli

NEAR_EXACT = TruncationPolicy(cutoff=1e-12)
ONE_QUBIT_CLIFFORDS = [GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.RZ]


def _layer(n: int, rng: np.random.Generator) -> list[Instruction]:
    """One random one-qubit Clifford per qubit; RZ takes a multiple of pi/2."""
    layer = []
    for q in range(n):
        kind = ONE_QUBIT_CLIFFORDS[rng.integers(len(ONE_QUBIT_CLIFFORDS))]
        params = (float(rng.integers(-3, 4)) * np.pi / 2,) if kind is GateKind.RZ else ()
        layer.append(Instruction(kind, (q,), params))
    return layer


def _either_order(a: int, b: int, rng: np.random.Generator) -> tuple[int, int]:
    return (a, b) if rng.random() < 0.5 else (b, a)


def clifford_program(n: int, rng: np.random.Generator) -> list[Instruction]:
    """A star graph state (``CZ 0 k`` for every ``k``) between random
    one-qubit Clifford layers, then long-range ``CNOT``s onto the last qubit
    and between random pairs, and one long-range ``SWAP``: every two-qubit
    gate in a random qubit order."""
    program = _layer(n, rng) + [Instruction(GateKind.H, (q,)) for q in range(n)]
    program += [Instruction(GateKind.CZ, _either_order(0, k, rng)) for k in range(1, n)]
    program += _layer(n, rng)
    for a in rng.choice(n - 1, size=min(n - 1, 4), replace=False):
        program.append(Instruction(GateKind.CNOT, _either_order(int(a), n - 1, rng)))
    for _ in range(4):
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        program.append(Instruction(GateKind.CNOT, (a, b)))
    a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
    program.append(Instruction(GateKind.SWAP, (a, b)))
    return program + _layer(n, rng)


def _z(n: int, *qubits: int) -> str:
    return "".join("Z" if q in qubits else "I" for q in range(n))


def _stabilizers(program, n: int) -> list[tuple[str, int]]:
    """``U Z_q U+`` for every ``q``: strings with ``<P> = +-1`` on ``U|0...0>``."""
    return [conjugate_pauli(program, _z(n, q), forward=True) for q in range(n)]


def _random_pauli(n: int, weight: int, rng: np.random.Generator) -> str:
    labels = ["I"] * n
    for q in rng.choice(n, size=weight, replace=False):
        labels[q] = "XYZ"[rng.integers(3)]
    return "".join(labels)


class TestPropagator:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        signs = set()
        for _ in range(200):
            n = int(rng.integers(4, 7))
            program = clifford_program(n, rng)
            dense = dense_run(program, n)
            for pauli in [_random_pauli(n, int(rng.integers(1, n + 1)), rng) for _ in range(3)]:
                assert dense.expectation_pauli(pauli) == pytest.approx(
                    clifford_expectation(program, pauli), abs=1e-9), pauli
            for labels, sign in _stabilizers(program, n)[:2]:
                signs.add(sign)
                assert dense.expectation_pauli(labels) == pytest.approx(sign, abs=1e-9), labels
        assert signs == {1, -1}

    @pytest.mark.parametrize("gate", [
        Instruction(GateKind.RZ, (0,), (0.3,)),
        Instruction(GateKind.RX, (0,), (np.pi / 2,)),
        Instruction(GateKind.I, (0,)),
    ], ids=["rz-0.3", "rx", "identity"])
    def test_rejects_other_gates(self, gate):
        with pytest.raises(ValueError, match="not a Clifford gate"):
            clifford_expectation([gate], "Z")


class TestMpsBeyondDenseCap:
    @pytest.mark.parametrize("n", [20, 40, 100])
    def test_expectations(self, n):
        rng = np.random.default_rng(n)
        program = clifford_program(n, rng)
        state = run_program(program, n, "mps", NEAR_EXACT)
        for labels, sign in _stabilizers(program, n):
            assert state.expectation_pauli(labels) == pytest.approx(sign, abs=1e-9), labels
        for weight in (1, 2, 3):
            for _ in range(20):
                pauli = _random_pauli(n, weight, rng)
                assert state.expectation_pauli(pauli) == pytest.approx(
                    clifford_expectation(program, pauli), abs=1e-9), pauli
        assert_right_canonical(state)

    @pytest.mark.parametrize("n, backend", [(12, "dense"), (12, "mps"), (100, "mps")])
    def test_sampler_reads_fixed_bits_and_parities(self, n, backend):
        rng = np.random.default_rng(1000 + n)
        program = clifford_program(n, rng)
        state = run_program(program, n, backend, NEAR_EXACT)
        shots = state.sample(300, np.random.default_rng(7))
        bits = np.array([[int(b) for b in key] for key in shots])
        fixed = {q: clifford_expectation(program, _z(n, q)) for q in range(n)}
        fixed = {q: value for q, value in fixed.items() if value}
        pairs = [tuple(int(q) for q in rng.choice(n, size=2, replace=False)) for _ in range(60)]
        parity = {(a, b): clifford_expectation(program, _z(n, a, b)) for a, b in pairs}
        parity = {pair: value for pair, value in parity.items() if value}
        # some parity must not follow from two fixed bits
        assert fixed and any(a not in fixed and b not in fixed for a, b in parity)
        for q, value in fixed.items():  # <Z_q> = +1 reads 0, -1 reads 1
            assert (bits[:, q] == (1 - value) // 2).all(), q
        for (a, b), value in parity.items():
            assert ((bits[:, a] ^ bits[:, b]) == (1 - value) // 2).all(), (a, b)
        if backend == "mps":
            assert_right_canonical(state)
