"""Dense statevector simulator, the ground-truth oracle for the MPS backend.

Optimized for obviousness, not speed. The qubit count is capped (default 24,
override with ``MPSQVM_ORACLE_QUBIT_CAP``) so the oracle stays desk-scale.
:class:`DenseState` names its gate methods like :class:`~mpsqvm.mps.MpsState`,
so :func:`~mpsqvm.gates.apply_program` drives both backends alike.
"""

from __future__ import annotations

import os

import numpy as np

from .gates import apply_program, check_unitary
from .ir import Instruction

DEFAULT_QUBIT_CAP = 24


def oracle_qubit_cap() -> int:
    return int(os.environ.get("MPSQVM_ORACLE_QUBIT_CAP", DEFAULT_QUBIT_CAP))


class DenseState:
    """Full 2^n amplitude vector; flat index has qubit 0 as the high bit."""

    def __init__(self, n: int):
        cap = oracle_qubit_cap()
        if not 1 <= n <= cap:
            raise ValueError(f"dense oracle supports 1..{cap} qubits, got {n}")
        self.n = n
        self.amps = np.zeros(2**n, dtype=complex)
        self.amps[0] = 1.0

    def _check_qubits(self, qubits: tuple[int, ...]) -> None:
        for q in qubits:
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} out of range for {self.n} qubits")

    def apply_one_qubit(self, gate: np.ndarray, q: int) -> None:
        self._check_qubits((q,))
        check_unitary(gate)
        psi = self.amps.reshape([2] * self.n)
        psi = np.tensordot(gate, psi, axes=([1], [q]))
        self.amps = np.moveaxis(psi, 0, q).reshape(-1)

    def apply_two_qubit_routed(self, gate: np.ndarray, q1: int, q2: int) -> None:
        """Apply a two-qubit gate to any pair; a statevector needs no routing."""
        self._check_qubits((q1, q2))
        if q1 == q2:
            raise ValueError("two-qubit gate needs two distinct qubits")
        check_unitary(gate)
        psi = self.amps.reshape([2] * self.n)
        g = gate.reshape(2, 2, 2, 2)
        psi = np.tensordot(g, psi, axes=([2, 3], [q1, q2]))
        self.amps = np.moveaxis(psi, [0, 1], [q1, q2]).reshape(-1)

    def amplitude(self, bits: str) -> complex:
        if len(bits) != self.n or any(b not in "01" for b in bits):
            raise ValueError(f"need a bitstring of length {self.n}, got {bits!r}")
        return complex(self.amps[int(bits, 2)])

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def expectation_pauli(self, pauli: str) -> float:
        from .hamiltonian import pauli_matrix

        if len(pauli) != self.n:
            raise ValueError(
                f"Pauli string length {len(pauli)} != qubit count {self.n}"
            )
        phi = self.amps.copy()
        state = DenseState.__new__(DenseState)
        state.n = self.n
        state.amps = phi
        for q, label in enumerate(pauli):
            if label != "I":
                state.apply_one_qubit(pauli_matrix(label), q)
        value = complex(np.vdot(self.amps, state.amps))
        if abs(value.imag) > 1e-10:
            raise RuntimeError(f"expectation has imaginary residue {value.imag:.3e}")
        return value.real

    def distribution(self) -> dict[str, float]:
        """Exact |amplitude|^2 per basis bitstring."""
        probs = np.abs(self.amps) ** 2
        return {format(i, f"0{self.n}b"): float(p) for i, p in enumerate(probs)}

    def conditional_prob_zero(self, prefix_bits: str, k: int) -> float:
        """P(qubit k = 0 | qubits 0..k-1 fixed to prefix_bits)."""
        psi = self.amps.reshape([2] * self.n)
        sel: list[int | slice] = [int(b) for b in prefix_bits]
        block = psi[tuple(sel)]
        p0 = float(np.sum(np.abs(block[0]) ** 2))
        p1 = float(np.sum(np.abs(block[1]) ** 2))
        total = p0 + p1
        return p0 / total if total > 0 else 0.5

    def sample(self, shots: int, rng: np.random.Generator) -> dict[str, int]:
        """Sequential conditional sampling, RNG-compatible with the MPS path."""
        if shots < 1:
            raise ValueError("shots must be >= 1")
        counts: dict[str, int] = {}
        for _ in range(shots):
            bits = ""
            for k in range(self.n):
                p0 = self.conditional_prob_zero(bits, k)
                bits += "0" if rng.random() < p0 else "1"
            counts[bits] = counts.get(bits, 0) + 1
        return counts


def dense_run(program: list[Instruction], n: int) -> DenseState:
    """Apply every unitary gate of the program in order on a fresh state."""
    return apply_program(DenseState(n), program)
