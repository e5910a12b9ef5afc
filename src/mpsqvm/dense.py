"""Dense statevector simulator, the ground-truth oracle for the MPS backend.

Optimized for obviousness, not speed. The qubit count is capped (default 24,
override with ``MPSQVM_ORACLE_QUBIT_CAP``) so the oracle stays desk-scale.
:class:`DenseState` names its gate methods like :class:`~mpsqvm.mps.MpsState`,
so :func:`~mpsqvm.gates.apply_program` drives both backends alike, and samples
through the same :func:`~mpsqvm.mps.sample_sequential` with prefix marginals of
``|amps|^2`` as weights. Gates and the factors of a Pauli string all go through
one contraction, ``np.tensordot`` of the gate with the qubits' axes of the
amplitude tensor followed by ``np.moveaxis`` back into place.
"""

from __future__ import annotations

import copy
import os

import numpy as np

from .gates import apply_program, check_gate, check_pauli, pauli_matrix, real_expectation
from .ir import Instruction
from .mps import sample_sequential

DEFAULT_QUBIT_CAP = 24


def oracle_qubit_cap() -> int:
    """``MPSQVM_ORACLE_QUBIT_CAP`` if set, else :data:`DEFAULT_QUBIT_CAP`; a
    value that is not an integer >= 1 is a ``ValueError`` naming the variable."""
    text = os.environ.get("MPSQVM_ORACLE_QUBIT_CAP", str(DEFAULT_QUBIT_CAP))
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"MPSQVM_ORACLE_QUBIT_CAP={text!r} is not an integer >= 1")
    return cap


class DenseState:
    """Full 2^n amplitude vector; flat index has qubit 0 as the high bit."""

    def __init__(self, n: int):
        cap = oracle_qubit_cap()
        if not 1 <= n <= cap:
            raise ValueError(f"dense oracle supports 1..{cap} qubits, got {n}")
        self.n = n
        self.amps = np.zeros(2**n, dtype=complex)
        self.amps[0] = 1.0

    def copy(self) -> DenseState:
        """A state that evolves apart from this one; ``amps`` is shared, because
        a gate rebinds it to a new array and never writes into it."""
        return copy.copy(self)

    def _apply(self, amps: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
        """``gate`` (2x2 or 4x4) applied to ``qubits`` of the flat vector ``amps``."""
        k = len(qubits)
        psi = np.tensordot(gate.reshape([2] * 2 * k), amps.reshape([2] * self.n),
                           axes=(list(range(k, 2 * k)), list(qubits)))
        return np.moveaxis(psi, list(range(k)), list(qubits)).reshape(-1)

    def apply_one_qubit(self, gate: np.ndarray, q: int) -> None:
        check_gate(gate, (q,), self.n)
        self.amps = self._apply(self.amps, gate, (q,))

    def apply_two_qubit_routed(self, gate: np.ndarray, q1: int, q2: int) -> None:
        """Apply a two-qubit gate to any pair; a statevector needs no routing."""
        check_gate(gate, (q1, q2), self.n)
        self.amps = self._apply(self.amps, gate, (q1, q2))

    def expectation_pauli(self, pauli: str) -> float:
        """<psi|P|psi>, applying ``P`` factor by factor to new arrays; ``amps`` is kept."""
        check_pauli(pauli, self.n)
        phi = self.amps
        for q, label in enumerate(pauli):
            if label != "I":
                phi = self._apply(phi, pauli_matrix(label), (q,))
        return real_expectation(complex(np.vdot(self.amps, phi)))

    def sample(self, shots: int, rng: np.random.Generator) -> dict[str, int]:
        """Draw full-register bitstrings with :func:`~mpsqvm.mps.sample_sequential`.

        The carry holds each distinct prefix read as an integer (qubit 0 the
        high bit), starting from the one-row array of the empty prefix; the
        weights of the two outcomes at qubit ``k`` are prefix marginals of
        ``|amps|^2`` over qubits ``0..k``. Each marginal is summed from
        ``|amps|^2`` once per call, not once per block of shots; levels
        ``0..n-2`` hold ``2^n - 2`` floats on top of the state, and level
        ``n-1`` is ``|amps|^2`` itself.
        """
        probs = np.abs(self.amps) ** 2
        marginals = [probs.reshape(2 ** (k + 1), -1).sum(1) for k in range(self.n - 1)]
        marginals.append(probs)

        def split(k: int, prefix):
            marginal = marginals[k]
            return marginal[2 * prefix], marginal[2 * prefix + 1], 2 * prefix, 2 * prefix + 1

        return sample_sequential(self.n, shots, rng, np.zeros(1, dtype=np.intp), split)


def dense_run(program: list[Instruction], n: int) -> DenseState:
    """Apply every unitary gate of the program in order on a fresh state."""
    return apply_program(DenseState(n), program)
