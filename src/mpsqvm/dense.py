"""Dense statevector simulator, the ground-truth oracle for the MPS backend.

Optimized for obviousness, not speed. The qubit count is capped (default 24,
override with ``MPSQVM_ORACLE_QUBIT_CAP``) so the oracle stays desk-scale;
:func:`check_register` is the one check against it, for the state and for
the CLI, which runs it while it reads its inputs.
:class:`DenseState` names the two gate methods of the backend contract like
:class:`~mpsqvm.mps.MpsState` (``apply_one_qubit`` and ``apply_two_qubit_routed``
name its one ``apply_gate``, which needs no routing), so
:func:`~mpsqvm.gates.apply_program` drives both backends alike, and samples
through the same :func:`~mpsqvm.mps.sample_sequential` with prefix marginals of
``|amps|^2`` as weights. Gates and the factors of a Pauli string all go through
one contraction, ``np.tensordot`` of the gate with the qubits' axes of the
amplitude tensor followed by ``np.moveaxis`` back into place.
"""

from __future__ import annotations

import copy
import os

import numpy as np

from .gates import apply_program, check_gate, check_integer, check_pauli, pauli_matrix, real_expectation
from .ir import Instruction
from .mps import TruncationPolicy, sample_sequential

DEFAULT_QUBIT_CAP = 24


def check_register(n: int) -> None:
    """A ``ValueError`` unless ``n`` is an integer in ``1..cap``, the
    registers that :class:`DenseState` holds; the type is tested first
    (:func:`~mpsqvm.gates.check_integer`), then the range.

    ``cap`` is ``MPSQVM_ORACLE_QUBIT_CAP`` if set, else
    :data:`DEFAULT_QUBIT_CAP`; a value that is not an integer >= 1 is a
    ``ValueError`` naming the variable, worded like the CLI's complaint about
    ``MPSQVM_CUTOFF`` or ``MPSQVM_MAX_BOND``.
    """
    text = os.environ.get("MPSQVM_ORACLE_QUBIT_CAP", str(DEFAULT_QUBIT_CAP))
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"MPSQVM_ORACLE_QUBIT_CAP: expected an integer >= 1, got {text!r}")
    check_integer("n", n)
    if not 1 <= n <= cap:
        raise ValueError(f"dense oracle supports 1..{cap} qubits, got {n}")


class DenseState:
    """Full 2^n amplitude vector; flat index has qubit 0 as the high bit.

    Built like :class:`~mpsqvm.mps.MpsState`, as ``DenseState(n, policy)``;
    nothing is truncated, so ``policy`` is ignored.
    """

    #: the run-record reads of the backend contract: no bond, nothing discarded
    max_bond_seen = None
    trunc_error_sq = 0.0

    def __init__(self, n: int, policy: TruncationPolicy | None = None):
        check_register(n)
        self.n = n
        self.amps = np.zeros(2**n, dtype=complex)
        self.amps[0] = 1.0

    def memory_estimate_bytes(self) -> int:
        """16 bytes per complex amplitude."""
        return 16 * self.amps.size

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

    def apply_gate(self, gate: np.ndarray, *qubits: int) -> None:
        """Apply a one- or two-qubit gate to any qubits; a statevector needs
        no routing, so this is ``apply_one_qubit`` and ``apply_two_qubit_routed``
        of the backend contract."""
        check_gate(gate, qubits, self.n)
        self.amps = self._apply(self.amps, gate, qubits)

    apply_one_qubit = apply_two_qubit_routed = apply_gate

    def expectation_pauli(self, pauli: str) -> float:
        """<psi|P|psi>, applying ``P`` factor by factor to new arrays; ``amps`` is kept."""
        check_pauli(pauli, self.n)
        phi = self.amps
        for q, label in enumerate(pauli):
            if label != "I":
                phi = self._apply(phi, pauli_matrix(label), (q,))
        return real_expectation(complex(np.vdot(self.amps, phi)))

    def sample(
        self, shots: int, rng: np.random.Generator, upto: int | None = None
    ) -> dict[str, int]:
        """Draw bitstrings of qubits ``0..upto-1`` (default: the whole
        register) with :func:`~mpsqvm.mps.sample_sequential`.

        The carry holds each distinct prefix read as an integer (qubit 0 the
        high bit), starting from the one-row array of the empty prefix. Prefix
        ``p`` extended by ``b`` is ``2p + b``, and its weight at qubit ``k`` is
        entry ``2p + b`` of the prefix marginal of ``|amps|^2`` over qubits
        ``0..k``, so ``split`` is one gather. Each marginal is summed from
        ``|amps|^2`` once per call, not once per block of shots; levels
        ``0..n-2`` hold ``2^n - 2`` floats on top of the state, and level
        ``n-1`` is ``|amps|^2`` itself.
        """
        probs = np.abs(self.amps) ** 2
        marginals = [probs.reshape(2 ** (k + 1), -1).sum(1) for k in range(self.n - 1)]
        marginals.append(probs)

        def split(k: int, prefix):
            rows = (2 * prefix[:, np.newaxis] + (0, 1)).ravel()
            return marginals[k][rows].reshape(-1, 2), rows

        return sample_sequential(self.n, shots, rng, np.zeros(1, dtype=np.intp), split, upto)


def dense_run(program: list[Instruction], n: int) -> DenseState:
    """Apply every unitary gate of the program in order on a fresh state.
    A test and benchmark helper, not exported by the package; it goes once
    the benchmark harness stops calling it."""
    return apply_program(DenseState(n), program)
