"""Unitary matrices for the supported gate set, and the one loop that applies
a program's gates to a simulator state.

Two-qubit matrices are indexed in the basis ``|q1 q2>`` with the first listed
qubit as the most significant bit (index = 2*s1 + s2). :func:`apply_program`
drives either backend through the same two methods, ``apply_one_qubit`` and
``apply_two_qubit_routed``, so it never branches on which backend it runs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from math import cos, sin, sqrt
from typing import TypeVar

import numpy as np

from .ir import GateKind, Instruction, IrError

_State = TypeVar("_State")

_SQ2 = 1.0 / sqrt(2.0)


def rx(theta: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry(theta: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])


#: The matrix of every gate kind but MEASURE: fixed, or a function of the angle.
_MATRICES: dict[GateKind, np.ndarray | Callable[[float], np.ndarray]] = {
    GateKind.I: np.eye(2, dtype=complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    GateKind.RX: rx,
    GateKind.RY: ry,
    GateKind.RZ: rz,
    GateKind.CNOT: np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    GateKind.CZ: np.diag([1, 1, 1, -1]).astype(complex),
    GateKind.SWAP: np.eye(4, dtype=complex)[[0, 2, 1, 3]],
}

SWAP_MATRIX = _MATRICES[GateKind.SWAP]


def gate_matrix(instr: Instruction) -> np.ndarray:
    """Unitary matrix of a (bound, non-MEASURE) instruction."""
    entry = _MATRICES.get(instr.kind)
    if entry is None:
        raise ValueError(f"{instr.kind.value} has no unitary matrix")
    return entry(float(instr.params[0])) if instr.params else entry


def pauli_matrix(label: str) -> np.ndarray:
    """Matrix of one Pauli label: ``I``, ``X``, ``Y`` or ``Z``."""
    if label not in ("I", "X", "Y", "Z"):
        raise ValueError(f"unknown Pauli label {label!r}")
    return _MATRICES[GateKind(label)]


#: Largest entry of ``|U+ U - I|`` that :func:`check_unitary` accepts.
UNITARY_TOL = 1e-10


def check_unitary(matrix: np.ndarray) -> None:
    d = matrix.shape[0]
    if matrix.shape != (d, d) or d not in (2, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {matrix.shape}")
    dev = np.abs(matrix.conj().T @ matrix - np.eye(d)).max()
    if not dev <= UNITARY_TOL:  # also rejects NaN, which compares false with everything
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")


def apply_program(
    state: _State,
    program: Iterable[Instruction],
    on_step: Callable[[_State], None] | None = None,
) -> _State:
    """Apply the program's gates to ``state`` in order and return it.

    MEASUREs apply nothing: measurement is deferred to sampling at the end of
    the run, so a gate on a qubit that an earlier MEASURE read is rejected
    with :class:`IrError` rather than silently acting before the readout.
    ``on_step(state)`` runs after every gate and may raise to abort the run.
    """
    measured: set[int] = set()
    for instr in program:
        if instr.kind is GateKind.MEASURE:
            measured.add(instr.qubits[0])
            continue
        for q in instr.qubits:
            if q in measured:
                raise IrError(
                    f"{instr.kind.value} {instr.qubits} acts on qubit {q} after it was "
                    f"measured; mid-circuit measurement is not supported"
                )
        matrix = gate_matrix(instr)
        if instr.kind.num_qubits == 1:
            state.apply_one_qubit(matrix, instr.qubits[0])
        else:
            state.apply_two_qubit_routed(matrix, instr.qubits[0], instr.qubits[1])
        if on_step is not None:
            on_step(state)
    return state
