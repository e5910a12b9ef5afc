"""Unitary matrices for the supported gate set.

Two-qubit matrices are indexed in the basis ``|q1 q2>`` with the first listed
qubit as the most significant bit (index = 2*s1 + s2).
"""

from __future__ import annotations

from math import cos, sin, sqrt

import numpy as np

from .ir import GateKind, Instruction

_SQ2 = 1.0 / sqrt(2.0)

_FIXED_1Q = {
    GateKind.I: np.eye(2, dtype=complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
}

_FIXED_2Q = {
    GateKind.CNOT: np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    GateKind.CZ: np.diag([1, 1, 1, -1]).astype(complex),
    GateKind.SWAP: np.eye(4, dtype=complex)[[0, 2, 1, 3]],
}

SWAP_MATRIX = _FIXED_2Q[GateKind.SWAP]


def rx(theta: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry(theta: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])


_ROTATIONS = {GateKind.RX: rx, GateKind.RY: ry, GateKind.RZ: rz}


def gate_matrix(instr: Instruction) -> np.ndarray:
    """Unitary matrix of a (bound, non-MEASURE) instruction."""
    if instr.kind in _FIXED_1Q:
        return _FIXED_1Q[instr.kind]
    if instr.kind in _FIXED_2Q:
        return _FIXED_2Q[instr.kind]
    if instr.kind in _ROTATIONS:
        return _ROTATIONS[instr.kind](float(instr.params[0]))
    raise ValueError(f"{instr.kind.value} has no unitary matrix")


def check_unitary(matrix: np.ndarray, tol: float = 1e-10) -> None:
    d = matrix.shape[0]
    if matrix.shape != (d, d) or d not in (2, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {matrix.shape}")
    dev = np.abs(matrix.conj().T @ matrix - np.eye(d)).max()
    if not dev <= tol:  # also rejects NaN, which compares false with everything
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
