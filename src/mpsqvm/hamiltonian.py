"""Weighted sums of Pauli strings and the on-disk Hamiltonian format.

File format, one term per line: ``<coefficient> <pauli-string>``, e.g.
``0.5716 ZZ``. Blank lines and ``#`` comments are ignored. Coefficients must
be finite, and all strings in a file must have the same length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(label: str) -> np.ndarray:
    try:
        return _PAULI[label]
    except KeyError:
        raise ValueError(f"unknown Pauli label {label!r}") from None


class HamiltonianFormatError(ValueError):
    """Malformed Hamiltonian file; message carries the line number."""


@dataclass(frozen=True)
class PauliHamiltonian:
    """H = sum_k coeff_k * P_k over ``n`` qubits."""

    terms: tuple[tuple[float, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("Hamiltonian needs at least one term")
        widths = {len(p) for _, p in self.terms}
        if len(widths) != 1:
            raise ValueError(f"inconsistent Pauli string lengths: {sorted(widths)}")
        for coeff, pauli in self.terms:
            if not np.isfinite(coeff):
                raise ValueError(f"non-finite coefficient {coeff}")
            for label in pauli:
                pauli_matrix(label)

    @property
    def n(self) -> int:
        return len(self.terms[0][1])

    def matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix; qubit 0 is the most significant factor."""
        dim = 2**self.n
        out = np.zeros((dim, dim), dtype=complex)
        for coeff, pauli in self.terms:
            op = np.eye(1, dtype=complex)
            for label in pauli:
                op = np.kron(op, pauli_matrix(label))
            out += coeff * op
        return out

    def min_eigenvalue(self) -> float:
        """Exact ground-state energy by brute-force diagonalization."""
        return float(np.linalg.eigvalsh(self.matrix())[0])


def parse_hamiltonian(text: str) -> PauliHamiltonian:
    terms: list[tuple[float, str]] = []
    width: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise HamiltonianFormatError(
                f"line {lineno}: expected '<coeff> <pauli-string>', got {raw!r}"
            )
        try:
            coeff = float(fields[0])
            if not math.isfinite(coeff):
                raise ValueError
        except ValueError:
            raise HamiltonianFormatError(
                f"line {lineno}: bad coefficient {fields[0]!r}, need a finite number"
            ) from None
        pauli = fields[1].upper()
        if any(c not in _PAULI for c in pauli):
            raise HamiltonianFormatError(f"line {lineno}: bad Pauli string {fields[1]!r}")
        if width is None:
            width = len(pauli)
        elif len(pauli) != width:
            raise HamiltonianFormatError(
                f"line {lineno}: Pauli string length {len(pauli)} != {width}"
            )
        terms.append((coeff, pauli))
    if not terms:
        raise HamiltonianFormatError("no terms found")
    return PauliHamiltonian(tuple(terms))


def load_hamiltonian(path: str | Path) -> PauliHamiltonian:
    return parse_hamiltonian(Path(path).read_text(encoding="utf-8"))
