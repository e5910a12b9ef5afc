"""Weighted sums of Pauli strings and the on-disk Hamiltonian format.

File format, one term per line: ``<coefficient> <pauli-string>``, e.g.
``0.5716 ZZ``. Blank lines and ``#`` comments are ignored. Coefficients must
be finite, and all strings in a file must have the same length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .gates import check_pauli


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
        for coeff, pauli in self.terms:
            if not math.isfinite(coeff):
                raise ValueError(f"non-finite coefficient {coeff}")
            check_pauli(pauli, self.n)

    @property
    def n(self) -> int:
        return len(self.terms[0][1])


def parse_hamiltonian(text: str) -> PauliHamiltonian:
    terms: list[tuple[float, str]] = []
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
        try:
            check_pauli(pauli, len(terms[0][1]) if terms else len(pauli))
        except ValueError as exc:
            raise HamiltonianFormatError(f"line {lineno}: {exc}") from None
        terms.append((coeff, pauli))
    if not terms:
        raise HamiltonianFormatError("no terms found")
    return PauliHamiltonian(tuple(terms))


def load_hamiltonian(path: str | Path) -> PauliHamiltonian:
    return parse_hamiltonian(Path(path).read_text(encoding="utf-8"))
