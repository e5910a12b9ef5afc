"""Variational sweep driver: evaluate <H>(theta) for a one-parameter ansatz.

The ansatz state is prepared once per theta, by running the kernel's own
gates with its one formal parameter bound to theta inside the gate loop, so
no bound copy of the kernel is built. Expectation values are computed
analytically by default. With ``shots`` set, each Hamiltonian term is instead
estimated on a copy of that state: the measurement basis is rotated per qubit
(X -> H, Y -> RZ(-pi/2) then H, Z -> nothing), the state is sampled up to
the term's last support qubit, and :func:`~mpsqvm.backends.readout`, the
projection behind ``execute``'s counts, cuts each key to the term's support;
the key's parity is its count of 1s. A qubit after the last support qubit
cannot change the bits before it, so the short walk gives the counts that a
walk over the whole register gives. :func:`check_grid` is the one rule for
a sweep's grid: ``sweep`` applies it first, and the CLI applies it to
``--grid``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, pi, sqrt

import numpy as np

from .backends import readout, run_program
from .gates import apply_program, check_count, check_real
from .hamiltonian import PauliHamiltonian
from .ir import CompositeInstruction, GateKind, Instruction
from .mps import TruncationPolicy


@dataclass(frozen=True)
class SweepResult:
    thetas: tuple[float, ...]
    energies: tuple[float, ...]
    argmin_theta: float
    min_energy: float


def formal_name(ansatz: CompositeInstruction) -> str:
    """The one formal parameter of ``ansatz``; a ``ValueError`` if it has
    another number of them."""
    if len(ansatz.formal_params) != 1:
        raise ValueError(
            f"driver supports exactly one formal parameter, "
            f"kernel '{ansatz.name}' has {len(ansatz.formal_params)}"
        )
    return ansatz.formal_params[0]


def _basis_rotations(pauli: str) -> list[Instruction]:
    rotations: list[Instruction] = []
    for q, label in enumerate(pauli):
        if label == "X":
            rotations.append(Instruction(GateKind.H, (q,)))
        elif label == "Y":
            rotations.append(Instruction(GateKind.RZ, (q,), (-pi / 2,)))
            rotations.append(Instruction(GateKind.H, (q,)))
    return rotations


def _sampled_term(state, pauli: str, shots: int, rng: np.random.Generator) -> float:
    rotated = apply_program(state.copy(), _basis_rotations(pauli))
    support = [q for q, label in enumerate(pauli) if label != "I"]
    counts = readout(rotated.sample(shots, rng, support[-1] + 1), support)
    return sum(-c if key.count("1") % 2 else c for key, c in counts.items()) / shots


def energy(
    ansatz: CompositeInstruction,
    theta: float,
    hamiltonian: PauliHamiltonian,
    backend: str = "mps",
    policy: TruncationPolicy | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> float:
    """<psi(theta)|H|psi(theta)> with the state prepared by the ansatz at ``theta``.

    ``theta`` must be a finite real number (:func:`~mpsqvm.gates.check_real`).
    With ``shots`` set, ``shots`` must be an integer >= 1 and ``seed`` an
    integer >= 0 (:func:`~mpsqvm.gates.check_count`), and term ``idx`` is
    sampled from a generator seeded with ``[seed, idx]``, so equal arguments
    give equal energies; without it ``seed`` is ignored.
    ``theta``, ``shots`` and ``seed`` are checked before the state is prepared.
    """
    name, theta = formal_name(ansatz), check_real("theta", theta, finite=True)
    if shots is not None:
        check_count("shots", shots)
        check_count("seed", seed, 0)
    state = run_program(ansatz.children, hamiltonian.n, backend, policy, {name: theta})
    if shots is None:
        return sum(c * state.expectation_pauli(p) for c, p in hamiltonian.terms)
    value = 0.0
    for idx, (coeff, pauli) in enumerate(hamiltonian.terms):
        if set(pauli) == {"I"}:
            value += coeff
            continue
        rng = np.random.default_rng([seed, idx])
        value += coeff * _sampled_term(state, pauli, shots, rng)
    return value


def check_grid(start: float, stop: float, count: int) -> None:
    """The rule of a sweep's grid, which the CLI applies to ``--grid`` too:
    ``count`` is an integer >= 2 (:func:`~mpsqvm.gates.check_count`), and
    ``start`` and ``stop`` are finite real numbers
    (:func:`~mpsqvm.gates.check_real`) whose difference is finite."""
    check_count("count", count, 2)
    low = check_real("start", start, finite=True)
    if not isfinite(check_real("stop", stop, finite=True) - low):
        raise ValueError(f"stop - start is not finite, got start={start!r}, stop={stop!r}")


def sweep(
    ansatz: CompositeInstruction,
    hamiltonian: PauliHamiltonian,
    start: float = -pi,
    stop: float = pi,
    count: int = 100,
    backend: str = "mps",
    policy: TruncationPolicy | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> SweepResult:
    """Uniform inclusive grid scan; argmin ties break toward smaller theta.

    The grid is checked by :func:`check_grid` before any state is prepared.
    """
    check_grid(start, stop, count)
    thetas = np.linspace(start, stop, count)
    energies = [
        energy(ansatz, float(t), hamiltonian, backend, policy, shots, seed)
        for t in thetas
    ]
    best = min(range(count), key=lambda i: (energies[i], thetas[i]))
    return SweepResult(
        thetas=tuple(float(t) for t in thetas),
        energies=tuple(energies),
        argmin_theta=float(thetas[best]),
        min_energy=float(energies[best]),
    )


def binomial_sigma(expectation: float, shots: int) -> float:
    """Standard error of a parity estimate of a Pauli term at ``shots`` samples."""
    variance = max(0.0, 1.0 - expectation**2)
    return sqrt(variance / shots)
