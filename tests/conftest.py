import itertools
from pathlib import Path

import numpy as np
import pytest

from mpsqvm import GateKind, Instruction
from mpsqvm.gates import pauli_matrix

REPO_ROOT = Path(__file__).resolve().parent.parent
HAM_PATH = REPO_ROOT / "data" / "h2_2q.ham"
ANSATZ_PATH = REPO_ROOT / "data" / "h2_vqe.qk"

ONE_QUBIT_KINDS = [
    GateKind.H, GateKind.X, GateKind.Y, GateKind.Z,
    GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.I,
]
TWO_QUBIT_KINDS = [GateKind.CNOT, GateKind.CZ, GateKind.SWAP]


def random_program(n: int, num_gates: int, rng: np.random.Generator,
                   two_qubit_prob: float = 0.4) -> list[Instruction]:
    """Random gate list over the full set, including non-adjacent pairs."""
    program = []
    for _ in range(num_gates):
        if n >= 2 and rng.random() < two_qubit_prob:
            kind = TWO_QUBIT_KINDS[rng.integers(len(TWO_QUBIT_KINDS))]
            q1, q2 = (int(q) for q in rng.choice(n, size=2, replace=False))
            program.append(Instruction(kind, (q1, q2)))
        else:
            kind = ONE_QUBIT_KINDS[rng.integers(len(ONE_QUBIT_KINDS))]
            params = (float(rng.uniform(0, 2 * np.pi)),) if kind.num_params else ()
            program.append(Instruction(kind, (int(rng.integers(n)),), params))
    return program


def mps_statevector(state) -> np.ndarray:
    """Full amplitude vector of a small MPS, ordered like the dense oracle."""
    return np.array(
        [state.amplitude("".join(bits)) for bits in itertools.product("01", repeat=state.n)]
    )


def max_bond(state) -> int:
    """Largest bond dimension of an MPS as it is now (1 for one qubit)."""
    return max((len(v) for v in state.bond_vectors), default=1)


def exact_ground_energy(hamiltonian) -> float:
    """Lowest eigenvalue of the dense 2^n x 2^n matrix of a Pauli Hamiltonian
    (qubit 0 the most significant factor), by brute-force diagonalization."""
    dim = 2**hamiltonian.n
    matrix = np.zeros((dim, dim), dtype=complex)
    for coeff, pauli in hamiltonian.terms:
        op = np.eye(1, dtype=complex)
        for label in pauli:
            op = np.kron(op, pauli_matrix(label))
        matrix += coeff * op
    return float(np.linalg.eigvalsh(matrix)[0])


def bell_program() -> list[Instruction]:
    return [Instruction(GateKind.H, (0,)), Instruction(GateKind.CNOT, (0, 1))]


def ghz3_program() -> list[Instruction]:
    return [
        Instruction(GateKind.H, (0,)),
        Instruction(GateKind.CNOT, (0, 1)),
        Instruction(GateKind.CNOT, (1, 2)),
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
