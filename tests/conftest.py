from pathlib import Path

import numpy as np
import pytest

from mpsqvm import DenseState, GateKind, Instruction
from mpsqvm.gates import apply_program, pauli_matrix

REPO_ROOT = Path(__file__).resolve().parent.parent
HAM_PATH = REPO_ROOT / "data" / "h2_2q.ham"
ANSATZ_PATH = REPO_ROOT / "data" / "h2_vqe.qk"

#: A call chain three kernels deep, with literal and name arguments.
CHAIN_SRC = """
__qpu__ leaf(AcceleratorBuffer b, double z) {
  RZ(z) 2
  H 2
}
__qpu__ mid(AcceleratorBuffer b, double y, double w) {
  RY(y) 1
  leaf(b, w)
  leaf(b, 1.5)
  CNOT 0 1
}
__qpu__ top(AcceleratorBuffer b, double t, double u) {
  RX(t) 0
  mid(b, u, t)
  mid(b, 0.75, u)
  MEASURE 0 [0]
}
"""

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
    """Full amplitude vector of a small MPS, ordered like the dense oracle.

    The site tensors are contracted left to right: row ``2p + s`` of the
    carry after site ``k`` is prefix ``p`` extended by ``s``, so qubit 0 ends
    up as the high bit of the flat index.
    """
    vec = np.ones((1, 1), dtype=complex)
    for t in state.site_tensors:
        vec = (vec @ t.reshape(len(t), -1)).reshape(-1, t.shape[2])
    return vec.ravel()


def max_bond(state) -> int:
    """Largest bond dimension of an MPS as it is now (1 for one qubit)."""
    return max((len(v) for v in state.bond_vectors), default=1)


def max_right_canonical_deviation(state) -> float:
    """max over sites k of |diag(L) (sum_s B^s B^s+ - I) diag(L)| with
    L = Lambda_{k-1} (1 at the left edge): the right-canonical form on the
    rows that carry weight, which is all that any query reads."""
    worst = 0.0
    for k, b in enumerate(state.site_tensors):
        lam = state.bond_vectors[k - 1] if k > 0 else np.ones(1)
        rows = b.reshape(b.shape[0], -1)
        gap = rows @ rows.conj().T - np.eye(len(rows))
        worst = max(worst, np.abs(lam[:, np.newaxis] * gap * lam).max())
    return worst


def assert_right_canonical(state) -> None:
    assert max_right_canonical_deviation(state) <= 1e-12


def conjugate_pauli(program, pauli: str, forward: bool = False) -> tuple[str, int]:
    """``U+ P U`` (or ``U P U+`` with ``forward``) for a Clifford program ``U``
    as ``(labels, sign)``, tracking an x and a z bit per qubit and one sign
    bit (Aaronson and Gottesman, PRA 70, 052328 (2004)). Takes H, X, Y, Z,
    RZ(k pi/2), CNOT, CZ and SWAP and raises on anything else, so it is exact
    at any width in O(len(program))."""
    x = [int(label in "XY") for label in pauli]
    z = [int(label in "YZ") for label in pauli]
    sign = 0

    def h(a):  # H P H
        nonlocal sign
        sign ^= x[a] & z[a]
        x[a], z[a] = z[a], x[a]

    def s(a):  # S P S+
        nonlocal sign
        sign ^= x[a] & z[a]
        z[a] ^= x[a]

    def cnot(a, b):  # CNOT P CNOT, control a
        nonlocal sign
        sign ^= x[a] & z[b] & (x[b] ^ z[a] ^ 1)
        x[b] ^= x[a]
        z[a] ^= z[b]

    for gate in program if forward else reversed(program):
        kind, (a, *rest) = gate.kind, gate.qubits
        turns = round(gate.params[0] / (np.pi / 2)) if kind is GateKind.RZ else None
        if turns is not None and abs(gate.params[0] - turns * np.pi / 2) < 1e-12:
            # RZ(k pi/2) is S^k up to a phase; U+ P U conjugates by S^-k
            for _ in range((turns if forward else -turns) % 4):
                s(a)
        elif kind is GateKind.X:
            sign ^= z[a]
        elif kind is GateKind.Y:
            sign ^= x[a] ^ z[a]
        elif kind is GateKind.Z:
            sign ^= x[a]
        elif kind is GateKind.H:
            h(a)
        elif kind is GateKind.CNOT:
            cnot(a, rest[0])
        elif kind is GateKind.CZ:
            h(rest[0])
            cnot(a, rest[0])
            h(rest[0])
        elif kind is GateKind.SWAP:
            b = rest[0]
            x[a], x[b], z[a], z[b] = x[b], x[a], z[b], z[a]
        else:
            raise ValueError(f"not a Clifford gate of this propagator: {gate}")
    labels = "".join("IZXY"[2 * xb + zb] for xb, zb in zip(x, z))
    return labels, -1 if sign else 1


def clifford_expectation(program, pauli: str) -> int:
    """<0...0| U+ P U |0...0>: the sign of ``U+ P U`` if it has no X or Y
    factor, else 0."""
    labels, sign = conjugate_pauli(program, pauli)
    return 0 if set(labels) & {"X", "Y"} else sign


def light_cone_expectation(program, pauli: str) -> tuple[float, int]:
    """<0...0| U+ P U |0...0> of a Pauli string on any gate set, from the
    gates in the backward light cone of P's support, run on a dense state of
    the cone's width; returns ``(value, width)``.

    Walking the program backwards, a gate that touches the cone joins it and
    widens it by its qubits; every other gate cancels in U+ P U. So the cost
    is 2^width, not 2^n (Bravyi, Gosset and Movassagh, Nat. Phys. 17, 337
    (2021))."""
    cone = {q for q, label in enumerate(pauli) if label != "I"}
    kept = []
    for gate in reversed(program):
        if gate.kind is not GateKind.MEASURE and cone.intersection(gate.qubits):
            cone.update(gate.qubits)
            kept.append(gate)
    sites = sorted(cone)
    where = {q: i for i, q in enumerate(sites)}
    local = [Instruction(g.kind, tuple(where[q] for q in g.qubits), g.params)
             for g in reversed(kept)]
    state = apply_program(DenseState(len(sites)), local)
    return state.expectation_pauli("".join(pauli[q] for q in sites)), len(sites)


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
