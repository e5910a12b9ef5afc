"""Matrix-product-state simulator in right-canonical (Hastings) form.

The state of ``n`` qubits is stored as ``n`` rank-3 site tensors
``B_k = Gamma_k * Lambda_k`` (shape ``(left_bond, 2, right_bond)``, the
Vidal tensor with its right singular values absorbed) and ``n-1``
singular-value vectors ``Lambda_k`` on the bonds between them. Every ``B_k``
is right-canonical, ``sum_s B^s B^s+ = I`` (exactly at cutoff 0), so the
amplitude of a bitstring is the plain matrix product of the ``B`` slices, and
the state to the right of any bond needs no contraction.

One-qubit gates act on the physical index of one ``B``. A two-qubit gate on
adjacent sites ``(q, q+1)`` forms ``theta = B_q B_{q+1}``, applies the 4x4
gate, and takes the SVD of ``diag(Lambda_{q-1}) theta``: its singular values
are the new ``Lambda_q`` (after truncation per the active policy), ``V+``
becomes ``B_{q+1}`` and ``theta V / |s|`` becomes ``B_q``, so nothing is
divided by a singular value (Hastings, J. Math. Phys. 50, 095207 (2009)).
Where the left bond is the smaller one (and not 1), ``theta`` is first split
as ``L Q+`` by a QR factorization and the SVD taken of
``diag(Lambda_{q-1}) L``, which keeps ``B_q`` right-canonical even in rows
whose ``Lambda_{q-1}`` is exactly zero. Non-adjacent pairs are routed together with SWAP chains and
routed back afterwards. Every contraction is a reshape plus a matrix product;
a Pauli expectation costs O(|support| chi^3) and touches only the string's
support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import SWAP_MATRIX, check_unitary


@dataclass(frozen=True)
class TruncationPolicy:
    """Bond truncation rule applied after every two-site SVD.

    ``cutoff`` discards singular values below ``cutoff * s_max`` (relative
    mode, the default) or below ``cutoff`` itself (absolute mode); ``max_bond``
    then caps the bond dimension. At least one singular value is always kept.
    """

    cutoff: float = 1e-4
    max_bond: int | None = None
    relative: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.cutoff < np.inf:
            raise ValueError(f"cutoff must be a finite number >= 0, got {self.cutoff!r}")
        if self.max_bond is not None and self.max_bond < 1:
            raise ValueError(f"max_bond must be >= 1, got {self.max_bond!r}")

    def keep_count(self, singular_values: np.ndarray) -> int:
        threshold = self.cutoff * (singular_values[0] if self.relative else 1.0)
        keep = int(np.sum(singular_values >= threshold)) if self.cutoff > 0 else len(singular_values)
        keep = max(keep, 1)
        if self.max_bond is not None:
            keep = min(keep, self.max_bond)
        return keep


def _transfer(env: np.ndarray, b: np.ndarray, op: np.ndarray | None = None) -> np.ndarray:
    """Carry a left environment ``env[a, a']`` over one site:
    ``sum conj(b[a, s, r]) env[a, a'] (op b)[a', s, r']`` as two matmuls."""
    dim_l, _, dim_r = b.shape
    ket = b if op is None else np.matmul(op, b)
    half = (env @ ket.reshape(dim_l, 2 * dim_r)).reshape(2 * dim_l, dim_r)
    return b.reshape(2 * dim_l, dim_r).conj().T @ half


class MpsState:
    """Right-canonical factorized wavefunction over ``n`` qubits, initially |0...0>.

    ``site_tensors[k]`` holds ``B_k = Gamma_k * Lambda_k`` and
    ``bond_vectors[k]`` the singular values ``Lambda_k`` between sites ``k``
    and ``k+1``.
    """

    def __init__(self, n: int, policy: TruncationPolicy | None = None):
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n = n
        self.policy = policy or TruncationPolicy()
        self.site_tensors = [
            np.array([1.0, 0.0], dtype=complex).reshape(1, 2, 1) for _ in range(n)
        ]
        self.bond_vectors = [np.ones(1) for _ in range(n - 1)]
        self.trunc_error_sq = 0.0
        self.max_bond_seen = 1
        self.peak_entries = self.total_entries()

    # -- bookkeeping ---------------------------------------------------------

    def total_entries(self) -> int:
        return sum(t.size for t in self.site_tensors)

    def max_bond(self) -> int:
        if self.n == 1:
            return 1
        return max(len(v) for v in self.bond_vectors)

    def memory_estimate_bytes(self) -> int:
        """16 bytes per complex entry, at the peak over the run so far."""
        return 16 * self.peak_entries

    def _note_sizes(self) -> None:
        self.peak_entries = max(self.peak_entries, self.total_entries())
        self.max_bond_seen = max(self.max_bond_seen, self.max_bond())

    # -- gate application ----------------------------------------------------

    def apply_one_qubit(self, gate: np.ndarray, q: int) -> None:
        """Contract a 2x2 unitary into site ``q``; bonds are untouched."""
        self._check_site(q)
        check_unitary(gate)
        self.site_tensors[q] = np.matmul(gate, self.site_tensors[q])

    def apply_two_qubit_adjacent(self, gate: np.ndarray, q: int) -> None:
        """Apply a 4x4 unitary to sites ``(q, q+1)`` via contract + SVD."""
        self._check_site(q)
        if q + 1 >= self.n:
            raise ValueError(f"site {q} has no right neighbour (n={self.n})")
        check_unitary(gate)

        b_l, b_r = self.site_tensors[q], self.site_tensors[q + 1]
        dim_l, dim_r = b_l.shape[0], b_r.shape[2]
        # theta[(l s1), (s2 r)] = gate . B_q B_{q+1}; nothing right of it
        # enters, because B_{q+1} is right-canonical
        theta = b_l.reshape(2 * dim_l, -1) @ b_r.reshape(-1, 2 * dim_r)
        theta = np.matmul(gate, theta.reshape(dim_l, 4, dim_r)).reshape(2 * dim_l, 2 * dim_r)
        basis = None
        if 1 < dim_l < dim_r:
            # Split theta = L Q+ first. The right basis (Q V) then spans every
            # row of theta, so B_q stays right-canonical in the rows where
            # Lambda_{q-1} is zero, which diag(Lambda_{q-1}) theta cannot see.
            # (A left bond of dimension 1 carries Lambda = 1; if the right bond
            # is the smaller one, V is square and spans everything anyway.)
            basis, tri = np.linalg.qr(theta.conj().T)
            theta = tri.conj().T
        lam_l = self.bond_vectors[q - 1] if q > 0 else np.ones(1)
        try:
            _, s, vh = np.linalg.svd(
                np.repeat(lam_l, 2)[:, np.newaxis] * theta, full_matrices=False
            )
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"SVD failed on bond {q}") from exc

        keep = self.policy.keep_count(s)
        self.trunc_error_sq += float(np.sum(s[keep:] ** 2))
        s = s[:keep]
        norm = np.linalg.norm(s)
        if norm == 0.0:
            raise RuntimeError(f"all singular values truncated on bond {q}")
        vh = vh[:keep]

        # B_q = theta V / |s| and B_{q+1} = V+: no division by Lambda
        b_l = theta @ vh.conj().T
        b_l /= norm
        b_r = vh.copy() if basis is None else vh @ basis.conj().T
        self.site_tensors[q] = b_l.reshape(dim_l, 2, keep)
        self.site_tensors[q + 1] = b_r.reshape(keep, 2, dim_r)
        self.bond_vectors[q] = s / norm
        self._note_sizes()

    def apply_two_qubit_routed(self, gate: np.ndarray, q1: int, q2: int) -> None:
        """Apply a 4x4 unitary to arbitrary sites, SWAP-routing if needed.

        The higher-index qubit is moved down until adjacent to the lower one,
        the gate is applied, and reverse SWAPs restore the original ordering.
        """
        self._check_site(q1)
        self._check_site(q2)
        if q1 == q2:
            raise ValueError("two-qubit gate needs two distinct sites")
        lo, hi = min(q1, q2), max(q1, q2)
        for k in range(hi - 1, lo, -1):
            self.apply_two_qubit_adjacent(SWAP_MATRIX, k)
        if q1 < q2:
            g = gate
        else:  # first listed qubit now sits at lo+1
            g = SWAP_MATRIX @ gate @ SWAP_MATRIX
        self.apply_two_qubit_adjacent(g, lo)
        for k in range(lo + 1, hi):
            self.apply_two_qubit_adjacent(SWAP_MATRIX, k)

    # -- queries -------------------------------------------------------------

    def _check_site(self, q: int) -> None:
        if not 0 <= q < self.n:
            raise ValueError(f"site {q} out of range for {self.n} qubits")

    def amplitude(self, bits: str) -> complex:
        """<bits|psi>, with string position k addressing qubit k."""
        if len(bits) != self.n or any(b not in "01" for b in bits):
            raise ValueError(f"need a bitstring of length {self.n}, got {bits!r}")
        vec = np.ones(1, dtype=complex)
        for b, t in zip(bits, self.site_tensors):
            vec = vec @ t[:, int(b), :]
        return complex(vec[0])

    def norm_sq(self) -> float:
        """<psi|psi> by contracting every stored tensor from the left edge."""
        env = np.ones((1, 1), dtype=complex)
        for t in self.site_tensors:
            env = _transfer(env, t)
        return float(env[0, 0].real)

    def expectation_pauli(self, pauli: str) -> float:
        """<psi|P|psi> for a Pauli string (one of IXYZ per qubit).

        Only sites ``first..last`` of the string's support are contracted,
        starting from ``diag(Lambda_{first-1}^2)`` on the left and closing
        with a trace, because the canonical form makes the rest of the chain
        an identity: O(|support| chi^3) instead of O(n chi^4). That assumes
        the stored tensors are canonical, which holds exactly at cutoff 0.
        After truncation both ends miss the discarded part, so the value
        deviates from the full normalised contraction of the stored tensors
        by up to about twice the discarded weight ``trunc_error_sq``
        (``2w / (1 - w)`` for a single truncation of weight ``w``).
        """
        from .hamiltonian import pauli_matrix  # local import avoids a cycle

        if len(pauli) != self.n:
            raise ValueError(
                f"Pauli string length {len(pauli)} != qubit count {self.n}"
            )
        support = [k for k, label in enumerate(pauli) if label != "I"]
        if not support:
            return 1.0
        first, last = support[0], support[-1]
        lam = self.bond_vectors[first - 1] if first > 0 else np.ones(1)
        env = np.diag(lam**2)
        for k in range(first, last + 1):
            op = None if pauli[k] == "I" else pauli_matrix(pauli[k])
            env = _transfer(env, self.site_tensors[k], op)
        value = complex(np.trace(env))
        if abs(value.imag) > 1e-10:
            raise RuntimeError(f"expectation has imaginary residue {value.imag:.3e}")
        return value.real

    def conditional_prob_zero(self, prefix_vec: np.ndarray, k: int) -> tuple[float, np.ndarray, np.ndarray]:
        """P(qubit k = 0 | fixed prefix) and the two successor prefix vectors."""
        t = self.site_tensors[k]
        w0 = prefix_vec @ t[:, 0, :]
        w1 = prefix_vec @ t[:, 1, :]
        p0 = float(np.vdot(w0, w0).real)
        p1 = float(np.vdot(w1, w1).real)
        total = p0 + p1
        return (p0 / total if total > 0 else 0.5), w0, w1

    def sample(self, shots: int, rng: np.random.Generator) -> dict[str, int]:
        """Draw full-register bitstrings via sequential conditional sampling.

        One uniform variate is consumed per qubit per shot, in qubit order.
        """
        if shots < 1:
            raise ValueError("shots must be >= 1")
        counts: dict[str, int] = {}
        for _ in range(shots):
            vec = np.ones(1, dtype=complex)
            bits = []
            for k in range(self.n):
                p0, w0, w1 = self.conditional_prob_zero(vec, k)
                if rng.random() < p0:
                    bits.append("0")
                    vec = w0
                else:
                    bits.append("1")
                    vec = w1
            key = "".join(bits)
            counts[key] = counts.get(key, 0) + 1
        return counts
