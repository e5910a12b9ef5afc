"""Matrix-product-state simulator in right-canonical (Hastings) form.

The state of ``n`` qubits is stored as ``n`` rank-3 site tensors
``B_k = Gamma_k * Lambda_k`` (shape ``(left_bond, 2, right_bond)``, the
Vidal tensor with its right singular values absorbed) and ``n-1``
singular-value vectors ``Lambda_k`` on the bonds between them. Every ``B_k``
is right-canonical on the support of ``Lambda``:
``diag(Lambda_{k-1}) (sum_s B^s B^s+ - I) diag(Lambda_{k-1}) = 0``, exactly at
cutoff 0, with ``Lambda_{-1} = 1``. So the amplitude of a bitstring is the
plain matrix product of the ``B`` slices, and the state to the right of any
bond needs no contraction.

A row ``l`` of ``B_k`` whose ``Lambda_{k-1}[l]`` is exactly zero need not be
orthonormal, and nothing reads it: it enters a query only through
``Lambda_{k-1}[l]`` (the ``diag(Lambda^2)`` start of
:meth:`MpsState.expectation_pauli`, the ``diag(Lambda) theta`` of the next
update) or through column ``l`` of ``B_{k-1}`` (the products of
:meth:`MpsState.amplitude` and :meth:`MpsState.sample`), and that column is
itself non-zero only on rows of zero weight. A Schmidt vector of weight 0
contributes nothing to the state (Vidal, PRL 91, 147902 (2003)), and its
weight stays 0 under every later gate.

One-qubit gates act on the physical index of one ``B``. A two-qubit gate on
adjacent sites ``(q, q+1)`` forms ``theta = B_q B_{q+1}``, applies the 4x4
gate, and takes the SVD of ``diag(Lambda_{q-1}) theta``: its singular values
are the new ``Lambda_q`` (after truncation per the active policy), ``V+``
becomes ``B_{q+1}`` and ``theta V / |s|`` becomes ``B_q``, so nothing is
divided by a singular value (Hastings, J. Math. Phys. 50, 095207 (2009)).
Should the SVD not converge, ``s`` and ``V+`` come from ``eigh`` of the Gram
matrix instead. Non-adjacent pairs are routed together with SWAP chains and
routed back afterwards. Every contraction is a reshape plus a matrix product;
a Pauli expectation costs O(|support| chi^3) and touches only the string's
support. Only the two-site update changes tensor sizes, so it keeps the
stored entry count, its peak (the memory estimate) and the largest bond seen
up to date in O(1), from the sizes of the two sites and the one bond it
replaces.

:func:`sample_sequential` is the one sampling routine of both backends: it
draws one uniform variate per qubit per shot and walks the qubits once for a
whole block of shots. Shots that drew the same prefix share one prefix row of
``B`` products, so the matrix work at qubit ``k`` is O(G_k chi^2) for the G_k
distinct prefixes drawn so far (at most ``min(SHOT_BLOCK, 2^k)``), on top of
O(shots n) integer work; a block holds ``G x chi`` prefix entries and
``SHOT_BLOCK x n`` drawn bits at a time.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass
from math import sqrt
from typing import Any

import numpy as np

from .gates import (
    SWAP_MATRIX, check_gate, check_pauli, pauli_matrix, qubits_swapped, real_expectation,
)


@dataclass(frozen=True)
class TruncationPolicy:
    """Bond truncation rule applied after every two-site SVD.

    ``cutoff`` discards singular values below ``cutoff * s_max`` (relative
    mode, the default) or below ``cutoff`` itself (absolute mode); ``max_bond``
    then caps the bond dimension. At least one singular value is always kept.
    A value equal to the threshold is kept, so at cutoff 0 (threshold 0) an
    exactly-zero singular value is kept and counts as bond dimension.
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
        keep = max(int(np.count_nonzero(singular_values >= threshold)), 1)
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
        # sizes change only in apply_two_qubit_adjacent, which updates these
        self.entries = 2 * n  # complex entries held in the site tensors now
        self.peak_entries = self.entries
        self.max_bond_seen = 1

    def copy(self) -> MpsState:
        """A state that evolves apart from this one.

        The tensor and bond lists are new and the scalar counters copied; the
        arrays are shared, because no method writes into an array it holds.
        """
        other = copy.copy(self)
        other.site_tensors = list(self.site_tensors)
        other.bond_vectors = list(self.bond_vectors)
        return other

    def memory_estimate_bytes(self) -> int:
        """16 bytes per complex entry, at the peak over the run so far."""
        return 16 * self.peak_entries

    # -- gate application ----------------------------------------------------

    def apply_one_qubit(self, gate: np.ndarray, q: int) -> None:
        """Contract a 2x2 unitary into site ``q``; bonds are untouched."""
        check_gate(gate, (q,), self.n)
        self.site_tensors[q] = np.matmul(gate, self.site_tensors[q])

    def apply_two_qubit_adjacent(self, gate: np.ndarray, q: int) -> None:
        """Apply a 4x4 unitary to sites ``(q, q+1)`` via contract + SVD."""
        check_gate(gate, (q, q + 1), self.n)

        b_l, b_r = self.site_tensors[q], self.site_tensors[q + 1]
        dim_l, dim_r = b_l.shape[0], b_r.shape[2]
        # theta[(l s1), (s2 r)] = gate . B_q B_{q+1}; nothing right of it
        # enters, because B_{q+1} is right-canonical
        theta = b_l.reshape(2 * dim_l, -1) @ b_r.reshape(-1, 2 * dim_r)
        theta = np.matmul(gate, theta.reshape(dim_l, 4, dim_r)).reshape(2 * dim_l, 2 * dim_r)
        lam_l = self.bond_vectors[q - 1] if q > 0 else np.ones(1)
        # rows of theta are (l, s1): weight row pair l by Lambda_{q-1}[l]; V
        # then spans every row of theta that carries weight
        m = np.repeat(lam_l, 2)[:, np.newaxis] * theta
        try:
            _, s, vh = np.linalg.svd(m, full_matrices=False)
        except np.linalg.LinAlgError:
            s, vh = _svd_from_gram(m, q)

        keep = self.policy.keep_count(s)
        if keep < len(s):
            self.trunc_error_sq += float(np.sum(s[keep:] ** 2))
            s = s[:keep]
        norm = sqrt(s.dot(s))  # what np.linalg.norm computes for a real vector
        if norm == 0.0:
            raise RuntimeError(f"all singular values truncated on bond {q}")
        vh = vh[:keep]

        # B_q = theta V / |s| and B_{q+1} = V+: no division by Lambda
        b_l = theta @ vh.conj().T
        b_l /= norm
        self.site_tensors[q] = b_l.reshape(dim_l, 2, keep)
        self.site_tensors[q + 1] = vh.copy().reshape(keep, 2, dim_r)
        # only sites q, q+1 and bond q changed size
        self.entries += 2 * (dim_l + dim_r) * (keep - len(self.bond_vectors[q]))
        self.peak_entries = max(self.peak_entries, self.entries)
        self.max_bond_seen = max(self.max_bond_seen, keep)
        self.bond_vectors[q] = s / norm

    def apply_two_qubit_routed(self, gate: np.ndarray, q1: int, q2: int) -> None:
        """Apply a 4x4 unitary to arbitrary sites, SWAP-routing if needed.

        The higher-index qubit is moved down until adjacent to the lower one,
        the gate is applied, and reverse SWAPs restore the original ordering.
        """
        check_gate(gate, (q1, q2), self.n)
        lo, hi = min(q1, q2), max(q1, q2)
        for k in range(hi - 1, lo, -1):
            self.apply_two_qubit_adjacent(SWAP_MATRIX, k)
        # the first listed qubit sits at lo+1 if q1 > q2
        self.apply_two_qubit_adjacent(gate if q1 < q2 else qubits_swapped(gate), lo)
        for k in range(lo + 1, hi):
            self.apply_two_qubit_adjacent(SWAP_MATRIX, k)

    # -- queries -------------------------------------------------------------

    def amplitude(self, bits: str) -> complex:
        """<bits|psi>, with string position k addressing qubit k."""
        if len(bits) != self.n or any(b not in "01" for b in bits):
            raise ValueError(f"need a bitstring of length {self.n}, got {bits!r}")
        vec = np.ones(1, dtype=complex)
        for b, t in zip(bits, self.site_tensors):
            vec = vec @ t[:, int(b), :]
        return complex(vec[0])

    def expectation_pauli(self, pauli: str) -> float:
        """<psi|P|psi> for a Pauli string (one of IXYZ per qubit).

        Only sites ``first..last`` of the string's support are contracted,
        starting from ``diag(Lambda_{first-1}^2)`` on the left and closing
        with a trace, because the tensors are right-canonical on the support
        of ``Lambda``, which makes the rest of the chain an identity:
        O(|support| chi^3) instead of O(n chi^4). That form holds exactly at
        cutoff 0.
        After truncation both ends miss the discarded part, so the value
        deviates from the full normalised contraction of the stored tensors
        by up to about twice the discarded weight ``trunc_error_sq``
        (``2w / (1 - w)`` for a single truncation of weight ``w``).
        """
        check_pauli(pauli, self.n)
        support = [k for k, label in enumerate(pauli) if label != "I"]
        if not support:
            return 1.0
        first, last = support[0], support[-1]
        lam = self.bond_vectors[first - 1] if first > 0 else np.ones(1)
        env = np.diag(lam**2)
        for k in range(first, last + 1):
            op = None if pauli[k] == "I" else pauli_matrix(pauli[k])
            env = _transfer(env, self.site_tensors[k], op)
        return real_expectation(complex(np.trace(env)))

    def sample(self, shots: int, rng: np.random.Generator) -> dict[str, int]:
        """Draw full-register bitstrings with :func:`sample_sequential`.

        The carry of a distinct prefix is its row ``W = B_0[s_0] ... B_{k-1}[s_{k-1}]``;
        the weight of outcome ``s`` at qubit ``k`` is ``|W B_k[s]|^2``, exact
        because ``W`` is zero, up to rounding, where ``Lambda_{k-1}`` is, and
        ``B_k`` is right-canonical on the support of ``Lambda``. The carry at
        qubit ``k`` is a ``(G, chi)`` block with one row per distinct prefix
        drawn so far.
        """

        def split(k: int, prefix: np.ndarray):
            site = self.site_tensors[k]
            w0, w1 = prefix @ site[:, 0, :], prefix @ site[:, 1, :]
            return _row_norm_sq(w0), _row_norm_sq(w1), w0, w1

        return sample_sequential(self.n, shots, rng, np.ones((1, 1), dtype=complex), split)


def _svd_from_gram(m: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and ``V+`` of ``m`` from ``eigh`` of its Gram matrix
    ``m+ m``, for when the SVD of bond ``q`` fails to converge.

    The top ``min(m.shape)`` eigenpairs give ``s`` (descending) and ``V+``.
    The two-site update needs nothing else, so nothing divides by ``s``.
    Squaring costs accuracy: a singular value is good to about ``1e-8 s_max``
    instead of ``1e-16 s_max``, while ``V+`` stays orthonormal.
    """
    try:
        evals, evecs = np.linalg.eigh(m.conj().T @ m)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"SVD failed on bond {q}") from exc
    top = slice(None, -min(m.shape) - 1, -1)
    return np.sqrt(np.clip(evals[top], 0.0, None)), evecs[:, top].conj().T


def _row_norm_sq(rows: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", rows.conj(), rows).real


#: Shots walked through the chain together; bounds the per-shot arrays at
#: ``SHOT_BLOCK x n`` entries however many shots are drawn.
SHOT_BLOCK = 4096


def sample_sequential(
    n: int,
    shots: int,
    rng: np.random.Generator,
    start: Any,
    split: Callable[[int, Any], tuple[np.ndarray, np.ndarray, Any, Any]],
) -> dict[str, int]:
    """Sequential conditional sampling of ``shots`` bitstrings over ``n`` qubits.

    Shots that have drawn the same prefix share a *group*, and the carry holds
    one row per group, in lexicographic order of the prefixes; ``start`` is
    the one-row carry of the empty prefix. ``split(k, carry)`` returns, per
    group, the weights ``w0, w1`` of outcome 0 and 1 at qubit ``k`` given the
    prefix, and the carry rows of the prefix extended by each outcome. So
    ``split`` sees at most ``min(block, 2^k)`` rows at qubit ``k`` (one sampling
    step per distinct prefix, Ferris and Vidal, PRB 85, 165146 (2012)), and
    per shot only integer work is done. Qubit ``k`` reads 1 when its uniform
    variate is at least ``w0 / (w0 + w1)`` (0.5 when both weights are 0).
    Variates are drawn as ``rng.random((block, n))`` for consecutive blocks of
    at most ``SHOT_BLOCK`` shots: one per qubit per shot, shot-major, the same
    stream as one ``rng.random()`` call per qubit per shot. Keys of the
    returned counts are bitstrings with position ``k`` for qubit ``k``; each
    block adds its keys in sorted order.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    counts: dict[str, int] = {}
    for done in range(0, shots, SHOT_BLOCK):
        draws = rng.random((min(SHOT_BLOCK, shots - done), n))
        bits = np.empty(draws.shape, dtype=np.uint8)
        group = np.zeros(len(draws), dtype=np.intp)
        carry = start
        for k in range(n):
            w0, w1, carry0, carry1 = split(k, carry)
            total = w0 + w1
            p0 = np.divide(w0, total, out=np.full(total.shape, 0.5), where=total > 0)
            one = draws[:, k] >= p0[group]
            bits[:, k] = one
            # prefix s + b becomes code 2 * group + b; numbering the codes that
            # occur in ascending order keeps the groups in lexicographic order
            code = 2 * group + one
            seen = np.zeros(2 * len(total), dtype=bool)
            seen[code] = True
            group = (np.cumsum(seen) - 1)[code]
            both = np.stack((carry0, carry1), axis=1)
            carry = both.reshape(-1, *both.shape[2:])[seen]
        # every shot of a group has the same bits: read one representative
        first = np.empty(len(carry), dtype=np.intp)
        first[group] = np.arange(len(group))
        keys = (bits[first] + ord("0")).view(f"S{n}").ravel()
        tallies = np.bincount(group)
        for key, tally in zip(keys.astype(str).tolist(), tallies.tolist()):
            counts[key] = counts.get(key, 0) + tally
    return counts
