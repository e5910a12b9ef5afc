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
``Lambda_{k-1}[l]`` (the ``Lambda^2`` row weight that starts
:meth:`MpsState.expectation_pauli`, the ``diag(Lambda) theta`` of the next
update) or through column ``l`` of ``B_{k-1}`` (the products of
:meth:`MpsState.amplitude` and :meth:`MpsState.sample`), and that column is
itself non-zero only on rows of zero weight. A Schmidt vector of weight 0
contributes nothing to the state (Vidal, PRL 91, 147902 (2003)), and its
weight stays 0 under every later gate.

One-qubit gates act on the physical index of one ``B``. A two-qubit gate on
adjacent sites ``(q, q+1)`` forms ``theta = B_q B_{q+1}``, applies the 4x4
gate (``SWAP_MATRIX`` as a transpose of the two physical indices of
``theta``, which moves entries and computes nothing), and takes the SVD of
``diag(Lambda_{q-1}) theta`` (of ``theta`` itself at bond 0, where
``Lambda_{-1} = 1`` and no weight is applied): its singular values
are the new ``Lambda_q`` (after truncation per the active policy), ``V+``
becomes ``B_{q+1}`` and ``theta V / |s|`` becomes ``B_q``, so nothing is
divided by a singular value (Hastings, J. Math. Phys. 50, 095207 (2009)).
A table CNOT or CZ, ``|0><0| (x) I + |1><1| (x) T``, has operator-Schmidt
rank 2, so ``m = diag(Lambda_{q-1}) theta`` has rank at most ``2 dim_m``
(``dim_m`` the old bond ``q``). When ``side = min(2 dim_l, 2 dim_r)`` is at
least ``CORE_FLOOR`` and ``2 min(dim_l, dim_m) < side``, the SVD is taken of
the core ``[R_0 C_0; R_1 C_1]`` instead, with ``R_s`` from the QR of
``diag(Lambda_{q-1}) B_q[:, s, :]`` and ``C_s = T^s B_{q+1}``: it has the
singular values and ``V+`` of ``m``, which are padded with exact zeros up to
``side`` (the QR-based update of Unfried, Hauschild and Pollmann, PRB 107,
155133 (2023)).
Should the SVD not converge, ``s`` and ``V+`` come from ``eigh`` of the Gram
matrix instead. :meth:`MpsState.apply_two_qubit_routed` takes a gate on any
pair: a forward neighbour pair ``(q, q+1)`` goes straight to that update, and
a non-adjacent pair is brought together by a SWAP chain that moves the qubit
with the smaller outer bond, and routed back afterwards.
Apart from those QRs and the SWAP transpose, every contraction is a reshape
plus a matrix product, and ``Lambda`` weights rows by one broadcast. A Pauli
expectation weights the rows of its first site by ``Lambda^2`` and applies
each factor by moving entries of the site tensor, which is exact because a
Pauli matrix is a permutation with signs and phases; it costs
O(|support| chi^3) and touches only the string's support. Only the two-site
update changes tensor sizes. It is a pure factorisation, :func:`_two_site`,
that reads the two sites and the bond to their left and writes nothing, and
then one commit, the only code that writes the two sites, the bond and the
four counters: the discarded weight, the stored entry count, its peak (the
memory estimate) and the largest bond seen, each in O(1).

:func:`sample_sequential` is the one sampling routine of both backends: it
draws one uniform variate per qubit per shot and walks the qubits once for a
whole block of shots. Shots that drew the same prefix share one prefix row of
``B`` products, so the matrix work at qubit ``k`` is one product of the G_k
distinct prefixes drawn so far (at most ``min(SHOT_BLOCK, 2^k)``) with ``B_k``,
O(G_k chi^2), on top of O(shots n) integer work; a block holds ``2G x chi``
prefix entries and ``SHOT_BLOCK x n`` drawn bits at a time.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass
from math import sqrt
from numbers import Real
from typing import Any

import numpy as np

from .gates import (
    CONTROLLED_TARGETS, SWAP_MATRIX, check_count, check_gate, check_pauli, qubits_swapped,
    real_expectation,
)

#: Smallest ``side`` at which a CNOT or CZ update takes the SVD of its core,
#: the measured crossover: below it the QR costs more than the smaller SVD saves
CORE_FLOOR = 32


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
        cutoff = self.cutoff  # np.bool_ is not Real; a bool is, but is no cutoff
        if isinstance(cutoff, bool) or not isinstance(cutoff, Real) or not 0 <= cutoff < np.inf:
            raise ValueError(f"cutoff must be a finite number >= 0, got {cutoff!r}")
        if not isinstance(self.relative, (bool, np.bool_)):
            raise ValueError(f"relative must be a bool, got {self.relative!r}")
        if self.max_bond is not None:
            check_count("max_bond", self.max_bond)

    def keep_count(self, singular_values: np.ndarray) -> int:
        threshold = self.cutoff * (singular_values[0] if self.relative else 1.0)
        keep = max(int(np.count_nonzero(singular_values >= threshold)), 1)
        return keep if self.max_bond is None else min(keep, self.max_bond)


#: ``P b`` for each Pauli label ``P``, by moving entries along the physical
#: axis of the site tensor ``b``: X reverses it, Z negates the ``s = 1`` slice,
#: and Y does both with phases ``-i`` and ``+i``. The factors are complex, so
#: no call casts them.
_Y_PHASES = np.array([[-1j], [1j]])
_Z_SIGNS = np.array([[1], [-1]], dtype=complex)
_PAULI_MOVES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "I": lambda b: b,
    "X": lambda b: b[:, ::-1],
    "Y": lambda b: b[:, ::-1] * _Y_PHASES,
    "Z": lambda b: b * _Z_SIGNS,
}


class MpsState:
    """Right-canonical factorized wavefunction over ``n`` qubits, initially |0...0>.

    ``site_tensors[k]`` holds ``B_k = Gamma_k * Lambda_k`` and
    ``bond_vectors[k]`` the singular values ``Lambda_k`` between sites ``k``
    and ``k+1``.
    """

    def __init__(self, n: int, policy: TruncationPolicy | None = None):
        check_count("n", n)
        self.n = n
        self.policy = policy or TruncationPolicy()
        self.site_tensors = [
            np.array([1.0, 0.0], dtype=complex).reshape(1, 2, 1) for _ in range(n)
        ]
        self.bond_vectors = [np.ones(1) for _ in range(n - 1)]
        self.trunc_error_sq = 0.0
        # sizes change only in the commit of apply_two_qubit_adjacent, which updates these
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
        """Apply a 4x4 unitary to sites ``(q, q+1)`` via contract + SVD.

        :func:`_two_site` computes the new ``B_q``, ``B_{q+1}`` and
        ``Lambda_q`` and the discarded weight without writing anything; only
        then does the commit below write the two sites, the bond and the
        four counters, so an update that raises leaves the state as it was.
        """
        check_gate(gate, (q, q + 1), self.n)
        b_l, b_r, bond, discarded = _two_site(
            gate, self.site_tensors[q], self.site_tensors[q + 1],
            self.bond_vectors[q - 1] if q > 0 else None, self.policy, q)
        # the commit: only sites q, q+1 and bond q changed size
        self.site_tensors[q], self.site_tensors[q + 1] = b_l, b_r
        self.trunc_error_sq += discarded
        self.entries += 2 * (len(b_l) + b_r.shape[2]) * (len(bond) - len(self.bond_vectors[q]))
        self.peak_entries = max(self.peak_entries, self.entries)
        self.max_bond_seen = max(self.max_bond_seen, len(bond))
        self.bond_vectors[q] = bond

    def apply_two_qubit_routed(self, gate: np.ndarray, q1: int, q2: int) -> None:
        """Apply a 4x4 unitary to any pair of sites, SWAP-routing if needed.

        This is the two-qubit gate method of the backend contract. A forward
        neighbour pair ``(q, q+1)`` goes straight to
        :meth:`apply_two_qubit_adjacent`, which checks it, before any routing
        arithmetic; a reversed neighbour pair is one update of the
        qubit-swapped gate. At distance ``d > 1`` one qubit is SWAPped next to
        the other, the gate is applied, and the same SWAPs in reverse restore
        the order: ``2d-1`` adjacent updates, the gate at index ``d-1``. The
        lower qubit moves up if its left bond is strictly smaller than the
        upper qubit's right bond, else the upper one moves down: a moving
        qubit drags its outer correlations across the bonds it passes, so the
        smaller ones cost less.
        """
        if q2 == q1 + 1:
            return self.apply_two_qubit_adjacent(gate, q1)
        check_gate(gate, (q1, q2), self.n)
        lo, hi = min(q1, q2), max(q1, q2)
        swaps, at = range(hi - 1, lo, -1), lo
        if hi - lo > 1 and self.site_tensors[lo].shape[0] < self.site_tensors[hi].shape[2]:
            swaps, at = range(lo, hi - 1), hi - 1
        for k in swaps:
            self.apply_two_qubit_adjacent(SWAP_MATRIX, k)
        # either way the lower qubit sits at site `at`: the first listed one if q1 < q2
        self.apply_two_qubit_adjacent(gate if q1 < q2 else qubits_swapped(gate), at)
        for k in reversed(swaps):
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
        starting from ``Lambda_{first-1}^2`` as a weight on the rows of site
        ``first`` and closing with a trace, because the tensors are
        right-canonical on the support of ``Lambda``, which makes the rest of
        the chain an identity: O(|support| chi^3) instead of O(n chi^4). That
        form holds exactly at cutoff 0.
        After truncation both ends miss the discarded part, so the value
        deviates from the full normalised contraction of the stored tensors
        by up to about twice the discarded weight ``trunc_error_sq``
        (``2w / (1 - w)`` for a single truncation of weight ``w``).

        Each factor ``P`` acts on the physical axis of its site by moving
        entries (``_PAULI_MOVES``), not by a matrix product: a Pauli matrix
        is a permutation with signs and phases, so every entry of ``P B`` is
        an entry of ``B`` times 1, -1, i or -i, the same float either way.
        Likewise the row weight leaves out only the zero terms of a product
        with ``diag(Lambda^2)``. So the value is the float that the matrix
        products give.
        """
        check_pauli(pauli, self.n)
        body = pauli.lstrip("I")
        if not body:
            return 1.0
        first = self.n - len(body)
        lam = self.bond_vectors[first - 1] if first > 0 else np.ones(1)
        env = None
        # env[r, r'] = sum conj(b[a, s, r]) env[a, a'] (P b)[a', s, r'], two
        # matmuls a site; at the first site Lambda^2 weights the rows of P b
        for label, b in zip(body.rstrip("I"), self.site_tensors[first:]):
            dim_l, _, dim_r = b.shape
            ket = _PAULI_MOVES[label](b).reshape(dim_l, 2 * dim_r)
            half = (lam * lam)[:, np.newaxis] * ket if env is None else env @ ket
            env = b.reshape(2 * dim_l, dim_r).conj().T @ half.reshape(2 * dim_l, dim_r)
        return real_expectation(complex(env.trace()))

    def sample(
        self, shots: int, rng: np.random.Generator, upto: int | None = None
    ) -> dict[str, int]:
        """Draw bitstrings of qubits ``0..upto-1`` (default: the whole
        register) with :func:`sample_sequential`.

        The carry of a distinct prefix is its row ``W = B_0[s_0] ... B_{k-1}[s_{k-1}]``;
        the weight of outcome ``s`` at qubit ``k`` is ``|W B_k[s]|^2``, exact
        because ``W`` is zero, up to rounding, where ``Lambda_{k-1}`` is, and
        ``B_k`` is right-canonical on the support of ``Lambda``. ``split``
        multiplies the ``(G, chi)`` carry by ``B_k`` read as a
        ``(chi_l, 2 chi_r)`` matrix: read as ``(2G, chi_r)``, the product holds
        the new carry rows ``W B_k[0], W B_k[1]`` of each prefix in turn, and
        their squared norms are the weights.

        A prefix's weight is its probability, which shrinks along the chain
        and would underflow to 0 on a long register. So when the smallest
        positive weight of a step is below ``_RESCALE_BELOW``, each new carry
        row is scaled by ``2^(-e//2)``, ``e`` the binary exponent of its own
        weight: both children of a prefix then carry the same factor, so the
        ratio ``w0 / (w0 + w1)`` is kept, and a power of two scales exactly,
        so nothing changes where nothing would have underflowed.
        """

        def split(k: int, prefix: np.ndarray):
            site = self.site_tensors[k]
            rows = (prefix @ site.reshape(len(site), -1)).reshape(-1, site.shape[2])
            weights = _row_norm_sq(rows)
            # an outcome of weight 0 is never drawn, so zeros ask for no
            # rescale; the plain minimum, half the cost, settles most steps
            if (weights.min() < _RESCALE_BELOW
                    and weights.min(initial=1.0, where=weights > 0) < _RESCALE_BELOW):
                rows = rows * np.ldexp(1.0, -(np.frexp(weights)[1] // 2))[:, np.newaxis]
            return weights.reshape(-1, 2), rows

        return sample_sequential(self.n, shots, rng, np.ones((1, 1), dtype=complex), split, upto)


def _two_site(
    gate: np.ndarray, b_l: np.ndarray, b_r: np.ndarray, lam_l: np.ndarray | None,
    policy: TruncationPolicy, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The factorisation of :meth:`MpsState.apply_two_qubit_adjacent`: the new
    ``B_q``, ``B_{q+1}`` and ``Lambda_q`` from ``gate``, ``b_l = B_q``,
    ``b_r = B_{q+1}`` and ``lam_l = Lambda_{q-1}`` (``None`` at bond 0), and the
    discarded weight, 0.0 when nothing is truncated. It reads only its
    arguments and writes none of them; ``q`` only names the bond in errors.

    ``theta = B_q B_{q+1}`` takes the gate as a matrix product on its
    physical pair, except ``SWAP_MATRIX`` (recognised by identity, so a
    copy takes the product), which transposes the two physical indices.
    Row pair ``l`` of ``theta`` is then weighted by ``Lambda_{q-1}[l]``,
    except at bond 0. A table CNOT or CZ takes the SVD of its rank-2 core when
    ``side = min(2 dim_l, 2 dim_r) >= CORE_FLOOR`` and
    ``2 min(dim_l, dim_m) < side``, and pads the spectrum with exact
    zeros up to ``side``, so cutoff 0 keeps the chi that the whole
    matrix gives. Every other update takes the SVD of the whole matrix.
    """
    dim_l, dim_m, dim_r = b_l.shape[0], b_r.shape[0], b_r.shape[2]
    side = 2 * min(dim_l, dim_r)
    # Lambda_{-1} = 1 weighs nothing; the core needs dim_l >= 16, so never runs at bond 0
    core = (side >= CORE_FLOOR and 2 * min(dim_l, dim_m) < side
            and id(gate) in CONTROLLED_TARGETS)
    if core:
        # row block s of diag(Lambda_{q-1}) theta is A_s C_s, with
        # A_s = diag(Lambda_{q-1}) B_q[:, s, :] and C_s = target^s B_{q+1};
        # A_s = Q_s R_s leaves s and V+ to the SVD of [R_0 C_0; R_1 C_1]
        target = CONTROLLED_TARGETS[id(gate)]
        c = np.stack((b_r, np.matmul(target, b_r))).reshape(2, dim_m, 2 * dim_r)
        r = np.linalg.qr(lam_l[:, np.newaxis] * b_l.transpose(1, 0, 2), mode="r")
        m = (r @ c).reshape(-1, 2 * dim_r)
    else:
        # theta[(l s1), (s2 r)] = gate . B_q B_{q+1}; nothing right of it
        # enters, because B_{q+1} is right-canonical
        theta = b_l.reshape(2 * dim_l, -1) @ b_r.reshape(-1, 2 * dim_r)
        if gate is SWAP_MATRIX:  # a permutation of (s1, s2): no arithmetic
            theta = theta.reshape(dim_l, 2, 2, dim_r).transpose(0, 2, 1, 3)
        else:
            theta = np.matmul(gate, theta.reshape(dim_l, 4, dim_r))
        theta = theta.reshape(2 * dim_l, 2 * dim_r)
        # rows of theta are (l, s1): weight row pair l by Lambda_{q-1}[l];
        # V then spans every row of theta that carries weight
        m = theta if lam_l is None else (
            theta.reshape(dim_l, -1) * lam_l[:, np.newaxis]).reshape(theta.shape)
    try:  # U is never used: drop it, and m, before the new tensors are built
        s, vh = np.linalg.svd(m, full_matrices=False)[1:]
    except np.linalg.LinAlgError:
        s, vh = _svd_from_gram(m, q)
    del m
    if len(s) < side:  # the core: the other singular values are exactly 0
        s = np.concatenate((s, np.zeros(side - len(s))))

    keep, discarded = policy.keep_count(s), 0.0
    if keep < len(s):
        tail = s[keep:]
        discarded = float(np.add.reduce(tail * tail))  # np.sum's reduction, same bits
        s, vh = s[:keep], vh[:keep]
    norm = sqrt(s.dot(s))  # what np.linalg.norm computes for a real vector
    if norm == 0.0:
        raise RuntimeError(f"all singular values truncated on bond {q}")

    # B_q = theta V / |s| and B_{q+1} = V+: no division by Lambda
    if core:  # block s of B_q is B_q[:, s, :] C_s V / |s|
        if len(vh) < keep:  # kept zeros of the core: rows of weight 0 in B_{q+1}
            vh = np.concatenate((vh, np.zeros((keep - len(vh), 2 * dim_r), vh.dtype)))
        b_l = (b_l.transpose(1, 0, 2) @ (c @ vh.conj().T)).transpose(1, 0, 2).copy()
    else:
        b_l = (theta @ vh.conj().T).reshape(dim_l, 2, keep)
    b_l /= norm
    return b_l, vh.copy().reshape(keep, 2, dim_r), s / norm, discarded


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


#: Smallest positive prefix weight that :meth:`MpsState.sample` carries
#: unscaled: far above the subnormal range (below 2^-1022), where weights
#: start to lose bits
_RESCALE_BELOW = 2.0**-500


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
    split: Callable[[int, Any], tuple[np.ndarray, Any]],
    upto: int | None = None,
) -> dict[str, int]:
    """Sequential conditional sampling of ``shots`` bitstrings over qubits
    ``0..upto-1`` of ``n`` (by default all ``n``).

    Shots that have drawn the same prefix share a *group*, and the carry holds
    one row per group, in lexicographic order of the prefixes; ``start`` is
    the one-row carry of the empty prefix. ``split(k, carry)`` returns
    ``(weights, rows)``: ``weights[g]`` holds the weights ``w0, w1`` of
    outcome 0 and 1 at qubit ``k`` given the prefix of group ``g``, and
    ``rows[2g + b]`` the carry row of that prefix extended by ``b``. A shot of
    group ``g`` that reads ``b`` moves to row ``2g + b``; only when some row
    went undrawn are the drawn rows kept and renumbered in order. So ``split``
    sees at most ``min(block, 2^k)`` rows at qubit ``k`` (one sampling step
    per distinct prefix, Ferris and Vidal, PRB 85, 165146 (2012)), and per
    shot only integer work is done. Qubit ``k`` reads 1 when its uniform
    variate is at least ``w0 / (w0 + w1)`` (0.5 when both weights are 0).
    Variates are drawn as ``rng.random((block, n))`` for consecutive blocks of
    at most ``SHOT_BLOCK`` shots: one per qubit per shot, shot-major, the same
    stream as one ``rng.random()`` call per qubit per shot. The walk stops
    after qubit ``upto - 1``, but every block still draws all ``n`` variates
    of each shot, and bit ``k`` depends only on its own variate and the bits
    before it: so a short walk draws the prefixes that the full walk draws,
    and the generator ends in the same place. Keys of the returned counts are
    bitstrings of length ``upto`` with position ``k`` for qubit ``k``; each
    block adds its keys in sorted order.
    """
    check_count("shots", shots)
    walk = n if upto is None else upto
    if not 1 <= walk <= n:
        raise ValueError(f"upto must be in 1..{n}, got {upto}")
    check_count("upto", walk)
    counts: dict[str, int] = {}
    for done in range(0, shots, SHOT_BLOCK):
        # one row per qubit, so that each step reads and writes contiguous rows
        draws = rng.random((min(SHOT_BLOCK, shots - done), n)).T[:walk].copy()
        bits = np.empty(draws.shape, dtype=np.uint8)
        group = np.zeros(draws.shape[1], dtype=np.intp)
        carry = start
        for k in range(walk):
            weights, carry = split(k, carry)
            total = weights[:, 0] + weights[:, 1]
            # an outcome of weight 0 is never drawn, so a total of 0 needs a
            # drawn prefix whose weight underflowed. Neither sampler lets that
            # happen: MpsState rescales its carry rows before they underflow,
            # and DenseState reads absolute marginals of |amps|^2, where a
            # drawn prefix always has a child of positive weight. So the tie
            # value 0.5 is only a guard against dividing by 0
            p0 = np.divide(weights[:, 0], total, out=np.full(total.shape, 0.5), where=total > 0)
            one = draws[k] >= p0[group]
            bits[k] = one
            # prefix s + b is row 2 * group + b of the new carry
            group = 2 * group + one
            seen = np.zeros(len(carry), dtype=bool)
            seen[group] = True
            if not seen.all():
                # numbering the drawn rows in ascending order keeps the groups
                # in lexicographic order
                group = (np.cumsum(seen) - 1)[group]
                carry = carry[seen]
        # every shot of a group has the same bits: read one representative
        first = np.empty(len(carry), dtype=np.intp)
        first[group] = np.arange(len(group))
        keys = (bits.T[first] + ord("0")).view(f"S{walk}").ravel()
        tallies = np.bincount(group)
        for key, tally in zip(keys.astype(str).tolist(), tallies.tolist()):
            counts[key] = counts.get(key, 0) + tally
    return counts
