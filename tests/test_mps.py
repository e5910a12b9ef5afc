import copy
import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsqvm import (
    DenseState,
    GateKind,
    Instruction,
    MpsState,
    RoundCircuitSpec,
    TruncationPolicy,
    dense_run,
    execute,
    generate_round_circuit,
    run_program,
)
from mpsqvm import dense as dense_module
from mpsqvm import mps as mps_module
from mpsqvm.backends import BACKENDS, readout
from mpsqvm.gates import SWAP_MATRIX, apply_program, gate_matrix, pauli_matrix
from mpsqvm.ir import IrError, num_qubits
from mpsqvm.mps import SHOT_BLOCK, sample_sequential
from tests.conftest import (
    ONE_QUBIT_KINDS,
    TWO_QUBIT_KINDS,
    assert_right_canonical,
    bell_program,
    ghz3_program,
    max_bond,
    mps_statevector,
    random_program,
    reference_expectation,
)

EXACT = TruncationPolicy(cutoff=0.0)

H = gate_matrix(Instruction(GateKind.H, (0,)))
X = gate_matrix(Instruction(GateKind.X, (0,)))
CNOT = gate_matrix(Instruction(GateKind.CNOT, (0, 1)))


class TestInitProductState:
    def test_three_qubit_amplitudes(self):
        state = MpsState(3)
        for bits in ["000", "001", "010", "100", "111"]:
            expected = 1.0 if bits == "000" else 0.0
            assert state.amplitude(bits) == pytest.approx(expected)

    def test_single_site_tensor(self):
        state = MpsState(1)
        assert state.site_tensors[0].shape == (1, 2, 1)
        np.testing.assert_allclose(state.site_tensors[0].reshape(2), [1, 0])

    def test_memory_estimate_85_qubits(self):
        assert MpsState(85).memory_estimate_bytes() == 16 * 2 * 85 == 2720

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            MpsState(0)


class TestOneQubitGates:
    def test_x_flips(self):
        state = MpsState(1)
        state.apply_one_qubit(X, 0)
        assert state.amplitude("1") == pytest.approx(1.0)

    def test_h_superposition(self):
        state = MpsState(1)
        state.apply_one_qubit(H, 0)
        assert state.amplitude("0") == pytest.approx(1 / np.sqrt(2))
        assert state.amplitude("1") == pytest.approx(1 / np.sqrt(2))

    def test_rz_phase_only(self):
        state = MpsState(1)
        rz = gate_matrix(Instruction(GateKind.RZ, (0,), (1.234,)))
        state.apply_one_qubit(rz, 0)
        assert abs(state.amplitude("0")) == pytest.approx(1.0)

    def test_bonds_untouched(self, rng):
        program = random_program(5, 20, rng)
        state = run_program(program, 5, "mps", EXACT)
        bonds_before = [len(v) for v in state.bond_vectors]
        state.apply_one_qubit(H, 2)
        assert [len(v) for v in state.bond_vectors] == bonds_before

    def test_non_unitary_rejected(self):
        state = MpsState(2)
        with pytest.raises(ValueError, match="unitary"):
            state.apply_one_qubit(np.array([[1.0, 0.0], [0.0, 2.0]]), 0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("fill", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, fill):
        with pytest.raises(ValueError, match="unitary"):
            MpsState(2).apply_one_qubit(np.full((2, 2), fill, dtype=complex), 0)
        with pytest.raises(ValueError, match="unitary"):
            MpsState(2).apply_two_qubit_adjacent(np.full((4, 4), fill, dtype=complex), 0)

    def test_out_of_range_site(self):
        with pytest.raises(ValueError):
            MpsState(2).apply_one_qubit(X, 2)


class TestTwoQubitAdjacent:
    def test_bell_schmidt_vector(self):
        state = MpsState(2, EXACT)
        state.apply_one_qubit(H, 0)
        state.apply_two_qubit_adjacent(CNOT, 0)
        np.testing.assert_allclose(state.bond_vectors[0], [1 / np.sqrt(2)] * 2)
        assert state.amplitude("00") == pytest.approx(1 / np.sqrt(2))
        assert state.amplitude("11") == pytest.approx(1 / np.sqrt(2))

    def test_product_in_product_out(self):
        state = MpsState(2, TruncationPolicy(1e-4))
        state.apply_one_qubit(X, 0)
        state.apply_two_qubit_adjacent(CNOT, 0)
        assert state.amplitude("11") == pytest.approx(1.0)
        assert max_bond(state) == 1

    def test_double_cnot_returns_to_product(self):
        state = MpsState(2, TruncationPolicy(1e-4))
        state.apply_one_qubit(H, 0)
        state.apply_two_qubit_adjacent(CNOT, 0)
        state.apply_two_qubit_adjacent(CNOT, 0)
        # verified against the dense oracle: (H x I)|00>
        assert state.amplitude("00") == pytest.approx(1 / np.sqrt(2))
        assert state.amplitude("10") == pytest.approx(1 / np.sqrt(2))
        assert max_bond(state) == 1

    def test_right_boundary_rejected(self):
        with pytest.raises(ValueError):
            MpsState(2).apply_two_qubit_adjacent(CNOT, 1)

    def test_sites_hold_no_larger_buffer(self, rng):
        """A truncated update stores a copy of the kept rows of ``V+`` as
        ``B_{q+1}``, not a view that keeps the SVD's whole output alive."""
        state = run_program(random_program(6, 40, rng), 6, "mps", TruncationPolicy(0.0, max_bond=2))
        assert state.trunc_error_sq > 0
        for tensor in state.site_tensors:
            root = tensor
            while root.base is not None:
                root = root.base
            assert root.nbytes == tensor.nbytes


class TestRouting:
    def test_distant_cnot_product_state(self):
        program = [
            Instruction(GateKind.X, (0,)),
            Instruction(GateKind.CNOT, (0, 2)),
        ]
        state = run_program(program, 3, "mps", EXACT)
        assert state.amplitude("101") == pytest.approx(1.0)

    def test_distant_cnot_superposed_control(self):
        program = [
            Instruction(GateKind.H, (0,)),
            Instruction(GateKind.CNOT, (0, 2)),
        ]
        state = run_program(program, 3, "mps", EXACT)
        assert state.amplitude("000") == pytest.approx(1 / np.sqrt(2))
        assert state.amplitude("101") == pytest.approx(1 / np.sqrt(2))

    def test_reversed_qubit_order(self):
        program = [
            Instruction(GateKind.X, (2,)),
            Instruction(GateKind.CNOT, (2, 0)),
        ]
        state = run_program(program, 3, "mps", EXACT)
        assert state.amplitude("101") == pytest.approx(1.0)

    def test_fidelity_vs_oracle_distance3(self, rng):
        from mpsqvm import dense_run

        for _ in range(5):
            program = random_program(5, 25, rng)
            program.append(Instruction(GateKind.CNOT, (0, 3)))
            mps = run_program(program, 5, "mps", EXACT)
            dense = dense_run(program, 5)
            fidelity = abs(np.vdot(dense.amps, mps_statevector(mps))) ** 2
            assert fidelity >= 1 - 1e-10

    def test_routing_neutral_ordering_exhaustive(self, rng):
        from itertools import product

        from mpsqvm import dense_run

        program = random_program(6, 12, rng, two_qubit_prob=0.0)
        program += [
            Instruction(GateKind.CNOT, (5, 1)),
            Instruction(GateKind.CZ, (0, 4)),
        ]
        mps = run_program(program, 6, "mps", EXACT)
        dense = dense_run(program, 6)
        for bits in product("01", repeat=6):
            key = "".join(bits)
            assert mps.amplitude(key) == pytest.approx(dense.amps[int(key, 2)], abs=1e-10)

    def test_same_site_rejected(self):
        with pytest.raises(ValueError):
            MpsState(3).apply_two_qubit_routed(CNOT, 1, 1)


def long_range_program(n: int) -> list[Instruction]:
    """The ``run`` benchmark's circuit family at ``t0 = 0.37``: per qubit an
    ``RY`` at a seeded angle and an ``RZ(0.37)``, a CNOT ladder, the
    wrap-around ``CNOT n-1 0``, then ``CZ 0 k`` for every ``k``."""
    rng = np.random.default_rng(n)
    program = []
    for q in range(n):
        program += [Instruction(GateKind.RY, (q,), (float(rng.uniform(0.0, 2.0 * np.pi)),)),
                    Instruction(GateKind.RZ, (q,), (0.37,))]
    program += [Instruction(GateKind.CNOT, (a, a + 1)) for a in range(n - 1)]
    program.append(Instruction(GateKind.CNOT, (n - 1, 0)))
    return program + [Instruction(GateKind.CZ, (0, k)) for k in range(1, n)]


class TestMirroredRouting:
    """An exact check of non-Clifford routing above the dense cap. Mapping
    every qubit ``q`` to ``n-1-q`` must map the value of every Pauli string to
    that of the reversed string. The mirror sends each routed gate down the
    other branch of the router (the upper qubit moves down instead of the
    lower one moving up), so the two branches check each other."""

    @pytest.mark.parametrize("n", [12, 28, 40, 60])
    def test_mirrored_program_gives_reversed_strings(self, n):
        program = long_range_program(n)
        mirrored = [dataclasses.replace(g, qubits=tuple(n - 1 - q for q in g.qubits))
                    for g in program]
        policy = TruncationPolicy(cutoff=1e-12)
        state, image = (run_program(p, n, "mps", policy) for p in (program, mirrored))
        for a in range(n - 1):
            for label in "ZXY":
                pauli = "I" * a + label + "Z" + "I" * (n - a - 2)
                assert image.expectation_pauli(pauli[::-1]) == pytest.approx(
                    state.expectation_pauli(pauli), abs=1e-12), pauli


class RecordedMps(MpsState):
    """Records ``(bond, is_swap)`` for every adjacent update."""

    def __init__(self, n, policy=EXACT):
        super().__init__(n, policy)
        self.calls = []

    def apply_two_qubit_adjacent(self, gate, q):
        self.calls.append((q, gate is SWAP_MATRIX))
        super().apply_two_qubit_adjacent(gate, q)


def _entangled(n: int, bonds) -> RecordedMps:
    """|0...0> with a Bell pair across each listed bond: that bond is 2, the others 1."""
    state = RecordedMps(n)
    for q in bonds:
        state.apply_one_qubit(H, q)
        state.apply_two_qubit_adjacent(CNOT, q)
    state.calls.clear()
    return state


def _random_unitary(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestRoutingDirection:
    """A routed gate moves the lower qubit up when its left bond is strictly
    smaller than the upper qubit's right bond, and the upper qubit down
    otherwise; either way it makes 2d-1 adjacent updates, the gate in the middle."""

    @pytest.mark.parametrize("n, bell_bonds, lo, hi, bonds", [
        # up: bond lo-1 < bond hi, also with lo = 0
        (5, [3], 0, 3, [0, 1, 2, 1, 0]),
        (6, [4], 1, 4, [1, 2, 3, 2, 1]),
        (8, [6], 1, 6, [1, 2, 3, 4, 5, 4, 3, 2, 1]),
        # down: bond hi < bond lo-1, also with hi = n-1
        (6, [1], 2, 5, [4, 3, 2, 3, 4]),
        (7, [0], 1, 4, [3, 2, 1, 2, 3]),
        # ties move the upper qubit down
        (6, [], 1, 4, [3, 2, 1, 2, 3]),
        (6, [0, 4], 1, 4, [3, 2, 1, 2, 3]),
        (4, [], 0, 3, [2, 1, 0, 1, 2]),
        # an adjacent gate is not routed, whatever its outer bonds
        (5, [3], 1, 2, [1]),
    ], ids=["up-lo0", "up", "up-d5", "down-hi-last", "down", "tie-1", "tie-2", "tie-ends",
            "adjacent"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["q1<q2", "q1>q2"])
    def test_adjacent_calls(self, n, bell_bonds, lo, hi, bonds, reverse):
        state = _entangled(n, bell_bonds)
        q1, q2 = (hi, lo) if reverse else (lo, hi)
        state.apply_two_qubit_routed(CNOT, q1, q2)
        d = hi - lo
        assert [q for q, _ in state.calls] == bonds
        assert [swap for _, swap in state.calls] == [i != d - 1 for i in range(2 * d - 1)]

    @pytest.mark.parametrize("direction", ["up", "down"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["q1<q2", "q1>q2"])
    @pytest.mark.parametrize("gate", ["CNOT", "random"])
    @pytest.mark.parametrize("n", [6, 8])
    def test_fidelity_vs_oracle(self, direction, reverse, gate, n):
        """Random gates on every bond except one outer bond, which stays 1 and
        so picks the direction; then one routed gate across the middle."""
        lo, hi = 1, n - 2
        skipped = lo - 1 if direction == "up" else hi
        rng = np.random.default_rng([n, direction == "up", reverse, gate == "CNOT"])
        matrix = CNOT if gate == "CNOT" else _random_unitary(rng)
        mps, dense = RecordedMps(n), DenseState(n)
        layer = random_program(n, 2 * n, rng, two_qubit_prob=0.0)
        apply_program(mps, layer)
        apply_program(dense, layer)
        for q in [q for q in range(n - 1) if q != skipped] * 2:
            unitary = _random_unitary(rng)
            mps.apply_two_qubit_routed(unitary, q, q + 1)
            dense.apply_two_qubit_routed(unitary, q, q + 1)
        mps.calls.clear()
        q1, q2 = (hi, lo) if reverse else (lo, hi)
        mps.apply_two_qubit_routed(matrix, q1, q2)
        dense.apply_two_qubit_routed(matrix, q1, q2)
        assert mps.calls[hi - lo - 1] == ((hi - 1 if direction == "up" else lo), False)
        fidelity = abs(np.vdot(dense.amps, mps_statevector(mps))) ** 2
        assert fidelity >= 1 - 1e-12


CZ = gate_matrix(Instruction(GateKind.CZ, (0, 1)))


@pytest.fixture
def svd_shapes(monkeypatch):
    """The shape of every matrix given to ``numpy.linalg.svd``, in call order."""
    svd, shapes = np.linalg.svd, []

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


def _svd_shape(dim_l: int, dim_m: int, dim_r: int) -> tuple[int, int]:
    """The documented route rule for a table CNOT or CZ on bonds (dim_l, dim_m, dim_r)."""
    side, rank = 2 * min(dim_l, dim_r), 2 * min(dim_l, dim_m)
    return (rank if side >= 32 and rank < side else 2 * dim_l), 2 * dim_r


class DimsMps(MpsState):
    """Records ``(dim_l, dim_m, dim_r)`` before and ``Lambda_q`` after every
    adjacent update; with ``copies`` it applies a copy of each gate, which a
    lookup by identity does not recognise."""

    def __init__(self, n, policy=EXACT, copies=False):
        super().__init__(n, policy)
        self.copies, self.dims, self.bonds = copies, [], []

    def apply_two_qubit_adjacent(self, gate, q):
        self.dims.append((self.site_tensors[q].shape[0], *self.site_tensors[q + 1].shape[::2]))
        super().apply_two_qubit_adjacent(gate.copy() if self.copies else gate, q)
        self.bonds.append(self.bond_vectors[q])


def _brickwork(n: int, rounds: int, kind: GateKind, seed: int) -> list[Instruction]:
    """A round circuit with rotations, its CNOTs replaced by ``kind``."""
    spec = RoundCircuitSpec(n, rounds, seed, ("RX", "RY", "RZ"))
    return [Instruction(kind, i.qubits) if i.kind is GateKind.CNOT else i
            for i in generate_round_circuit(spec)]


def _pair_state(dim_l: int, dim_m: int, dim_r: int, rng: np.random.Generator) -> MpsState:
    """Four sites whose sites 1 and 2 are random right-canonical tensors on
    bonds (dim_l, dim_m, dim_r), with a random Lambda_0; sites 0 and 3 only
    fit the shapes."""

    def rows(count: int, width: int) -> np.ndarray:  # orthonormal rows
        a = rng.normal(size=(width, count)) + 1j * rng.normal(size=(width, count))
        return np.linalg.qr(a)[0].T

    state = MpsState(4, EXACT)
    lam = rng.random(dim_l) + 0.1
    state.site_tensors = [
        np.zeros((1, 2, dim_l), complex), rows(dim_l, 2 * dim_m).reshape(dim_l, 2, dim_m),
        rows(dim_m, 2 * dim_r).reshape(dim_m, 2, dim_r), np.zeros((dim_r, 2, 1), complex),
    ]
    state.bond_vectors = [lam / np.linalg.norm(lam), np.ones(dim_m), np.ones(dim_r)]
    state.entries = state.peak_entries = sum(t.size for t in state.site_tensors)
    return state


def _weighted_pair(state: MpsState) -> np.ndarray:
    """diag(Lambda_0) B_1 B_2: the part of sites 1 and 2 that carries weight."""
    b_l, b_r = state.site_tensors[1:3]
    pair = b_l.reshape(-1, b_l.shape[2]) @ b_r.reshape(b_r.shape[0], -1)
    return np.repeat(state.bond_vectors[0], 2)[:, np.newaxis] * pair


class TestControlledCore:
    """A table CNOT or CZ with its control on site q takes the SVD of the core
    [R_0 C_0; R_1 C_1], 2 min(dim_l, dim_m) rows by 2 dim_r, when
    side = min(2 dim_l, 2 dim_r) >= 32 and 2 min(dim_l, dim_m) < side. Every
    other update takes the SVD of the whole (2 dim_l, 2 dim_r) matrix."""

    @pytest.mark.parametrize("kind", [GateKind.CNOT, GateKind.CZ])
    @pytest.mark.parametrize("cutoff, rounds", [(0.0, 8), (1e-4, 16)])
    def test_same_state_as_the_full_route(self, cutoff, rounds, kind, svd_shapes):
        n, policy, taken = 12, TruncationPolicy(cutoff), 0
        for seed in (3, 4):
            program = _brickwork(n, rounds, kind, seed)
            svd_shapes.clear()
            core = apply_program(DimsMps(n, policy), program)
            core_shapes = svd_shapes[:]
            svd_shapes.clear()
            full = apply_program(DimsMps(n, policy, copies=True), program)
            assert svd_shapes == [(2 * dim_l, 2 * dim_r) for dim_l, _, dim_r in full.dims]
            assert core_shapes == [_svd_shape(*dims) for dims in core.dims]
            taken += sum(shape != full_shape for shape, full_shape in zip(core_shapes, svd_shapes))

            assert [len(b) for b in core.bonds] == [len(b) for b in full.bonds]
            for got, want in zip(core.bonds, full.bonds):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert (core.entries, core.peak_entries, core.max_bond_seen) == (
                full.entries, full.peak_entries, full.max_bond_seen)
            assert core.trunc_error_sq == pytest.approx(full.trunc_error_sq, abs=1e-12)
            assert (core.trunc_error_sq > 0) == (cutoff > 0)
            if cutoff == 0:
                dense = apply_program(DenseState(n), program)
                assert abs(np.vdot(dense.amps, mps_statevector(core))) ** 2 >= 1 - 1e-12
        assert taken >= 3

    @pytest.mark.parametrize("dims", [
        (16, 8, 16),  # side 32: the floor
        (15, 8, 15),  # side 30: below it
        (16, 15, 16),  # 2 dim_m = 30 < side
        (16, 16, 16),  # 2 min(dim_l, dim_m) = side
        (32, 16, 16),  # the same, with dim_l > dim_r
        (16, 8, 32),  # dim_r > dim_l
        (32, 16, 32),  # side 64
    ])
    @pytest.mark.parametrize("gate", ["CNOT", "CZ"])
    def test_route_rule(self, dims, gate, svd_shapes):
        rng = np.random.default_rng([*dims, gate == "CZ"])
        state = _pair_state(*dims, rng)
        full = copy.deepcopy(state)
        matrix = CNOT if gate == "CNOT" else CZ
        state.apply_two_qubit_adjacent(matrix, 1)
        full.apply_two_qubit_adjacent(matrix.copy(), 1)
        assert svd_shapes == [_svd_shape(*dims), (2 * dims[0], 2 * dims[2])]
        np.testing.assert_allclose(state.bond_vectors[1], full.bond_vectors[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(_weighted_pair(state), _weighted_pair(full), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("apply, rows", [
        (lambda state: state.apply_two_qubit_routed(CNOT, 2, 1), 32),
        (lambda state: state.apply_two_qubit_routed(CZ, 2, 1), 16),  # CZ is its own reverse
        (lambda state: state.apply_two_qubit_adjacent(SWAP_MATRIX, 1), 32),
        (lambda state: state.apply_two_qubit_adjacent(CNOT.copy(), 1), 32),
        (lambda state: state.apply_two_qubit_adjacent(np.array(CZ), 1), 32),
        (lambda state: state.apply_two_qubit_adjacent(
            _random_unitary(np.random.default_rng(1)), 1), 32),
    ], ids=["reversed-CNOT", "reversed-CZ", "SWAP", "CNOT-copy", "CZ-copy", "random"])
    def test_only_the_table_gates_with_control_first(self, apply, rows, svd_shapes):
        apply(_pair_state(16, 8, 16, np.random.default_rng(0)))
        assert svd_shapes == [(rows, 32)]


class TestSwapPermutation:
    """``SWAP_MATRIX`` itself is applied as a transpose of theta's two
    physical indices; a copy of it takes the 4x4 matrix product, which only
    adds exact zeros. So both hand the SVD the same values, though an exact
    zero may differ in sign. Given the same bits, the SVD gives the same
    state; given a zero of the other sign, LAPACK may round the singular
    values that are zero in exact arithmetic differently (about 1e-33), so
    there the two states agree to rounding."""

    @pytest.fixture
    def svd_inputs(self, monkeypatch):
        svd, inputs = np.linalg.svd, []

        def recording(a, *args, **kwargs):
            inputs.append(a.copy())
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        return inputs

    @pytest.mark.parametrize("policy", [
        EXACT, TruncationPolicy(1e-4), TruncationPolicy(1e-2), TruncationPolicy(0.0, max_bond=2),
    ], ids=["cutoff0", "cutoff1e-4", "cutoff1e-2", "max_bond2"])
    def test_same_state_as_the_matrix(self, policy, svd_inputs):
        n, truncated, same_bits = 6, 0, 0
        for seed in range(20):
            rng = np.random.default_rng([seed, 19])
            state = run_program(random_program(n, 30, rng), n, "mps", EXACT)
            for q in (0, n // 2, n - 2):
                perm, matrix = state.copy(), state.copy()
                perm.policy = matrix.policy = policy
                svd_inputs.clear()
                perm.apply_two_qubit_adjacent(SWAP_MATRIX, q)
                matrix.apply_two_qubit_adjacent(SWAP_MATRIX.copy(), q)
                got_m, want_m = svd_inputs
                assert np.array_equal(got_m, want_m)
                assert (perm.entries, perm.peak_entries, perm.max_bond_seen) == (
                    matrix.entries, matrix.peak_entries, matrix.max_bond_seen)
                truncated += perm.trunc_error_sq > 0
                if got_m.tobytes() != want_m.tobytes():
                    np.testing.assert_allclose(mps_statevector(perm), mps_statevector(matrix),
                                               rtol=0, atol=1e-12)
                    assert perm.trunc_error_sq == pytest.approx(matrix.trunc_error_sq, abs=1e-24)
                    continue
                same_bits += 1
                for got, want in zip(perm.site_tensors + perm.bond_vectors,
                                     matrix.site_tensors + matrix.bond_vectors):
                    assert got.shape == want.shape and np.array_equal(got, want)
                assert perm.trunc_error_sq == matrix.trunc_error_sq
        assert (truncated > 0) == (policy is not EXACT)
        assert same_bits >= 50


class TracedMps(DimsMps, RecordedMps):
    """Records ``(bond, is_swap)`` and ``(dim_l, dim_m, dim_r)`` of every adjacent update."""


class TestTracerContract:
    """What the benchmark's tracer derives the SWAP count, the SVD time and
    the keep ratio from: a routed gate at distance d makes exactly 2d-1
    ``apply_two_qubit_adjacent`` calls, up or down, and each of them exactly
    one ``np.linalg.svd`` call, of shape (2 dim_l, 2 dim_r) below the core
    route's floor."""

    @pytest.mark.parametrize("direction", ["up", "down"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["q1<q2", "q1>q2"])
    @pytest.mark.parametrize("gate", ["CNOT", "random"])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_calls_and_svd_shapes(self, direction, reverse, gate, d, svd_shapes):
        # random gates on every bond except one outer bond, which stays 1 and so picks the direction
        n, lo, hi = d + 3, 1, d + 1
        skipped = lo - 1 if direction == "up" else hi
        rng = np.random.default_rng([d, direction == "up", reverse, gate == "CNOT"])
        state = TracedMps(n)
        for q in [q for q in range(n - 1) if q != skipped] * 2:
            state.apply_two_qubit_routed(_random_unitary(rng), q, q + 1)
        for log in (state.calls, state.dims, state.bonds, svd_shapes):
            log.clear()
        q1, q2 = (hi, lo) if reverse else (lo, hi)
        state.apply_two_qubit_routed(CNOT if gate == "CNOT" else _random_unitary(rng), q1, q2)
        swaps = list(range(lo, hi - 1)) if direction == "up" else list(range(hi - 1, lo, -1))
        at = hi - 1 if direction == "up" else lo
        assert state.calls == ([(k, True) for k in swaps] + [(at, False)]
                               + [(k, True) for k in reversed(swaps)])
        assert len(svd_shapes) == 2 * d - 1
        assert svd_shapes == [(2 * dim_l, 2 * dim_r) for dim_l, _, dim_r in state.dims]


class TestQueries:
    def test_ghz_amplitudes(self):
        state = run_program(ghz3_program(), 3, "mps", EXACT)
        assert state.amplitude("000") == pytest.approx(1 / np.sqrt(2))
        assert state.amplitude("010") == pytest.approx(0.0)

    def test_amplitude_wrong_length(self):
        with pytest.raises(ValueError):
            MpsState(3).amplitude("01")

    def test_bell_expectations(self):
        state = run_program(bell_program(), 2, "mps", EXACT)
        assert state.expectation_pauli("ZZ") == pytest.approx(1.0)
        assert state.expectation_pauli("ZI") == pytest.approx(0.0, abs=1e-12)
        assert state.expectation_pauli("XX") == pytest.approx(1.0)

    def test_expectation_length_mismatch(self):
        with pytest.raises(ValueError):
            run_program(bell_program(), 2, "mps", EXACT).expectation_pauli("Z")

    def test_expectation_does_not_modify_state(self):
        state = run_program(bell_program(), 2, "mps", EXACT)
        before = [t.copy() for t in state.site_tensors]
        state.expectation_pauli("XY")
        for old, new in zip(before, state.site_tensors):
            np.testing.assert_array_equal(old, new)

    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    @pytest.mark.parametrize("policy", [EXACT, TruncationPolicy(cutoff=1e-2, max_bond=2)],
                             ids=["exact", "truncated"])
    def test_statevector_helper_is_the_amplitude_vector(self, n, policy):
        # mps_statevector, the reference of many tests, contracts the chain
        # site by site; it must equal one amplitude call per bitstring
        state = run_program(random_program(n, 6 * n, np.random.default_rng(40 + n)), n, "mps",
                            policy)
        by_amplitude = [state.amplitude("".join(bits))
                        for bits in itertools.product("01", repeat=n)]
        np.testing.assert_allclose(mps_statevector(state), by_amplitude, rtol=0, atol=1e-14)


class TestExpectationBits:
    """``expectation_pauli`` weights by a broadcast and moves entries where
    the reference multiplies matrices; each value must be the same float,
    signed zeros included, so ``repr`` is compared."""

    @pytest.mark.parametrize("clifford", [False, True], ids=["all-gates", "clifford"])
    @pytest.mark.parametrize("policy", [
        EXACT, TruncationPolicy(1e-4), TruncationPolicy(1e-2), TruncationPolicy(0.0, max_bond=2),
    ], ids=["cutoff0", "cutoff1e-4", "cutoff1e-2", "max_bond2"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_same_float_as_the_matrix_products(self, n, policy, clifford):
        rng = np.random.default_rng(300 + n)
        program = random_program(n, 6 * n, rng)
        if clifford:  # exact zeros, where only the sign of 0 could differ
            program = [g for g in program if not g.params]
        state = run_program(program, n, "mps", policy)
        if n <= 4:
            strings = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
        else:
            strings = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(200)]
        for pauli in strings:
            assert repr(state.expectation_pauli(pauli)) == repr(
                reference_expectation(state, pauli)), pauli

    @pytest.mark.parametrize("pauli", [
        "ZIIIII", "IIIIIX", "IIYIII", "IYIXII", "IIXIIY", "YIIIIY", "IIIIII",
    ], ids=["at-0", "at-last", "one-site", "y-gap", "x-gap-y", "ends", "identity"])
    def test_edges_and_gaps(self, pauli):
        state = run_program(random_program(6, 40, np.random.default_rng(8)), 6, "mps",
                            TruncationPolicy(1e-3))
        assert repr(state.expectation_pauli(pauli)) == repr(reference_expectation(state, pauli))
        if pauli == "IIIIII":
            assert state.expectation_pauli(pauli) == 1.0

    @pytest.mark.parametrize("pauli", ["ZZ", "ZIA", "ZIz", ""])
    def test_bad_string_same_message(self, pauli):
        state = run_program(ghz3_program(), 3, "mps", EXACT)
        with pytest.raises(ValueError) as expected:
            reference_expectation(state, pauli)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            state.expectation_pauli(pauli)


class TestSampling:
    def test_gate_after_measure_rejected(self):
        measure = Instruction(GateKind.MEASURE, (0,), (), classical_target=0)
        program = [Instruction(GateKind.H, (0,)), measure, Instruction(GateKind.CNOT, (1, 0))]
        with pytest.raises(IrError, match=r"CNOT \(1, 0\) acts on qubit 0 after it was measured"):
            run_program(program, 2, "mps")
        # gates on qubits not yet measured are still applied
        state = run_program([measure, Instruction(GateKind.X, (1,))], 2)
        assert state.amplitude("01") == pytest.approx(1.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shots", [0, -5])
    def test_execute_rejects_non_positive_shots(self, shots, backend):
        program = bell_program() + [Instruction(GateKind.MEASURE, (0,), (), classical_target=0)]
        with pytest.raises(ValueError, match="shots must be >= 1"):
            execute(program, backend=backend, shots=shots)

    def test_computational_basis_state(self):
        state = run_program([Instruction(GateKind.X, (0,)), Instruction(GateKind.X, (1,))], 2)
        counts = state.sample(100, np.random.default_rng(0))
        assert counts == {"11": 100}

    def test_bell_within_5_sigma(self):
        state = run_program(bell_program(), 2, "mps", EXACT)
        counts = state.sample(100_000, np.random.default_rng(1))
        assert set(counts) <= {"00", "11"}
        sigma = np.sqrt(100_000 * 0.25)
        assert abs(counts["00"] - 50_000) < 5 * sigma

    def test_tvd_vs_oracle_distribution(self, rng):
        program = random_program(4, 20, rng)
        state = run_program(program, 4, "mps", EXACT)
        counts = state.sample(100_000, np.random.default_rng(3))
        oracle = np.abs(dense_run(program, 4).amps) ** 2
        tvd = 0.5 * sum(
            abs(counts.get(format(i, "04b"), 0) / 100_000 - p) for i, p in enumerate(oracle)
        )
        assert tvd < 0.02

    def test_deterministic_given_seed(self):
        state = run_program(bell_program(), 2, "mps", EXACT)
        a = state.sample(500, np.random.default_rng(9))
        b = state.sample(500, np.random.default_rng(9))
        assert a == b


class TestShortWalk:
    """``sample(shots, rng, upto)`` walks qubits ``0..upto-1`` only. Bit ``k``
    depends only on its own variate and the bits before it, and every shot
    still draws all ``n`` variates, so the short walk gives the full walk's
    counts cut to those qubits, and leaves the generator where it leaves it."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shots", [700, SHOT_BLOCK + 900], ids=["one-block", "two-blocks"])
    def test_prefix_of_the_full_walk(self, backend, shots):
        rng = np.random.default_rng(21)
        for trial in range(6):
            n = int(rng.integers(2, 8))
            policy = EXACT if trial % 2 else TruncationPolicy(cutoff=1e-2)
            state = run_program(random_program(n, 30, rng), n, backend, policy)
            full_rng = np.random.default_rng(trial)
            full = state.sample(shots, full_rng)
            after = full_rng.random()
            for upto in range(1, n + 1):
                short_rng = np.random.default_rng(trial)
                short = state.sample(shots, short_rng, upto)
                cut = readout(full, range(upto))
                assert short == cut
                if shots <= SHOT_BLOCK:  # one block adds its keys in sorted order
                    assert list(short.items()) == list(cut.items())
                assert short_rng.random() == after
            assert list(state.sample(shots, np.random.default_rng(trial), n).items()) == list(
                full.items())

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("upto", [0, 4, -1])
    def test_walk_length_out_of_range(self, backend, upto):
        with pytest.raises(ValueError) as info:
            BACKENDS[backend](3).sample(10, np.random.default_rng(0), upto)
        assert str(info.value) == f"upto must be in 1..3, got {upto}"


class TestLongRegisterSampling:
    """A prefix's weight is its probability, far below the smallest double on
    a long register; the sampler rescales its carry rows so that no drawn
    prefix has weight 0."""

    def test_marginals_hold_to_the_last_qubit(self):
        # typical prefixes fall below 2^-1074 after about 2500 of these qubits
        n, shots, p1 = 3000, 2000, np.sin(0.3) ** 2
        program = [Instruction(GateKind.RY, (q,), (0.6,)) for q in range(n)]
        counts = run_program(program, n, "mps").sample(shots, np.random.default_rng(0))
        ones = np.zeros(n)
        for key, count in counts.items():
            ones += count * (np.frombuffer(key.encode(), np.uint8) - ord("0"))
        sigma = np.sqrt(p1 * (1 - p1) / (200 * shots))  # of a mean over 200 qubits
        for part in (ones[:200], ones[-200:]):
            assert abs(part.mean() / shots - p1) < 5 * sigma

    def test_underflowing_weights_never_reach_the_tie(self, monkeypatch):
        # a stand-in split records each step's weights: every prefix of H|0>
        # qubits has weight 2^-k, which is 0 in doubles from k = 1075 on
        totals = []
        _watch_split(monkeypatch, "mps",
                     lambda carry, weights, rows: totals.append(weights.sum(1).min()))
        n = 1500
        state = run_program([Instruction(GateKind.H, (q,)) for q in range(n)], n, "mps")
        assert sum(state.sample(8, np.random.default_rng(2)).values()) == 8
        assert len(totals) == n and min(totals) > 0

    @pytest.mark.parametrize("policy", [
        EXACT, TruncationPolicy(cutoff=1e-2), TruncationPolicy(cutoff=0.0, max_bond=2),
    ], ids=["exact", "cutoff", "max_bond"])
    def test_rescaling_every_step_keeps_the_counts(self, monkeypatch, policy):
        # a power of two scales exactly, so rescaling at every step changes
        # no bit of the counts, nor their key order
        rng = np.random.default_rng(12)
        states = []
        for _ in range(10):
            n = int(rng.integers(2, 10))
            states.append(run_program(random_program(n, 40, rng), n, "mps", policy))
        plain = [list(s.sample(3000, np.random.default_rng(s.n)).items()) for s in states]
        monkeypatch.setattr(mps_module, "_RESCALE_BELOW", np.inf)
        assert [list(s.sample(3000, np.random.default_rng(s.n)).items())
                for s in states] == plain


def _watch_split(monkeypatch, backend: str, watch) -> None:
    """Make ``sample`` on ``backend`` call ``watch(carry, weights, rows)``
    after each call of its ``split``."""

    def spying(n, shots, rng, start, split, upto=None):
        def spy(k, carry):
            weights, rows = split(k, carry)
            watch(carry, weights, rows)
            return weights, rows

        return sample_sequential(n, shots, rng, start, spy, upto)

    monkeypatch.setattr(mps_module if backend == "mps" else dense_module, "sample_sequential",
                        spying)


def _per_shot_counts(state, shots: int, rng: np.random.Generator) -> dict[str, int]:
    """Reference sampler: one ``rng.random()`` per qubit per shot, in a Python
    loop, with the conditional probabilities of each backend's prefix."""
    counts: dict[str, int] = {}
    for _ in range(shots):
        bits, vec = "", np.ones(1, dtype=complex)
        for k in range(state.n):
            if isinstance(state, MpsState):
                t = state.site_tensors[k]
                w0, w1 = vec @ t[:, 0, :], vec @ t[:, 1, :]
                p0, p1 = float(np.vdot(w0, w0).real), float(np.vdot(w1, w1).real)
            else:
                block = state.amps.reshape([2] * state.n)[tuple(int(b) for b in bits)]
                p0 = float(np.sum(np.abs(block[0]) ** 2))
                p1 = float(np.sum(np.abs(block[1]) ** 2))
            total = p0 + p1
            bit = "0" if rng.random() < (p0 / total if total > 0 else 0.5) else "1"
            bits += bit
            if isinstance(state, MpsState):
                vec = w0 if bit == "0" else w1
        counts[bits] = counts.get(bits, 0) + 1
    return counts


class TestVectorizedSampler:
    """``sample`` draws the same stream as the per-shot loop it replaced, so
    its counts are equal to that loop's, not only close in distribution."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_per_shot_loop(self, n, backend):
        program = random_program(n, 5 * n, np.random.default_rng(n))
        state = run_program(program, n, backend, EXACT)
        expected = _per_shot_counts(state, 400, np.random.default_rng(100 + n))
        assert state.sample(400, np.random.default_rng(100 + n)) == expected

    def test_matches_per_shot_loop_truncated(self):
        program = random_program(8, 60, np.random.default_rng(7))
        state = run_program(program, 8, "mps", TruncationPolicy(cutoff=1e-2, max_bond=2))
        assert state.trunc_error_sq > 0
        expected = _per_shot_counts(state, 1000, np.random.default_rng(8))
        assert state.sample(1000, np.random.default_rng(8)) == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shots", [1, SHOT_BLOCK, SHOT_BLOCK + 1])
    def test_shot_blocks_continue_the_stream(self, shots, backend):
        state = run_program(random_program(3, 12, np.random.default_rng(3)), 3, backend, EXACT)
        loop_rng, rng = np.random.default_rng(shots), np.random.default_rng(shots)
        expected = _per_shot_counts(state, shots, loop_rng)
        counts = state.sample(shots, rng)
        assert counts == expected
        assert sum(counts.values()) == shots
        assert rng.random() == loop_rng.random()  # exactly shots * n variates consumed

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_variate_at_the_threshold_reads_one(self, monkeypatch, backend):
        # qubit k reads 1 exactly when its variate is at least p0 = w0 / (w0 + w1):
        # just below p0 reads 0 and p0 itself reads 1 on qubit 0, and a variate
        # of 0.0 reads 1 on qubit 1, whose outcome 0 has weight exactly 0
        first_weights = []
        _watch_split(monkeypatch, backend,
                     lambda carry, weights, rows: first_weights.append(weights[0]))
        program = [Instruction(GateKind.RY, (0,), (1.1,)), Instruction(GateKind.X, (1,))]
        state = run_program(program, 2, backend, EXACT)
        state.sample(1, np.random.default_rng(0))
        w0, w1 = first_weights[0]
        p0 = w0 / (w0 + w1)
        assert 0 < p0 < 1 and first_weights[1][0] == 0

        class FixedVariates:  # stands in for the Generator: hands out these variates
            def random(self, shape):
                assert shape == (2, 2)
                return np.array([[np.nextafter(p0, 0.0), 0.0], [p0, 0.0]])

        assert state.sample(2, FixedVariates()) == {"01": 1, "11": 1}

    def test_backends_give_equal_counts(self):
        program = random_program(6, 40, np.random.default_rng(6))
        mps = run_program(program, 6, "mps", EXACT).sample(3000, np.random.default_rng(1))
        dense = run_program(program, 6, "dense").sample(3000, np.random.default_rng(1))
        assert len(mps) > 1
        assert mps == dense


class TestPrefixGroups:
    """``sample_sequential`` calls ``split`` once per distinct prefix, not once
    per shot, and still gives the counts, in the same key order, as the
    sampler that carried one prefix row per shot."""

    def test_ghz_splits_at_most_two_prefixes(self, monkeypatch):
        rows: list[int] = []

        def spying(n, shots, rng, start, split, upto=None):
            def spy(k, carry):
                rows.append(len(carry))
                return split(k, carry)

            return sample_sequential(n, shots, rng, start, spy, upto)

        monkeypatch.setattr(mps_module, "sample_sequential", spying)
        ghz = [Instruction(GateKind.H, (0,))] + [
            Instruction(GateKind.CNOT, (q, q + 1)) for q in range(29)
        ]
        state = run_program(ghz, 30, "mps", EXACT)
        counts = state.sample(20_000, np.random.default_rng(30))
        assert counts == {"0" * 30: 9928, "1" * 30: 10072}
        assert len(rows) == 5 * 30  # 5 blocks of at most SHOT_BLOCK shots
        assert max(rows) == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("every_prefix_drawn", [True, False])
    def test_split_sees_the_drawn_prefixes(self, monkeypatch, backend, every_prefix_drawn):
        # at qubit k, split gets one carry row per distinct k-bit prefix drawn;
        # when every extended prefix was drawn, that carry is the rows split
        # returned, not a renumbered copy
        calls: list[tuple[int, bool]] = []
        returned = [None]

        def watch(carry, weights, rows):
            calls.append((len(carry), carry is returned[0]))
            returned[0] = rows

        _watch_split(monkeypatch, backend, watch)
        if every_prefix_drawn:  # each of the 8 outcomes has probability above 0.04
            program = [Instruction(GateKind.H, (q,)) for q in range(3)] + [
                Instruction(GateKind.CNOT, (0, 1)), Instruction(GateKind.RY, (2,), (0.7,)),
                Instruction(GateKind.CZ, (1, 2)),
            ]
        else:
            program = random_program(8, 40, np.random.default_rng(8))
        n = num_qubits(program)
        counts = run_program(program, n, backend, EXACT).sample(SHOT_BLOCK, np.random.default_rng(4))
        rows = [len({key[:k] for key in counts}) for k in range(n)]
        assert [size for size, _ in calls] == rows
        reused = [same for _, same in calls[1:]]
        assert reused == [rows[k + 1] == 2 * rows[k] for k in range(n - 1)]
        assert all(reused) == every_prefix_drawn

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_key_order_across_blocks(self, backend):
        # each block adds its new keys in sorted order: the last two keys
        # first occur after the first block
        state = run_program(random_program(8, 16, np.random.default_rng(5)), 8, backend, EXACT)
        counts = state.sample(2 * SHOT_BLOCK + 1, np.random.default_rng(8193))
        assert list(counts.items()) == [
            ("10010010", 1907), ("10010110", 65), ("10011010", 1915), ("10011110", 65),
            ("10110010", 47), ("10111010", 62), ("11010010", 41), ("11010110", 4),
            ("11011010", 58), ("11011110", 1), ("11110010", 1891), ("11110110", 83),
            ("11111010", 1983), ("11111110", 67), ("10110110", 1), ("10111110", 3),
        ]


class TestBondStats:
    def test_product_state_stats(self):
        state = MpsState(10)
        assert max_bond(state) == 1
        assert state.memory_estimate_bytes() == 320

    def test_bell_bond(self):
        assert max_bond(run_program(bell_program(), 2, "mps", EXACT)) == 2

    def test_saturation_at_half_register(self, rng):
        program = random_program(10, 400, rng)
        state = run_program(program, 10, "mps", EXACT)
        assert state.max_bond_seen == 32  # 2^(10/2)

    @pytest.mark.parametrize("cutoff", [0.0, 0.05])
    def test_size_bookkeeping_matches_scans(self, rng, cutoff):
        """The entry count, its peak and the largest bond seen, kept up to date
        by each two-site update, equal scans of the whole chain after every
        update, also when truncation shrinks a bond."""
        scans = []

        class ScannedMps(MpsState):
            def apply_two_qubit_adjacent(self, gate, q):
                super().apply_two_qubit_adjacent(gate, q)
                scans.append((sum(t.size for t in self.site_tensors), max_bond(self)))
                assert self.entries == scans[-1][0]
                assert self.peak_entries == max(2 * 7, *(e for e, _ in scans))
                assert self.max_bond_seen == max(b for _, b in scans)

        apply_program(ScannedMps(7, TruncationPolicy(cutoff)), random_program(7, 80, rng))
        assert len(scans) > 40
        shrank = any(b < a for (a, _), (b, _) in zip(scans, scans[1:]))
        assert shrank == (cutoff > 0)  # cutoff 0 keeps every singular value


class TestInvariants:
    def test_norm_preserved_per_gate(self, rng):
        program = random_program(6, 40, rng)

        def check_norm(state):
            vec = mps_statevector(state)
            assert abs(np.vdot(vec, vec).real - 1) < 1e-10

        apply_program(MpsState(6, EXACT), program, check_norm)

    def test_truncation_error_bounds_infidelity(self, rng):
        from mpsqvm import dense_run

        checked = 0
        for _ in range(20):
            n = int(rng.integers(4, 9))
            program = random_program(n, 30, rng)
            state = run_program(program, n, "mps", TruncationPolicy(cutoff=0.05))
            if state.trunc_error_sq < 1e-12:
                continue
            dense = dense_run(program, n)
            vec = mps_statevector(state)
            infidelity = 1 - abs(np.vdot(dense.amps, vec)) ** 2 / np.vdot(vec, vec).real
            assert infidelity <= 4 * state.trunc_error_sq + 1e-12
            checked += 1
        assert checked >= 3

    def test_storage_law(self, rng):
        for n in (6, 10):
            program = random_program(n, 60, rng)
            state = run_program(program, n, "mps", EXACT)
            chi = state.max_bond_seen
            entries = sum(t.size for t in state.site_tensors)
            assert entries <= n * 2 * chi**2 + (n - 1) * chi

    def test_policy_keeps_at_least_one(self):
        policy = TruncationPolicy(cutoff=0.5, max_bond=1)
        state = MpsState(2, policy)
        state.apply_one_qubit(H, 0)
        state.apply_two_qubit_adjacent(CNOT, 0)
        assert max_bond(state) == 1
        assert state.trunc_error_sq == pytest.approx(0.5)

    def test_policy_takes_any_integral_max_bond(self):
        assert TruncationPolicy(max_bond=np.int64(3)).keep_count(np.ones(5)) == 3
        with pytest.raises(ValueError, match="max_bond must be an integer, got 2.0"):
            TruncationPolicy(max_bond=2.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_method_writes_a_held_array(self, backend):
        # methods may rebind a list slot or ``amps`` but never write into an
        # array the state holds, so a copy of the lists alone forks a state
        def held(state):
            if backend == "mps":
                return state.site_tensors + state.bond_vectors
            return [state.amps]

        rng = np.random.default_rng(5)
        ry = gate_matrix(Instruction(GateKind.RY, (0,), (0.7,)))
        n, truncated = 6, False
        for _ in range(20):
            state = run_program(random_program(n, 30, rng), n, backend,
                                TruncationPolicy(cutoff=1e-2, max_bond=3))
            q, lo, hi = int(rng.integers(n)), *sorted(rng.choice(n, 2, replace=False).tolist())
            pauli = "".join(rng.choice(list("IXYZ"), n))
            calls = [
                lambda: state.apply_one_qubit(ry, q),
                lambda: state.apply_two_qubit_routed(CNOT, lo, hi),
                lambda: state.apply_two_qubit_routed(CNOT, hi, lo),
                lambda: state.expectation_pauli(pauli),
                lambda: state.sample(50, rng),
            ]
            if backend == "mps":
                truncated = truncated or state.trunc_error_sq > 0
                bits = "".join(rng.choice(list("01"), n))
                calls += [
                    lambda: state.apply_two_qubit_adjacent(CNOT, min(q, n - 2)),
                    lambda: state.amplitude(bits),
                ]
            for call in calls:
                before = [(a, a.tobytes()) for a in held(state)]
                call()
                assert all(a.tobytes() == data for a, data in before)
        assert truncated or backend == "dense"

    @pytest.mark.parametrize("cutoff", [np.nan, np.inf, -1.0])
    def test_cutoff_must_be_finite_and_non_negative(self, cutoff):
        with pytest.raises(ValueError, match="cutoff"):
            TruncationPolicy(cutoff=cutoff)

    def test_cutoff_cap_composition(self):
        # cutoff applied first, then the hard cap
        policy = TruncationPolicy(cutoff=1e-4, max_bond=2)
        s = np.array([1.0, 0.5, 0.3, 1e-9])
        assert policy.keep_count(s) == 2
        assert TruncationPolicy(cutoff=1e-4).keep_count(s) == 3
        # an exactly-zero value is kept at cutoff 0, in either mode, and a
        # numpy bool names the mode too
        zero = np.array([1.0, 0.5, 0.0])
        for relative in (True, False, np.True_, np.False_):
            assert TruncationPolicy(cutoff=0.0, relative=relative).keep_count(zero) == 3
            assert TruncationPolicy(cutoff=1e-12, relative=relative).keep_count(zero) == 2

    @pytest.mark.parametrize(
        "cutoff, bond, chi, nbytes", [(0.0, [1.0, 0.0], 2, 128), (1e-12, [1.0], 1, 64)]
    )
    def test_zero_singular_value_is_bond_dimension_at_cutoff_0(self, cutoff, bond, chi, nbytes):
        # CNOT on |00> leaves a product state: its second singular value is 0
        state = MpsState(2, TruncationPolicy(cutoff=cutoff))
        state.apply_two_qubit_adjacent(CNOT, 0)
        assert state.bond_vectors[0].tolist() == bond
        assert state.max_bond_seen == chi
        assert state.memory_estimate_bytes() == nbytes

    @pytest.mark.parametrize("kind", [GateKind.CNOT, GateKind.CZ])
    def test_core_route_keeps_exact_zeros_at_cutoff_0(self, kind, svd_shapes):
        # the padded Schmidt values are exact zeros, counted like the full
        # route's ~1e-17 ones; canonical form holds on the support of Lambda
        checked = 0

        class CheckedMps(MpsState):
            def apply_two_qubit_adjacent(self, gate, q):
                nonlocal checked
                held = [(a, a.tobytes()) for a in self.site_tensors[q:q + 2]]
                full = (2 * self.site_tensors[q].shape[0], 2 * self.site_tensors[q + 1].shape[2])
                super().apply_two_qubit_adjacent(gate, q)
                assert all(a.tobytes() == data for a, data in held)
                if svd_shapes[-1] == full:
                    return
                rank, side = svd_shapes[-1][0], min(full)
                bond = self.bond_vectors[q]
                assert len(bond) == side and self.max_bond_seen >= side
                assert np.count_nonzero(bond[:rank]) == rank and not bond[rank:].any()
                assert self.entries == sum(t.size for t in self.site_tensors)
                assert self.memory_estimate_bytes() == 16 * self.peak_entries
                assert_right_canonical(self)
                checked += 1

        apply_program(CheckedMps(12, EXACT), _brickwork(12, 8, kind, seed=5))
        assert checked == 3


# -- properties of the right-canonical core ------------------------------------


def _full_expectation(state, pauli: str) -> float:
    """<P> from every stored tensor, contracted from the left edge and divided
    by the norm: the reference that does not assume canonical form."""
    env = np.ones((1, 1), dtype=complex)
    norm = np.ones((1, 1), dtype=complex)
    for t, label in zip(state.site_tensors, pauli):
        ket = np.einsum("st,ltr->lsr", pauli_matrix(label), t)
        env = np.einsum("ab,asr,bsq->rq", env, t.conj(), ket)
        norm = np.einsum("ab,asr,bsq->rq", norm, t.conj(), t)
    return float((env[0, 0] / norm[0, 0]).real)


@st.composite
def circuits(draw, max_qubits: int = 6, max_gates: int = 30):
    """Random gate lists over the full set, with reversed and non-adjacent pairs."""
    n = draw(st.integers(2, max_qubits))
    program = []
    for _ in range(draw(st.integers(1, max_gates))):
        if draw(st.booleans()):
            kind = draw(st.sampled_from(TWO_QUBIT_KINDS))
            q1, q2 = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            program.append(Instruction(kind, (q1, q2)))
        else:
            kind = draw(st.sampled_from(ONE_QUBIT_KINDS))
            params = (draw(st.floats(0, 2 * np.pi)),) if kind.num_params else ()
            program.append(Instruction(kind, (draw(st.integers(0, n - 1)),), params))
    return n, program


@st.composite
def pauli_strings(draw, n: int):
    """Pauli strings of weight 1..n; support anywhere, with or without gaps."""
    support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    labels = ["I"] * n
    for q in support:
        labels[q] = draw(st.sampled_from("XYZ"))
    return "".join(labels)


class TestCanonicalProperties:
    @settings(max_examples=60, deadline=None)
    @given(circuits(), st.data())
    def test_matches_dense_oracle(self, circuit, data):
        n, program = circuit
        state = run_program(program, n, "mps", EXACT)
        dense = dense_run(program, n)
        assert abs(np.vdot(dense.amps, mps_statevector(state))) ** 2 >= 1 - 1e-10
        ends = ["I" * n, "X" + "I" * (n - 1), "I" * (n - 1) + "Y", "Z" + "I" * (n - 2) + "X"]
        drawn = [data.draw(pauli_strings(n)) for _ in range(4)]
        for pauli in ends + drawn:
            assert state.expectation_pauli(pauli) == pytest.approx(
                dense.expectation_pauli(pauli), abs=1e-9
            ), pauli

    @settings(max_examples=60, deadline=None)
    @given(circuits())
    def test_right_canonical_after_every_gate(self, circuit):
        n, program = circuit
        apply_program(MpsState(n, EXACT), program, assert_right_canonical)

    def test_right_canonical_next_to_exactly_zero_singular_values(self):
        # SWAPs and CNOTs on product states leave Schmidt values of exactly 0
        # on bonds of dimension 2; later gates meet them on their left bond
        program = random_program(5, 8, np.random.default_rng(2))
        state = apply_program(MpsState(5, EXACT), program, assert_right_canonical)
        assert any((v == 0.0).any() for v in state.bond_vectors)
        dense = dense_run(program, 5)
        assert abs(np.vdot(dense.amps, mps_statevector(state))) ** 2 >= 1 - 1e-12

    def test_rows_of_zero_weight_are_never_read(self):
        # after each gate, fill every row of B_k whose Lambda_{k-1} entry is
        # exactly 0 with values of order 1 (not NaN: 0 * NaN is NaN); no query
        # and no later gate may tell the two states apart
        n, checked = 5, 0
        noise = np.random.default_rng(0)
        paulis = ["ZIIII", "IXIII", "IIYZI", "IIIIY", "XXXXX", "ZIIIZ", "YZXZY"]
        for seed in range(2, 18):
            program = random_program(n, 8, np.random.default_rng(seed))
            further = random_program(n, 8, np.random.default_rng(100 + seed))
            prefixes = []
            apply_program(MpsState(n, EXACT), program,
                          lambda state: prefixes.append(copy.deepcopy(state)))
            for done, state in enumerate(prefixes, start=1):
                filled, rows = copy.deepcopy(state), 0
                for k in range(1, n):
                    zero = filled.bond_vectors[k - 1] == 0.0
                    shape = filled.site_tensors[k][zero].shape
                    filled.site_tensors[k][zero] = (noise.normal(size=shape)
                                                    + 1j * noise.normal(size=shape))
                    rows += shape[0]
                if not rows:
                    continue
                checked += 1
                np.testing.assert_allclose(
                    mps_statevector(filled), mps_statevector(state), rtol=0, atol=1e-12)
                for pauli in paulis:
                    assert filled.expectation_pauli(pauli) == pytest.approx(
                        state.expectation_pauli(pauli), abs=1e-12), (seed, done, pauli)
                assert filled.sample(2000, np.random.default_rng(1)) == state.sample(
                    2000, np.random.default_rng(1)), (seed, done)
                dense = dense_run(program[:done] + further, n)
                for mps in (state, filled):
                    apply_program(mps, further)
                    assert abs(np.vdot(dense.amps, mps_statevector(mps))) ** 2 >= 1 - 1e-12
        assert checked > 50  # states with an exactly-zero Schmidt value

    def test_expectation_reads_only_the_support(self, rng):
        n = 200
        program = generate_round_circuit(RoundCircuitSpec(n, 4, 7, ("RX", "RY", "RZ")))
        state = run_program(program, n, "mps", EXACT)
        for support in ([0], [n - 1], [99, 100], [40, 43, 47], [0, n - 1]):
            labels = ["I"] * n
            for q in support:
                labels[q] = "XYZ"[int(rng.integers(3))]
            pauli = "".join(labels)
            blinded = copy.deepcopy(state)
            for k in range(n):
                if not support[0] <= k <= support[-1]:
                    blinded.site_tensors[k] = np.full_like(state.site_tensors[k], np.nan)
            value = blinded.expectation_pauli(pauli)
            assert np.isfinite(value)
            assert value == state.expectation_pauli(pauli)

    @pytest.mark.parametrize("policy", [
        TruncationPolicy(cutoff=1e-2),
        TruncationPolicy(cutoff=1e-2, max_bond=4),
        TruncationPolicy(cutoff=1e-2, max_bond=2),
    ])
    def test_support_only_within_discarded_weight(self, policy):
        # one truncation of weight w leaves the support-only value within
        # 2w / (1 - w) of the full normalised contraction, since both the
        # left environment diag(Lambda^2) and the norm miss the discarded part;
        # seed 1 at cutoff 1e-2 reaches 1.03 w on the last site's Y
        n = 14
        terms = [
            "I" * q + label + "I" * (n - q - 1) for q in range(n) for label in "XYZ"
        ] + [
            "I" * q + label * 2 + "I" * (n - q - 2) for q in range(n - 1) for label in "XZ"
        ] + ["Z" + "I" * (n - 2) + "Z", "IIXIIIYIIIZIII"]
        truncated = 0
        for seed in range(3):
            program = generate_round_circuit(RoundCircuitSpec(n, 8, seed, ("RX", "RY", "RZ")))
            state = run_program(program, n, "mps", policy)
            truncated += state.trunc_error_sq > 0
            for pauli in terms:
                gap = abs(state.expectation_pauli(pauli) - _full_expectation(state, pauli))
                assert gap <= 2 * state.trunc_error_sq, pauli
        assert truncated == 3


class TestSvdFallback:
    """An SVD that does not converge falls back to ``eigh`` of the Gram matrix."""

    # the failing call is the first of the largest SVDs of this shape in the
    # run: a wide one uses only part of the Gram eigenvectors
    @pytest.mark.parametrize("shape", ["wide", "square", "tall"])
    def test_one_failed_svd_keeps_state_exact(self, monkeypatch, shape):
        program = random_program(6, 60, np.random.default_rng(5))
        svd, shapes, fail_at = np.linalg.svd, [], -1

        def svd_failing_once(a, *args, **kwargs):
            shapes.append(a.shape)
            if len(shapes) == fail_at + 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd_failing_once)
        bonds = []  # the bond vectors after each gate of an undisturbed run
        apply_program(MpsState(6, EXACT), program,
                      lambda state: bonds.append([v.copy() for v in state.bond_vectors]))
        wanted = {"wide": lambda r, c: r < c, "square": lambda r, c: r == c > 2,
                  "tall": lambda r, c: r > c}[shape]
        fail_at = max((i for i, dims in enumerate(shapes) if wanted(*dims)),
                      key=lambda i: (np.prod(shapes[i]), -i))
        shapes.clear()
        expected = iter(bonds)

        def check(state):
            assert_right_canonical(state)
            for got, want in zip(state.bond_vectors, next(expected)):
                np.testing.assert_allclose(got, want, atol=1e-7)

        state = apply_program(MpsState(6, EXACT), program, check)
        assert len(shapes) > fail_at
        dense = dense_run(program, 6)
        assert abs(np.vdot(dense.amps, mps_statevector(state))) ** 2 >= 1 - 1e-10
        for pauli in ("ZIIIII", "IXYIII", "IIIZZX"):
            assert state.expectation_pauli(pauli) == pytest.approx(
                dense.expectation_pauli(pauli), abs=1e-9
            )

    def test_failed_core_svd_keeps_the_update(self, monkeypatch):
        # the core route falls back on its own (16, 32) core
        state = _pair_state(16, 8, 16, np.random.default_rng(3))
        full = copy.deepcopy(state)
        full.apply_two_qubit_adjacent(CNOT.copy(), 1)
        shapes = []

        def fail(a, *args, **kwargs):
            shapes.append(a.shape)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        state.apply_two_qubit_adjacent(CNOT, 1)
        assert shapes == [(16, 32)]
        np.testing.assert_allclose(state.bond_vectors[1], full.bond_vectors[1], atol=1e-7)
        np.testing.assert_allclose(_weighted_pair(state), _weighted_pair(full), atol=1e-7)

    def test_failed_fallback_raises(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        # a state whose sites, bonds and counters are not those of |000>
        state = run_program(random_program(3, 20, np.random.default_rng(4)), 3, "mps",
                            TruncationPolicy(cutoff=1e-2))
        state.apply_one_qubit(H, 1)
        before = _snapshot(state)
        monkeypatch.setattr(np.linalg, "svd", fail)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(RuntimeError, match="SVD failed on bond 1"):
            state.apply_two_qubit_adjacent(CNOT, 1)
        # the commit never ran: no tensor, bond or counter was written
        assert _snapshot(state) == before


def _snapshot(state: MpsState) -> tuple:
    """Every site tensor and bond by its bytes, and the four counters."""
    return ([(a.shape, a.tobytes()) for a in state.site_tensors + state.bond_vectors],
            state.trunc_error_sq, state.entries, state.peak_entries, state.max_bond_seen)


class TestOneWriter:
    """``apply_two_qubit_adjacent`` is ``check_gate``, the pure factorisation
    ``_two_site`` and one commit. On every route ``_two_site`` runs on
    read-only inputs, leaves the state as it was, and returns exactly what
    the commit then writes."""

    @pytest.mark.parametrize("route, shape", [
        ("full", (32, 32)),
        ("swap", (32, 32)),  # the transpose of theta's physical indices
        ("core-cnot", (16, 32)),
        ("core-cz", (16, 32)),
        ("gram", (32, 32)),  # the SVD fails, and eigh of the Gram matrix stands in
        ("truncating", (32, 32)),
        ("bond-0", (2, 8)),  # no Lambda to the left
    ])
    def test_compute_returns_what_the_commit_writes(self, monkeypatch, route, shape):
        rng = np.random.default_rng(list(route.encode()))
        if route == "bond-0":
            state, q = run_program(random_program(4, 30, rng), 4, "mps", EXACT), 0
        else:
            state, q = _pair_state(16, 8, 16, rng), 1
        if route == "truncating":
            state.policy = TruncationPolicy(cutoff=0.0, max_bond=4)
        gate = {"swap": SWAP_MATRIX, "core-cnot": CNOT, "core-cz": CZ}.get(route)
        if gate is None:
            gate = _random_unitary(rng)
            gate.setflags(write=False)
        for a in state.site_tensors + state.bond_vectors:
            a.setflags(write=False)  # a write into an input raises
        svd, shapes = np.linalg.svd, []

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            if route == "gram":
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        compute, computed = mps_module._two_site, []

        def watched(*args):
            before = _snapshot(state)
            computed.append(compute(*args))
            assert _snapshot(state) == before
            return computed[-1]

        monkeypatch.setattr(np.linalg, "svd", recording)
        monkeypatch.setattr(mps_module, "_two_site", watched)
        before = state.trunc_error_sq
        state.apply_two_qubit_adjacent(gate, q)
        assert len(computed) == 1 and shapes == [shape]
        (b_l, b_r, bond, discarded), = computed
        written = state.site_tensors[q], state.site_tensors[q + 1], state.bond_vectors[q]
        assert [(a.shape, a.tobytes()) for a in (b_l, b_r, bond)] == [
            (a.shape, a.tobytes()) for a in written]
        assert state.trunc_error_sq == before + discarded
        assert (discarded > 0) == (route == "truncating")
        assert state.entries == sum(t.size for t in state.site_tensors)
        assert state.max_bond_seen >= len(bond)
