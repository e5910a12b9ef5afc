import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsqvm import (
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
from mpsqvm import mps as mps_module
from mpsqvm.gates import apply_program, gate_matrix, pauli_matrix
from mpsqvm.ir import IrError
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


class TestSampling:
    def test_gate_after_measure_rejected(self):
        measure = Instruction(GateKind.MEASURE, (0,), (), classical_target=0)
        program = [Instruction(GateKind.H, (0,)), measure, Instruction(GateKind.CNOT, (1, 0))]
        with pytest.raises(IrError, match=r"CNOT \(1, 0\) acts on qubit 0 after it was measured"):
            run_program(program, 2, "mps")
        # gates on qubits not yet measured are still applied
        state = run_program([measure, Instruction(GateKind.X, (1,))], 2)
        assert state.amplitude("01") == pytest.approx(1.0)

    @pytest.mark.parametrize("backend", ["mps", "dense"])
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

    @pytest.mark.parametrize("backend", ["mps", "dense"])
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

    @pytest.mark.parametrize("backend", ["mps", "dense"])
    @pytest.mark.parametrize("shots", [1, SHOT_BLOCK, SHOT_BLOCK + 1])
    def test_shot_blocks_continue_the_stream(self, shots, backend):
        state = run_program(random_program(3, 12, np.random.default_rng(3)), 3, backend, EXACT)
        loop_rng, rng = np.random.default_rng(shots), np.random.default_rng(shots)
        expected = _per_shot_counts(state, shots, loop_rng)
        counts = state.sample(shots, rng)
        assert counts == expected
        assert sum(counts.values()) == shots
        assert rng.random() == loop_rng.random()  # exactly shots * n variates consumed

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

        def spying(n, shots, rng, start, split):
            def spy(k, carry):
                rows.append(len(carry))
                return split(k, carry)

            return sample_sequential(n, shots, rng, start, spy)

        monkeypatch.setattr(mps_module, "sample_sequential", spying)
        ghz = [Instruction(GateKind.H, (0,))] + [
            Instruction(GateKind.CNOT, (q, q + 1)) for q in range(29)
        ]
        state = run_program(ghz, 30, "mps", EXACT)
        counts = state.sample(20_000, np.random.default_rng(30))
        assert counts == {"0" * 30: 9928, "1" * 30: 10072}
        assert len(rows) == 5 * 30  # 5 blocks of at most SHOT_BLOCK shots
        assert max(rows) == 2

    @pytest.mark.parametrize("backend", ["mps", "dense"])
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

    def test_failed_fallback_raises(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        state = MpsState(3)
        state.apply_one_qubit(H, 1)
        with pytest.raises(RuntimeError, match="SVD failed on bond 1"):
            state.apply_two_qubit_adjacent(CNOT, 1)
