import pytest

from mpsqvm import (
    GateKind,
    RoundCircuitSpec,
    TruncationPolicy,
    generate_round_circuit,
    run_grid,
    run_program,
)
from mpsqvm.bench import BenchRecord, emit_report

EXACT = TruncationPolicy(cutoff=0.0)


class TestGenerateRoundCircuit:
    def test_first_layer_is_hadamards(self):
        program = generate_round_circuit(RoundCircuitSpec(5, 1, 0))
        assert [i.kind for i in program[:5]] == [GateKind.H] * 5
        assert [i.qubits for i in program[:5]] == [(q,) for q in range(5)]

    def test_hadamards_only_in_first_round(self):
        program = generate_round_circuit(RoundCircuitSpec(4, 3, 0))
        h_layers = [i for i in program[:4]]
        assert all(i.kind is GateKind.H for i in h_layers)
        # one H layer + per round: n single-qubit gates + CNOT layer
        cnots = [i for i in program if i.kind is GateKind.CNOT]
        per_round = [len(range(0, 3, 2)), len(range(1, 3, 2)), len(range(0, 3, 2))]
        assert len(cnots) == sum(per_round)

    def test_deterministic_given_seed(self):
        spec = RoundCircuitSpec(2, 2, 123)
        assert generate_round_circuit(spec) == generate_round_circuit(spec)

    def test_alternating_brickwork_parity(self):
        program = generate_round_circuit(RoundCircuitSpec(6, 2, 0))
        rounds = []
        current = []
        for instr in program:
            if instr.kind is GateKind.CNOT:
                current.append(instr.qubits)
            elif current:
                rounds.append(current)
                current = []
        rounds.append(current)
        assert rounds[0] == [(0, 1), (2, 3), (4, 5)]
        assert rounds[1] == [(1, 2), (3, 4)]

    def test_two_round_bond_law(self):
        for seed in range(5):
            program = generate_round_circuit(RoundCircuitSpec(8, 2, seed))
            state = run_program(program, 8, "mps", EXACT)
            assert state.max_bond_seen == 4

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            RoundCircuitSpec(1, 2, 0)
        with pytest.raises(ValueError):
            RoundCircuitSpec(4, 0, 0)

    def test_measure_in_pool_is_rejected(self):
        with pytest.raises(ValueError, match="MEASURE is not a single-qubit gate"):
            RoundCircuitSpec(3, 1, 0, ("MEASURE",))

    def test_empty_pool_is_rejected(self):
        with pytest.raises(ValueError, match="pool"):
            RoundCircuitSpec(3, 1, 0, ())


class TestRunGrid:
    def test_cell_count_and_shape(self):
        records = run_grid([5, 10], [2], seeds_per_cell=2, policy=EXACT)
        assert len(records) == 2
        assert all(r.max_chi == 4 for r in records)
        assert all(not r.skipped for r in records)

    def test_monotone_entanglement(self):
        chis = []
        for rounds in (2, 4, 6):
            program = generate_round_circuit(RoundCircuitSpec(6, rounds, 7))
            chis.append(run_program(program, 6, "mps", EXACT).max_bond_seen)
        assert chis == sorted(chis)

    def test_statistics_consistent(self):
        [record] = run_grid([6], [4], seeds_per_cell=5, policy=EXACT)
        assert record.std_bytes >= 0
        assert min(record.peak_bytes) <= record.mean_bytes <= max(record.peak_bytes)

    def test_chi_budget_marks_skipped(self):
        [record] = run_grid([8], [16], seeds_per_cell=1, policy=EXACT, chi_budget=4)
        assert record.skipped

    def test_chi_budget_boundary(self):
        """A cell whose chi equals the budget is kept; one above it is skipped."""
        [kept] = run_grid([5], [2], seeds_per_cell=1, policy=EXACT, chi_budget=4)
        assert not kept.skipped and kept.max_chi == 4
        [skipped] = run_grid([5], [2], seeds_per_cell=1, policy=EXACT, chi_budget=3)
        assert skipped.skipped

    def test_time_budget_marks_skipped(self):
        [record] = run_grid([5], [2], seeds_per_cell=2, policy=EXACT, time_budget=0)
        assert record.skipped

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_seeds_per_cell_below_one_rejected(self, seeds):
        with pytest.raises(ValueError, match=f"seeds_per_cell must be >= 1, got {seeds}"):
            run_grid([5], [2], seeds_per_cell=seeds, policy=EXACT)

    def test_determinism(self):
        a = run_grid([5], [2, 4], seeds_per_cell=3, policy=EXACT)
        b = run_grid([5], [2, 4], seeds_per_cell=3, policy=EXACT)
        assert emit_report(a) == emit_report(b)


class TestEmitReport:
    def test_single_record(self):
        records = run_grid([5], [2], seeds_per_cell=2, policy=EXACT)
        csv_text, plot_text = emit_report(records)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "n,rounds,mean_bytes,std_bytes,mean_chi,max_chi,skipped"
        assert len(lines) == 2
        assert lines[1].startswith("5,2,")
        assert plot_text.startswith("5 2 ")

    def test_skipped_row(self):
        [record] = run_grid([8], [16], seeds_per_cell=1, policy=EXACT, chi_budget=4)
        csv_text, _ = emit_report([record])
        assert csv_text.strip().split("\n")[1] == "8,16,,,,,true"

    def test_grid_row_count(self):
        records = run_grid([5, 10, 15], [2, 4], seeds_per_cell=1, policy=EXACT)
        csv_text, _ = emit_report(records)
        assert len(csv_text.strip().split("\n")) == 1 + 6

    def test_plot_sorted_and_skips_left_out(self):
        # given out of grid order; n=5 has a skipped cell, every n=8 cell is skipped
        records = [
            BenchRecord(10, 4, [300, 500], [4, 4]),
            BenchRecord(5, 6, skipped=True),
            BenchRecord(8, 2, skipped=True),
            BenchRecord(5, 4, [200, 400], [2, 4]),
            BenchRecord(10, 2, [64], [1]),
            BenchRecord(8, 4, skipped=True),
            BenchRecord(5, 2, [100], [2]),
        ]
        csv_text, plot_text = emit_report(records)
        assert plot_text == (
            "5 2 100.0 0.0\n5 4 300.0 100.0\n"
            "\n"
            "10 2 64.0 0.0\n10 4 400.0 100.0\n"
        )
        rows = [line.split(",")[:2] for line in csv_text.splitlines()[1:]]
        assert rows == [[str(r.n), str(r.rounds)] for r in records]

    def test_plot_of_all_skipped_cells_is_empty(self):
        records = [BenchRecord(8, 4, skipped=True), BenchRecord(5, 2, skipped=True)]
        assert emit_report(records)[1] == "\n"
