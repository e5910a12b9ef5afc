import json
import os
import subprocess
import sys

import pytest

from tests.conftest import ANSATZ_PATH, HAM_PATH

BELL_SRC = """\
__qpu__ bell(AcceleratorBuffer b) {
  H 0
  CNOT 0 1
  MEASURE 0 [0]
  MEASURE 1 [1]
}
"""


def run_cli(*args, stdin=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "mpsqvm", *args],
        input=stdin, capture_output=True, text=True,
        env=None if env is None else {**os.environ, **env},
    )


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qk"
    path.write_text(BELL_SRC)
    return path


class TestRunCommand:
    def test_bell_dense_counts(self, bell_file):
        proc = run_cli(
            "run", "--source", str(bell_file), "--kernel", "bell",
            "--backend", "dense", "--shots", "1000", "--seed", "7",
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert set(record["counts"]) <= {"00", "11"}
        assert sum(record["counts"].values()) == 1000

    def test_backend_swap_keeps_counts(self, bell_file):
        base = ["run", "--source", str(bell_file), "--kernel", "bell",
                "--shots", "1000", "--seed", "7", "--cutoff", "0"]
        dense = json.loads(run_cli(*base, "--backend", "dense").stdout)
        mps = json.loads(run_cli(*base, "--backend", "mps").stdout)
        assert dense["counts"] == mps["counts"]

    def test_term0_with_args(self, tmp_path):
        proc = run_cli(
            "run", "--source", str(ANSATZ_PATH), "--kernel", "term0",
            "--args", "0.5", "--shots", "100", "--seed", "1",
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["max_bond_seen"] <= 2
        assert all(len(k) == 1 for k in record["counts"])

    def test_stdin_source(self):
        proc = run_cli(
            "run", "--source", "-", "--kernel", "bell", "--shots", "10",
            "--seed", "0", stdin=BELL_SRC,
        )
        assert proc.returncode == 0, proc.stderr

    def test_parse_error_exit_1(self, tmp_path):
        bad = tmp_path / "bad.qk"
        bad.write_text("__qpu__ k(AcceleratorBuffer b) { BOGUS 0 }")
        proc = run_cli("run", "--source", str(bad), "--kernel", "k")
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_execution_error_exit_2(self, bell_file):
        proc = run_cli(
            "run", "--source", str(bell_file), "--kernel", "bell", "--qubits", "0",
        )
        assert proc.returncode != 0

    def test_gate_after_measure_exit_2(self, tmp_path):
        src = tmp_path / "mid.qk"
        src.write_text("__qpu__ k(AcceleratorBuffer b) {\n H 0\n MEASURE 0 [0]\n H 0\n}\n")
        proc = run_cli("run", "--source", str(src), "--kernel", "k")
        assert proc.returncode == 2, proc.stderr
        assert "H (0,) acts on qubit 0 after it was measured" in proc.stderr

    def test_env_var_cutoff(self, bell_file):
        proc = run_cli(
            "run", "--source", str(bell_file), "--kernel", "bell",
            "--shots", "10", "--seed", "0", env={"MPSQVM_CUTOFF": "not-a-number"},
        )
        assert proc.returncode == 1  # env var is consulted; a bad value is a usage error
        assert "MPSQVM_CUTOFF='not-a-number'" in proc.stderr


class TestUsageErrors:
    """Bad flags, environment values and input files exit 1, not 2."""

    @pytest.mark.parametrize("backend", ["dense", "mps"])
    def test_non_finite_arg(self, backend):
        proc = run_cli(
            "run", "--source", str(ANSATZ_PATH), "--kernel", "term0",
            "--args", "1e400", "--backend", backend, "--shots", "10",
        )
        assert proc.returncode == 1, proc.stderr
        assert "'1e400' is not a finite number" in proc.stderr

    def test_arg_count_mismatch(self):
        proc = run_cli("run", "--source", str(ANSATZ_PATH), "--kernel", "term0",
                       "--args", "0.5,1")
        assert proc.returncode == 1, proc.stderr
        assert "takes 1 parameter(s), --args gives 2" in proc.stderr

    def test_non_finite_grid(self):
        proc = run_cli("vqe", "--ansatz", str(ANSATZ_PATH), "--ham", str(HAM_PATH),
                       "--grid", "nan:1:3")
        assert proc.returncode == 1, proc.stderr
        assert "'nan' is not a finite number" in proc.stderr

    def test_max_bond_zero(self, bell_file):
        proc = run_cli("run", "--source", str(bell_file), "--kernel", "bell",
                       "--max-bond", "0")
        assert proc.returncode == 1, proc.stderr
        assert "max_bond must be >= 1" in proc.stderr

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_env_var_max_bond(self, bell_file, value):
        proc = run_cli("run", "--source", str(bell_file), "--kernel", "bell",
                       "--shots", "10", env={"MPSQVM_MAX_BOND": value})
        assert proc.returncode == 1, proc.stderr
        assert value in proc.stderr

    @pytest.mark.parametrize("command, flag, value", [
        ("run", "--shots", "-5"),
        ("run", "--shots", "0"),
        ("vqe", "--shots", "0"),
        ("bench", "--seeds", "0"),
    ])
    def test_non_positive_count(self, command, flag, value):
        inputs = {
            "run": ["--source", str(ANSATZ_PATH), "--kernel", "term0", "--args", "0.5"],
            "vqe": ["--ansatz", str(ANSATZ_PATH), "--ham", str(HAM_PATH), "--grid", "-1:1:3"],
            "bench": ["--qubits", "5:5:5", "--rounds", "2:2:2"],
        }[command]
        proc = run_cli(command, *inputs, flag, value)
        assert proc.returncode == 1, proc.stderr
        assert f"argument {flag}: expected an integer >= 1, got '{value}'" in proc.stderr

    def test_env_var_oracle_qubit_cap(self, bell_file):
        proc = run_cli("run", "--source", str(bell_file), "--kernel", "bell",
                       "--backend", "dense", "--shots", "10",
                       env={"MPSQVM_ORACLE_QUBIT_CAP": "abc"})
        assert proc.returncode == 1, proc.stderr
        assert "MPSQVM_ORACLE_QUBIT_CAP='abc'" in proc.stderr

    def test_nan_coefficient(self, tmp_path):
        ham = tmp_path / "nan.ham"
        ham.write_text("-1.05 II\nnan ZI\n")
        proc = run_cli("vqe", "--ansatz", str(ANSATZ_PATH), "--ham", str(ham),
                       "--grid", "-1:1:3")
        assert proc.returncode == 1, proc.stderr
        assert "line 2: bad coefficient 'nan'" in proc.stderr


class TestVqeCommand:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "vqe", "--ansatz", str(ANSATZ_PATH), "--kernel", "ansatz",
            "--ham", str(HAM_PATH), "--backend", "dense",
            "--grid", "-3.14159265:3.14159265:100", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta,energy"
        assert len(lines) == 101

    def test_missing_ham_exit_1(self):
        proc = run_cli("vqe", "--ansatz", str(ANSATZ_PATH))
        assert proc.returncode == 1
        assert "usage" in proc.stderr.lower()


class TestBenchCommand:
    def test_two_cell_grid(self, tmp_path):
        out = tmp_path / "bench.csv"
        proc = run_cli(
            "bench", "--qubits", "5:10:5", "--rounds", "2:2:2",
            "--seeds", "2", "--cutoff", "0", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert all(line.split(",")[5] == "4" for line in lines[1:])

    def test_bad_range_exit_1(self):
        proc = run_cli("bench", "--qubits", "oops")
        assert proc.returncode == 1


class TestDeterminism:
    def test_run_outputs_byte_identical(self, bell_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = run_cli(
                "run", "--source", str(bell_file), "--kernel", "bell",
                "--shots", "500", "--seed", "3", "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_vqe_outputs_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            proc = run_cli(
                "vqe", "--ansatz", str(ANSATZ_PATH), "--ham", str(HAM_PATH),
                "--grid", "-1:1:5", "--backend", "dense", "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
