import ast
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mpsqvm
from mpsqvm import RunRecord, TruncationPolicy, execute, parse
from mpsqvm.backends import BACKENDS, register_size
from mpsqvm.bench import run_grid
from mpsqvm.hamiltonian import load_hamiltonian
from mpsqvm.ir import bind_parameters, flatten, inline
from mpsqvm.vqe import check_grid, energy
from tests.conftest import ANSATZ_PATH, HAM_PATH, REPO_ROOT

BELL_SRC = """\
__qpu__ bell(AcceleratorBuffer b) {
  H 0
  CNOT 0 1
  MEASURE 0 [0]
  MEASURE 1 [1]
}
"""


#: The child runs with warnings as errors, like the in-process tests.
CHILD_ENV = {**os.environ, "PYTHONWARNINGS": "error"}


def run_cli(*args, stdin=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "mpsqvm", *args],
        input=stdin, capture_output=True, text=True, env={**CHILD_ENV, **(env or {})},
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

    def test_args_bind_like_a_call(self, tmp_path):
        """``run --kernel term0 --args 0.5`` writes the record of a kernel
        whose body is the call ``term0(b, 0.5)``."""
        source = tmp_path / "call.qk"
        source.write_text(ANSATZ_PATH.read_text()
                          + "__qpu__ main(AcceleratorBuffer b) {\n  term0(b, 0.5)\n}\n")
        outs = []
        for kernel, args in (("term0", "0.5"), ("main", "")):
            out = tmp_path / f"{kernel}.json"
            proc = run_cli("run", "--source", str(source), "--kernel", kernel, "--args", args,
                           "--shots", "1000", "--seed", "7", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

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
        # a register of 0 qubits is a bad flag, so a usage error;
        # test_gate_after_measure_exit_2 covers exit 2
        proc = run_cli(
            "run", "--source", str(bell_file), "--kernel", "bell", "--qubits", "0",
        )
        assert proc.returncode == 1, proc.stderr

    def test_gate_after_measure_exit_2(self, tmp_path):
        src = tmp_path / "mid.qk"
        src.write_text("__qpu__ k(AcceleratorBuffer b) {\n H 0\n MEASURE 0 [0]\n H 0\n}\n")
        proc = run_cli("run", "--source", str(src), "--kernel", "k")
        assert proc.returncode == 2, proc.stderr
        assert "H (0,) acts on qubit 0 after it was measured" in proc.stderr

    @pytest.mark.parametrize("mode, bond, trunc", [("relative", 2, 0.0), ("absolute", 1, 0.36)])
    def test_cutoff_mode(self, tmp_path, mode, bond, trunc):
        """Schmidt values 0.8 and 0.6 at a cutoff of 0.7: relative to s_max the
        threshold is 0.56 and keeps both, absolute keeps only 0.8."""
        src = tmp_path / "k.qk"
        src.write_text("__qpu__ k(AcceleratorBuffer b) {\n"
                       "  RY(1.2870022175865685) 0\n  CNOT 0 1\n}\n")
        proc = run_cli("run", "--source", str(src), "--kernel", "k",
                       "--cutoff", "0.7", "--cutoff-mode", mode)
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["max_bond_seen"] == bond
        assert record["trunc_error_sq"] == pytest.approx(trunc, abs=1e-12)

    def test_env_var_cutoff(self, bell_file):
        proc = run_cli(
            "run", "--source", str(bell_file), "--kernel", "bell",
            "--shots", "10", "--seed", "0", env={"MPSQVM_CUTOFF": "not-a-number"},
        )
        assert proc.returncode == 1  # env var is consulted; a bad value is a usage error
        assert "MPSQVM_CUTOFF: expected a number, got 'not-a-number'" in proc.stderr


class TestUsageErrors:
    """Bad flags, environment values and input files exit 1, not 2."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_finite_arg(self, backend):
        proc = run_cli(
            "run", "--source", str(ANSATZ_PATH), "--kernel", "term0",
            "--args", "1e400", "--backend", backend, "--shots", "10",
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == (
            "mpsqvm: error: parameter 't0' of kernel 'term0' is inf, not finite\n"
        )

    def test_arg_count_mismatch(self):
        proc = run_cli("run", "--source", str(ANSATZ_PATH), "--kernel", "term0",
                       "--args", "0.5,1")
        assert proc.returncode == 1, proc.stderr
        assert "kernel 'term0' takes 1 argument(s), got 2" in proc.stderr

    @pytest.mark.parametrize("values", [",3.14159265,,0,", "3.14159265,0,", "3.14159265,,0"])
    def test_empty_arg_field(self, tmp_path, values):
        """An empty field was dropped, so each of these bound the two values it kept."""
        source = tmp_path / "two.qk"
        source.write_text("__qpu__ k(AcceleratorBuffer b, double s, double t) {\n"
                          "  RX(s) 0\n  RY(t) 1\n  MEASURE 0 [0]\n  MEASURE 1 [1]\n}\n")
        proc = run_cli("run", "--source", str(source), "--kernel", "k",
                       "--args", values, "--shots", "10")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == "mpsqvm: error: --args: expected a number, got ''\n"

    def test_default_args_on_kernel_without_parameters(self, bell_file):
        proc = run_cli("run", "--source", str(bell_file), "--kernel", "bell", "--shots", "10")
        assert proc.returncode == 0, proc.stderr
        assert sum(json.loads(proc.stdout)["counts"].values()) == 10

    def test_overflowing_grid(self):
        """Finite ends whose distance overflows are a bad flag, not a NaN angle."""
        proc = run_cli("vqe", "--ansatz", str(ANSATZ_PATH), "--ham", str(HAM_PATH),
                       "--grid", "-1e308:1e308:3")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == (
            "mpsqvm: error: stop - start is not finite, got start=-1e+308, stop=1e+308\n"
        )

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

    @pytest.mark.parametrize("flags, message", [
        (["--qubits", "1:2:1"], "mpsqvm: error: n must be >= 2, got 1\n"),
        (["--rounds", "0:2:2"], "mpsqvm: error: rounds must be >= 1, got 0\n"),
        # bench circuits always use seeds 0..--seeds-1; the flag is not taken,
        # nor read as an abbreviation of --seeds
        (["--seed", "-1"], "unrecognized arguments: --seed -1"),
        (["--seed", "3"], "unrecognized arguments: --seed 3"),
    ])
    def test_bad_bench_flag(self, flags, message):
        proc = run_cli("bench", "--qubits", "5:5:5", "--rounds", "2:2:2", "--seeds", "1",
                       *flags)
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr

    RUN = ("run", "--source", str(ANSATZ_PATH), "--kernel", "term0")
    VQE = ("vqe", "--ansatz", str(ANSATZ_PATH), "--ham", str(HAM_PATH))
    BENCH = ("bench", "--qubits", "5:5:5", "--rounds", "2:2:2", "--seeds", "1")

    @pytest.mark.parametrize("args, env, last_line", [
        ((*VQE, "--grid", "0:1:2.5"), {},
         "mpsqvm: error: --grid: expected an integer, got '2.5'"),
        ((*VQE, "--grid", "x:1:3"), {},
         "mpsqvm: error: --grid: expected a number, got 'x'"),
        ((*BENCH, "--qubits", "5:x:5"), {},
         "mpsqvm: error: --qubits: expected an integer, got 'x'"),
        ((*BENCH, "--rounds", "2:2:0.5"), {},
         "mpsqvm: error: --rounds: expected an integer, got '0.5'"),
        ((*RUN, "--args", "0.5"), {"MPSQVM_CUTOFF": "1e-3x"},
         "mpsqvm: error: MPSQVM_CUTOFF: expected a number, got '1e-3x'"),
        ((*RUN, "--args", "0.5"), {"MPSQVM_MAX_BOND": "8.0"},
         "mpsqvm: error: MPSQVM_MAX_BOND: expected an integer, got '8.0'"),
        ((*RUN, "--args", "0.5", "--cutoff", "x"), {},
         "mpsqvm run: error: argument --cutoff: expected a number, got 'x'"),
        ((*RUN, "--args", "0.5", "--max-bond", "8.0"), {},
         "mpsqvm run: error: argument --max-bond: expected an integer, got '8.0'"),
        ((*RUN, "--args", "0.5", "--shots", "2.5"), {},
         "mpsqvm run: error: argument --shots: expected an integer, got '2.5'"),
        ((*RUN, "--args", "0.5", "--seed", "x"), {},
         "mpsqvm run: error: argument --seed: expected an integer, got 'x'"),
        ((*BENCH, "--time-budget", "x"), {},
         "mpsqvm bench: error: argument --time-budget: expected a number, got 'x'"),
    ], ids=["grid-count", "grid-start", "qubits", "rounds", "env-cutoff", "env-max-bond",
            "cutoff", "max-bond", "shots", "seed", "time-budget"])
    def test_one_message_for_a_bad_number(self, args, env, last_line):
        """Every place that reads text that is not a number words its
        rejection the same way. argparse names the flag of its own types, and
        every other place names its flag or environment variable. A number
        out of its range is the library's message (test_one_rule_one_message)."""
        proc = run_cli(*args, env=env)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines()[-1] == last_line
        if last_line.startswith("mpsqvm: "):  # argparse alone prints its usage first
            assert proc.stderr == last_line + "\n"

    def test_register_smaller_than_program(self, bell_file):
        proc = run_cli("run", "--source", str(bell_file), "--kernel", "bell", "--qubits", "1")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == (
            "mpsqvm: error: register of 1 qubit(s) is smaller than the program's qubit span 2\n"
        )

    @pytest.mark.parametrize("case", [
        "run-source-dir", "run-out-dir", "vqe-ham-dir", "run-source-not-utf8",
        "vqe-ansatz-not-utf8", "vqe-ham-not-utf8", "vqe-out-dir", "bench-out-dir",
        "bench-plot-out-dir",
    ])
    def test_unreadable_path(self, tmp_path, case):
        """A path that is a directory, or a file that is not UTF-8, is a usage
        error with a one-line message that names the path, not a traceback."""
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xff\xfe 1.0 Z\n")
        run = ["run", "--source", str(ANSATZ_PATH), "--kernel", "term0", "--args", "0.5",
               "--shots", "10"]
        vqe = ["vqe", "--ansatz", str(ANSATZ_PATH), "--ham", str(HAM_PATH), "--grid", "0:1:2"]
        bench = ["bench", "--qubits", "5:5:5", "--rounds", "2:2:2", "--seeds", "1"]
        command, flag, path = {
            "run-source-dir": (run, "--source", tmp_path),
            "run-out-dir": (run, "--out", tmp_path),
            "vqe-ham-dir": (vqe, "--ham", tmp_path),
            "run-source-not-utf8": (run, "--source", binary),
            "vqe-ansatz-not-utf8": (vqe, "--ansatz", binary),
            "vqe-ham-not-utf8": (vqe, "--ham", binary),
            # written after the simulation, and still a usage error
            "vqe-out-dir": (vqe, "--out", tmp_path),
            "bench-out-dir": (bench, "--out", tmp_path),
            "bench-plot-out-dir": (bench, "--plot-out", tmp_path),
        }[case]
        proc = run_cli(*command, flag, str(path))  # argparse keeps the last value
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("mpsqvm: error: ")
        assert proc.stderr.count("\n") == 1
        assert str(path) in proc.stderr

    def test_stdin_not_utf8(self):
        proc = subprocess.run([sys.executable, "-m", "mpsqvm", "run", "--source", "-",
                               "--kernel", "k"], input=b"\xff", capture_output=True,
                              env=CHILD_ENV)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.decode().startswith("mpsqvm: error: <stdin>: 'utf-8' codec")

    def test_env_var_oracle_qubit_cap(self, bell_file):
        proc = run_cli("run", "--source", str(bell_file), "--kernel", "bell",
                       "--backend", "dense", "--shots", "10",
                       env={"MPSQVM_ORACLE_QUBIT_CAP": "abc"})
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == (
            "mpsqvm: error: MPSQVM_ORACLE_QUBIT_CAP: expected an integer >= 1, got 'abc'\n"
        )

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_env_var_oracle_qubit_cap_below_1(self, bell_file, value):
        proc = run_cli("run", "--source", str(bell_file), "--kernel", "bell",
                       "--backend", "dense", "--shots", "10",
                       env={"MPSQVM_ORACLE_QUBIT_CAP": value})
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == (
            f"mpsqvm: error: MPSQVM_ORACLE_QUBIT_CAP: expected an integer >= 1, got {value!r}\n"
        )

    @pytest.mark.parametrize("command, env, last_line", [
        ((*RUN, "--args", "0.5", "--qubits", "30"), {},
         "mpsqvm: error: dense oracle supports 1..24 qubits, got 30"),
        ((*RUN, "--args", "0.5"), {"MPSQVM_ORACLE_QUBIT_CAP": "1"},
         "mpsqvm: error: dense oracle supports 1..1 qubits, got 2"),
        (("vqe", "--ansatz", str(ANSATZ_PATH), "--grid", "0:1:2"), {},
         "mpsqvm: error: dense oracle supports 1..24 qubits, got 25"),
    ], ids=["run-qubits", "run-cap", "vqe-hamiltonian"])
    def test_dense_register_over_the_cap(self, tmp_path, command, env, last_line):
        """A dense register the oracle cannot hold is known once the inputs
        are read, so it is a usage error, not an execution error."""
        ham = tmp_path / "wide.txt"
        ham.write_text("1.0 " + "Z" * 25 + "\n")
        extra = ["--ham", str(ham)] if command[0] == "vqe" else []
        proc = run_cli(*command, *extra, "--backend", "dense", env=env)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == last_line + "\n"

    def test_vqe_kernel_without_parameter(self, bell_file):
        proc = run_cli("vqe", "--ansatz", str(bell_file), "--kernel", "bell",
                       "--ham", str(HAM_PATH), "--grid", "0:1:2")
        assert proc.returncode == 1, proc.stderr
        assert "driver supports exactly one formal parameter" in proc.stderr

    def test_vqe_ansatz_wider_than_hamiltonian(self, tmp_path):
        source = tmp_path / "wide.qk"
        source.write_text("__qpu__ ansatz(AcceleratorBuffer b, double t0) {\n  RY(t0) 3\n}\n")
        ham = tmp_path / "z.ham"
        ham.write_text("1.0 Z\n")
        proc = run_cli("vqe", "--ansatz", str(source), "--ham", str(ham), "--grid", "0:1:2")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == (
            "mpsqvm: error: register of 1 qubit(s) is smaller than the program's qubit span 4\n"
        )

    @pytest.mark.parametrize("case", [
        "run-span", "run-dense-cap", "run-qubits", "run-shots-0", "run-shots-negative",
        "run-seed", "args-inf", "vqe-span", "vqe-dense-cap", "vqe-shots", "vqe-seed",
        "grid-count", "grid-overflow", "grid-start-nan", "grid-stop-inf", "bench-qubits",
        "bench-rounds", "bench-seeds", "bench-chi-cap-0", "bench-chi-cap-negative",
        "bench-time-budget-0", "bench-time-budget-negative", "bench-time-budget-nan",
    ])
    def test_one_rule_one_message(self, tmp_path, bell_file, case):
        """The read phase applies each rule by calling the library's own check,
        so the usage error is that check's message for the same values. The
        CLI keeps no range rule of its own."""
        wide = tmp_path / "wide.qk"
        wide.write_text("__qpu__ ansatz(AcceleratorBuffer b, double t0) {\n  RY(t0) 3\n}\n")
        z1, z25 = tmp_path / "z1.ham", tmp_path / "z25.ham"
        z1.write_text("1.0 Z\n")
        z25.write_text("1.0 " + "Z" * 25 + "\n")
        bell = inline(parse(BELL_SRC).kernels["bell"], [])
        ansatz = parse(wide.read_text()).kernels["ansatz"].children
        h2 = parse(ANSATZ_PATH.read_text()).kernels
        h2_ham = load_hamiltonian(HAM_PATH)
        run = ("run", "--source", str(bell_file), "--kernel", "bell")
        vqe = ("vqe", "--ansatz", str(ANSATZ_PATH), "--ham", str(HAM_PATH))
        bench = ("bench", "--seeds", "1")
        cell = ("--qubits", "5:5:5", "--rounds", "2:2:2")
        argv, check = {
            "run-span": ((*run, "--qubits", "1"), lambda: register_size(bell, 1, "mps")),
            "run-dense-cap": ((*run, "--qubits", "30", "--backend", "dense"),
                              lambda: register_size(bell, 30, "dense")),
            "run-qubits": ((*run, "--qubits", "0"), lambda: register_size(bell, 0, "mps")),
            "run-shots-0": ((*run, "--shots", "0"), lambda: execute(bell, shots=0)),
            "run-shots-negative": ((*run, "--shots", "-5"), lambda: execute(bell, shots=-5)),
            "run-seed": ((*run, "--seed", "-1"), lambda: execute(bell, seed=-1)),
            "args-inf": (("run", "--source", str(ANSATZ_PATH), "--kernel", "term0",
                          "--args", "inf"), lambda: inline(h2["term0"], [math.inf])),
            "vqe-span": (("vqe", "--ansatz", str(wide), "--ham", str(z1), "--grid", "0:1:2"),
                         lambda: register_size(ansatz, 1, "mps")),
            "vqe-dense-cap": (("vqe", "--ansatz", str(wide), "--ham", str(z25), "--grid",
                               "0:1:2", "--backend", "dense"),
                              lambda: register_size(ansatz, 25, "dense")),
            "vqe-shots": ((*vqe, "--shots", "0"),
                          lambda: energy(h2["ansatz"], 0.0, h2_ham, shots=0)),
            "vqe-seed": ((*vqe, "--shots", "10", "--seed", "-1"),
                         lambda: energy(h2["ansatz"], 0.0, h2_ham, shots=10, seed=-1)),
            "grid-count": ((*vqe, "--grid", "0:1:1"), lambda: check_grid(0.0, 1.0, 1)),
            "grid-overflow": ((*vqe, "--grid", "-1e308:1e308:3"),
                              lambda: check_grid(-1e308, 1e308, 3)),
            "grid-start-nan": ((*vqe, "--grid", "nan:1:3"),
                               lambda: check_grid(math.nan, 1.0, 3)),
            "grid-stop-inf": ((*vqe, "--grid", "0:-inf:3"),
                              lambda: check_grid(0.0, -math.inf, 3)),
            "bench-qubits": ((*bench, "--qubits", "1:2:1", "--rounds", "2:2:2"),
                             lambda: run_grid([1, 2], [2], 1)),
            "bench-rounds": ((*bench, "--qubits", "5:5:5", "--rounds", "0:2:2"),
                             lambda: run_grid([5], [0, 2], 1)),
            "bench-seeds": ((*bench, *cell, "--seeds", "0"), lambda: run_grid([5], [2], 0)),
            "bench-chi-cap-0": ((*bench, *cell, "--chi-cap", "0"),
                                lambda: run_grid([5], [2], 1, chi_budget=0)),
            "bench-chi-cap-negative": ((*bench, *cell, "--chi-cap", "-5"),
                                       lambda: run_grid([5], [2], 1, chi_budget=-5)),
            "bench-time-budget-0": ((*bench, *cell, "--time-budget", "0"),
                                    lambda: run_grid([5], [2], 1, time_budget=0.0)),
            "bench-time-budget-negative": ((*bench, *cell, "--time-budget", "-1"),
                                           lambda: run_grid([5], [2], 1, time_budget=-1.0)),
            "bench-time-budget-nan": ((*bench, *cell, "--time-budget", "nan"),
                                      lambda: run_grid([5], [2], 1, time_budget=math.nan)),
        }[case]
        with pytest.raises(ValueError) as info:
            check()
        proc = run_cli(*argv)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == f"mpsqvm: error: {info.value}\n"

    def test_nan_coefficient(self, tmp_path):
        ham = tmp_path / "nan.ham"
        ham.write_text("-1.05 II\nnan ZI\n")
        proc = run_cli("vqe", "--ansatz", str(ANSATZ_PATH), "--ham", str(ham),
                       "--grid", "-1:1:3")
        assert proc.returncode == 1, proc.stderr
        assert "line 2: bad coefficient 'nan'" in proc.stderr

    @pytest.mark.parametrize("text, message", [
        ("-1.05 II\n0.39 ZQ\n", "line 2: unknown Pauli label 'Q'"),
        ("-1.05 II\n0.39 Z\n", "line 2: Pauli string length 1 != qubit count 2"),
    ], ids=["bad-label", "width-mismatch"])
    def test_bad_pauli_string(self, tmp_path, text, message):
        ham = tmp_path / "bad.ham"
        ham.write_text(text)
        proc = run_cli("vqe", "--ansatz", str(ANSATZ_PATH), "--ham", str(ham),
                       "--grid", "-1:1:3")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == f"mpsqvm: error: {message}\n"

    def test_repeated_parameter(self, tmp_path):
        """Without the check, --args 0,3.14159 bound t = 3.14159 and dropped the 0."""
        source = tmp_path / "dup.qk"
        source.write_text("__qpu__ k(AcceleratorBuffer b, double t, double t) {\n"
                          "  RX(t) 0\n  MEASURE 0 [0]\n}\n")
        proc = run_cli("run", "--source", str(source), "--kernel", "k",
                       "--args", "0,3.14159", "--shots", "10")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == "mpsqvm: error: 1:9: kernel 'k' declares parameter 't' twice\n"


class TestExitStatusByPhase:
    def test_only_main_maps_errors_to_exit_codes(self):
        """``cli.py`` names no error class of its own or of the library, and
        only ``main`` catches the ``RuntimeError`` and ``OSError`` that it maps
        to an exit status."""
        tree = ast.parse((REPO_ROOT / "src" / "mpsqvm" / "cli.py").read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update({node.name, node.asname})
            elif isinstance(node, ast.ClassDef):
                names.add(node.name)
        banned = {"UsageError", "ParseError", "HamiltonianFormatError", "IrError"}
        assert not names & banned, sorted(names & banned)

        def mapped(node: ast.AST) -> list[ast.ExceptHandler]:
            return [h for h in ast.walk(node) if isinstance(h, ast.ExceptHandler)
                    and h.type is not None
                    and {n.id for n in ast.walk(h.type) if isinstance(n, ast.Name)}
                    & {"RuntimeError", "OSError"}]

        [main] = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main"]
        assert mapped(main) and mapped(main) == mapped(tree)

        # argparse's own exits are mapped there too: no parser subclass
        # overrides them, and no other code names SystemExit
        subclassed = [c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                      and any(ast.unparse(b).endswith("ArgumentParser") for b in c.bases)]
        assert not subclassed, subclassed

        def system_exits(node: ast.AST) -> int:
            return sum(isinstance(n, ast.Name) and n.id == "SystemExit" for n in ast.walk(node))

        assert system_exits(main) and system_exits(main) == system_exits(tree)

    @pytest.mark.parametrize("args, status, stream, digest", [
        ([], 1, "stderr", "a4ec141344beb7da9d9626be263f80d4"),
        (["frob"], 1, "stderr", "3eee1924ff8be83c63b902f7fd6a34e3"),
        (["run"], 1, "stderr", "54499ce63a9263ad101643438dc44c62"),
        (["run", "--source", "x", "--kernel", "k", "--backend", "gpu"], 1, "stderr",
         "2a0f9ba3e284ee836316b71a8b1b0a4a"),
        (["bench", "--seed", "3"], 1, "stderr", "7c3714b01dbeeaafb07f2bba41aae5e8"),
        (["--help"], 0, "stdout", "f7259abef4a4be55439b0bf238dba88c"),
        (["run", "--help"], 0, "stdout", "364151087cbfe228b7dbf1145feaa832"),
        (["vqe", "--help"], 0, "stdout", "10defb0e6139836020c6ca7a754eb5a9"),
        (["bench", "--help"], 0, "stdout", "279dc4531a1d55a72c37bcfba9c70c6d"),
    ], ids=["no-command", "unknown-command", "missing-flags", "bad-choice", "unknown-flag",
            "help", "run-help", "vqe-help", "bench-help"])
    def test_argparse_exits_pinned(self, args, status, stream, digest):
        """A command line that argparse rejects exits 1 and prints only to
        stderr; ``--help`` exits 0 and prints only to stdout. COLUMNS is fixed
        because argparse wraps its usage lines to the terminal width."""
        proc = run_cli(*args, env={"COLUMNS": "80"})
        assert proc.returncode == status, proc.stderr
        other = "stdout" if stream == "stderr" else "stderr"
        assert getattr(proc, other) == ""
        assert hashlib.md5(getattr(proc, stream).encode()).hexdigest() == digest


class TestClassicalTargets:
    """Count keys hold one bit per classical index, in index order."""

    @staticmethod
    def run_measures(tmp_path, backend, body):
        src = tmp_path / "m.qk"
        src.write_text(f"__qpu__ k(AcceleratorBuffer b) {{\n{body}}}\n")
        return run_cli("run", "--source", str(src), "--kernel", "k", "--shots", "10",
                       "--backend", backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_key_follows_classical_index(self, tmp_path, backend):
        proc = self.run_measures(tmp_path, backend, "  X 0\n  MEASURE 0 [1]\n  MEASURE 1 [0]\n")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["counts"] == {"01": 10}

    BAD_INDEX = pytest.mark.parametrize("body, message", [
        ("  MEASURE 0 [0]\n  MEASURE 1 [0]\n", "classical bit 0 is measured twice"),
        ("  MEASURE 0 [1]\n", "classical bit 0 is not measured"),
    ], ids=["duplicate", "missing"])

    @pytest.mark.parametrize("backend", BACKENDS)
    @BAD_INDEX
    def test_bad_classical_index_exit_2(self, tmp_path, backend, body, message):
        proc = self.run_measures(tmp_path, backend, body)
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr

    @pytest.mark.parametrize("shots", [[], ["--shots", "100"]], ids=["analytic", "sampled"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @BAD_INDEX
    def test_vqe_bad_classical_index_exit_2(self, tmp_path, backend, shots, body, message):
        ansatz = tmp_path / "a.qk"
        ansatz.write_text(
            f"__qpu__ a(AcceleratorBuffer b, double t0) {{\n  RY(t0) 0\n{body}}}\n"
        )
        ham = tmp_path / "z.ham"
        ham.write_text("1.0 ZI\n")
        proc = run_cli("vqe", "--ansatz", str(ansatz), "--kernel", "a", "--ham", str(ham),
                       "--grid", "0:1:3", "--backend", backend, *shots)
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr


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

    def test_unallocatable_grid_exit_2(self):
        """A grid of 1e18 points needs 8e18 bytes, more than any 64-bit address
        space holds, so numpy raises MemoryError before it allocates: an
        execution error, on one line."""
        proc = run_cli("vqe", "--ansatz", str(ANSATZ_PATH), "--ham", str(HAM_PATH),
                       "--grid", "0:1:1000000000000000000")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("mpsqvm: execution error: ")
        assert proc.stderr.count("\n") == 1

    def test_ansatz_and_ham_both_stdin_exit_1(self):
        proc = run_cli("vqe", "--ansatz", "-", "--ham", "-", "--grid", "0:1:2",
                       stdin=ANSATZ_PATH.read_text())
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == "mpsqvm: error: --ansatz and --ham cannot both read stdin ('-')\n"


    def test_gate_after_measure_exit_2(self, tmp_path):
        source = tmp_path / "m.qk"
        source.write_text(
            "__qpu__ m(AcceleratorBuffer b, double t0) {\n"
            "  H 0\n  MEASURE 0 [0]\n  RY(t0) 0\n}\n"
        )
        ham = tmp_path / "z.ham"
        ham.write_text("1.0 Z\n")
        for extra in ([], ["--shots", "100"]):
            proc = run_cli("vqe", "--ansatz", str(source), "--kernel", "m",
                           "--ham", str(ham), "--grid", "0:1:3", *extra)
            assert proc.returncode == 2, proc.stderr
            assert "after it was measured" in proc.stderr


class TestSamplingStream:
    """Fixed-seed outputs of the sampled paths. They pin the RNG contract:
    one uniform variate per qubit per shot, drawn shot by shot, with each
    Hamiltonian term seeded by ``[seed, term index]``."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_counts(self, backend):
        proc = run_cli(
            "run", "--source", str(ANSATZ_PATH), "--kernel", "term0", "--args", "0.5",
            "--shots", "1000", "--seed", "7", "--backend", backend,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["counts"] == {"0": 937, "1": 63}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sampled_vqe_rows(self, backend):
        proc = run_cli(
            "vqe", "--ansatz", str(ANSATZ_PATH), "--kernel", "ansatz", "--ham", str(HAM_PATH),
            "--shots", "500", "--seed", "3", "--grid", "0:1:5", "--backend", backend,
        )
        assert proc.returncode == 0, proc.stderr
        energies = [line.split(",")[1] for line in proc.stdout.strip().split("\n")[1:]]
        assert energies == [
            "-0.27926", "-0.360856", "-0.5005556", "-0.6349099999999999",
            "-0.8057643999999999",
        ]

    def test_sampled_vqe_default_seed_is_0(self):
        """Without --seed, vqe --shots samples as with --seed 0, unlike run."""
        base = ["vqe", "--ansatz", str(ANSATZ_PATH), "--ham", str(HAM_PATH),
                "--shots", "500", "--grid", "0:1:5"]
        default, zero = run_cli(*base), run_cli(*base, "--seed", "0")
        assert default.returncode == zero.returncode == 0, default.stderr
        assert default.stdout == zero.stdout
        assert default.stdout != run_cli(*base, "--seed", "1").stdout


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

    def test_infinite_time_budget_means_no_limit(self):
        proc = run_cli("bench", "--qubits", "5:5:5", "--rounds", "2:2:2", "--seeds", "1",
                       "--time-budget", "inf")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[1].endswith(",false")


class TestDeterminism:
    @pytest.mark.parametrize("command, expected", [
        (["run", "--source", str(ANSATZ_PATH), "--kernel", "term0", "--args", "0.5",
          "--shots", "1000", "--seed", "7", "--backend", "mps"],
         {"out": "fa4eac7d97fee668d3f03d1949146711"}),
        (["run", "--source", str(ANSATZ_PATH), "--kernel", "term0", "--args", "0.5",
          "--shots", "1000", "--seed", "7", "--backend", "dense"],
         {"out": "c550b44a3ef3954c784b5772f9cda17a"}),
        (["vqe", "--ansatz", str(ANSATZ_PATH), "--ham", str(HAM_PATH), "--shots", "500",
          "--seed", "3", "--grid", "0:1:5"],
         {"out": "06dc74456422f7fda21b6d05b8370a1f"}),
        (["vqe", "--ansatz", str(ANSATZ_PATH), "--ham", str(HAM_PATH), "--backend", "mps"],
         {"out": "55733a33f396fb783b239861202c2683"}),
        (["vqe", "--ansatz", str(ANSATZ_PATH), "--ham", str(HAM_PATH), "--backend", "dense"],
         {"out": "0d2bd49f6368e905135725a5afe06860"}),
        (["bench", "--qubits", "5:45:10", "--rounds", "2:10:2", "--seeds", "3",
          "--cutoff", "1e-4"],
         {"out": "18ab2ffb3b70ae0c4c0d1ea8b5aaeced",
          "plot-out": "642a0f20163c03310fb511e082ad323f"}),
    ], ids=["run-mps", "run-dense", "vqe-sampled", "vqe-mps", "vqe-dense", "bench"])
    def test_out_files_pinned(self, tmp_path, command, expected):
        """The --out files are byte-identical to those of earlier releases."""
        paths = {flag: tmp_path / flag for flag in expected}
        outputs = [arg for flag, path in paths.items() for arg in (f"--{flag}", str(path))]
        proc = run_cli(*command, *outputs)
        assert proc.returncode == 0, proc.stderr
        digests = {flag: hashlib.md5(path.read_bytes()).hexdigest() for flag, path in paths.items()}
        assert digests == expected

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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_out_is_the_record(self, tmp_path, backend):
        """``run --out`` holds exactly the fields of :class:`RunRecord`, so
        nothing timed can reach the byte-reproducible file."""
        out = tmp_path / "run.json"
        proc = run_cli("run", "--source", str(ANSATZ_PATH), "--kernel", "term0",
                       "--args", "0.5", "--shots", "1000", "--seed", "7",
                       "--backend", backend, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        written = json.loads(out.read_text())
        assert list(written) == [f.name for f in dataclasses.fields(RunRecord)]
        kernel = parse(ANSATZ_PATH.read_text()).kernels["term0"]
        record = execute(flatten(bind_parameters(kernel, [0.5])), backend=backend,
                         policy=TruncationPolicy(), shots=1000, seed=7)
        assert dataclasses.asdict(record) == written

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


def test_package_exports_only_the_library_api():
    """The package exports the library's API; the four test and benchmark
    helpers stay in their modules and are not package attributes."""
    assert sorted(mpsqvm.__all__) == [
        "BenchRecord", "CompositeInstruction", "DenseState", "GateKind", "Instruction",
        "MpsState", "ParseError", "PauliHamiltonian", "RoundCircuitSpec", "RunRecord",
        "SourceUnit", "SweepResult", "TruncationPolicy", "energy", "execute",
        "generate_round_circuit", "parse", "parse_hamiltonian", "run_grid", "run_program",
        "sweep", "unparse",
    ]
    assert all(hasattr(mpsqvm, name) for name in mpsqvm.__all__)
    for module, name in (("ir", "bind_parameters"), ("ir", "flatten"), ("dense", "dense_run"),
                         ("hamiltonian", "load_hamiltonian")):
        assert not hasattr(mpsqvm, name)
        helper = getattr(getattr(mpsqvm, module), name)
        assert callable(helper) and helper.__module__ == f"mpsqvm.{module}"


class TestRuntimeDependencies:
    @staticmethod
    def top_level_modules(code: str) -> set[str]:
        """Top-level names in ``sys.modules`` after a fresh interpreter runs ``code``."""
        src = str(Path(mpsqvm.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0, proc.stderr
        return {name.split(".")[0] for name in proc.stdout.split()}

    def test_numpy_is_the_only_runtime_dependency(self):
        """Importing the package and its CLI loads only the standard library
        and numpy, beyond what a bare interpreter's ``site`` already loads."""
        baseline = self.top_level_modules("")
        loaded = self.top_level_modules("import mpsqvm, mpsqvm.cli")
        assert {"mpsqvm", "numpy"} <= loaded - baseline
        assert loaded - baseline - set(sys.stdlib_module_names) - {"mpsqvm", "numpy"} == set()

    def test_every_import_in_the_source_is_stdlib_or_numpy(self):
        """Every absolute import in ``src/mpsqvm``, including one inside a
        function that importing the package does not run, names a standard
        library module or numpy."""
        allowed = sys.stdlib_module_names | {"numpy"}
        offenders = []
        for path in sorted((REPO_ROOT / "src" / "mpsqvm").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                              if name.split(".")[0] not in allowed]
        assert offenders == []
