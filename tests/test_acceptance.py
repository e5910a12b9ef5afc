"""End-to-end acceptance suite.

One test per release criterion; each prints a PASS line with its measured
numbers (visible with ``pytest -s`` or in the failure report). Tolerances are
asserted exactly as stated, not calibrated.
"""

import json
import subprocess
import sys
import time
from math import pi

import numpy as np
import pytest

from mpsqvm import (
    MpsState,
    RoundCircuitSpec,
    TruncationPolicy,
    energy,
    generate_round_circuit,
    parse,
    run_program,
    sweep,
    unparse,
)
from mpsqvm.dense import dense_run
from mpsqvm.gates import apply_program
from mpsqvm.hamiltonian import load_hamiltonian
from mpsqvm.ir import GateKind, bind_parameters, flatten
from mpsqvm.parser import ParseError
from mpsqvm.vqe import _basis_rotations, _sampled_term, binomial_sigma
from tests.conftest import (
    ANSATZ_PATH,
    HAM_PATH,
    exact_ground_energy,
    mps_statevector,
    random_program,
)

EXACT = TruncationPolicy(cutoff=0.0)

FIG_LISTING = """\
__qpu__ ansatz(AcceleratorBuffer b,
                            double t0) {
  RX(3.1415926) 0
  RY(1.57079) 1
  RX(7.85397) 0
  CNOT 1 0
  RZ(t0) 0
  CNOT 1 0
  RY(7.8539752) 1
  RX(1.57079) 0
}
__qpu__ term0(AcceleratorBuffer b, double t0) {
  ansatz(b, t0)
  MEASURE 0 [0]
}
"""


def report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def _stepwise_run(program, n, policy):
    """Run while asserting the O(n chi^2) storage law after every gate."""

    def check_storage(state):
        chi = state.max_bond_seen
        assert state.memory_estimate_bytes() <= 16 * (2 * n * chi**2 + (n - 1) * chi)

    return apply_program(MpsState(n, policy), program, check_storage)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst_fidelity = 1.0
    worst_z = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 9))
        program = random_program(n, int(rng.integers(5, 31)), rng)
        policy = TruncationPolicy(cutoff=0.0, max_bond=2 ** ((n + 1) // 2))
        mps = run_program(program, n, "mps", policy)
        dense = dense_run(program, n)
        fidelity = abs(np.vdot(dense.amps, mps_statevector(mps))) ** 2
        worst_fidelity = min(worst_fidelity, fidelity)
        assert fidelity >= 1 - 1e-10
        for q in range(n):
            pauli = "I" * q + "Z" + "I" * (n - q - 1)
            gap = abs(mps.expectation_pauli(pauli) - dense.expectation_pauli(pauli))
            worst_z = max(worst_z, gap)
            assert gap < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(
        "criterion-1 oracle equivalence",
        f"200 circuits, worst fidelity {worst_fidelity:.3e}, "
        f"worst <Z> gap {worst_z:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_two_round_bond_law():
    start = time.perf_counter()
    for n in range(5, 45, 5):
        for seed in range(10):
            program = generate_round_circuit(RoundCircuitSpec(n, 2, seed))
            state = _stepwise_run(program, n, EXACT)
            assert state.max_bond_seen == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report("criterion-2 two-round bond law",
           f"chi = 4 for all n in 5..40, 10 seeds each, {elapsed:.1f}s")


def test_criterion_3_saturation_law():
    start = time.perf_counter()
    for n, expected in ((6, 8), (8, 16), (10, 32)):
        program = generate_round_circuit(RoundCircuitSpec(n, 2 * n, 0))
        state = _stepwise_run(program, n, EXACT)
        assert state.max_bond_seen == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    report("criterion-3 saturation law",
           f"chi = 2^(n/2) for n in (6, 8, 10), {elapsed:.1f}s")


def test_criterion_4_storage_law_linearity():
    # per-step bound is asserted inside _stepwise_run for criteria 2 and 3;
    # here: rounds=2 memory grows linearly in n
    ns = list(range(5, 45, 5))
    means = []
    for n in ns:
        peaks = [
            run_program(generate_round_circuit(RoundCircuitSpec(n, 2, seed)), n, "mps", EXACT)
            .memory_estimate_bytes()
            for seed in range(10)
        ]
        means.append(float(np.mean(peaks)))
    slope, intercept = np.polyfit(ns, means, 1)
    predicted = np.polyval((slope, intercept), ns)
    residual = np.sum((np.array(means) - predicted) ** 2)
    total = np.sum((np.array(means) - np.mean(means)) ** 2)
    r_squared = 1 - residual / total
    assert r_squared > 0.999
    report("criterion-4 storage law",
           f"per-step bound held; rounds=2 linear fit R^2 = {r_squared:.6f}")


def test_criterion_5_large_shallow_run():
    start = time.perf_counter()
    program = generate_round_circuit(RoundCircuitSpec(85, 2, 0))
    state = run_program(program, 85, "mps", TruncationPolicy(cutoff=1e-4))
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    assert state.memory_estimate_bytes() < 10**5
    report("criterion-5 85-qubit shallow run",
           f"{state.memory_estimate_bytes()} bytes, {elapsed:.2f}s")


def test_criterion_6_vqe_correctness():
    start = time.perf_counter()
    hamiltonian = load_hamiltonian(HAM_PATH)
    lam = exact_ground_energy(hamiltonian)
    ansatz = parse(ANSATZ_PATH.read_text()).kernels["ansatz"]
    dense_sweep = sweep(ansatz, hamiltonian, -pi, pi, 100, backend="dense")
    mps_sweep = sweep(ansatz, hamiltonian, -pi, pi, 100, backend="mps", policy=EXACT)
    assert all(e >= lam - 1e-9 for e in dense_sweep.energies)
    assert abs(dense_sweep.min_energy - lam) < 1e-2
    worst = max(abs(a - b) for a, b in zip(dense_sweep.energies, mps_sweep.energies))
    assert worst < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    report(
        "criterion-6 VQE correctness",
        f"lambda_min {lam:.6f}, grid min {dense_sweep.min_energy:.6f}, "
        f"max backend gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_sampled_mode_consistency():
    shots = 100_000
    hamiltonian = load_hamiltonian(HAM_PATH)
    ansatz = parse(ANSATZ_PATH.read_text()).kernels["ansatz"]
    theta = 0.8
    program = flatten(bind_parameters(ansatz, [theta]))
    n = hamiltonian.n
    details = []
    for idx, (coeff, pauli) in enumerate(hamiltonian.terms):
        if set(pauli) == {"I"}:
            continue
        z_string = "".join("Z" if c != "I" else "I" for c in pauli)
        exact = dense_run(program + _basis_rotations(pauli), n).expectation_pauli(z_string)
        rng = np.random.default_rng([42, idx])
        estimate = _sampled_term(dense_run(program, n), pauli, shots, rng)
        sigma = binomial_sigma(exact, shots)
        assert abs(estimate - exact) <= 4 * sigma + 1e-12
        details.append(f"{pauli}:{abs(estimate - exact):.4f}<=4x{sigma:.4f}")
    report("criterion-7 sampled-mode consistency", ", ".join(details))


def test_criterion_8_parser_corpus():
    unit = parse(FIG_LISTING)
    assert set(unit.kernels) == {"ansatz", "term0"}
    once = parse(unparse(unit))
    twice = parse(unparse(once))
    assert once.kernels == twice.kernels == unit.kernels

    rng = np.random.default_rng(8)
    crashes = 0
    for _ in range(10_000):
        size = int(rng.integers(0, 200))
        text = bytes(rng.integers(0, 256, size=size).tolist()).decode("latin-1")
        try:
            parse(text)
        except ParseError:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0
    report("criterion-8 parser corpus",
           "verbatim listing parses, round-trip fixed point, 10000 fuzz inputs clean")


def test_criterion_9_cli_determinism(tmp_path):
    source = tmp_path / "bell.qk"
    source.write_text(
        "__qpu__ bell(AcceleratorBuffer b) {\n  H 0\n  CNOT 0 1\n"
        "  MEASURE 0 [0]\n  MEASURE 1 [1]\n}\n"
    )
    invocations = {
        "run": ["run", "--source", str(source), "--kernel", "bell",
                "--shots", "2000", "--seed", "13"],
        "vqe": ["vqe", "--ansatz", str(ANSATZ_PATH), "--ham", str(HAM_PATH),
                "--grid", "-3.14159265:3.14159265:20"],
        "bench": ["bench", "--qubits", "5:10:5", "--rounds", "2:4:2",
                  "--seeds", "3", "--cutoff", "0"],
    }
    for name, args in invocations.items():
        blobs = []
        for attempt in range(2):
            out = tmp_path / f"{name}-{attempt}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "mpsqvm", *args, "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{name} output not reproducible"
    report("criterion-9 CLI determinism",
           "run/vqe/bench outputs byte-identical across repeats")
