from math import pi

import numpy as np
import pytest

from mpsqvm import (
    CompositeInstruction,
    GateKind,
    Instruction,
    TruncationPolicy,
    bind_parameters,
    energy,
    flatten,
    load_hamiltonian,
    parse,
    parse_hamiltonian,
    run_program,
    sweep,
)
from mpsqvm import vqe
from mpsqvm.gates import check_pauli
from mpsqvm.hamiltonian import HamiltonianFormatError
from mpsqvm.ir import IrError
from tests.conftest import ANSATZ_PATH, HAM_PATH, exact_ground_energy

EXACT = TruncationPolicy(cutoff=0.0)

RX_ANSATZ = CompositeInstruction(
    "rx", ("t0",), (Instruction(GateKind.RX, (0,), ("t0",)),)
)
ZI = parse_hamiltonian("1.0 ZI")
MEASURE_THEN_RY = CompositeInstruction(
    "m", ("t0",), (
        Instruction(GateKind.H, (0,)),
        Instruction(GateKind.MEASURE, (0,), (), classical_target=0),
        Instruction(GateKind.RY, (0,), ("t0",)),
    ),
)


def fig_ansatz():
    return parse(ANSATZ_PATH.read_text()).kernels["ansatz"]


class TestLoadHamiltonian:
    def test_single_term(self):
        h = parse_hamiltonian("1.0 ZZ")
        assert h.terms == ((1.0, "ZZ"),)
        assert h.n == 2

    def test_identity_offset(self):
        h = parse_hamiltonian("-0.5 II")
        assert energy(RX_ANSATZ, 0.3, h, backend="dense") == pytest.approx(-0.5)

    def test_mixed_lengths_reports_line(self):
        with pytest.raises(HamiltonianFormatError, match="line 2"):
            parse_hamiltonian("1 Z\n1 ZZ")

    @pytest.mark.parametrize("text, pauli, width", [
        ("1 ZZ\n1 zq", "ZQ", 2),
        ("1 Z\n1 ZZ", "ZZ", 1),
    ], ids=["bad-label", "width-mismatch"])
    def test_pauli_string_rule_is_check_pauli(self, text, pauli, width):
        with pytest.raises(ValueError) as rule:
            check_pauli(pauli, width)
        with pytest.raises(HamiltonianFormatError) as info:
            parse_hamiltonian(text)
        assert str(info.value) == f"line 2: {rule.value}"

    @pytest.mark.parametrize("coeff", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_coefficient_reports_line(self, coeff):
        with pytest.raises(HamiltonianFormatError, match=f"line 2: bad coefficient '{coeff}'"):
            parse_hamiltonian(f"1 ZZ\n{coeff} XX")

    def test_comments_ignored(self):
        h = parse_hamiltonian("# top\n0.5 ZI  # inline\n\n0.25 IX")
        assert len(h.terms) == 2

    def test_shipped_file(self):
        h = load_hamiltonian(HAM_PATH)
        assert h.n == 2
        assert exact_ground_energy(h) < -1.0


class TestEnergy:
    def test_zi_at_zero(self):
        assert energy(RX_ANSATZ, 0.0, ZI, backend="dense") == pytest.approx(1.0)

    def test_zi_at_pi(self):
        assert energy(RX_ANSATZ, pi, ZI, backend="dense") == pytest.approx(-1.0)

    def test_backends_agree_on_fig_ansatz(self):
        h = load_hamiltonian(HAM_PATH)
        ansatz = fig_ansatz()
        for theta in np.linspace(-pi, pi, 7):
            e_mps = energy(ansatz, float(theta), h, backend="mps", policy=EXACT)
            e_dense = energy(ansatz, float(theta), h, backend="dense")
            assert e_mps == pytest.approx(e_dense, abs=1e-6)

    def test_multi_parameter_rejected(self):
        two = CompositeInstruction(
            "k", ("a", "b"),
            (Instruction(GateKind.RX, (0,), ("a",)), Instruction(GateKind.RY, (0,), ("b",))),
        )
        with pytest.raises(ValueError, match="one formal"):
            energy(two, 0.0, ZI)

    @pytest.mark.parametrize("backend", ["mps", "dense"])
    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_theta_rejected(self, backend, theta):
        """The message is the one ``bind_parameters`` gives for the value."""
        with pytest.raises(IrError) as bound:
            bind_parameters(RX_ANSATZ, [theta])
        with pytest.raises(IrError) as info:
            energy(RX_ANSATZ, theta, ZI, backend)
        assert str(info.value) == str(bound.value)
        assert str(info.value) == f"parameter 't0' of kernel 'rx' is {theta!r}, not finite"

    @pytest.mark.parametrize("shots", [None, 100])
    def test_kernel_is_never_rebuilt(self, monkeypatch, shots):
        """The kernel's own gate tuple is run, as the first positional
        argument; nothing binds or flattens a copy of it."""
        from mpsqvm import ir

        def forbidden(*args, **kwargs):
            raise AssertionError("energy rebuilt the kernel")

        for name in ("bind_parameters", "flatten", "inline"):
            monkeypatch.setattr(ir, name, forbidden)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return run_program(*args, **kwargs)

        monkeypatch.setattr(vqe, "run_program", spy)
        ansatz, h = fig_ansatz(), load_hamiltonian(HAM_PATH)
        energy(ansatz, 0.5, h, shots=shots, seed=4)
        [args] = calls
        assert args[0] is ansatz.children
        assert not hasattr(vqe, "bind_parameters") and not hasattr(vqe, "flatten")

    def test_width_mismatch_rejected(self):
        wide = CompositeInstruction(
            "k", ("t0",), (Instruction(GateKind.RX, (4,), ("t0",)),)
        )
        with pytest.raises(ValueError, match="qubit"):
            energy(wide, 0.0, ZI)


class TestSweep:
    def test_grid_size(self):
        result = sweep(RX_ANSATZ, ZI, -pi, pi, 100, backend="dense")
        assert len(result.thetas) == 100
        assert len(result.energies) == 100

    def test_argmin_near_pi(self):
        result = sweep(RX_ANSATZ, ZI, -pi, pi, 100, backend="dense")
        step = 2 * pi / 99
        assert min(abs(result.argmin_theta - pi), abs(result.argmin_theta + pi)) <= step

    def test_variational_bound(self):
        h = load_hamiltonian(HAM_PATH)
        lam = exact_ground_energy(h)
        result = sweep(fig_ansatz(), h, -pi, pi, 50, backend="dense")
        assert all(e >= lam - 1e-9 for e in result.energies)
        assert result.min_energy == min(result.energies)

    def test_offset_linearity(self):
        base = parse_hamiltonian("0.7 ZI\n0.2 XX")
        shifted = parse_hamiltonian("0.7 ZI\n0.2 XX\n0.25 II")
        a = sweep(fig_ansatz(), base, -1.0, 1.0, 9, backend="dense")
        b = sweep(fig_ansatz(), shifted, -1.0, 1.0, 9, backend="dense")
        for x, y in zip(a.energies, b.energies):
            assert y - x == pytest.approx(0.25)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            sweep(RX_ANSATZ, ZI, 0, 1, 1)

    @pytest.mark.parametrize("start, stop", [(-pi, pi), (pi, -pi)])
    def test_argmin_tie_breaks_toward_smaller_theta(self, start, stop):
        result = sweep(RX_ANSATZ, parse_hamiltonian("1.0 Z"), start, stop, 3)
        assert result.energies[0] == result.energies[2] == result.min_energy == -1.0
        assert result.argmin_theta == -pi


class TestSampledMode:
    def test_basis_rotations_reproduce_analytic(self):
        h = load_hamiltonian(HAM_PATH)
        ansatz = fig_ansatz()
        theta = 0.8
        exact = energy(ansatz, theta, h, backend="dense")
        sampled = energy(
            ansatz, theta, h, backend="dense", shots=20_000, seed=11
        )
        assert sampled == pytest.approx(exact, abs=0.05)

    def test_sampled_deterministic_given_seed(self):
        a = energy(RX_ANSATZ, 0.4, ZI, backend="mps", shots=2000, seed=5)
        b = energy(RX_ANSATZ, 0.4, ZI, backend="mps", shots=2000, seed=5)
        assert a == b

    @pytest.mark.parametrize("backend", ["mps", "dense"])
    @pytest.mark.parametrize("shots", [None, 100])
    def test_gate_after_measure_rejected(self, shots, backend):
        with pytest.raises(IrError, match=r"RY \(0,\) acts on qubit 0 after it was measured"):
            energy(MEASURE_THEN_RY, 0.3, parse_hamiltonian("1.0 Z"), backend, shots=shots)

    @pytest.mark.parametrize("shots", [None, 300])
    def test_trailing_measure_kernel_accepted(self, shots):
        unit = parse(ANSATZ_PATH.read_text())
        h = load_hamiltonian(HAM_PATH)
        with_measure = energy(unit.kernels["term0"], 0.8, h, shots=shots, seed=2)
        assert with_measure == energy(unit.kernels["ansatz"], 0.8, h, shots=shots, seed=2)


class TestOnePreparationPerTheta:
    @pytest.mark.parametrize("shots", [None, 200])
    def test_run_program_called_once(self, monkeypatch, shots):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return run_program(*args, **kwargs)

        monkeypatch.setattr(vqe, "run_program", spy)
        energy(fig_ansatz(), 0.5, load_hamiltonian(HAM_PATH), shots=shots, seed=4)
        assert len(calls) == 1

    @pytest.mark.parametrize("backend", ["mps", "dense"])
    def test_equals_resimulation_per_term(self, backend):
        """The estimate on a rotated copy equals running ``program + rotations``
        from scratch for every term, with the same per-term seeding."""
        h = load_hamiltonian(HAM_PATH)
        shots, seed = 700, 9
        for theta in (-2.0, 0.3, 1.1):
            program = flatten(bind_parameters(fig_ansatz(), [theta]))
            expected = 0.0
            for idx, (coeff, pauli) in enumerate(h.terms):
                if set(pauli) == {"I"}:
                    expected += coeff
                    continue
                state = run_program(program + vqe._basis_rotations(pauli), h.n, backend)
                counts = state.sample(shots, np.random.default_rng([seed, idx]))
                support = [q for q, label in enumerate(pauli) if label != "I"]
                parity = sum(
                    c if sum(int(bits[q]) for q in support) % 2 == 0 else -c
                    for bits, c in counts.items()
                )
                expected += coeff * (parity / shots)
            assert energy(fig_ansatz(), theta, h, backend, shots=shots, seed=seed) == expected
