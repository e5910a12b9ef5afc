from math import pi

import numpy as np
import pytest

from mpsqvm import (
    CompositeInstruction,
    GateKind,
    Instruction,
    TruncationPolicy,
    energy,
    load_hamiltonian,
    parse,
    parse_hamiltonian,
    sweep,
)
from mpsqvm.hamiltonian import HamiltonianFormatError
from tests.conftest import ANSATZ_PATH, HAM_PATH

EXACT = TruncationPolicy(cutoff=0.0)

RX_ANSATZ = CompositeInstruction(
    "rx", ("t0",), (Instruction(GateKind.RX, (0,), ("t0",)),)
)
ZI = parse_hamiltonian("1.0 ZI")


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
        assert h.min_eigenvalue() < -1.0


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
        lam = h.min_eigenvalue()
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
