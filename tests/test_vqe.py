from math import pi

import numpy as np
import pytest

from mpsqvm import (
    CompositeInstruction,
    GateKind,
    Instruction,
    PauliHamiltonian,
    TruncationPolicy,
    energy,
    parse,
    parse_hamiltonian,
    run_program,
    sweep,
)
from mpsqvm import vqe
from mpsqvm.backends import BACKENDS
from mpsqvm.gates import check_pauli
from mpsqvm.hamiltonian import HamiltonianFormatError, load_hamiltonian
from mpsqvm.ir import IrError, bind_parameters, flatten
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

#: RY(t0) on 12 qubits, a CNOT ladder 0 -> 1 -> ... -> 11, then RX(t0) on each
LADDER12 = CompositeInstruction(
    "ladder12", ("t0",),
    tuple(Instruction(GateKind.RY, (q,), ("t0",)) for q in range(12))
    + tuple(Instruction(GateKind.CNOT, (q, q + 1)) for q in range(11))
    + tuple(Instruction(GateKind.RX, (q,), ("t0",)) for q in range(12)),
)
LADDER12_HAM = PauliHamiltonian((
    (0.5, "I" * 12),
    (0.7, "X" + "I" * 11),
    (-0.4, "I" * 11 + "Y"),
    (1.3, "Y" + "Z" * 10 + "X"),
    (0.9, "XZIIZIIYIIZZ"),
))


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

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_theta_rejected(self, backend, theta):
        """``theta`` meets the one real-number rule, ``check_real``."""
        with pytest.raises(ValueError) as info:
            energy(RX_ANSATZ, theta, ZI, backend)
        assert type(info.value) is ValueError
        assert str(info.value) == f"theta must be a finite real number, got {theta!r}"

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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_y_sign_against_closed_form(self, backend):
        """<Y> on RX(theta)|0> is -sin(theta): an odd number of Y factors
        shows the sign of the Y-basis rotation, which YY terms cancel."""
        shots = 20_000
        mean = -np.sin(0.7)
        sampled = energy(RX_ANSATZ, 0.7, parse_hamiltonian("1.0 Y"), backend, shots=shots, seed=3)
        assert abs(sampled - mean) <= 5 * np.sqrt((1 - mean**2) / shots)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_y_factor_against_expectation_pauli(self, backend):
        ansatz = CompositeInstruction("k", ("t0",), (
            Instruction(GateKind.RX, (0,), ("t0",)),
            Instruction(GateKind.H, (2,)),
            Instruction(GateKind.RY, (1,), (0.5,)),
            Instruction(GateKind.CNOT, (2, 1)),
            Instruction(GateKind.RY, (2,), ("t0",)),
        ))
        shots, theta = 20_000, 0.9
        mean = run_program(ansatz.children, 3, "mps", EXACT, {"t0": theta}).expectation_pauli("YZX")
        assert abs(mean) > 0.3
        sampled = energy(ansatz, theta, parse_hamiltonian("1.0 YZX"), backend, shots=shots, seed=8)
        assert abs(sampled - mean) <= 5 * np.sqrt((1 - mean**2) / shots)

    def test_sampled_deterministic_given_seed(self):
        a = energy(RX_ANSATZ, 0.4, ZI, backend="mps", shots=2000, seed=5)
        b = energy(RX_ANSATZ, 0.4, ZI, backend="mps", shots=2000, seed=5)
        assert a == b

    @pytest.mark.parametrize("backend", BACKENDS)
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

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", ["h2", "ladder12"])
    def test_equals_resimulation_per_term(self, backend, case):
        """The estimate on a rotated copy equals running ``program + rotations``
        from scratch for every term, with the same per-term seeding, and
        reading each shot's parity off the full-register key by qubit.

        ``ladder12`` entangles 12 qubits through a CNOT ladder and samples
        5000 shots, so the readout cuts many distinct keys from two sampler
        blocks down to terms with an X or a Y on an end qubit."""
        if case == "h2":
            ansatz, h, shots = fig_ansatz(), load_hamiltonian(HAM_PATH), 700
        else:
            ansatz, h, shots = LADDER12, LADDER12_HAM, 5000
        seed = 9
        for theta in (-2.0, 0.3, 1.1):
            program = flatten(bind_parameters(ansatz, [theta]))
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
            assert energy(ansatz, theta, h, backend, shots=shots, seed=seed) == expected


class TestShortWalk:
    """Each sampled term walks the register only up to its last support
    qubit; the energies equal (``==``) those of a walk over every qubit."""

    #: terms whose last support qubit is the first, one in the middle and the last
    EDGES12 = PauliHamiltonian((
        (1.0, "Z" + "I" * 11),
        (0.3, "IXY" + "I" * 9),
        (-0.6, "I" * 5 + "ZZ" + "I" * 5),
        (0.2, "I" * 11 + "Z"),
        (-0.8, "X" + "I" * 10 + "X"),
    ))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_equals_the_full_walk(self, monkeypatch, backend):
        cls = BACKENDS[backend]
        sample, walks = cls.sample, []

        def short(self, shots, rng, upto=None):
            walks.append(upto)
            return sample(self, shots, rng, upto)

        def full(self, shots, rng, upto=None):
            return sample(self, shots, rng)

        cases = [
            (fig_ansatz(), load_hamiltonian(HAM_PATH), 700, None),
            (LADDER12, LADDER12_HAM, 5000, None),
            (LADDER12, self.EDGES12, 1500, TruncationPolicy(cutoff=1e-2)),
        ]
        for ansatz, h, shots, policy in cases:
            for seed in (0, 9):
                for theta in (-2.0, 0.3, 1.1):
                    energies = []
                    for walk in (short, full):
                        monkeypatch.setattr(cls, "sample", walk)
                        energies.append(energy(ansatz, theta, h, backend, policy, shots, seed))
                    assert energies[0] == energies[1]
        assert {1, 3, 7, 12} <= set(walks)


def heisenberg(n: int, rng: np.random.Generator) -> PauliHamiltonian:
    """XX+YY+ZZ on each neighbour pair at a seeded coupling, plus a seeded Z
    field: 3(n-1)+n terms."""
    terms = []
    for a in range(n - 1):
        coupling = float(rng.uniform(0.5, 1.5))
        terms += [(coupling, "I" * a + 2 * label + "I" * (n - a - 2)) for label in "XYZ"]
    terms += [(float(rng.uniform(-1.0, 1.0)), "I" * q + "Z" + "I" * (n - q - 1))
              for q in range(n)]
    return PauliHamiltonian(tuple(terms))


def trig_design(thetas: np.ndarray, k: int) -> np.ndarray:
    """Columns 1, cos(j theta) and sin(j theta) for j = 1..k."""
    j = np.outer(thetas, np.arange(1, k + 1))
    return np.hstack([np.ones((len(thetas), 1)), np.cos(j), np.sin(j)])


class TestTrigonometricOracle:
    """An oracle for energies above the dense cap. When the formal parameter
    fills k rotation slots, each exp(-i theta P / 2), the exact energy is a
    trigonometric polynomial of degree k in theta. So the energies at 2k+1
    equally spaced thetas predict the energy at every other theta. A slot
    bound to a multiple of theta raises the degree and breaks the fit; a
    fault that does not depend on theta, such as one in routing, does not."""

    @staticmethod
    def ansatz(n: int, k: int, rng: np.random.Generator) -> CompositeInstruction:
        """An RY layer, RX(t0) on k distinct qubits, a CNOT ladder, CZ 0 q for
        every third q (routed), then an RZ layer."""
        gates = [Instruction(GateKind.RY, (q,), (float(rng.uniform(0.0, 2 * pi)),))
                 for q in range(n)]
        gates += [Instruction(GateKind.RX, (int(q),), ("t0",))
                  for q in rng.choice(n, size=k, replace=False)]
        gates += [Instruction(GateKind.CNOT, (a, a + 1)) for a in range(n - 1)]
        gates += [Instruction(GateKind.CZ, (0, q)) for q in range(3, n, 3)]
        gates += [Instruction(GateKind.RZ, (q,), (float(rng.uniform(0.0, 2 * pi)),))
                  for q in range(n)]
        return CompositeInstruction("oracle", ("t0",), gates)

    @pytest.mark.parametrize("n, k", [(16, 3), (40, 3), (40, 5)])
    def test_fit_predicts_new_thetas(self, n, k):
        rng = np.random.default_rng([n, k])
        ansatz, h = self.ansatz(n, k, rng), heisenberg(n, rng)
        policy = TruncationPolicy(cutoff=1e-12)
        fit_thetas = -pi + 2 * pi * np.arange(2 * k + 1) / (2 * k + 1)
        new_thetas = rng.uniform(-pi, pi, 9)
        fit_energies, new_energies = (
            np.array([energy(ansatz, float(t), h, policy=policy) for t in thetas])
            for thetas in (fit_thetas, new_thetas)
        )
        coeffs = np.linalg.lstsq(trig_design(fit_thetas, k), fit_energies, rcond=None)[0]
        np.testing.assert_allclose(trig_design(new_thetas, k) @ coeffs, new_energies,
                                   rtol=0, atol=1e-11)
