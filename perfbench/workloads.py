"""The four benchmark workloads: seeded inputs, one operation, oracle checks.

A workload builds its inputs from a numpy ``Generator`` in ``setup`` (timed
as part of ``setup_s``), runs one operation per ``op`` call (timed), reduces
the operation's output to a small record with ``summarize`` (untimed), and
judges that record with ``check`` after the timed loop ends, so no oracle
computation lands in a timed region. ``check`` returns ``None`` when the
record is correct and a reason string otherwise; oracle values are cached per
input in the ``cache`` dict the harness passes in.

The program is reached only through ``prog``, a namespace of freshly
imported ``mpsqvm`` modules, so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import pi, sqrt
from pathlib import Path
from types import SimpleNamespace
from typing import ClassVar

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Single-qubit pool of the grid circuits. The bench default also draws
#: X, Y and Z, which leave some bonds below saturation; per-circuit cost
#: then varies with a coefficient of variation of 35-45 % at 40 qubits, and
#: the median of one run moves 4-8 % with the seed. Rotations alone saturate
#: every bond at 13 rounds (CV about 10 %).
GRID_POOL = ("RX", "RY", "RZ")

#: Length of the per-run stream of grid circuit seeds (cycled if exceeded).
SEED_STREAM = 4096

#: Singular-value cutoff of the grid circuits: the bench default.
GRID_CUTOFF = 1e-4

#: Drops only numerically zero singular values, so the ``vqe`` state is exact
#: and the 1e-8 check holds; the default 1e-4 discards weight worth up to
#: ~3e-5 in energy on some thetas, at the same chi=8 and cost.
VQE_CUTOFF = 1e-12
VQE_TOLERANCE = 1e-8

#: Seeded inputs (theta, or theta and sampling seed) that ``vqe``, ``run`` and
#: ``vqe_sampled`` cycle through, so oracle values are computed once per input.
INPUT_POOL = 4

#: Qubits whose sampled <Z> the ``run`` check compares with the exact value.
RUN_PROBES = 3

#: Minimum fidelity of a reduced instance against the dense oracle.
MIN_FIDELITY = 1 - 1e-10

H2_ANSATZ = ROOT / "data/h2_vqe.qk"
H2_HAMILTONIAN = ROOT / "data/h2_2q.ham"


# -- input generators (no mpsqvm needed) ------------------------------------

Gate = tuple[str, tuple[int, ...], "float | str | None"]


def brickwork_ansatz(rng: np.random.Generator, n: int, layers: int) -> list[Gate]:
    """Per layer: a seeded RY and an RZ(t0) on every qubit, then CNOT bricks."""
    gates: list[Gate] = []
    for layer in range(layers):
        for q in range(n):
            gates.append(("RY", (q,), float(rng.uniform(0.0, 2.0 * pi))))
            gates.append(("RZ", (q,), "t0"))
        gates.extend(("CNOT", (a, a + 1), None) for a in range(layer % 2, n - 1, 2))
    return gates


def heisenberg_terms(rng: np.random.Generator, n: int) -> list[tuple[float, str]]:
    """XX+YY+ZZ on each neighbour pair plus a Z field: 3(n-1)+n terms."""
    terms = []
    for a in range(n - 1):
        coupling = float(rng.uniform(0.5, 1.5))
        for label in "XYZ":
            pauli = ["I"] * n
            pauli[a] = pauli[a + 1] = label
            terms.append((coupling, "".join(pauli)))
    for q in range(n):
        pauli = ["I"] * n
        pauli[q] = "Z"
        terms.append((float(rng.uniform(-1.0, 1.0)), "".join(pauli)))
    return terms


def long_range_gates(rng: np.random.Generator, n: int) -> list[Gate]:
    """RY/RZ(t0) layer, CNOT ladder, wrap-around CNOT, then CZ 0 k for every k."""
    gates: list[Gate] = []
    for q in range(n):
        gates.append(("RY", (q,), float(rng.uniform(0.0, 2.0 * pi))))
        gates.append(("RZ", (q,), "t0"))
    gates.extend(("CNOT", (a, a + 1), None) for a in range(n - 1))
    gates.append(("CNOT", (n - 1, 0), None))
    gates.extend(("CZ", (0, k), None) for k in range(1, n))
    return gates


def kernel_text(name: str, gates: list[Gate], measured: range = range(0)) -> str:
    """Kernel source with one ``double t0`` formal; MEASURE q [q] at the end."""
    lines = [f"__qpu__ {name}(AcceleratorBuffer b, double t0) {{"]
    for kind, qubits, param in gates:
        angle = "" if param is None else f"({param if isinstance(param, str) else repr(param)})"
        lines.append(f"  {kind}{angle} " + " ".join(map(str, qubits)))
    lines.extend(f"  MEASURE {q} [{q}]" for q in measured)
    lines.append("}")
    return "\n".join(lines) + "\n"


def hamiltonian_text(terms: list[tuple[float, str]]) -> str:
    return "".join(f"{coeff!r} {pauli}\n" for coeff, pauli in terms)


def angles_and_seeds(rng: np.random.Generator, count: int) -> list[tuple[float, int]]:
    """``count`` pairs of an angle in [-pi, pi) and a sampling seed."""
    angles = rng.uniform(-pi, pi, count)
    seeds = rng.integers(0, 2**31, count)
    return [(float(a), int(s)) for a, s in zip(angles, seeds)]


# -- oracle helpers -----------------------------------------------------------


def bound_instructions(prog, gates: list[Gate], theta: float) -> list:
    """Generator gates as IR instructions with t0 bound, bypassing the parser."""
    ir = prog.ir
    return [
        ir.Instruction(
            ir.GateKind(kind), qubits,
            () if param is None else (theta if param == "t0" else param,),
        )
        for kind, qubits, param in gates
    ]


def dense_expectations(prog, program: list, n: int, paulis: list[str]) -> list[float]:
    state = prog.dense.dense_run(program, n)
    return [state.expectation_pauli(p) for p in paulis]


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    overlap = abs(np.vdot(a, b)) ** 2
    return float(overlap / (np.vdot(a, a).real * np.vdot(b, b).real))


def exact_fidelity(prog, program: list, oracle_program: list, n: int) -> float:
    """Fidelity of the cutoff-0 MPS state of ``program`` against the dense
    oracle's state of ``oracle_program``.

    Compares amplitudes, so diagonal gates such as CZ, which leave Z-basis
    counts unchanged, are checked through their phases.
    """
    state = prog.backends.run_program(program, n, "mps", prog.mps.TruncationPolicy(0.0))
    mps_vec = np.array([
        state.amplitude("".join(bits)) for bits in itertools.product("01", repeat=n)
    ])
    return fidelity(mps_vec, prog.dense.dense_run(oracle_program, n).amps)


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Memory-scaling study: one random round circuit per operation."""

    name: ClassVar[str] = "grid"
    why: ClassVar[str] = (
        "nearest-neighbour round circuits reaching chi=128: flop-bound in the "
        "two-site contraction and SVD, no routing, sampling or expectation"
    )
    #: LAPACK-bound: the reference adds two SVDs (see ``machine``)
    reference_svds: ClassVar[int] = 2
    n: int = 40
    rounds: int = 13
    check_n: int = 8

    def size(self) -> str:
        return f"{self.n} qubits, {self.rounds} rounds, cutoff {GRID_CUTOFF}"

    def setup(self, prog, rng):
        seeds = [int(s) for s in rng.integers(0, 2**31, SEED_STREAM)]
        return SimpleNamespace(seeds=seeds, policy=prog.mps.TruncationPolicy(GRID_CUTOFF))

    def item(self, inputs, i: int) -> int:
        return inputs.seeds[i % len(inputs.seeds)]

    def op(self, prog, inputs, seed: int):
        spec = prog.bench.RoundCircuitSpec(self.n, self.rounds, seed, GRID_POOL)
        circuit = prog.bench.generate_round_circuit(spec)
        return prog.backends.run_program(circuit, self.n, "mps", inputs.policy)

    def summarize(self, state) -> tuple[int, int]:
        return state.max_bond_seen, state.memory_estimate_bytes()

    def check(self, prog, inputs, seed, record, cache) -> str | None:
        chi, peak = record
        n = self.n
        if peak > 16 * (2 * n * chi**2 + (n - 1) * chi):
            return f"storage law broken: {peak} B at chi={chi}"
        if seed not in cache:
            cache[seed] = self._reduced_fidelity(prog, seed)
        if cache[seed] < MIN_FIDELITY:
            return f"reduced instance fidelity {cache[seed]!r} < 1-1e-10"
        return None

    def _reduced_fidelity(self, prog, seed: int) -> float:
        """Same seed and rounds at ``check_n`` qubits, cutoff 0, against dense."""
        spec = prog.bench.RoundCircuitSpec(self.check_n, self.rounds, seed, GRID_POOL)
        circuit = prog.bench.generate_round_circuit(spec)
        return exact_fidelity(prog, circuit, circuit, self.check_n)


@dataclass(frozen=True)
class Vqe:
    """Analytic energy of a generated brickwork ansatz and Heisenberg model."""

    name: ClassVar[str] = "vqe"
    why: ClassVar[str] = (
        "analytic energy of a 16-qubit brickwork ansatz against a 61-term "
        "Heisenberg Hamiltonian: expectation-bound at chi=8"
    )
    reference_svds: ClassVar[int] = 0
    n: int = 16
    layers: int = 6

    def size(self) -> str:
        return f"{self.n} qubits, {self.layers} layers, {4 * self.n - 3} terms"

    def setup(self, prog, rng):
        gates = brickwork_ansatz(rng, self.n, self.layers)
        terms = heisenberg_terms(rng, self.n)
        ansatz = prog.parser.parse(kernel_text("ansatz", gates)).kernels["ansatz"]
        hamiltonian = prog.hamiltonian.parse_hamiltonian(hamiltonian_text(terms))
        thetas = [float(t) for t in rng.uniform(-pi, pi, INPUT_POOL)]
        return SimpleNamespace(
            gates=gates, terms=terms, ansatz=ansatz, hamiltonian=hamiltonian, thetas=thetas,
            policy=prog.mps.TruncationPolicy(VQE_CUTOFF),
        )

    def item(self, inputs, i: int) -> float:
        return inputs.thetas[i % INPUT_POOL]

    def op(self, prog, inputs, theta: float) -> float:
        return prog.vqe.energy(inputs.ansatz, theta, inputs.hamiltonian, policy=inputs.policy)

    def summarize(self, value: float) -> float:
        return value

    def check(self, prog, inputs, theta, value, cache) -> str | None:
        if theta not in cache:
            program = bound_instructions(prog, inputs.gates, theta)
            paulis = [p for _, p in inputs.terms]
            values = dense_expectations(prog, program, self.n, paulis)
            cache[theta] = sum(c * v for (c, _), v in zip(inputs.terms, values))
        if not abs(value - cache[theta]) <= VQE_TOLERANCE:
            return f"energy {value!r} differs from dense {cache[theta]!r}"
        return None


@dataclass(frozen=True)
class Run:
    """The ``mpsqvm run`` path on kernel text with long-range gates."""

    name: ClassVar[str] = "run"
    why: ClassVar[str] = (
        "parse, bind and execute a kernel whose CZ 0 k gates need SWAP routing "
        "at chi<=16, then sample: routing- and per-call-overhead-bound"
    )
    reference_svds: ClassVar[int] = 0
    n: int = 28
    shots: int = 400
    check_n: int = 10

    def size(self) -> str:
        return f"{self.n} qubits, {self.shots} shots"

    def setup(self, prog, rng):
        gates = long_range_gates(rng, self.n)
        text = kernel_text("main", gates, range(self.n))
        items = angles_and_seeds(rng, INPUT_POOL)
        probes = [int(q) for q in rng.choice(self.n, RUN_PROBES, replace=False)]
        check_seed = int(rng.integers(0, 2**31))
        return SimpleNamespace(
            gates=gates, text=text, items=items, probes=probes, check_seed=check_seed
        )

    def item(self, inputs, i: int) -> tuple[float, int]:
        return inputs.items[i % INPUT_POOL]

    def op(self, prog, inputs, item):
        t0, seed = item
        kernel = prog.parser.parse(inputs.text).kernels["main"]
        program = prog.ir.flatten(prog.ir.bind_parameters(kernel, [t0]))
        return prog.backends.execute(program, shots=self.shots, seed=seed)

    def summarize(self, record) -> dict[str, int]:
        return record.counts

    def check(self, prog, inputs, item, counts, cache) -> str | None:
        total = sum(counts.values())
        if total != self.shots or any(len(k) != self.n for k in counts):
            return f"counts cover {total} shots, expected {self.shots} of {self.n} bits"
        t0 = item[0]
        if t0 not in cache:
            program = bound_instructions(prog, inputs.gates, t0)
            state = prog.backends.run_program(program, self.n, "mps")
            probes = [
                state.expectation_pauli("".join("Z" if k == q else "I" for k in range(self.n)))
                for q in inputs.probes
            ]
            cache[t0] = probes, self._reduced_fidelity(prog, inputs, t0)
        probes, reduced = cache[t0]
        if reduced < MIN_FIDELITY:
            return f"reduced instance fidelity {reduced!r} < 1-1e-10"
        for q, exact in zip(inputs.probes, probes):
            sampled = sum(c if key[q] == "0" else -c for key, c in counts.items()) / total
            sigma = prog.vqe.binomial_sigma(exact, self.shots)
            if not abs(sampled - exact) <= 5 * sigma:
                return f"<Z_{q}> sampled {sampled!r}, exact {exact!r}, sigma {sigma!r}"
        return None

    def _reduced_fidelity(self, prog, inputs, t0: float) -> float:
        """The same gate family at ``check_n`` qubits, parsed and run at cutoff
        0, against the dense oracle of the generated gates."""
        n = min(self.n, self.check_n)
        gates = long_range_gates(np.random.default_rng(inputs.check_seed), n)
        kernel = prog.parser.parse(kernel_text("main", gates)).kernels["main"]
        program = prog.ir.flatten(prog.ir.bind_parameters(kernel, [t0]))
        return exact_fidelity(prog, program, bound_instructions(prog, gates, t0), n)


@dataclass(frozen=True)
class VqeSampled:
    """Sampled-estimator energy of the shipped H2 ansatz and Hamiltonian."""

    name: ClassVar[str] = "vqe_sampled"
    why: ClassVar[str] = (
        "shipped 2-qubit H2 VQE through the sampled estimator: one state "
        "preparation per term and many shots on few qubits"
    )
    reference_svds: ClassVar[int] = 0
    shots: int = 2500

    def size(self) -> str:
        return f"2 qubits, 5 sampled terms, {self.shots} shots per term"

    def setup(self, prog, rng):
        text = H2_ANSATZ.read_text(encoding="utf-8")
        ansatz = prog.parser.parse(text).kernels["ansatz"]
        hamiltonian = prog.hamiltonian.load_hamiltonian(H2_HAMILTONIAN)
        items = angles_and_seeds(rng, INPUT_POOL)
        return SimpleNamespace(ansatz=ansatz, hamiltonian=hamiltonian, items=items)

    def item(self, inputs, i: int) -> tuple[float, int]:
        return inputs.items[i % INPUT_POOL]

    def op(self, prog, inputs, item) -> float:
        theta, seed = item
        return prog.vqe.energy(
            inputs.ansatz, theta, inputs.hamiltonian, shots=self.shots, seed=seed
        )

    def summarize(self, value: float) -> float:
        return value

    def check(self, prog, inputs, item, value, cache) -> str | None:
        theta = item[0]
        if theta not in cache:
            hamiltonian = inputs.hamiltonian
            program = prog.ir.flatten(prog.ir.bind_parameters(inputs.ansatz, [theta]))
            paulis = [p for _, p in hamiltonian.terms]
            values = dense_expectations(prog, program, hamiltonian.n, paulis)
            exact = sum(c * v for (c, _), v in zip(hamiltonian.terms, values))
            variance = sum(
                (c * prog.vqe.binomial_sigma(v, self.shots)) ** 2
                for (c, p), v in zip(hamiltonian.terms, values)
                if set(p) != {"I"}
            )
            cache[theta] = exact, sqrt(variance)
        exact, sigma = cache[theta]
        if not abs(value - exact) <= 5 * sigma:
            return f"sampled energy {value!r}, exact {exact!r}, sigma {sigma!r}"
        return None


WORKLOADS = {w.name: w for w in (Grid(), Vqe(), Run(), VqeSampled())}
