"""The MPS against an exact oracle for local observables beyond the dense cap:
the backward light cone of a Pauli string (``light_cone_expectation`` in
``tests/conftest.py``), on non-Clifford round circuits at 40-85 qubits.

Only nearest-neighbour gates are covered. After a routed long-range gate the
cone is the whole register, so routing stays the job of the Clifford tests in
``tests/test_clifford.py``."""

import math

import numpy as np
import pytest

from mpsqvm import DenseState, MpsState, TruncationPolicy
from mpsqvm.bench import RoundCircuitSpec, generate_round_circuit
from mpsqvm.gates import apply_program
from tests.conftest import light_cone_expectation, random_program

NEAR_EXACT = TruncationPolicy(cutoff=1e-12)
ROTATIONS = ("RX", "RY", "RZ")
ROUNDS = 6  # keeps every cone at most 16 wide
LABEL_PAIRS = ("ZZ", "XY")


def _prepared(n: int):
    program = generate_round_circuit(RoundCircuitSpec(n, ROUNDS, 1, ROTATIONS))
    return program, apply_program(MpsState(n, NEAR_EXACT), program)


def test_cone_equals_the_full_dense_state(rng):
    n, widths = 9, []
    for _ in range(5):  # random gates, long-range pairs included
        program = random_program(n, 20, rng)
        dense = apply_program(DenseState(n), program)
        for q in range(n - 1):
            pauli = "I" * q + "XZ" + "I" * (n - q - 2)
            exact, width = light_cone_expectation(program, pauli)
            widths.append(width)
            assert abs(dense.expectation_pauli(pauli) - exact) <= 1e-12
    assert min(widths) < n  # some gates were left out of a cone


@pytest.mark.parametrize("n", [40, 60, 85])
def test_adjacent_pairs_match_the_cone(n):
    program, state = _prepared(n)
    for q in (0, n // 2, n - 2):
        for labels in LABEL_PAIRS:
            pauli = "I" * q + labels + "I" * (n - q - 2)
            exact, width = light_cone_expectation(program, pauli)
            assert 2 < width <= 16
            assert abs(state.expectation_pauli(pauli) - exact) <= 1e-12, (q, labels)


@pytest.mark.parametrize("n", [40, 60, 85])
def test_sampled_edge_z_within_5_sigma_of_the_cone(n):
    program, state = _prepared(n)
    shots = 4000
    counts = state.sample(shots, np.random.default_rng(7))
    for q in (0, n - 1):
        exact, _ = light_cone_expectation(program, "I" * q + "Z" + "I" * (n - q - 1))
        sampled = sum(c * (1 - 2 * int(bits[q])) for bits, c in counts.items()) / shots
        assert abs(sampled - exact) <= 5 * math.sqrt((1 - exact**2) / shots), q
