"""Unitary matrices for the supported gate set, the checks every simulator
state applies to its inputs, and the one loop that applies a program's gates
to a state.

Both backends call :func:`check_gate` from each public gate method,
:func:`check_pauli` and :func:`real_expectation` from ``expectation_pauli``,
and every executed program passes :func:`measured_qubits`, so the same
input is rejected with the same message whichever backend runs it.
:func:`check_count` is the one rule for a count that enters the library
(an integer, not a ``bool``, at least some bound); the states, the sampler,
the runners and the drivers call it before the first gate. Where a count
has a range with its own message, :func:`check_integer`, the rule's type
test, runs before that range test. :func:`check_real` is the one rule for a
real number that enters the library: an angle, a bound value, a grid end, a
budget or a Hamiltonian coefficient.

Two-qubit matrices are indexed in the basis ``|q1 q2>`` with the first listed
qubit as the most significant bit (index = 2*s1 + s2). :func:`apply_program`
drives either backend through the same two methods, so it never branches on
which backend it runs: ``apply_one_qubit`` and ``apply_two_qubit_routed``,
which takes any pair. It binds a kernel's named angle slots as it goes, so a
kernel runs at new parameter values without being rebuilt.
"""

from __future__ import annotations

import cmath
from collections.abc import Callable, Mapping, Sequence
from math import cos, isfinite, sin, sqrt
from numbers import Integral, Real
from typing import TypeVar

import numpy as np

from .ir import GateKind, Instruction, IrError

_State = TypeVar("_State")

_SQ2 = 1.0 / sqrt(2.0)


def rx(theta: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    matrix = np.empty((2, 2), dtype=complex)
    matrix[0, 0] = matrix[1, 1] = c
    matrix[0, 1] = matrix[1, 0] = -1j * s
    return matrix


def ry(theta: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    matrix = np.empty((2, 2), dtype=complex)
    matrix[0, 0] = matrix[1, 1] = c
    matrix[0, 1], matrix[1, 0] = -s, s
    return matrix


def rz(theta: float) -> np.ndarray:
    return np.array([[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]])


def _frozen(matrix: np.ndarray) -> np.ndarray:
    """A read-only copy over an immutable buffer, so that not even
    ``setflags(write=True)`` can make it writable again."""
    return np.frombuffer(matrix.tobytes(), dtype=matrix.dtype).reshape(matrix.shape)


#: The matrix of every gate kind but MEASURE: fixed, or a function of the angle.
#: The fixed ones are frozen, so no caller can change a gate for the process.
_MATRICES: dict[GateKind, np.ndarray | Callable[[float], np.ndarray]] = {
    GateKind.I: _frozen(np.eye(2, dtype=complex)),
    GateKind.X: _frozen(np.array([[0, 1], [1, 0]], dtype=complex)),
    GateKind.Y: _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    GateKind.Z: _frozen(np.array([[1, 0], [0, -1]], dtype=complex)),
    GateKind.H: _frozen(np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)),
    GateKind.RX: rx,
    GateKind.RY: ry,
    GateKind.RZ: rz,
    GateKind.CNOT: _frozen(np.eye(4, dtype=complex)[[0, 1, 3, 2]]),
    GateKind.CZ: _frozen(np.diag([1, 1, 1, -1]).astype(complex)),
    GateKind.SWAP: _frozen(np.eye(4, dtype=complex)[[0, 2, 1, 3]]),
}

SWAP_MATRIX = _MATRICES[GateKind.SWAP]

#: ``SWAP G SWAP`` of each fixed two-qubit gate ``G``: the gate with its two
#: qubits in the other order. Only CNOT changes; CZ and SWAP map to themselves.
#: The products are permutations of the entries, so they are exact.
_SWAPPED = {
    id(m): _frozen(SWAP_MATRIX @ m @ SWAP_MATRIX) if kind is GateKind.CNOT else m
    for kind, m in _MATRICES.items()
    if kind.num_qubits == 2
}


#: The 2x2 target ``T`` of the table CNOT and CZ, ``|0><0| (x) I + |1><1| (x) T``
#: with the control first, keyed like ``_TABLE_IDS``: by identity, so the
#: reversed CNOT, a copy or a view is not listed.
CONTROLLED_TARGETS = {
    id(_MATRICES[GateKind.CNOT]): _MATRICES[GateKind.X],
    id(_MATRICES[GateKind.CZ]): _MATRICES[GateKind.Z],
}


def gate_matrix(instr: Instruction) -> np.ndarray:
    """Unitary matrix of a (bound, non-MEASURE) instruction; its angle, if it
    has one, must be a finite real number (:func:`check_real`)."""
    entry = _MATRICES.get(instr.kind)
    if entry is None:
        raise ValueError(f"{instr.kind.value} has no unitary matrix")
    if not instr.params:
        return entry
    return entry(check_real(f"{instr.kind.value} angle", instr.params[0], finite=True))


def qubits_swapped(gate: np.ndarray) -> np.ndarray:
    """``SWAP gate SWAP``: a 4x4 gate with its two qubits in the other order.

    For a fixed gate of the table this is a frozen table matrix too, built
    once, so :func:`check_gate` skips its unitarity test.
    """
    swapped = _SWAPPED.get(id(gate))
    return SWAP_MATRIX @ gate @ SWAP_MATRIX if swapped is None else swapped


_PAULIS = {label: _MATRICES[GateKind(label)] for label in "IXYZ"}


def pauli_matrix(label: str) -> np.ndarray:
    """Matrix of one Pauli label: ``I``, ``X``, ``Y`` or ``Z``."""
    matrix = _PAULIS.get(label)
    if matrix is None:
        raise ValueError(f"unknown Pauli label {label!r}")
    return matrix


# -- the input contract of both simulator states ------------------------------

#: Largest entry of ``|U+ U - I|`` that :func:`check_gate` accepts.
UNITARY_TOL = 1e-10

_IDENTITY = {d: np.eye(d) for d in (2, 4)}

#: The frozen fixed matrices of the gate table and their qubit-swapped forms,
#: known unitary: ``check_gate`` recognises them by identity, so a copy or a
#: view is still tested in full. They live as long as the process, so no ``id``
#: is reused.
_TABLE_IDS = frozenset(
    id(m) for m in [*_MATRICES.values(), *_SWAPPED.values()] if isinstance(m, np.ndarray)
)


def check_gate(matrix: np.ndarray, qubits: tuple[int, ...], n: int) -> None:
    """Reject a gate that a state of ``n`` qubits cannot apply to ``qubits``.

    Checked in this order: the arity (a gate acts on one or two qubits), the
    range of every qubit, the distinctness of a pair, the shape (2x2 for one
    qubit, 4x4 for two) and unitarity. The unitarity test is skipped only
    for the frozen matrices of the gate table themselves (``gate_matrix`` of a
    fixed gate, ``pauli_matrix``, ``SWAP_MATRIX``, ``qubits_swapped`` of a
    fixed two-qubit gate); a copy or a view of one is tested like any other
    matrix.
    The test is ``max |U+ U - I| <= UNITARY_TOL``, which rejects any NaN or
    infinite entry; a 2x2 matrix that passes it in closed form skips the
    matrix product.
    """
    if len(qubits) not in (1, 2):
        raise ValueError(f"a gate acts on 1 or 2 qubits, got {qubits}")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
    if len(qubits) == 2 and qubits[0] == qubits[1]:
        raise ValueError(f"gate needs distinct qubits, got {qubits}")
    d = 2 * len(qubits)
    if matrix.shape != (d, d):
        raise ValueError(
            f"expected a {d}x{d} matrix on qubits {qubits}, got shape {matrix.shape}"
        )
    if id(matrix) in _TABLE_IDS or (d == 2 and _is_unitary_2x2(matrix)):
        return
    dev = np.abs(matrix.conj().T @ matrix - _IDENTITY[d]).max()
    if not dev <= UNITARY_TOL:  # also rejects NaN, which compares false with everything
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")


def _is_unitary_2x2(matrix: np.ndarray) -> bool:
    """``max |U+ U - I| <= UNITARY_TOL`` in closed form on Python scalars.

    The three entries of ``U+ U - I`` (two real diagonal ones; the
    off-diagonal ones are conjugates) are compared one by one, so a NaN
    anywhere gives false. A false is rechecked by the matrix formula, which
    also words the message.
    """
    (a, b), (c, d) = matrix.tolist()
    ca, cc = a.conjugate(), c.conjugate()
    return (
        abs((ca * a + cc * c).real - 1) <= UNITARY_TOL
        and abs((b.conjugate() * b + d.conjugate() * d).real - 1) <= UNITARY_TOL
        and abs(ca * b + cc * d) <= UNITARY_TOL
    )


def check_pauli(pauli: str, n: int) -> None:
    """Reject a Pauli string that is not ``n`` labels from ``IXYZ``; of
    several bad labels, the message names the first in sorted order."""
    if len(pauli) != n:
        raise ValueError(f"Pauli string length {len(pauli)} != qubit count {n}")
    if pauli.strip("IXYZ"):  # empty exactly when every label is in IXYZ
        for label in sorted(set(pauli)):
            pauli_matrix(label)


def check_integer(name: str, value: int) -> None:
    """Reject a count ``name`` that is not an integer: a ``bool`` is not
    one, a numpy integer is."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value: float, finite: bool = False) -> float:
    """``value`` as a float; a ``ValueError`` naming ``name`` unless it is a
    real number (a ``bool`` is not one, a numpy float is) within the float
    range and, with ``finite``, neither infinite nor NaN."""
    # a float skips the ABC test, which costs more than the rest of the check
    real = type(value) is float or not isinstance(value, bool) and isinstance(value, Real)
    try:
        number = float(value) if real else None
    except OverflowError:  # an integer beyond the float range
        number = None
    if number is None or finite and not isfinite(number):
        kind = "a finite real number" if finite else "a real number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return number


def check_count(name: str, value: int, low: int = 1) -> None:
    """Reject a count ``name`` that is not an integer ``>= low``
    (:func:`check_integer`). Every count a caller passes in (qubits, shots,
    rounds, seeds, grid points, a bond cap) is checked by this rule where it
    enters, before any gate runs."""
    check_integer(name, value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


def real_expectation(value: complex) -> float:
    """The real part of a Pauli expectation; an imaginary part above 1e-10
    (or a NaN) means the state or the contraction is broken."""
    if not abs(value.imag) <= 1e-10:
        raise RuntimeError(f"expectation has imaginary residue {value.imag:.3e}")
    return value.real


def measured_qubits(program: Sequence[Instruction]) -> list[int]:
    """The qubit read into each classical bit, by classical index.

    This is the readout rule of every executed program. The MEASUREs must
    write each classical index from 0 up exactly once. Measurement is
    deferred to sampling at the end of the run, so a gate on a qubit that an
    earlier MEASURE read is rejected rather than silently acting before the
    readout. Each fault is an :class:`IrError`.
    """
    by_bit: dict[int, int] = {}
    read: set[int] = set()
    for instr in program:
        if instr.kind is GateKind.MEASURE:
            if instr.classical_target in by_bit:
                raise IrError(f"classical bit {instr.classical_target} is measured twice")
            by_bit[instr.classical_target] = instr.qubits[0]
            read.add(instr.qubits[0])
            continue
        for q in instr.qubits:
            if q in read:
                raise IrError(
                    f"{instr.kind.value} {instr.qubits} acts on qubit {q} after it was "
                    f"measured; mid-circuit measurement is not supported"
                )
    try:
        return [by_bit[bit] for bit in range(len(by_bit))]
    except KeyError as exc:
        raise IrError(f"classical bit {exc.args[0]} is not measured") from None


def apply_program(
    state: _State,
    program: Sequence[Instruction],
    on_step: Callable[[_State], None] | None = None,
    values: Mapping[str, float] | None = None,
) -> _State:
    """Apply the program's gates to ``state`` in order and return it.

    :func:`measured_qubits` checks the readout before the first gate, and
    MEASUREs then apply nothing. A one-qubit gate goes to
    ``apply_one_qubit`` and a two-qubit gate, on any pair, to
    ``apply_two_qubit_routed``: where a pair's qubits sit is the state's
    concern, not the loop's.
    ``on_step(state)`` runs after every gate and may raise to abort the run.

    A gate whose angle slot is a formal-parameter name is bound here, from
    ``values`` (name to angle): its matrix is built once per run for each
    gate kind and name, and shared, read-only, by every gate with that slot.
    Every entry of ``values`` must be a finite real number
    (:func:`check_real`), checked before the first gate. A name that
    ``values`` lacks is an :class:`IrError`, raised when the first gate with
    that slot is reached.
    """
    measured_qubits(program)
    values = {name: check_real(name, v, finite=True) for name, v in (values or {}).items()}
    one_qubit, two_qubit = state.apply_one_qubit, state.apply_two_qubit_routed
    bound: dict[tuple[GateKind, str], np.ndarray] = {}
    for instr in program:
        if instr.kind is GateKind.MEASURE:
            continue
        slot = instr.params[0] if instr.params else None
        if isinstance(slot, str):
            matrix = bound.get((instr.kind, slot))
            if matrix is None:
                matrix = bound[instr.kind, slot] = _bind(instr, slot, values)
        else:
            matrix = gate_matrix(instr)
        qubits = instr.qubits
        if len(qubits) == 1:
            one_qubit(matrix, qubits[0])
        else:
            two_qubit(matrix, *qubits)
        if on_step is not None:
            on_step(state)
    return state


def _bind(instr: Instruction, slot: str, values: Mapping[str, float]) -> np.ndarray:
    """The read-only matrix of ``instr`` with its slot named ``slot`` bound."""
    if slot not in values:
        raise IrError(f"unbound parameter(s) {[slot]} in {instr.kind.value} {instr.qubits}")
    matrix = _MATRICES[instr.kind](values[slot])
    matrix.setflags(write=False)
    return matrix
