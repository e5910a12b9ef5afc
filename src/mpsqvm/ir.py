"""Gate-level intermediate representation.

A kernel is a :class:`CompositeInstruction`: a name, formal parameters and a
flat tuple of :class:`Instruction` gates, run in order. All IR values are
immutable after construction and safe to share.

Parameters are bound in one of two places. At parse time, :func:`inline`
expands a call into the callee's gates with the arguments filled in; a call
in source and ``mpsqvm run --args`` both bind this way. At run time,
:func:`~mpsqvm.gates.apply_program` fills named slots from the ``values`` it
is given, as ``vqe`` does for each theta. :func:`bind_parameters` and
:func:`flatten` are test and benchmark helpers, the tests' reference for
in-loop binding; the package does not export them, and they go once the
benchmark harness stops calling them.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass


class GateKind(enum.Enum):
    H = "H"
    X = "X"
    Y = "Y"
    Z = "Z"
    RX = "RX"
    RY = "RY"
    RZ = "RZ"
    CNOT = "CNOT"
    CZ = "CZ"
    SWAP = "SWAP"
    MEASURE = "MEASURE"
    I = "I"  # noqa: E741 - identity gate

    @property
    def num_qubits(self) -> int:
        return 2 if self in (GateKind.CNOT, GateKind.CZ, GateKind.SWAP) else 1

    @property
    def num_params(self) -> int:
        return 1 if self in (GateKind.RX, GateKind.RY, GateKind.RZ) else 0


class IrError(ValueError):
    """Malformed IR: bad arity, unknown or repeated parameter, unbound slot, or
    a kernel child that is not a gate."""


#: A parameter slot: either a concrete angle (radians) or an unresolved
#: formal-parameter name.
ParamSlot = float | str


@dataclass(frozen=True)
class Instruction:
    """A single gate acting on explicit qubit indices."""

    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[ParamSlot, ...] = ()
    classical_target: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "params", tuple(self.params))
        if len(self.qubits) != self.kind.num_qubits:
            raise IrError(
                f"{self.kind.value} acts on {self.kind.num_qubits} qubit(s), "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise IrError(f"{self.kind.value} qubit indices must be distinct: {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise IrError(f"negative qubit index in {self.qubits}")
        if len(self.params) != self.kind.num_params:
            raise IrError(
                f"{self.kind.value} takes {self.kind.num_params} parameter(s), "
                f"got {len(self.params)}"
            )
        if (self.classical_target is None) == (self.kind is GateKind.MEASURE):
            raise IrError("MEASURE needs a classical_target, and no other gate takes one")


@dataclass(frozen=True)
class CompositeInstruction:
    """A named kernel: its formal parameters and its gates, in run order.

    Every child is an :class:`Instruction`. A call to another kernel is
    expanded by :func:`inline` into the callee's gates, so a kernel never
    holds a kernel.
    """

    name: str
    formal_params: tuple[str, ...] = ()
    children: tuple[Instruction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "formal_params", tuple(self.formal_params))
        object.__setattr__(self, "children", tuple(self.children))
        for i, param in enumerate(self.formal_params):
            if param in self.formal_params[:i]:
                raise IrError(f"kernel '{self.name}' declares parameter '{param}' twice")
        for child in self.children:
            if not isinstance(child, Instruction):
                raise IrError(f"kernel '{self.name}' holds a {type(child).__name__}, not a gate")


def inline(kernel: CompositeInstruction, args: list[ParamSlot]) -> tuple[Instruction, ...]:
    """The gates of the call ``kernel(b, *args)``, in order.

    ``args`` is matched positionally against ``kernel.formal_params``; each
    is a finite angle or a formal-parameter name of the caller. A gate with
    a named slot is rebuilt with the slot filled (and so validated again); a
    gate without one is shared with ``kernel``, which is never mutated.
    """
    if len(args) != len(kernel.formal_params):
        raise IrError(
            f"kernel '{kernel.name}' takes {len(kernel.formal_params)} argument(s), "
            f"got {len(args)}"
        )
    mapping = dict(zip(kernel.formal_params, args))
    for name, v in mapping.items():
        if not isinstance(v, str) and not math.isfinite(v):
            raise IrError(f"parameter '{name}' of kernel '{kernel.name}' is {v!r}, not finite")
    out = list(kernel.children)
    for i, gate in enumerate(out):
        if any(isinstance(p, str) for p in gate.params):
            params = tuple(mapping.get(p, p) if isinstance(p, str) else p for p in gate.params)
            out[i] = Instruction(gate.kind, gate.qubits, params, gate.classical_target)
    return tuple(out)


def bind_parameters(root: CompositeInstruction, values: list[float]) -> CompositeInstruction:
    """Return ``root`` bound to ``values``, as a kernel with no parameters.

    ``values`` is matched positionally against ``root.formal_params``, and
    each must be finite (:func:`inline`'s rule). The result's children are
    :func:`inline`'s gates: every gate with a parameter slot is rebuilt, and
    every other gate is shared with ``root``. A test and benchmark helper,
    not exported by the package; it goes once the benchmark harness stops
    calling it.
    """
    gates = inline(root, [float(v) for v in values])
    return CompositeInstruction(root.name, (), gates)


def flatten(root: CompositeInstruction) -> list[Instruction]:
    """The gates of a fully bound kernel, in order. A test and benchmark
    helper, not exported by the package; it goes once the benchmark harness
    stops calling it."""
    for gate in root.children:
        unresolved = [p for p in gate.params if isinstance(p, str)]
        if unresolved:
            raise IrError(
                f"unbound parameter(s) {unresolved} in {gate.kind.value} {gate.qubits}"
            )
    return list(root.children)


def num_qubits(program: Sequence[Instruction]) -> int:
    """Smallest register size covering every qubit index in the program."""
    return 1 + max((q for instr in program for q in instr.qubits), default=0)
