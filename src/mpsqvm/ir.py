"""Gate-level intermediate representation.

Programs are trees: :class:`CompositeInstruction` nodes (named kernels) with
:class:`Instruction` leaves (concrete gates). Execution order is a pre-order
traversal of the leaves. All IR values are immutable after construction and
safe to share; parameter binding returns new trees.
"""

from __future__ import annotations

import enum
import math
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
    """Malformed IR: bad arity, unknown or repeated parameter, unbound slot."""


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
    """A named kernel: an ordered tree of gates and nested kernel calls.

    ``call_args`` is set on nodes that stand for a call site inside another
    kernel; it records the caller-supplied argument expressions so the source
    form can be regenerated.
    """

    name: str
    formal_params: tuple[str, ...] = ()
    children: tuple["Instruction | CompositeInstruction", ...] = ()
    call_args: tuple[ParamSlot, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "formal_params", tuple(self.formal_params))
        object.__setattr__(self, "children", tuple(self.children))
        for i, param in enumerate(self.formal_params):
            if param in self.formal_params[:i]:
                raise IrError(f"kernel '{self.name}' declares parameter '{param}' twice")
        if self.call_args is not None:
            object.__setattr__(self, "call_args", tuple(self.call_args))


def _substitute(node: Instruction | CompositeInstruction,
                mapping: dict[str, float]) -> Instruction | CompositeInstruction:
    if isinstance(node, Instruction):
        params = tuple(
            mapping.get(p, p) if isinstance(p, str) else p for p in node.params
        )
        return Instruction(node.kind, node.qubits, params, node.classical_target)
    children = tuple(_substitute(c, mapping) for c in node.children)
    call_args = None
    if node.call_args is not None:
        call_args = tuple(
            mapping.get(a, a) if isinstance(a, str) else a for a in node.call_args
        )
    formals = tuple(p for p in node.formal_params if p not in mapping)
    return CompositeInstruction(node.name, formals, children, call_args)


def bind_parameters(root: CompositeInstruction, values: list[float]) -> CompositeInstruction:
    """Return a deep copy of ``root`` with formal parameters replaced by ``values``.

    ``values`` is matched positionally against ``root.formal_params`` and
    must be finite. The input tree is never mutated.
    """
    if len(values) != len(root.formal_params):
        raise IrError(
            f"kernel '{root.name}' takes {len(root.formal_params)} parameter(s), "
            f"got {len(values)}"
        )
    mapping = {name: float(v) for name, v in zip(root.formal_params, values)}
    for name, v in mapping.items():
        if not math.isfinite(v):
            raise IrError(f"parameter '{name}' of kernel '{root.name}' is {v!r}, not finite")
    bound = _substitute(root, mapping)
    assert isinstance(bound, CompositeInstruction)
    return bound


def flatten(root: CompositeInstruction) -> list[Instruction]:
    """Pre-order leaf list of a fully bound tree."""
    out: list[Instruction] = []

    def walk(node: Instruction | CompositeInstruction) -> None:
        if isinstance(node, Instruction):
            unresolved = [p for p in node.params if isinstance(p, str)]
            if unresolved:
                raise IrError(
                    f"unbound parameter(s) {unresolved} in {node.kind.value} {node.qubits}"
                )
            out.append(node)
        else:
            for child in node.children:
                walk(child)

    walk(root)
    return out


def num_qubits(program: list[Instruction]) -> int:
    """Smallest register size covering every qubit index in the program."""
    return 1 + max((q for instr in program for q in instr.qubits), default=0)
