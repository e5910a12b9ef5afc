import math

import pytest

from mpsqvm import (
    CompositeInstruction,
    GateKind,
    Instruction,
    bind_parameters,
    flatten,
    parse,
)
from mpsqvm.ir import IrError

ANSATZ_SRC = """
__qpu__ ansatz(AcceleratorBuffer b, double t0) {
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


class TestInstructionInvariants:
    def test_rotation_requires_one_angle(self):
        with pytest.raises(IrError):
            Instruction(GateKind.RX, (0,))
        with pytest.raises(IrError):
            Instruction(GateKind.H, (0,), (0.5,))

    def test_two_qubit_arity_and_distinctness(self):
        with pytest.raises(IrError):
            Instruction(GateKind.CNOT, (1,))
        with pytest.raises(IrError):
            Instruction(GateKind.CNOT, (2, 2))

    def test_classical_target_only_on_measure(self):
        with pytest.raises(IrError):
            Instruction(GateKind.X, (0,), (), classical_target=0)

    def test_measure_needs_classical_target(self):
        with pytest.raises(IrError):
            Instruction(GateKind.MEASURE, (0,))


class TestBindParameters:
    def test_fig_listing_binding(self):
        kernel = parse(ANSATZ_SRC).kernels["ansatz"]
        bound = bind_parameters(kernel, [0.5])
        rz = flatten(bound)[4]
        assert rz.kind is GateKind.RZ and rz.params == (0.5,)
        # fixed angles untouched
        assert flatten(bound)[0].params == (3.1415926,)

    def test_zero_formals_identity(self):
        comp = CompositeInstruction("fixed", (), (Instruction(GateKind.H, (0,)),))
        assert bind_parameters(comp, []) == comp

    def test_bind_pi_then_flatten(self):
        comp = CompositeInstruction(
            "k", ("t0",), (Instruction(GateKind.RX, (0,), ("t0",)),)
        )
        [instr] = flatten(bind_parameters(comp, [math.pi]))
        assert instr.params == (math.pi,)

    def test_arity_mismatch(self):
        kernel = parse(ANSATZ_SRC).kernels["ansatz"]
        with pytest.raises(IrError):
            bind_parameters(kernel, [0.1, 0.2])

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, float("1e400")])
    def test_non_finite_value_rejected(self, value):
        kernel = parse(ANSATZ_SRC).kernels["ansatz"]
        with pytest.raises(IrError, match="t0.*not finite"):
            bind_parameters(kernel, [value])

    def test_repeated_parameter_rejected(self):
        """Binding by name would keep only the last value given for ``t``."""
        with pytest.raises(IrError, match="kernel 'k' declares parameter 't' twice"):
            CompositeInstruction("k", ("t", "t"), (Instruction(GateKind.RX, (0,), ("t",)),))

    def test_input_never_mutated(self):
        kernel = parse(ANSATZ_SRC).kernels["term0"]
        before = kernel
        bind_parameters(kernel, [1.25])
        assert kernel == before
        assert any(isinstance(p, str) for p in flatten_slots(kernel))


def flatten_slots(node):
    if isinstance(node, Instruction):
        yield from node.params
    else:
        for child in node.children:
            yield from flatten_slots(child)


class TestFlatten:
    def test_term0_pre_order(self):
        unit = parse(ANSATZ_SRC)
        program = flatten(bind_parameters(unit.kernels["term0"], [0.5]))
        assert len(program) == 9
        assert [i.kind for i in program[:3]] == [GateKind.RX, GateKind.RY, GateKind.RX]
        assert program[-1].kind is GateKind.MEASURE
        assert program[-1].classical_target == 0

    def test_empty_composite(self):
        assert flatten(CompositeInstruction("empty")) == []

    def test_nested_outer_to_inner_order(self):
        inner = CompositeInstruction("c", (), (Instruction(GateKind.Z, (2,)),))
        mid = CompositeInstruction(
            "b", (), (Instruction(GateKind.Y, (1,)), inner)
        )
        root = CompositeInstruction(
            "a", (), (Instruction(GateKind.X, (0,)), mid)
        )
        kinds = [i.kind for i in flatten(root)]
        assert kinds == [GateKind.X, GateKind.Y, GateKind.Z]

    def test_unbound_parameter_rejected(self):
        kernel = parse(ANSATZ_SRC).kernels["ansatz"]
        with pytest.raises(IrError, match="unbound"):
            flatten(kernel)

    def test_deterministic(self):
        kernel = parse(ANSATZ_SRC).kernels["term0"]
        a = flatten(bind_parameters(kernel, [0.7]))
        b = flatten(bind_parameters(kernel, [0.7]))
        assert a == b
