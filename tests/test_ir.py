import math

import pytest

from mpsqvm import (
    CompositeInstruction,
    GateKind,
    Instruction,
    parse,
)
from mpsqvm.ir import IrError, bind_parameters, flatten
from mpsqvm.parser import ParseError
from tests.conftest import CHAIN_SRC

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

    @pytest.mark.parametrize(
        "args, count", [("", 0), (", 1.0, t", 2)], ids=["too_few", "too_many"]
    )
    def test_call_and_bind_share_arity_message(self, args, count):
        """A call and a bind with the wrong count fail alike; the parse error
        sits at the call's name."""
        with pytest.raises(IrError) as bound:
            bind_parameters(parse(CHAIN_SRC).kernels["leaf"], [0.5] * count)
        message = f"kernel 'leaf' takes 1 argument(s), got {count}"
        assert str(bound.value) == message
        caller = f"__qpu__ k(AcceleratorBuffer b, double t) {{\n  H 0\n  leaf(b{args})\n}}"
        with pytest.raises(ParseError) as called:
            parse(CHAIN_SRC + caller)
        assert str(called.value) == f"20:3: {message}"

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
        assert any(isinstance(p, str) for g in kernel.children for p in g.params)

    @pytest.mark.parametrize(
        "src, name, values",
        [(ANSATZ_SRC, "term0", [1.25]), (CHAIN_SRC, "top", [1.25, -0.5])],
        ids=["term0", "chain"],
    )
    def test_gates_without_slots_shared(self, monkeypatch, src, name, values):
        """Only the gates with a parameter slot are rebuilt, and so validated."""
        kernel = parse(src).kernels[name]
        mapping = dict(zip(kernel.formal_params, values))
        before = list(kernel.children)
        slotted = [g for g in before if any(isinstance(p, str) for p in g.params)]
        assert 0 < len(slotted) < len(before)
        built = []
        validate = Instruction.__post_init__
        monkeypatch.setattr(Instruction, "__post_init__",
                            lambda self: (built.append(self), validate(self)))
        bound = bind_parameters(kernel, values)
        monkeypatch.undo()
        after = list(bound.children)
        assert len(after) == len(before)
        for old, new in zip(before, after):
            if any(old is g for g in slotted):
                assert new is not old and new.params == tuple(mapping[p] for p in old.params)
                assert any(b is new for b in built)
            else:
                assert new is old
        assert len(built) == len(slotted)
        assert kernel == parse(src).kernels[name]
        assert list(kernel.children) == before


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

    def test_nested_kernel_rejected(self):
        """A kernel holds only gates, so a kernel child fails where it is built."""
        inner = CompositeInstruction("c", (), (Instruction(GateKind.Z, (2,)),))
        with pytest.raises(IrError, match="kernel 'b' holds a CompositeInstruction, not a gate"):
            CompositeInstruction("b", (), (Instruction(GateKind.Y, (1,)), inner))

    def test_call_chain_expanded_by_hand(self):
        bound = bind_parameters(parse(CHAIN_SRC).kernels["top"], [0.5, -2.0])
        assert list(bound.children) == flatten(bound)  # one level
        assert flatten(bound) == [
            Instruction(GateKind.RX, (0,), (0.5,)),
            Instruction(GateKind.RY, (1,), (-2.0,)),
            Instruction(GateKind.RZ, (2,), (0.5,)),
            Instruction(GateKind.H, (2,)),
            Instruction(GateKind.RZ, (2,), (1.5,)),
            Instruction(GateKind.H, (2,)),
            Instruction(GateKind.CNOT, (0, 1)),
            Instruction(GateKind.RY, (1,), (0.75,)),
            Instruction(GateKind.RZ, (2,), (-2.0,)),
            Instruction(GateKind.H, (2,)),
            Instruction(GateKind.RZ, (2,), (1.5,)),
            Instruction(GateKind.H, (2,)),
            Instruction(GateKind.CNOT, (0, 1)),
            Instruction(GateKind.MEASURE, (0,), (), classical_target=0),
        ]

    def test_unbound_parameter_rejected(self):
        kernel = parse(ANSATZ_SRC).kernels["ansatz"]
        with pytest.raises(IrError, match="unbound"):
            flatten(kernel)

    def test_deterministic(self):
        kernel = parse(ANSATZ_SRC).kernels["term0"]
        a = flatten(bind_parameters(kernel, [0.7]))
        b = flatten(bind_parameters(kernel, [0.7]))
        assert a == b
