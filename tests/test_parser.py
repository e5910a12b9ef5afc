import numpy as np
import pytest

from mpsqvm import GateKind, Instruction, bind_parameters, flatten, parse, unparse
from mpsqvm.parser import ParseError
from tests.conftest import CHAIN_SRC

FULL_SRC = """\
__qpu__ ansatz(AcceleratorBuffer b,
                            double t0) {
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


def wrap(body: str, formals: str = "") -> str:
    return f"__qpu__ k(AcceleratorBuffer b{formals}) {{\n{body}\n}}"


class TestParse:
    def test_rx_literal(self):
        unit = parse(wrap("RX(3.1415926) 0"))
        [instr] = unit.kernels["k"].children
        assert instr.kind is GateKind.RX
        assert instr.qubits == (0,)
        assert instr.params == (3.1415926,)

    def test_cnot_qubit_order(self):
        [instr] = parse(wrap("CNOT 1 0")).kernels["k"].children
        assert instr.kind is GateKind.CNOT
        assert instr.qubits == (1, 0)
        assert instr.params == ()

    def test_empty_string(self):
        assert parse("").kernels == {}

    def test_measure(self):
        [instr] = parse(wrap("MEASURE 0 [0]")).kernels["k"].children
        assert instr.kind is GateKind.MEASURE
        assert instr.qubits == (0,)
        assert instr.classical_target == 0

    def test_multiline_header(self):
        unit = parse(FULL_SRC)
        assert set(unit.kernels) == {"ansatz", "term0"}
        assert unit.kernels["ansatz"].formal_params == ("t0",)

    def test_call_inlines_callee(self):
        """A call is expanded in place into the callee's gates."""
        unit = parse(FULL_SRC)
        ansatz, term0 = unit.kernels["ansatz"], unit.kernels["term0"]
        assert len(term0.children) == 9
        for called, gate in zip(term0.children[:8], ansatz.children):
            if gate.params == ("t0",):
                assert called is not gate and called.params == ("t0",)
            else:
                assert called is gate

    def test_comments_and_blank_lines(self):
        src = "# header comment\n\n" + wrap("H 0  # inline\n\n  X 1")
        kinds = [c.kind for c in parse(src).kernels["k"].children]
        assert kinds == [GateKind.H, GateKind.X]


class TestParseErrors:
    @pytest.mark.parametrize(
        "src",
        [
            "__qpu__",
            "__qpu__ k(AcceleratorBuffer b) { H }",
            wrap("BOGUS 0"),
            wrap("RX() 0"),
            wrap("RX 0"),
            wrap("H(1.0) 0"),
            wrap("CNOT 0"),
            wrap("CNOT 1 1"),
            wrap("MEASURE 0"),
            wrap("RZ(nope) 0"),
            wrap("RZ(1e400) 0"),
            wrap("RZ(-1e400) 0"),
            wrap("other(b)"),
            "__qpu__ k(int x) { }",
            "__qpu__ k(AcceleratorBuffer b) { H 0",
            "$%&",
        ],
    )
    def test_rejected_with_parse_error(self, src):
        with pytest.raises(ParseError):
            parse(src)

    def test_non_finite_literal_named(self):
        with pytest.raises(ParseError, match="1e400 is not finite"):
            parse(wrap("RX(1e400) 0"))

    def test_duplicate_kernel_name(self):
        src = wrap("H 0") + "\n" + wrap("X 0")
        with pytest.raises(ParseError, match="duplicate"):
            parse(src)

    def test_call_arity_mismatch(self):
        src = FULL_SRC + wrap("ansatz(b)")
        with pytest.raises(ParseError, match="argument"):
            parse(src)

    def test_repeated_parameter_at_kernel_name(self):
        src = "\n__qpu__ k(AcceleratorBuffer b, double t, double t) {\n  RX(t) 0\n}"
        with pytest.raises(ParseError, match="kernel 'k' declares parameter 't' twice") as info:
            parse(src)
        assert (info.value.line, info.value.col) == (2, 9)

    def test_error_carries_position(self):
        try:
            parse("__qpu__ k(AcceleratorBuffer b) {\n  BOGUS 0\n}")
        except ParseError as exc:
            assert exc.line == 2
            assert "2:" in str(exc)
        else:
            pytest.fail("expected ParseError")

    def test_fuzz_sample_no_crashes(self, rng):
        for _ in range(500):
            size = int(rng.integers(0, 120))
            text = bytes(rng.integers(0, 256, size=size).tolist()).decode("latin-1")
            try:
                parse(text)
            except ParseError:
                pass


class TestUnparse:
    @pytest.mark.parametrize("src", [FULL_SRC, CHAIN_SRC], ids=["full", "chain"])
    def test_round_trip_full_listing(self, src):
        unit = parse(src)
        again = parse(unparse(unit))
        assert again.kernels == unit.kernels
        for kernel in unit.kernels.values():
            assert all(isinstance(c, Instruction) for c in kernel.children)

    def test_round_trip_keeps_bound_chain(self):
        top = parse(CHAIN_SRC).kernels["top"]
        again = parse(unparse(parse(CHAIN_SRC))).kernels["top"]
        assert flatten(bind_parameters(again, [0.5, -2.0])) == flatten(
            bind_parameters(top, [0.5, -2.0])
        )

    def test_zero_kernel_unit(self):
        assert unparse(parse("")) == ""

    def test_formal_name_survives(self):
        text = unparse(parse(wrap("RZ(t0) 0", ", double t0")))
        assert "RZ(t0) 0" in text

    @pytest.mark.parametrize("src", [FULL_SRC, CHAIN_SRC], ids=["full", "chain"])
    def test_fixed_point(self, src):
        first = parse(src)
        second = parse(unparse(first))
        third = parse(unparse(second))
        assert second.kernels == third.kernels
