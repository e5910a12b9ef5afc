import ast
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsqvm import GateKind, Instruction, bind_parameters, flatten, parse, unparse
from mpsqvm.parser import ParseError
from tests.conftest import CHAIN_SRC, REPO_ROOT

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

    @pytest.mark.parametrize("statement, message", [
        ("CNOT 1 1", "CNOT qubit indices must be distinct: (1, 1)"),
        ("callee(b, 0.5, t)", "kernel 'callee' takes 1 argument(s), got 2"),
    ], ids=["gate", "call"])
    def test_ir_error_at_the_statement_head(self, statement, message):
        src = (
            "__qpu__ callee(AcceleratorBuffer b, double z) {\n  RZ(z) 0\n}\n"
            f"__qpu__ k(AcceleratorBuffer b, double t) {{\n  H 0\n    {statement}\n  X 1\n}}"
        )
        with pytest.raises(ParseError) as info:
            parse(src)
        assert (info.value.line, info.value.col) == (6, 5)
        assert str(info.value) == f"6:5: {message}"

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


def _reference_lex(text: str) -> list[tuple[str, str, int, int]]:
    """The lexer's original incremental walk, kept as the position reference:
    a ``\\n`` starts a new line at column 1, and every other character,
    whitespace or not, moves one column on. Returns ``(kind, text, line,
    col)`` per token, ending with ``eof``; raises ``ParseError`` at a
    character outside the grammar."""
    token_re = re.compile(
        r"""
          (?P<ws>[^\S\n]+)
        | (?P<nl>\n)
        | (?P<comment>\#[^\n]*)
        | (?P<number>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
        | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<sym>[(){}\[\],])
        """,
        re.VERBOSE,
    )
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind, value = m.lastgroup, m.group()
        if kind == "nl":
            line, col = line + 1, 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append((kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


# Faults after a tab, ``\r\n``, a comment line, ``\xa0``, ``\u2028`` and at end
# of input: each of these is one column, and only ``\n`` starts a line.
POSITION_TABLE = [
    ("unexpected-char", "H\t$", "1:3: unexpected character '$'"),
    ("unexpected-char-eol", "# c\r\n\xa0\u2028@\n", "2:3: unexpected character '@'"),
    ("expected-paren", "__qpu__ k\r\n  [", "2:3: expected '(', found '['"),
    ("expected-qpu", "# header\nkernel", "2:1: expected '__qpu__', found 'kernel'"),
    ("expected-kernel-name", "__qpu__\xa07", "1:9: expected kernel name, found '7'"),
    ("expected-kernel-name-eof", "__qpu__", "1:8: expected kernel name, found ''"),
    ("expected-kernel-name-eof-nl", "__qpu__\n", "2:1: expected kernel name, found ''"),
    ("expected-qubit", wrap("H\u2028x"), "2:3: expected qubit index, found 'x'"),
    ("expected-creg", wrap("MEASURE 0 [\t-1]"),
     "2:13: expected classical register index, found '-1'"),
    ("end-of-body", "__qpu__ k(AcceleratorBuffer b) {\n  H 0",
     "2:6: unexpected end of input inside kernel body"),
    ("end-of-body-nl", "__qpu__ k(AcceleratorBuffer b) {\n  H 0\n",
     "3:1: unexpected end of input inside kernel body"),
    ("end-of-body-comment", "__qpu__ k(AcceleratorBuffer b) {\r\n# tail",
     "2:7: unexpected end of input inside kernel body"),
    ("duplicate", wrap("H 0") + "\r\n" + wrap("X 0"), "4:9: duplicate kernel name 'k'"),
    ("gate-named-kernel", "__qpu__ H(AcceleratorBuffer b) { X 0 }",
     "1:9: kernel name 'H' is a gate name"),
    ("repeated-parameter", "\xa0__qpu__ k(AcceleratorBuffer b, double t, double t) {}",
     "1:10: kernel 'k' declares parameter 't' twice"),
    ("gate-ir-error", wrap("\tCNOT 1 1"), "2:2: CNOT qubit indices must be distinct: (1, 1)"),
    ("call-arity", "__qpu__ c(AcceleratorBuffer b) {}\n# call\n"
     "__qpu__ k(AcceleratorBuffer b) {\u2028c(b, 1.0)}",
     "3:34: kernel 'c' takes 0 argument(s), got 1"),
    ("undefined-kernel", wrap("\r\nnope(b)"), "3:1: call to undefined kernel 'nope'"),
    ("non-finite", wrap("RX(\t1e400) 0"), "2:5: angle literal 1e400 is not finite"),
    ("unknown-parameter", wrap("RZ(\xa0t1) 0", ", double t0"), "2:5: unknown parameter 't1'"),
    ("expected-angle", wrap("RZ() 0"), "2:4: expected angle expression, found ')'"),
    ("expected-angle-eof", "__qpu__ k(AcceleratorBuffer b) {\n  RZ(",
     "2:6: expected angle expression, found ''"),
    ("expected-angle-eof-nl", "__qpu__ k(AcceleratorBuffer b) {\n  RZ(\n",
     "3:1: expected angle expression, found ''"),
]


class TestErrorPositions:
    @pytest.mark.parametrize("src, expected", [row[1:] for row in POSITION_TABLE],
                             ids=[row[0] for row in POSITION_TABLE])
    def test_message_and_position(self, src, expected):
        with pytest.raises(ParseError) as info:
            parse(src)
        assert str(info.value) == expected
        assert f"{info.value.line}:{info.value.col}: " == expected[: expected.index(" ") + 1]

    SEPARATORS = st.text(" \t\r\n\x0b\x0c\xa0\u2028", min_size=1, max_size=4)
    STATEMENTS = [["H", "0"], ["CNOT", "1", "0"], ["RX", "(", "0.5", ")", "1"],
                  ["RZ", "(", "t", ")", "0"], ["MEASURE", "0", "[", "0", "]"],
                  ["callee", "(", "b", ",", "t", ")"], ["# note\n"]]
    HEAD = ("__qpu__ callee ( AcceleratorBuffer b , double z ) { RZ ( z ) 0 } "
            "__qpu__ k ( AcceleratorBuffer b , double t ) {").split()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_positions_match_the_incremental_walk(self, data):
        """A fault at a random place in a kernel with arbitrary separator runs
        is reported where the original line-and-column walk puts it."""
        draw = data.draw
        statements = draw(st.lists(st.sampled_from(self.STATEMENTS), max_size=6))
        words = self.HEAD + [w for s in statements for w in s] + ["}"]
        fault = draw(st.sampled_from(["char", "token", "truncate"]))
        if fault == "char":
            at = draw(st.integers(0, len(words)))
            words.insert(at, draw(st.sampled_from("$@!;:=~?'\"é\x00")))
        elif fault == "token":
            # a statement boundary: after the body's '{' or after a statement
            bounds = [len(self.HEAD)]
            for s in statements:
                bounds.append(bounds[-1] + len(s))
            at = draw(st.sampled_from(bounds))
            bad = draw(st.sampled_from(["7", "2.5", "-1", ",", "(", ")", "[", "]", "{"]))
            words.insert(at, bad)
        else:
            words.pop()
        seps = [draw(self.SEPARATORS) for _ in words]
        cut = draw(st.integers(0, len(seps[0])))
        text = seps[0][:cut] + "".join(w + s for w, s in zip(words, seps[1:] + [""]))
        text += draw(st.sampled_from(["", "\n", seps[0]]))
        try:
            ref = _reference_lex(text)
        except ParseError as exc:
            expected = (exc.line, exc.col, str(exc))
        else:
            if fault == "token":
                kind, _, line, col = [t for t in ref if t[1] == bad or t[0] == "eof"][
                    sum(w == bad for w in words[:at])]
                message = f"expected gate or kernel name, found {bad!r}"
            else:
                kind, _, line, col = ref[-1]
                message = "unexpected end of input inside kernel body"
            expected = (line, col, f"{line}:{col}: {message}")
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.line, info.value.col, str(info.value)) == expected


class TestOneErrorConstructor:
    def test_parse_error_is_built_only_by_the_offset_helper(self):
        """Every ``ParseError`` in ``src/mpsqvm`` is built by one helper, so
        one rule turns a source offset into a line and a column."""
        sites = []
        for path in sorted((REPO_ROOT / "src" / "mpsqvm").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                            and node.func.id == "ParseError"):
                        sites.append(f"{path.name}:{func.name}:{node.lineno}")
        assert [site.rsplit(":", 1)[0] for site in sites] == ["parser.py:_error_at"], sites
