"""Parser for the textual quantum-kernel language.

A source unit holds zero or more kernels::

    __qpu__ name(AcceleratorBuffer b, double t0) {
      RX(3.1415926) 0
      CNOT 1 0
      RZ(t0) 0
      MEASURE 0 [0]
      other_kernel(b, t0)
    }

Whitespace and newlines are insignificant, ``#`` starts a comment. Angle
expressions are real literals or declared ``double`` parameter names. Kernel
calls may only reference kernels defined earlier in the unit. All failures
raise :class:`ParseError` carrying the source position.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .ir import CompositeInstruction, GateKind, Instruction, IrError, ParamSlot, inline

_GATE_NAMES = {k.value: k for k in GateKind}

_TOKEN_RE = re.compile(
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


class ParseError(ValueError):
    """Syntax or semantic error with 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "ident" | "sym" | "eof"
    text: str
    line: int
    col: int


@dataclass
class SourceUnit:
    """A parsed source file: its kernels by name, in definition order."""

    kernels: dict[str, CompositeInstruction] = field(default_factory=dict)


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        else:
            tokens.append(Token(kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def _fail(self, message: str) -> ParseError:
        return ParseError(message, self.cur.line, self.cur.col)

    def _advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def _expect_sym(self, sym: str) -> Token:
        if self.cur.kind != "sym" or self.cur.text != sym:
            raise self._fail(f"expected '{sym}', found {self.cur.text!r}")
        return self._advance()

    def _expect_ident(self, what: str = "identifier", word: str | None = None) -> Token:
        """Consume an identifier; with ``word`` given, only that keyword."""
        if self.cur.kind != "ident" or word not in (None, self.cur.text):
            what = what if word is None else repr(word)
            raise self._fail(f"expected {what}, found {self.cur.text!r}")
        return self._advance()

    def _expect_uint(self, what: str) -> int:
        tok = self.cur
        if tok.kind != "number" or not re.fullmatch(r"\d+", tok.text):
            raise self._fail(f"expected {what}, found {tok.text!r}")
        self._advance()
        return int(tok.text)

    def parse_unit(self) -> SourceUnit:
        unit = SourceUnit()
        while self.cur.kind != "eof":
            name, kernel = self.parse_kernel(unit)
            unit.kernels[name] = kernel
        return unit

    def parse_kernel(self, unit: SourceUnit) -> tuple[str, CompositeInstruction]:
        self._expect_ident(word="__qpu__")
        name_tok = self._expect_ident("kernel name")
        if name_tok.text in unit.kernels:
            raise ParseError(
                f"duplicate kernel name '{name_tok.text}'", name_tok.line, name_tok.col
            )
        self._expect_sym("(")
        self._expect_ident(word="AcceleratorBuffer")
        self._expect_ident("buffer name")  # parsed and discarded
        formals: list[str] = []
        while self.cur.kind == "sym" and self.cur.text == ",":
            self._advance()
            self._expect_ident(word="double")
            formals.append(self._expect_ident("parameter name").text)
        self._expect_sym(")")
        self._expect_sym("{")
        children: list[Instruction] = []
        while not (self.cur.kind == "sym" and self.cur.text == "}"):
            if self.cur.kind == "eof":
                raise self._fail("unexpected end of input inside kernel body")
            children.extend(self.parse_statement(unit, formals))
        self._expect_sym("}")
        try:
            kernel = CompositeInstruction(name_tok.text, tuple(formals), tuple(children))
        except IrError as exc:
            raise ParseError(str(exc), name_tok.line, name_tok.col) from None
        return name_tok.text, kernel

    def parse_statement(self, unit: SourceUnit, formals: list[str]) -> tuple[Instruction, ...]:
        """The gates of one statement: a gate, or a call expanded in place."""
        head = self._expect_ident("gate or kernel name")
        if head.text in _GATE_NAMES:
            return (self.parse_gate(_GATE_NAMES[head.text], head, formals),)
        return self.parse_call(head, unit, formals)

    def parse_gate(self, kind: GateKind, head: Token, formals: list[str]) -> Instruction:
        """A gate statement; :class:`Instruction` checks its angles and qubits."""
        params: tuple[ParamSlot, ...] = ()
        if self.cur.kind == "sym" and self.cur.text == "(":
            self._advance()
            params = (self.parse_expr(formals),)
            self._expect_sym(")")
        qubits = tuple(
            self._expect_uint("qubit index") for _ in range(kind.num_qubits)
        )
        creg = None
        if kind is GateKind.MEASURE:
            self._expect_sym("[")
            creg = self._expect_uint("classical register index")
            self._expect_sym("]")
        try:
            return Instruction(kind, qubits, params, creg)
        except IrError as exc:
            raise ParseError(str(exc), head.line, head.col) from None

    def parse_call(
        self, head: Token, unit: SourceUnit, formals: list[str]
    ) -> tuple[Instruction, ...]:
        callee = unit.kernels.get(head.text)
        if callee is None:
            raise ParseError(f"call to undefined kernel '{head.text}'", head.line, head.col)
        self._expect_sym("(")
        self._expect_ident("buffer argument")  # required, semantically ignored
        args: list[ParamSlot] = []
        while self.cur.kind == "sym" and self.cur.text == ",":
            self._advance()
            args.append(self.parse_expr(formals))
        self._expect_sym(")")
        try:
            return inline(callee, args)
        except IrError as exc:
            raise ParseError(str(exc), head.line, head.col) from None

    def parse_expr(self, formals: list[str]) -> ParamSlot:
        tok = self.cur
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"angle literal {tok.text} is not finite", tok.line, tok.col)
            self._advance()
            return value
        if tok.kind == "ident":
            if tok.text not in formals:
                raise ParseError(f"unknown parameter '{tok.text}'", tok.line, tok.col)
            self._advance()
            return tok.text
        raise self._fail(f"expected angle expression, found {tok.text!r}")


def parse(text: str) -> SourceUnit:
    """Parse a source unit; raises :class:`ParseError` on any invalid input."""
    return _Parser(text).parse_unit()


def _format_param(p: ParamSlot) -> str:
    return p if isinstance(p, str) else repr(float(p))


def _unparse_statement(node: Instruction) -> str:
    if node.kind is GateKind.MEASURE:
        return f"MEASURE {node.qubits[0]} [{node.classical_target}]"
    params = ""
    if node.params:
        params = f"({_format_param(node.params[0])})"
    return f"{node.kind.value}{params} " + " ".join(str(q) for q in node.qubits)


def unparse(unit: SourceUnit) -> str:
    """Canonical source text; ``parse(unparse(u))`` is structurally equal to ``u``.

    A kernel holds only gates, so a call is printed as the callee's gates
    it was expanded into.
    """
    blocks = []
    for name, kernel in unit.kernels.items():
        formals = "".join(f", double {p}" for p in kernel.formal_params)
        body = "".join(f"  {_unparse_statement(c)}\n" for c in kernel.children)
        blocks.append(f"__qpu__ {name}(AcceleratorBuffer b{formals}) {{\n{body}}}\n")
    return "\n".join(blocks)
