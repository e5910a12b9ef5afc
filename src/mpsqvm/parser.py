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
calls may only reference kernels defined earlier in the unit, and a kernel may
not take a gate's name. All failures raise :class:`ParseError` carrying the
source position as a 1-based ``line:column``: only ``\n`` ends a line, and
every other character, a tab included, is one column.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .ir import CompositeInstruction, GateKind, Instruction, IrError, ParamSlot, inline

_GATE_NAMES = {k.value: k for k in GateKind}

_TOKEN_RE = re.compile(
    r"""
      (?P<skip>\s+|\#[^\n]*)
    | (?P<number>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<sym>[(){}\[\],])
    | (?P<bad>.)
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    """Syntax or semantic error with 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # "number" | "ident" | "sym" | "eof"
    text: str
    pos: int  # offset into the source


@dataclass
class SourceUnit:
    """A parsed source file: its kernels by name, in definition order."""

    kernels: dict[str, CompositeInstruction] = field(default_factory=dict)


def _error_at(text: str, pos: int, message: str) -> ParseError:
    """The error at offset ``pos`` of ``text``, with its line and column."""
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise _error_at(text, m.start(), f"unexpected character {m.group()!r}")
        if kind != "skip":
            tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def _fail(self, message: str, tok: Token | None = None) -> ParseError:
        """The error at ``tok``, by default the current token."""
        return _error_at(self.text, (tok or self.cur).pos, message)

    def _advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def _take(self, sym: str) -> bool:
        """Consume the symbol ``sym`` if it is next; report whether it was."""
        if self.cur.kind == "sym" and self.cur.text == sym:
            self.pos += 1
            return True
        return False

    def _expect_sym(self, sym: str) -> None:
        if not self._take(sym):
            raise self._fail(f"expected '{sym}', found {self.cur.text!r}")

    def _expect_ident(self, what: str = "identifier", word: str | None = None) -> Token:
        """Consume an identifier; with ``word`` given, only that keyword."""
        if self.cur.kind != "ident" or word not in (None, self.cur.text):
            what = what if word is None else repr(word)
            raise self._fail(f"expected {what}, found {self.cur.text!r}")
        return self._advance()

    def _expect_uint(self, what: str) -> int:
        tok = self.cur
        if tok.kind != "number" or not tok.text.isdigit():
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
            raise self._fail(f"duplicate kernel name '{name_tok.text}'", name_tok)
        if name_tok.text in _GATE_NAMES:  # a statement with a gate's name is the gate
            raise self._fail(f"kernel name '{name_tok.text}' is a gate name", name_tok)
        self._expect_sym("(")
        self._expect_ident(word="AcceleratorBuffer")
        self._expect_ident("buffer name")  # parsed and discarded
        formals: list[str] = []
        while self._take(","):
            self._expect_ident(word="double")
            formals.append(self._expect_ident("parameter name").text)
        self._expect_sym(")")
        self._expect_sym("{")
        children: list[Instruction] = []
        while not self._take("}"):
            if self.cur.kind == "eof":
                raise self._fail("unexpected end of input inside kernel body")
            children.extend(self.parse_statement(unit, formals))
        try:
            kernel = CompositeInstruction(name_tok.text, tuple(formals), tuple(children))
        except IrError as exc:
            raise self._fail(str(exc), name_tok) from None
        return name_tok.text, kernel

    def parse_statement(self, unit: SourceUnit, formals: list[str]) -> tuple[Instruction, ...]:
        """The gates of one statement: a gate, or a call expanded in place.

        An :class:`IrError` from either (a gate's qubits, a call's arity) is
        reported as a :class:`ParseError` at the statement's head.
        """
        head = self._expect_ident("gate or kernel name")
        try:
            if head.text in _GATE_NAMES:
                return (self.parse_gate(_GATE_NAMES[head.text], formals),)
            return self.parse_call(head, unit, formals)
        except IrError as exc:
            raise self._fail(str(exc), head) from None

    def parse_gate(self, kind: GateKind, formals: list[str]) -> Instruction:
        """A gate statement; :class:`Instruction` checks its angles and qubits."""
        params: tuple[ParamSlot, ...] = ()
        if self._take("("):
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
        return Instruction(kind, qubits, params, creg)

    def parse_call(
        self, head: Token, unit: SourceUnit, formals: list[str]
    ) -> tuple[Instruction, ...]:
        callee = unit.kernels.get(head.text)
        if callee is None:
            raise self._fail(f"call to undefined kernel '{head.text}'", head)
        self._expect_sym("(")
        self._expect_ident("buffer argument")  # required, semantically ignored
        args: list[ParamSlot] = []
        while self._take(","):
            args.append(self.parse_expr(formals))
        self._expect_sym(")")
        return inline(callee, args)

    def parse_expr(self, formals: list[str]) -> ParamSlot:
        tok = self.cur
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise self._fail(f"angle literal {tok.text} is not finite")
            self._advance()
            return value
        if tok.kind == "ident":
            if tok.text not in formals:
                raise self._fail(f"unknown parameter '{tok.text}'")
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
