"""Count the code lines of Python files.

A code line is a line that holds at least one token other than a comment,
a line break (NL or NEWLINE), an INDENT or DEDENT, or a docstring. A
docstring is the string literal that opens a module, class or function
body. A token that spans several lines, such as a multi-line string or
f-string, counts on every line it spans.

Usage: python tools/code_lines.py PATH...

Prints ``count path`` for each file and then ``count total``.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) of every docstring literal in ``source``."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def count_code_lines(source: str) -> int:
    """Number of code lines in the Python text ``source``."""
    docstrings = _docstring_starts(source)
    lines: set[int] = set()
    readline = iter(source.splitlines(keepends=True)).__next__
    for tok in tokenize.generate_tokens(readline):
        if tok.type in _SKIPPED:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 1
    total = 0
    for path in paths:
        count = count_code_lines(Path(path).read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
