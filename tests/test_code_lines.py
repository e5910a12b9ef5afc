import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code

# a comment line


def f(x):
    """Function docstring."""
    # another comment
    return os.path.join(
        x,

        "y",
    )


class C:
    """Class docstring."""

    label = """a string that is not a docstring
spans two lines"""
'''


def test_snippet_count():
    # import, def, the call on 4 lines (the blank line inside it holds no
    # token), class, and the assigned string on 2 lines: 1 + 1 + 4 + 1 + 2
    assert code_lines.count_code_lines(SNIPPET) == 9


def test_main_prints_each_file_and_total(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SNIPPET)
    b.write_text("x = 1\n\ny = 2\n")
    assert code_lines.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == f"9 {a}\n2 {b}\n11 total\n"
