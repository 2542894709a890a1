"""scripts/code_lines.py on a hand-written file: blank lines, comment lines
and docstrings (an attribute's included) do not count; code, each line of a
multi-line expression and a string that is not a docstring do."""

import sys

from conftest import load_module

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment leaves the line a code line

# a comment line


def f(a,
      b):
    """One-line docstring."""
    text = """a string that is
not a docstring"""
    return a + b + len(text)


class C:
    """Class docstring."""

    x = 1
    """Attribute docstring,
    on two lines."""
'''
CODE_LINES = 8  # import, def (2 lines), text (2 lines), return, class, x


def load_script():
    return load_module("code_lines", "scripts/code_lines.py")


def test_counts_code_lines_outside_docstrings():
    assert load_script().code_lines(SOURCE) == CODE_LINES


def test_prints_each_file_and_each_directory_total(tmp_path, monkeypatch, capsys):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "src" / "b.py").write_text("x = 1\n")
    monkeypatch.setattr(sys, "argv", ["code_lines.py", str(tmp_path)])
    assert load_script().main() == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1  src/b.py",
        f"     {CODE_LINES}  src/pkg/a.py",
        f"     {CODE_LINES + 1}  src/ (total)",
        "     0  scripts/ (total)",
        "     0  perfbench/ (total)",
        "     0  tests/ (total)",
    ]
