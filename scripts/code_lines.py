#!/usr/bin/env python3
"""Count code lines: the lines of each Python file that hold a token other
than a comment, outside docstrings (a string statement that opens a module,
class or function body, or that follows an assignment in a module or class
body).  Blank lines, comment lines and docstring lines do
not count; a line of a multi-line expression or of any other string does.

    python3 scripts/code_lines.py            # this checkout
    python3 scripts/code_lines.py OTHER_ROOT  # another checkout, e.g. a parent commit

Prints one line per file and one total per directory of DIRS, each count
first.
"""

import ast
import io
import pathlib
import sys
import tokenize

DIRS = ("src", "scripts", "perfbench", "tests")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every docstring: a string statement that opens a
    module, class or function body, or that follows an assignment in a
    module or class body (an attribute docstring)."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            body = node.body
            docs = [body[0]]
            if isinstance(node, (ast.Module, ast.ClassDef)):
                docs += [b for a, b in zip(body, body[1:]) if isinstance(a, (ast.Assign, ast.AnnAssign))]
            for doc in docs:
                if (isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
                        and isinstance(doc.value.value, str)):
                    lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one file's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).resolve().parents[1])
    for name in DIRS:
        total = 0
        for path in sorted((root / name).rglob("*.py")):
            count = code_lines(path.read_text())
            total += count
            print(f"{count:6d}  {path.relative_to(root)}")
        print(f"{total:6d}  {name}/ (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
