"""Count the code lines of each module of src/skirent: lines that are not blank, not
comments and not docstrings.

A line counts when it holds a token other than a comment or a line break, and lies
outside the docstring of the module, a class or a function (read with ``ast``).

    python tools/code_lines.py [DIR]

prints ``<count> <module>`` for each ``*.py`` file in DIR (default src/skirent),
then ``<total> total``.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers that the docstrings of the module, its classes and functions span."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "skirent"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
