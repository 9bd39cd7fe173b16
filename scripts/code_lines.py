#!/usr/bin/env python3
"""Code lines of each module of cablefloer, and their total.

A code line holds at least one token of code: blank lines, comment lines
and the lines of docstrings (the string that opens a module, class or
function) do not count, so a change's count moves only with its code.

    python3 scripts/code_lines.py

The package is found by importing it, so run it with cablefloer installed
or with PYTHONPATH pointing at a checkout's src/.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

import cablefloer

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(line for line in range(token.start[0], token.end[0] + 1) if line not in docstrings)
    return len(lines)


def main() -> None:
    package = Path(cablefloer.__file__).resolve().parent
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:5d}")
    print(f"{'total':<{width}} {sum(counts.values()):5d}")


if __name__ == "__main__":
    main()
