"""Count the code lines of the package sources.

    python3 tools/code_lines.py [SRC]

SRC defaults to this checkout's `src/`. A code line is a line that is
neither blank nor comment-only (its first non-blank character is `#`)
and not part of a docstring: the leading string of a module, class or
function. Prints the count of each file and the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    docstrings = _docstring_lines(ast.parse(source))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and i not in docstrings)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    total = 0
    for path in sorted(src.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(src)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
