"""Count the code lines of the package sources and of its tests.

    python3 tools/code_lines.py [DIR]

A code line is a line that is neither blank nor comment-only (its first
non-blank character is `#`) and not part of a docstring: the leading
string of a module, class or function. Prints the count of each file
under DIR and their total. Without DIR, does so for this checkout's
`src/` and then its `tests/`, and prints the two totals' sum, so that
code moved from the program into the tests shows as a move.
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


def _table(root: Path) -> int:
    """Print the count of each file under `root` and their total; return it."""
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return total


def main(argv: list[str]) -> int:
    if argv:
        _table(Path(argv[0]))
        return 0
    repo = Path(__file__).resolve().parents[1]
    src = _table(repo / "src")
    print()
    tests = _table(repo / "tests")
    print(f"\n{src + tests:6d}  src + tests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
