"""Print the size of each dnpde module: ``wc -l``, code lines and docstring lines.

A docstring line lies inside the docstring of a module, class or function.
A code line is any other line that is not blank and does not start with
``#`` once stripped.

Usage: ``python tools/line_counts.py [DIR]`` (default ``src/dnpde``).
"""

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """``(wc -l, code lines, docstring lines)`` of one Python file."""
    text = Path(path).read_text()
    docs = _docstring_lines(ast.parse(text))
    code = [
        i
        for i, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and i not in docs
    ]
    return text.count("\n"), len(code), len(docs)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/dnpde")
    rows = [(p.name, *count(p)) for p in sorted(root.glob("*.py"))]
    rows.append(("total", *(sum(col) for col in list(zip(*rows))[1:])))
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}{'doc':>8}")
    for name, wc, code, doc in rows:
        print(f"{name:<16}{wc:>8,}{code:>8,}{doc:>8,}")


if __name__ == "__main__":
    main(sys.argv)
