"""List the names defined in ``src/`` that nothing else mentions.

    python tools/unused_names.py

A name is every function, method or class defined in a module under
``src/``, and every upper-case constant assigned at module or class level.
It is unused when no line of ``src/``, ``tests/``, ``tools/`` or
``bench/``, other than the line that defines it, holds it as a word.
Dunder names are left out: Python calls them.  Prints one line per unused
name and exits 1 if there is any, else exits 0.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def definitions(path: Path):
    """(name, line) of each function, class and upper-case constant in path."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, (ast.Module, ast.ClassDef)):
            for stmt in node.body:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else (
                    [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
                for t in targets:
                    if isinstance(t, ast.Name) and t.id.isupper():
                        yield t.id, stmt.lineno


def main() -> int:
    seen = defaultdict(set)  # word -> {(path, line)}
    for top in ("src", "tests", "tools", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for i, line in enumerate(path.read_text().splitlines(), 1):
                for word in set(WORD.findall(line)):
                    seen[word].add((path, i))
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for name, line in definitions(path):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not seen[name] - {(path, line)}:
                unused.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    print("\n".join(unused) or "no unused names")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
