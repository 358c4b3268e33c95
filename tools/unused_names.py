"""List the names defined in ``src/`` that nothing else mentions, and the
parameters that their function never reads.

    python tools/unused_names.py

A name is every function, method or class defined in a module under
``src/``, and every upper-case constant assigned at module or class level.
It is unused when no line of ``src/``, ``tests/``, ``tools/`` or
``bench/``, other than the line that defines it, holds it as a word.
Dunder names are left out: Python calls them.  A parameter is unused when
no line of its function's body reads it.  Methods that another class under
``src/`` also defines are left out, since a contract default or an override
may ignore a parameter.  Prints one line per unused name or parameter and
exits 1 if there is any, else exits 0.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter, defaultdict
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


def unread_parameters(path: Path, shared):
    """(function.parameter, line) of each parameter that no line of its
    function's body reads, but for ``self``, ``cls`` and methods named in
    ``shared``."""
    def walk(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    in_class and child.name in shared):
                a = child.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [
                    p for p in (a.vararg, a.kwarg) if p is not None]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                for p in params:
                    if p.arg not in read and p.arg not in ("self", "cls"):
                        yield f"{child.name}.{p.arg}", p.lineno
            yield from walk(child, isinstance(child, ast.ClassDef))

    yield from walk(ast.parse(path.read_text(), str(path)), False)


def methods(path: Path):
    """The names of the methods of each class in path."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ClassDef):
            yield {f.name for f in node.body
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}


def main() -> int:
    seen = defaultdict(set)  # word -> {(path, line)}
    for top in ("src", "tests", "tools", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for i, line in enumerate(path.read_text().splitlines(), 1):
                for word in set(WORD.findall(line)):
                    seen[word].add((path, i))
    sources = sorted((ROOT / "src").rglob("*.py"))
    classes = Counter(name for path in sources for names in methods(path) for name in names)
    shared = {name for name, n in classes.items() if n > 1}
    unused = []
    for path in sources:
        for name, line in definitions(path):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not seen[name] - {(path, line)}:
                unused.append(f"{path.relative_to(ROOT)}:{line}: {name}")
        for name, line in unread_parameters(path, shared):
            unused.append(f"{path.relative_to(ROOT)}:{line}: parameter {name}")
    print("\n".join(unused) or "no unused names")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
