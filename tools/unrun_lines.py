"""Unrun lines: list each statement of ``src/`` that nothing runs.

    python tools/unrun_lines.py

There is no coverage package here, so it traces with ``sys.settrace``.  In
one process it runs:

  the tier-1 tests         pytest on ``tests/``, in-process;
  the CLI corpus           the 720 commands of ``tools/cli_corpus.py``;
  the bench cases          seed 7 of the benchmark's workloads: 24
                           ``lift_cubic``, 20 ``classical_quartic`` and 12
                           ``dense_arith`` cases, drawn and run by
                           ``bench/workloads.py``, which it imports and
                           does not change (no bytecode is written).

It then prints each statement of ``src/`` that none of them ran, as
``file:line: source``, and their count.  A statement ran when a line event
fell on its head: the lines of a simple statement, or the lines of a
compound statement up to its body, decorators included.  Docstrings and
``global``/``nonlocal`` declarations run no code and are left out.  A
statement inside one that never ran is listed too.  It takes about five
minutes on a pure-Python mpmath.  Read its list before cutting code: a
listed statement is either dead, and goes, or reachable, and wants a test.
It exits 1 when a tier-1 test fails, since the list then holds lines that
the failing tests would have run, else 0.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# (workload, cases at seed 7)
BENCH_CASES = [("lift_cubic", 24), ("classical_quartic", 20), ("dense_arith", 12)]


def statements(path: Path):
    """(first line, head lines) of each statement in path that runs code."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            docstrings.add(body[0])
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or node in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield node.lineno, range(start, end + 1)


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_all() -> int:
    """Run the three sources of calls; pytest's exit code."""
    import pytest

    code = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    from skewpuiseux.cli import main

    # an error ends one command or case, not the trace; it is named
    corpus = _load("cli_corpus", ROOT / "tools" / "cli_corpus.py")
    for argv in corpus.commands():
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(argv)
        except Exception as e:
            print(f"uncaught in {' '.join(argv)}: {type(e).__name__}: {e}")
    workloads = _load("workloads", ROOT / "bench" / "workloads.py")
    for name, n in BENCH_CASES:
        wl = workloads.WORKLOADS[name]
        for i, case in enumerate(wl["cases"](7, n)):
            try:
                wl["run"](case)
            except Exception as e:
                print(f"{name} case {i}: {type(e).__name__}: {e}")
    return code


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    prefix = str(SRC)
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(on_call)
    try:
        code = run_all()
    finally:
        sys.settrace(None)
    count = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = path.read_text().splitlines()
        for first, head in sorted(statements(path)):
            if not any((str(path), i) in ran for i in head):
                count += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{count} statements that nothing runs")
    return 1 if code else 0


if __name__ == "__main__":
    sys.exit(main())
