"""Source size: count the code, docstring, comment and blank lines of each
file under ``src/`` and in total.

    python tools/src_lines.py [--root DIR] [--base DIR]

DIR defaults to this checkout, so pointing ``--root`` at another checkout
counts that one with the same rule.  With ``--base``, every count is given
three times, in base, head and delta columns: at that other checkout, at
the root, and head less base (a file missing on one side counts 0 there).  A docstring line is one inside the
span of a module, class or function docstring, as ``ast`` places it; every
other line is blank (only whitespace), a comment (its first non-blank
character is ``#``) or code.  The four counts add up to the file's lines.
It prints one table, a row per file and a total row, and always exits 0.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring span in the module ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def count(path: Path) -> dict:
    """The counts of the four kinds of line in the file ``path``."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for i, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        kind = ("docstring" if i in docs else "blank" if not s
                else "comment" if s.startswith("#") else "code")
        counts[kind] += 1
    return counts


def counts(root: Path) -> dict:
    """The counts of each file under ``root/src``, by its path there, and
    their total, with ``lines`` the sum of the four."""
    src = root / "src"
    out = {str(p.relative_to(src)): count(p) for p in sorted(src.rglob("*.py"))}
    out["total"] = {k: sum(c[k] for c in out.values()) for k in KINDS}
    for c in out.values():
        c["lines"] = sum(c[k] for k in KINDS)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--base", type=Path, default=None)
    args = ap.parse_args(argv)
    head = counts(args.root)
    cols = KINDS + ("lines",)
    if args.base is None:
        print(f"{'file':<28}" + "".join(f"{k:>10}" for k in cols))
        for name, c in head.items():
            print(f"{name:<28}" + "".join(f"{c[k]:>10,}" for k in cols))
        return 0
    base = counts(args.base)
    zero = dict.fromkeys(cols, 0)
    print(f"{'':<28}" + "".join(f"{k:>24}" for k in cols))
    print(f"{'file':<28}" + "".join(f"{'base':>8}{'head':>8}{'delta':>8}" for _ in cols))
    names = sorted(set(head) | set(base) - {"total"}, key=lambda n: (n == "total", n))
    for name in names:
        b, h = base.get(name, zero), head.get(name, zero)
        print(f"{name:<28}" + "".join(f"{b[k]:>8,}{h[k]:>8,}{h[k] - b[k]:>+8,}" for k in cols))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
