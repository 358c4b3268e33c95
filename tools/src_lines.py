"""Source size: count the code, docstring, comment and blank lines of each
file under ``src/`` and in total.

    python tools/src_lines.py [--root DIR]

DIR defaults to this checkout, so pointing ``--root`` at another checkout
counts that one with the same rule.  A docstring line is one inside the
span of a module, class or function docstring, as ``ast`` places it; every
other line is blank (only whitespace), a comment (its first non-blank
character is ``#``) or code.  The four counts add up to the file's lines.
It prints one row per file and a total row, and always exits 0.
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args(argv)
    src = args.root / "src"
    total = dict.fromkeys(KINDS, 0)
    header = f"{'file':<28}" + "".join(f"{k:>10}" for k in KINDS) + f"{'lines':>10}"
    print(header)
    for path in sorted(src.rglob("*.py")):
        c = count(path)
        for k in KINDS:
            total[k] += c[k]
        name = str(path.relative_to(src))
        print(f"{name:<28}" + "".join(f"{c[k]:>10,}" for k in KINDS) + f"{sum(c.values()):>10,}")
    print(f"{'total':<28}" + "".join(f"{total[k]:>10,}" for k in KINDS)
          + f"{sum(total.values()):>10,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
