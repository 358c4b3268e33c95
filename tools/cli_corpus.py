"""CLI corpus: run a fixed set of ``skewpuiseux`` commands in-process and
record each one's exit code, stdout and stderr, or compare two records.

    python tools/cli_corpus.py run OUT.jsonl
    python tools/cli_corpus.py diff OLD.jsonl NEW.jsonl

Both import the package from the ``src/`` of this checkout.

The corpus is ``factor`` and ``sigma-zero`` of 18 polynomials (the inputs
of the golden transcripts and examples from ROADMAP.md and CHANGES.md) at
alpha 2, 3/2, 1, 1/2 and 3, ``--prec`` 6 and 12, and ``--bits`` 128 and
192: 720 commands.  ``run`` writes one JSON line per command.  It also
parses every printed ``factor:`` and ``zero:`` line back (parse_poly,
parse_series) at the command's bits, and lists each line that does not
parse.  It exits 1 if any command ends in an uncaught exception or any
printed line does not parse back; exit codes 0-4 are the CLI's own.
``diff`` lists every command whose record differs.  Where both
runs printed the same lines but for the coefficient values of factors or
zeros, it gives the largest change of a zero relative to that zero's
largest coefficient, as a power of two, against the bound 2^-(P-24).
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

POLYS = [
    "t^2 - 2*t + 1",
    "t^2 - 3*t + 2",
    "t^2 - (1+x)*t",
    "t^2 - x",
    "t^2 - (1+x^2)",
    "t^2 - (2+x)*t + (1+2*x)",
    "t^2 - 3*t + (2+x)",
    "t^2 + (1+x)",
    "t^2 + x*t",
    "t^2 - 1",
    "t^2 - (3+x^3)*t + 2",
    "t^3 - (6+x)*t^2 + (11+3*x)*t - (6+2*x)",
    "t^3 - 2*t^2 + (1+x)*t - x^2",
    "t^3 - x*t + x^2",
    "t^4 - (2+x)*t^2 + 1",
    "t^4 - 2*t^2 + x",
    "t^4 - 5*x*t^2 + 4*x^2",
    "t^3 - (3+O(x^9))*t^2 + (3+O(x^9))*t - (1+O(x^9))",
]
ALPHAS = ["2", "3/2", "1", "1/2", "3"]
PRECS = ["6", "12"]
BITS = ["128", "192"]


def commands():
    for poly in POLYS:
        for alpha in ALPHAS:
            for prec in PRECS:
                for bits in BITS:
                    for cmd in ("factor", "sigma-zero"):
                        yield [cmd, "--alpha", alpha, "--prec", prec, "--bits", bits, poly]


def _unparsed(argv, stdout: str) -> list:
    """The printed ``factor:`` and ``zero:`` lines of one command that do
    not parse back at its bits.  Factors are parsed in the alpha-1 ring the
    CLI prints them from."""
    from skewpuiseux import bits, parse_poly, parse_series, puiseux_ring

    bad = []
    with bits(int(argv[argv.index("--bits") + 1])):
        for line in stdout.splitlines():
            head, _, text = line.partition(": ")
            try:
                if head == "factor":
                    parse_poly(text, puiseux_ring(1))
                elif head == "zero":
                    parse_series(text)
            except Exception as e:
                bad.append(f"{line}\n    {type(e).__name__}: {str(e).splitlines()[0]}")
    return bad


def run(path: str) -> int:
    from skewpuiseux.cli import main

    crashed = unparsed = 0
    with open(path, "w") as out:
        for argv in commands():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except Exception:
                    code = "uncaught"
                    traceback.print_exc()
            crashed += code == "uncaught"
            out.write(json.dumps({"argv": argv, "code": code, "stdout": stdout.getvalue(),
                                  "stderr": stderr.getvalue()}) + "\n")
            for line in _unparsed(argv, stdout.getvalue()):
                unparsed += 1
                print(f"does not parse back: {' '.join(argv)}\n  {line}")
    print(f"{sum(1 for _ in commands())} commands, {crashed} uncaught exceptions, "
          f"{unparsed} printed lines that do not parse back")
    return 1 if crashed or unparsed else 0


_TOKEN = re.compile(r"(\^\(?-?[0-9]+(?:/[0-9]+)?\)?)|([0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?)")


def _template(line: str):
    """A printed ``factor:`` or ``zero:`` line with every coefficient number
    replaced by #, and those numbers as text; None for another line.  The
    exponents of t and x stay in the text."""
    if not line.startswith(("factor: ", "zero: ")):
        return None
    numbers = []

    def mask(m):
        if m.group(1):
            return m.group(1)
        numbers.append(m.group(2))
        return "#"

    return _TOKEN.sub(mask, line), numbers


def _log2_change(x: str, y: str):
    """log2 of the largest change of a coefficient number between two
    printed zeros, relative to the zero's largest number; None when the
    lines differ in more than those numbers."""
    from mpmath import mp

    a, b = _template(x), _template(y)
    if a is None or b is None or a[0] != b[0]:
        return None
    xs, ys = ([mp.mpf(v) for v in t[1]] for t in (a, b))
    top = max(map(abs, xs), default=0)
    change = max((abs(u - v) for u, v in zip(xs, ys)), default=0)
    if not top:
        return None
    return float(mp.log(change / top, 2)) if change else -float("inf")


def diff(old_path: str, new_path: str) -> int:
    from skewpuiseux import bits

    olds = [json.loads(line) for line in open(old_path)]
    news = [json.loads(line) for line in open(new_path)]
    if [r["argv"] for r in olds] != [r["argv"] for r in news]:
        print("the two records hold different commands")
        return 2
    same = digits = other = over = 0
    for old, new in zip(olds, news):
        if old == new:
            same += 1
            continue
        argv = " ".join(json.dumps(a) if " " in a else a for a in new["argv"])
        p = int(new["argv"][new["argv"].index("--bits") + 1])
        a_lines, b_lines = old["stdout"].splitlines(), new["stdout"].splitlines()
        worst = None
        if (old["code"] == new["code"] and old["stderr"] == new["stderr"]
                and len(a_lines) == len(b_lines)):
            worst = -float("inf")
            with bits(4 * p):
                for x, y in zip(a_lines, b_lines):
                    if x == y:
                        continue
                    change = _log2_change(x, y)
                    if change is None:
                        worst = None
                        break
                    worst = max(worst, change)
        if worst is None:
            other += 1
            print(f"changed: {argv}\n  old: exit {old['code']} {old['stdout']!r} {old['stderr']!r}"
                  f"\n  new: exit {new['code']} {new['stdout']!r} {new['stderr']!r}")
        else:
            digits += 1
            over += worst > -(p - 24)
            print(f"last digits: {argv}: relative change 2^{worst:.1f} "
                  f"({'above' if worst > -(p - 24) else 'within'} 2^-{p - 24})")
    print(f"{len(news)} commands: {same} identical, {digits} differ in coefficient "
          f"values only ({over} above 2^-(P-24)), {other} differ otherwise")
    return 1 if over or other else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "run":
        sys.exit(run(sys.argv[2]))
    if len(sys.argv) == 4 and sys.argv[1] == "diff":
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    sys.exit(__doc__)
