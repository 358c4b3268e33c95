"""Library outputs: record the raw results of the benchmark's own inputs, or
compare two records.

    python tools/lib_outputs.py run OUT.jsonl [--root DIR]
    python tools/lib_outputs.py diff OLD.jsonl NEW.jsonl

``run`` imports the package from ``DIR/src`` and the inputs from
``DIR/bench/workloads.py`` (DIR defaults to this checkout) and runs
each case through the workload's timed operation:

  lift_cubic         72 cases at seeds 7 and 202 (zeros, residual,
                     achieved order and ramification);
  classical_quartic  60 cases at seeds 7 and 202 (the same);
  dense_arith        46 cases at seed 7 (product, quotient, remainder and
                     value).

That is 310 results, one JSON line each.  A numeric value is written as its
raw mpmath tuple (``_mpf_`` or ``_mpc_``), so two records are equal only
when every bit is; an error is written as its type and message.  Each
record also holds the workload's own verdict on the result, ``check``:
[ok, accuracy_bits] from its untimed check, or null for an error.  ``run``
exits 1 if any case raised or failed its check.  ``diff`` lists every case
whose record differs and exits 1 if any does.  Pointing ``--root`` at
another checkout compares two commits with one copy of this tool.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (workload, seeds, cases per seed)
CASES = [
    ("lift_cubic", (7, 202), 72),
    ("classical_quartic", (7, 202), 60),
    ("dense_arith", (7,), 46),
]


def _raw(v):
    """v as JSON data that keeps every bit of each number."""
    from skewpuiseux import PuiseuxSeries, SkewPoly

    if isinstance(v, PuiseuxSeries):
        terms = [[k, _raw(c)] for k, c in sorted(v.terms.items())]
        return {"L": v.L, "trunc": v.trunc, "terms": terms}
    if isinstance(v, SkewPoly):
        return [_raw(c) for c in v.coeffs]
    if isinstance(v, (list, tuple)):
        return [_raw(c) for c in v]
    for attr in ("_mpc_", "_mpf_"):
        t = getattr(v, attr, None)
        if t is not None:
            parts = t if attr == "_mpc_" else (t,)
            return {attr: [[int(x) for x in p] for p in parts]}
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return v


def _result(name: str, out):
    if name == "dense_arith":
        return dict(zip(("product", "quotient", "remainder", "value"), map(_raw, out)))
    return {"zeros": _raw(out.zeros), "residual": _raw(out.residual),
            "achieved_order": _raw(out.achieved_order), "ramification": out.ramification}


def run(path: str, root: Path) -> int:
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    count, failed = 0, []
    with open(path, "w") as out:
        for name, seeds, n in CASES:
            wl = workloads.WORKLOADS[name]
            for seed in seeds:
                for i, case in enumerate(wl["cases"](seed, n)):
                    try:
                        value = wl["run"](case)
                        result = _result(name, value)
                        ok, acc = wl["check"](case, value)
                        check = [bool(ok), acc]
                    except Exception as e:
                        result, check = {"error": [type(e).__name__, str(e)]}, None
                    if not (check and check[0]):
                        failed.append((name, seed, i))
                    out.write(json.dumps({"workload": name, "seed": seed, "case": i,
                                          "result": result, "check": check}) + "\n")
                    count += 1
    for name, seed, i in failed:
        print(f"fails its check: {name} seed {seed} case {i}")
    print(f"{count} results, {len(failed)} failing their check")
    return 1 if failed else 0


def diff(old_path: str, new_path: str) -> int:
    olds = [json.loads(line) for line in open(old_path)]
    news = [json.loads(line) for line in open(new_path)]
    cases = [(r["workload"], r["seed"], r["case"]) for r in news]
    if [(r["workload"], r["seed"], r["case"]) for r in olds] != cases:
        print("the two records hold different cases")
        return 2
    changed = [case for case, old, new in zip(cases, olds, news) if old != new]
    for name, seed, i in changed:
        print(f"differs: {name} seed {seed} case {i}")
    print(f"{len(news)} results: {len(news) - len(changed)} identical, {len(changed)} differ")
    return 1 if changed else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) in (2, 4) and args[0] == "run" and (len(args) == 2 or args[2] == "--root"):
        sys.exit(run(args[1], Path(args[3]).resolve() if len(args) == 4 else ROOT))
    if len(args) == 3 and args[0] == "diff":
        sys.exit(diff(args[1], args[2]))
    sys.exit(__doc__)
