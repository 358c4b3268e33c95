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
then runs every case a second time in the same process, on the warm
process-wide memos (alpha's powers, skew tables) the first pass left, and
compares the records.  It exits 1 if any case raised or failed its check,
or if a second-pass record differs from the first.  Each record holds the
working precision P of its workload, ``bits``.  ``diff`` lists every case
whose record differs and exits 1 if any does.  Where two records differ only
in the values of numbers, it gives the largest relative change, each number
measured against the largest modulus of the terms of its series (a number
in no series, such as the residual, against its own modulus), as a power
of two, against the bound 2^-(P-24).  Pointing ``--root`` at another
checkout compares two commits with one copy of this tool.
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


def _records(workloads) -> list:
    """One record per case, in the order of CASES."""
    records = []
    for name, seeds, n in CASES:
        wl = workloads.WORKLOADS[name]
        p = workloads.ARITH_BITS if name == "dense_arith" else workloads.FACTOR_BITS
        for seed in seeds:
            for i, case in enumerate(wl["cases"](seed, n)):
                try:
                    value = wl["run"](case)
                    result = _result(name, value)
                    ok, acc = wl["check"](case, value)
                    check = [bool(ok), acc]
                except Exception as e:
                    result, check = {"error": [type(e).__name__, str(e)]}, None
                records.append({"workload": name, "seed": seed, "case": i, "bits": p,
                                "result": result, "check": check})
    return records


def run(path: str, root: Path) -> int:
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    records = _records(workloads)
    lines = [json.dumps(r) for r in records]
    with open(path, "w") as out:
        out.writelines(line + "\n" for line in lines)
    failed = [r for r in records if not (r["check"] and r["check"][0])]
    for r in failed:
        print(f"fails its check: {r['workload']} seed {r['seed']} case {r['case']}")
    print(f"{len(records)} results, {len(failed)} failing their check")
    # the same cases again in this process, on the memos the first pass left
    again = [r for r, line, b in zip(records, lines, _records(workloads))
             if line != json.dumps(b)]
    for r in again:
        print(f"differs on the second pass: {r['workload']} seed {r['seed']} case {r['case']}")
    print(f"second pass: {len(records) - len(again)} of {len(records)} identical")
    return 1 if failed or again else 0


def _number(v):
    """The mpmath number a raw value holds (_raw), None for another value."""
    from mpmath import mp

    if not isinstance(v, dict) or not ({"_mpf_", "_mpc_"} & v.keys()):
        return None
    parts = [tuple(p) for p in v.get("_mpc_") or v["_mpf_"]]
    return mp.make_mpc(tuple(parts)) if len(parts) == 2 else mp.make_mpf(parts[0])


def _changes(old, new, size=None):
    """The relative changes of the numbers in which two raw values differ,
    each against ``size``, the largest modulus of the terms of its series
    in ``old`` (a number in no series: against its own modulus); None when
    they differ in more than the values of numbers."""
    a, b = _number(old), _number(new)
    if a is not None and b is not None:
        return [] if a == b else [abs(a - b) / (size or max(abs(a), abs(b)))]
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        if "terms" in old:
            size = max((abs(_number(c)) for _, c in old["terms"]), default=None)
        pairs = [(old[k], new[k]) for k in old]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        pairs = list(zip(old, new))
    else:
        return [] if old == new else None
    out = []
    for x, y in pairs:
        c = _changes(x, y, size)
        if c is None:
            return None
        out += c
    return out


def diff(old_path: str, new_path: str) -> int:
    from mpmath import mp

    olds = [json.loads(line) for line in open(old_path)]
    news = [json.loads(line) for line in open(new_path)]
    cases = [(r["workload"], r["seed"], r["case"]) for r in news]
    if [(r["workload"], r["seed"], r["case"]) for r in olds] != cases:
        print("the two records hold different cases")
        return 2
    same = digits = other = over = 0
    for (name, seed, i), old, new in zip(cases, olds, news):
        if old == new:
            same += 1
            continue
        p = new["bits"]
        with mp.workprec(4 * p):
            changes = None
            if {**old, "result": None} == {**new, "result": None}:
                changes = _changes(old["result"], new["result"])
            worst = max(map(float, (mp.log(c, 2) for c in changes or [])), default=None)
        if worst is None:
            other += 1
            print(f"differs: {name} seed {seed} case {i}")
        else:
            digits += 1
            over += worst > -(p - 24)
            print(f"values: {name} seed {seed} case {i}: relative change 2^{worst:.1f} "
                  f"({'above' if worst > -(p - 24) else 'within'} 2^-{p - 24})")
    print(f"{len(news)} results: {same} identical, {digits} differ in values only "
          f"({over} above 2^-(P-24)), {other} differ otherwise")
    return 1 if digits or other else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) in (2, 4) and args[0] == "run" and (len(args) == 2 or args[2] == "--root"):
        sys.exit(run(args[1], Path(args[3]).resolve() if len(args) == 4 else ROOT))
    if len(args) == 3 and args[0] == "diff":
        sys.exit(diff(args[1], args[2]))
    sys.exit(__doc__)
