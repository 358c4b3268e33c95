"""Compare two saved outputs of bench/run.py, metric by metric:

    python3 bench/compare.py before.txt after.txt

Outputs whose fingerprints differ in mpmath backend, workload or trace mode
are refused (exit code 2): every number depends on them.
"""

from __future__ import annotations

import json
import sys

MUST_MATCH = ("backend", "workload", "trace")


def load(path: str):
    lines = open(path, encoding="utf-8").read().splitlines()
    prints = [ln for ln in lines if ln.startswith("# fingerprint ")]
    if not prints or not lines:
        raise SystemExit(f"compare: {path} is not a bench/run.py output")
    return json.loads(prints[0][len("# fingerprint "):]), json.loads(lines[-1])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (fa, ra), (fb, rb) = load(argv[0]), load(argv[1])
    for key in MUST_MATCH:
        if fa.get(key) != fb.get(key):
            print(f"compare: refused, {key} differs: {fa.get(key)!r} vs {fb.get(key)!r}",
                  file=sys.stderr)
            return 2
    print(f"{'metric':42s} {'before':>14s} {'after':>14s} {'after/before':>12s}")
    for name, ma in ra["metrics"].items():
        mb = rb["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:42s} {ma['value']:>14.6g} {mb['value']:>14.6g} {ratio:>12.4f} {ma['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
