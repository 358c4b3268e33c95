"""Benchmark of the skewpuiseux package, run from the root of a checkout:

    python3 bench/run.py --workload lift_cubic --seed 1 --seconds 20 --trace 0

It imports the package from the checkout's own ``src/``, draws the
workload's inputs from ``--seed`` and runs each once as a closed loop: one
caller in one thread waits for each result before it sends the next input.
The number of inputs is ``--seconds`` times the workload's ``cases_per_s``,
so every commit times the same inputs.  Every result is checked outside
the timed region, and every time is scaled to a fixed host speed (REF_S).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead runs the
same inputs twice, untraced and then with every layer wrapped from the
outside (see tracer.py), and prints the per-layer metrics.  The last line
of standard output is always one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# set-ups per run whose median is setup_s: the run's own, then the others
# in fresh interpreters, since the import is part of set-up
SETUPS = 5
TAIL_BEYOND = 10
# A shared host's speed swings by up to half for seconds to minutes at a
# time.  Every timed span is therefore scaled by REF_S over the time of a
# fixed reference loop measured around it: times read as on a host where
# that loop takes REF_S.  The loop is mpmath arithmetic at 128 bits, close
# to the program's own work, and uses nothing of the package, so a change
# to the package does not move it.
REF_S = 0.008
REF_LOOPS = 1000

# (per-layer metric, unit, end-to-end metric it should move, on which workloads)
PER_LAYER = [
    ("hensel.hensel_lift.calls", "count", "ops_per_s, op_tail_ms", "lift_cubic (none on dense_arith)"),
    ("hensel.hensel_lift.incl_s", "s", "ops_per_s, op_tail_ms", "lift_cubic (none on dense_arith)"),
    ("hensel.hensel_lift.self_s", "s", "ops_per_s, op_tail_ms", "lift_cubic (none on dense_arith)"),
    ("hensel.hensel_lift.errors", "count", "ops_per_s, op_tail_ms", "lift_cubic (none on dense_arith)"),
    ("hensel.steps", "count", "ops_per_s, op_tail_ms", "lift_cubic (none on dense_arith)"),
    ("skewpoly.mul.calls", "count", "ops_per_s", "lift_cubic, dense_arith"),
    ("skewpoly.mul.incl_s", "s", "ops_per_s", "lift_cubic, dense_arith"),
    ("skewpoly.mul.self_s", "s", "ops_per_s", "lift_cubic, dense_arith"),
    ("skewpoly.add.incl_s", "s", "ops_per_s", "lift_cubic, dense_arith"),
    ("skewpoly.left_divmod.incl_s", "s", "op_p50_ms", "dense_arith"),
    ("skewpoly.evaluate.incl_s", "s", "op_p50_ms", "dense_arith"),
    ("puiseux.init.calls", "count", "ops_per_s", "all three"),
    ("puiseux.init.self_s", "s", "ops_per_s", "all three"),
    ("scalar.is_negligible.calls", "count", "ops_per_s", "all three"),
    ("scalar.is_negligible.self_s", "s", "ops_per_s", "all three"),
    ("puiseux.mul.calls", "count", "ops_per_s, accuracy_bits", "dense_arith, lift_cubic"),
    ("puiseux.mul.self_s", "s", "ops_per_s, accuracy_bits", "dense_arith, lift_cubic"),
    ("puiseux.add.self_s", "s", "ops_per_s, accuracy_bits", "dense_arith, lift_cubic"),
    ("puiseux.sigma_pow.self_s", "s", "ops_per_s, accuracy_bits", "dense_arith, lift_cubic"),
    ("puiseux.inverse.incl_s", "s", "ops_per_s, accuracy_bits", "dense_arith, lift_cubic"),
    ("residue.roots.calls", "count", "op_p50_ms", "classical_quartic"),
    ("residue.roots.self_s", "s", "op_p50_ms", "classical_quartic"),
    ("residue.ext_gcd.calls", "count", "op_p50_ms", "classical_quartic"),
    ("residue.ext_gcd.self_s", "s", "op_p50_ms", "classical_quartic"),
    ("residue.orbit_partition.self_s", "s", "op_p50_ms", "classical_quartic"),
    ("structure.normalize_scaled.incl_s", "s", "op_p50_ms", "classical_quartic"),
    ("structure.shift_iso.incl_s", "s", "op_p50_ms", "classical_quartic"),
    ("structure.trace_solve.incl_s", "s", "op_p50_ms", "classical_quartic"),
    ("factorizer.newton_puiseux_factor.calls", "count", "op_tail_ms, fail_rate", "lift_cubic"),
    ("factorizer.newton_puiseux_factor.incl_s", "s", "op_tail_ms, fail_rate", "lift_cubic"),
    ("factorizer.verify_factorization.incl_s", "s", "op_tail_ms, fail_rate", "lift_cubic"),
    ("factorizer.retries", "count", "op_tail_ms, fail_rate", "lift_cubic"),
    ("trace.overhead", "ratio", "none", "all three"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only set up, print the set-up time in seconds and exit")
    return ap.parse_args(argv)


def git_revision() -> str:
    """HEAD of the checkout; git does not look above the checkout for it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def import_package():
    """Import skewpuiseux from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import skewpuiseux
    where = Path(skewpuiseux.__file__).resolve().parent
    if where != SRC / "skewpuiseux":
        raise SystemExit(f"bench: imported skewpuiseux from {where}, not from {SRC}")
    import workloads
    return where, workloads


def set_up(args):
    """Import, draw the inputs and make one warm-up call.  Returns the
    workload, its inputs, the package path and the set-up time."""
    t0 = time.perf_counter()
    where, workloads = import_package()
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"one of {', '.join(workloads.WORKLOADS)}")
    cases = wl["cases"](args.seed, max(1, round(args.seconds * wl["cases_per_s"])))
    wl["run"](wl["warmup"]())
    raw = time.perf_counter() - t0
    return wl, cases, where, raw * REF_S / reference_time()


def reference_time() -> float:
    """Time of the fixed reference loop, with the garbage collector off."""
    import mpmath
    rnd = random.Random(0)
    with mpmath.workprec(128):
        xs = [mpmath.mpc(rnd.random(), rnd.random()) for _ in range(16)]
        acc: dict[int, object] = {}
        gc.disable()
        try:
            t = time.perf_counter()
            for i in range(REF_LOOPS):
                acc[i & 31] = xs[i & 15] * xs[(7 * i) & 15] + acc.get((i + 1) & 31, xs[i & 15])
            return time.perf_counter() - t
        finally:
            gc.enable()


def fresh_setup(args) -> float:
    """Scaled set-up time of a fresh interpreter; the caller waits for it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


class Tally:
    """Attempted and failed operations and the worst accuracy seen."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.accuracy = math.inf

    def record(self, case, result, error, reference=None):
        """Check one result; with ``reference``, it must instead equal that
        result of the same case exactly."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"# op {self.attempted - 1} raised {error!r}", file=sys.stderr)
            return
        if reference is not None:
            ok = self.wl["same"](reference, result)
        else:
            ok, acc = self.wl["check"](case, result)
            self.accuracy = min(self.accuracy, acc)
        if not ok:
            self.failed += 1
            print(f"# op {self.attempted - 1} failed its check", file=sys.stderr)


def timed(run, case):
    t = time.perf_counter()
    try:
        result, error = run(case), None
    except Exception as e:  # counted as a failed operation, the loop goes on
        result, error = None, e
    return result, error, time.perf_counter() - t


def end_to_end(args, wl, cases, setup_s):
    setups = [setup_s] + [fresh_setup(args) for _ in range(SETUPS - 1)]
    tally = Tally(wl)
    raw, refs = [], [reference_time()]
    for case in cases:
        result, error, dt = timed(wl["run"], case)
        refs.append(reference_time())
        raw.append(dt)
        tally.record(case, result, error)
    # each operation is scaled by the mean of the reference times around it
    lat = [dt * 2 * REF_S / (refs[i] + refs[i + 1]) for i, dt in enumerate(raw)]
    busy = sum(lat)
    lat_ms = sorted(x * 1000 for x in lat)
    n = len(lat_ms)
    k = max(n - 1 - TAIL_BEYOND, n // 2)
    rows = [
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} set-ups: " + " ".join(f"{x:.4f}" for x in setups)),
        ("ops_per_s", (tally.attempted - tally.failed) / busy, "1/s",
         f"{tally.attempted - tally.failed} passed ops in {busy:.3f} s scaled, "
         f"{sum(raw):.3f} s of wall time"),
        ("op_p50_ms", statistics.median(lat_ms), "ms", f"{n} samples"),
        ("op_tail_ms", lat_ms[k], "ms", f"p{100 * (k + 1) / n:.1f} of {n} samples"),
        ("accuracy_bits", tally.accuracy if tally.accuracy < math.inf else 0.0, "bits",
         "worst checked op"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
         "peak resident set"),
    ]
    print(f"# reference loop median {statistics.median(refs) * 1000:.3f} ms "
          f"(times are scaled to {REF_S * 1000:g} ms)")
    print(f"# fail_rate {tally.failed / tally.attempted:.6f} "
          f"({tally.failed} of {tally.attempted} ops)")
    return tally, rows


def per_layer(wl, cases):
    from tracer import Tracer
    plain = Tally(wl)
    results, untraced = [], 0.0
    for case in cases:
        result, error, dt = timed(wl["run"], case)
        untraced += dt
        plain.record(case, result, error)
        results.append(result)
    tally = Tally(wl)
    tracer = Tracer()
    traced = 0.0
    with tracer.installed():
        for i, case in enumerate(cases):
            with tracer.operation(i):
                result, error, dt = timed(wl["run"], case)
            traced += dt
            tally.record(case, result, error, results[i])
    tally.failed += plain.failed
    print(f"# {len(tracer)} spans over {len(cases)} ops; "
          f"untraced {untraced:.3f} s, traced {traced:.3f} s")
    tot = tracer.totals()
    empty = {"calls": 0, "errors": 0, "incl_s": 0.0, "self_s": 0.0}
    derived = {
        "hensel.steps": tracer.child_calls("residue.ext_gcd", "hensel.hensel_lift"),
        "factorizer.retries": (tot.get("factorizer.verify_factorization", empty)["calls"]
                               - tot.get("factorizer.newton_puiseux_factor", empty)["calls"]),
        "trace.overhead": traced / untraced,
    }
    rows = []
    for name, unit, moves, on in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            span, field = name.rsplit(".", 1)
            value = tot.get(span, empty)[field]
        rows.append((name, value, unit, f"should move {moves} on {on}"))
    return tally, rows


def fingerprint(args, where) -> dict:
    import mpmath
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "package": str(where),
        "revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skewpuiseux" / "__init__.py").is_file():
        print(f"bench: no skewpuiseux package under {SRC}", file=sys.stderr)
        return 2
    wl, cases, where, setup_s = set_up(args)
    if args.setup_only:
        print(f"{setup_s!r}")
        return 0
    print("# fingerprint " + json.dumps(fingerprint(args, where), sort_keys=True))
    if args.trace:
        tally, rows = per_layer(wl, cases)
    else:
        tally, rows = end_to_end(args, wl, cases, setup_s)
    for name, value, unit, note in rows:
        print(f"# {name:42s} {value:>16.6g} {unit:6s} {note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
