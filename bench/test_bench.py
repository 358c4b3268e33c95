"""Tests of the benchmark itself:  python3 -m pytest -q bench/test_bench.py"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import skewpuiseux  # noqa: E402
import workloads  # noqa: E402
from tracer import METHODS, Tracer  # noqa: E402

WL = workloads.WORKLOADS


def _inputs_equal(a, b):
    for key in a:
        x, y = a[key], b[key]
        same = workloads._poly_eq if isinstance(x, skewpuiseux.SkewPoly) else workloads._series_eq
        if not same(x, y):
            return False
    return True


@pytest.mark.parametrize("name", sorted(WL))
def test_seed_fixes_the_inputs(name):
    gen = WL[name]["cases"]
    a, b, c = gen(5, 2), gen(5, 2), gen(6, 2)
    assert all(_inputs_equal(x, y) for x, y in zip(a, b))
    assert not any(_inputs_equal(x, y) for x, y in zip(a, c))


def _traced_results(wl, cases, tracer):
    out = []
    with tracer.installed():
        for i, case in enumerate(cases):
            with tracer.operation(i):
                out.append(wl["run"](case))
    return out


@pytest.mark.parametrize("name", ["classical_quartic", "dense_arith"])
def test_traced_run_matches_untraced(name):
    wl = WL[name]
    cases = [wl["warmup"]()] + wl["cases"](3, 1)
    plain = [wl["run"](c) for c in cases]
    traced = _traced_results(wl, cases, Tracer())
    assert all(wl["same"](a, b) for a, b in zip(plain, traced))


def _bindings():
    """Every attribute of every loaded module, and the traced class methods."""
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        namespace = getattr(mod, "__dict__", None)
        if isinstance(namespace, dict):
            snap.update({(mod_name, k): v for k, v in namespace.items()})
    for short, cls_name, meth, _ in METHODS:
        cls = getattr(sys.modules[f"skewpuiseux.{short}"], cls_name)
        snap[(cls_name, meth)] = vars(cls)[meth]
    return snap


def test_install_rebinds_every_name_and_remove_restores_it():
    before = _bindings()
    tracer = Tracer().install()
    try:
        from skewpuiseux import factorizer, puiseux, scalar
        wrapped = [skewpuiseux.newton_puiseux_factor, factorizer.hensel_lift,
                     factorizer.normalize_scaled, puiseux.is_negligible,
                     scalar.is_negligible, workloads.newton_puiseux_factor,
                     skewpuiseux.PuiseuxSeries.__mul__]
        assert all(hasattr(fn, "__wrapped__") for fn in wrapped)
    finally:
        tracer.remove()
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []


def test_self_times_fit_in_wall_time():
    wl = WL["classical_quartic"]
    cases = wl["cases"](7, 2)
    tracer = Tracer()
    t0 = time.perf_counter()
    _traced_results(wl, cases, tracer)
    wall = time.perf_counter() - t0
    tot = tracer.totals()
    assert all(rec["self_s"] >= -1e-9 for rec in tot.values())
    assert sum(rec["self_s"] for rec in tot.values()) <= wall
    assert tot["factorizer.newton_puiseux_factor"]["calls"] == len(cases)


def _counters(tracer):
    tot = tracer.totals()
    counts = {name: rec["calls"] for name, rec in tot.items()}
    counts["hensel.steps"] = tracer.child_calls("residue.ext_gcd", "hensel.hensel_lift")
    return counts


def test_exact_counters_repeat():
    wl = WL["classical_quartic"]
    cases = wl["cases"](11, 2)
    first, second = Tracer(), Tracer()
    _traced_results(wl, cases, first)
    _traced_results(wl, cases, second)
    assert _counters(first) == _counters(second)
    assert _counters(first)["hensel.steps"] > 0


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [row[0] for row in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WL)
    proc = _bench(ROOT, "--workload", "classical_quartic", "--seed", "2",
                  "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "--workload", "dense_arith", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
