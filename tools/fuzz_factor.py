"""Factorizer fuzz: factor seeded random products of linear factors and
tabulate the outcomes.

    python tools/fuzz_factor.py [--root DIR]

It imports the package from ``DIR/src`` (DIR defaults to this checkout), so
pointing ``--root`` at another checkout runs the same inputs there.

For each seed s = 1..6, ``random.Random(s)`` draws 150 inputs.  Per input it
draws, in this order, alpha from [2, 3, 3/2, 1/2, 1], the ramification L
from [1, 1, 2], the degree d from [2, 3, 3, 4], the target order from
[8, 15], the bits from [128, 192, 256] and ``scaled = random() < 0.3``.
Then each of the d zeros draws its three exponents k/L with
``sample(range(-L, 2L + 1), 3)``, and each exponent the coefficient
uniform(-2, 2) + i uniform(-2, 2), times a choice from [1, 1, 1, 0.05,
0.01] when ``scaled``.  A zero is written with the shortest repr of each
float and read back with parse_series, so each printed zero reproduces its
input:

    z = (re+im*i)*x^(k/L) + ...

f = (t - z_1) ... (t - z_d) is formed in F[t, sigma] at the input's bits
and factored by newton_puiseux_factor to the target order.  The outcome is
``ok``, ``ok below target`` (an achieved order below the target) or the
name of the exception raised.  The tool prints the count of each outcome
per alpha, then every input whose outcome is not ``ok``, with its zeros.
It exits 1 if any input raises an exception other than PrecisionExhausted
or RootFindingError, the numerical failures a valid input may meet.  The
900 inputs take about half a minute.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

SEEDS = range(1, 7)
PER_SEED = 150
ALPHAS = [2, 3, Fraction(3, 2), Fraction(1, 2), 1]
SCALES = [1, 1, 1, 0.05, 0.01]
NUMERICAL = ("PrecisionExhausted", "RootFindingError")


def draw(rng: random.Random) -> dict:
    """One input: its parameters and the printed zeros."""
    alpha = rng.choice(ALPHAS)
    L = rng.choice([1, 1, 2])
    d = rng.choice([2, 3, 3, 4])
    order = rng.choice([8, 15])
    bits = rng.choice([128, 192, 256])
    scaled = rng.random() < 0.3
    zeros = []
    for _ in range(d):
        terms = {}
        for k in rng.sample(range(-L, 2 * L + 1), 3):
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if scaled:
                c *= rng.choice(SCALES)
            terms[k] = f"({c.real!r}{c.imag:+}*i)*x^({Fraction(k, L)})"
        zeros.append(" + ".join(terms[k] for k in sorted(terms)))
    return {"alpha": alpha, "L": L, "order": order, "bits": bits, "zeros": zeros}


def outcome(sp, case: dict) -> tuple[str, str]:
    """(outcome, detail) of factoring one input."""
    with sp.bits(case["bits"]):
        ring = sp.puiseux_ring(case["alpha"], case["L"])
        f = sp.SkewPoly.one(ring)
        for z in case["zeros"]:
            f = f * sp.SkewPoly.t_minus(ring, sp.parse_series(z))
    cfg = sp.FactorConfig(target_order=case["order"], bits=case["bits"])
    try:
        fac = sp.newton_puiseux_factor(f, cfg)
    except Exception as e:  # every failure is an outcome, tabulated by its type
        return type(e).__name__, str(e).splitlines()[0][:100]
    if fac.achieved_order < case["order"]:
        return "ok below target", f"order {fac.achieved_order}"
    return "ok", ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                    help="checkout whose src/ is imported")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.root) / "src"))
    import skewpuiseux as sp

    table, odd = Counter(), []
    for seed in SEEDS:
        rng = random.Random(seed)
        for i in range(PER_SEED):
            case = draw(rng)
            kind, detail = outcome(sp, case)
            table[kind, case["alpha"]] += 1
            if kind != "ok":
                odd.append((seed, i, case, kind, detail))

    kinds = sorted({k for k, _ in table}, key=lambda k: (k != "ok", k != "ok below target", k))
    print(f"{'outcome':<24}" + "".join(f"{str(a):>8}" for a in ALPHAS) + f"{'all':>8}")
    for kind in kinds:
        row = [table[kind, a] for a in ALPHAS]
        print(f"{kind:<24}" + "".join(f"{n:>8}" for n in row) + f"{sum(row):>8}")
    for seed, i, case, kind, detail in odd:
        print(f"\nseed {seed} #{i}: alpha {case['alpha']}, L {case['L']}, order {case['order']}, "
              f"{case['bits']} bits: {kind}" + (f": {detail}" if detail else ""))
        for z in case["zeros"]:
            print(f"  z = {z}")
    bad = [kind for *_, kind, _ in odd if kind not in ("ok below target",) + NUMERICAL]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
