"""Seeded inputs, the timed operation and the correctness check of each
benchmark workload.

WORKLOADS maps each workload's name to a dict with:

  cases(seed, n)  the first n inputs drawn from ``seed``; the same seed
                  always gives the same inputs;
  warmup()        one small fixed input, run once during set-up;
  run(case)       the timed operation; its return value is the result;
  check(case, result) -> (ok, accuracy_bits)   untimed verification;
  same(a, b)      exact equality of two results of the same input;
  cases_per_s     a run of S seconds takes round(S * cases_per_s) inputs,
                  whatever the program's speed, so that two commits time
                  the same inputs.  At the commit that defined the
                  benchmark one second of scaled operation time (see
                  run.py) held about 2.4 lift_cubic, 5.9 classical_quartic
                  and 2.3 dense_arith inputs.  lift_cubic takes more inputs
                  than that, as its cost varies most from input to input,
                  and classical_quartic fewer, as its cost varies least.

The draws that set an input's cost (alpha, and L on dense_arith) cycle
through their values in a fixed order; the seed draws everything else.
A random mix would make each seed's inputs cost a different amount.

The library only ever sees the generated inputs.  BENCHMARK.json says why
each workload exists.
"""

from __future__ import annotations

import random
from fractions import Fraction

from mpmath import mp

from skewpuiseux import (FactorConfig, PuiseuxSeries, SkewPoly, bits, newton_puiseux_factor,
                         puiseux_ring)

# criterion 8 runs at 128 bits; there one lift_cubic case in about 360
# (seed 301, case 16) raised SkewError ("hensel step did not raise the
# defect order") and passed at 144 bits, and 720 cases passed at 160
FACTOR_BITS = 160
FACTOR_ORDER = 15
RESIDUAL_BOUND_BITS = 80
# least modulus of a planted coefficient of a lift_cubic zero
MIN_COEFF = 0.25
# least distance between the four branch residues of a classical quartic
BRANCH_GAP = 0.25
CUBIC_ALPHAS = (Fraction(2), Fraction(3, 2))
ARITH_BITS = 256
ARITH_RINGS = tuple((alpha, L) for alpha in (Fraction(2), Fraction(3, 2), Fraction(1, 2))
                    for L in (1, 2))
# the quotient, the remainder and f(v) are checked to
# 2^-(ARITH_BITS - ARITH_SLACK_BITS) relative to the size of the operands
ARITH_SLACK_BITS = 32


def _accuracy(dev, cap: int) -> float:
    """-log2(dev), capped at ``cap`` working bits (dev = 0 reads as the cap)."""
    if dev == 0:
        return float(cap)
    return float(min(cap, -mp.log(dev, 2)))


def _coeff(rnd: random.Random, scale=2.0):
    return mp.mpc(rnd.uniform(-scale, scale), rnd.uniform(-scale, scale))


def _significant_coeff(rnd: random.Random):
    """A coefficient drawn like _coeff, redrawn until |c| >= MIN_COEFF."""
    while True:
        c = _coeff(rnd)
        if abs(c) >= MIN_COEFF:
            return c


def _series_eq(a: PuiseuxSeries, b: PuiseuxSeries) -> bool:
    return a.L == b.L and a.trunc == b.trunc and a.terms == b.terms


def _poly_eq(a: SkewPoly, b: SkewPoly) -> bool:
    return (len(a.coeffs) == len(b.coeffs)
            and all(_series_eq(x, y) for x, y in zip(a.coeffs, b.coeffs)))


# -- factorization workloads ----------------------------------------------------

def _factor(case):
    return newton_puiseux_factor(case["f"], FactorConfig(target_order=FACTOR_ORDER,
                                                         bits=FACTOR_BITS))


def _check_factorization(case, fac):
    """Criterion 8: residual below 2^-80 and the rightmost zero annihilates
    f to the target order."""
    f = case["f"]
    with bits(FACTOR_BITS):
        ev = f.evaluate(fac.zeros[-1])
        ev_ord = ev.ord()
        if ev.trunc is not None:
            ev_ord = min(ev_ord, Fraction(ev.trunc, ev.L))
        below = ev.truncate(FACTOR_ORDER * ev.L).max_abs()
    ok = (fac.residual < mp.mpf(2) ** -RESIDUAL_BOUND_BITS and ev_ord >= FACTOR_ORDER)
    acc = min(_accuracy(fac.residual, FACTOR_BITS), _accuracy(below, FACTOR_BITS))
    return ok, acc


def _same_factorization(a, b) -> bool:
    return (len(a.zeros) == len(b.zeros)
            and all(_series_eq(x, y) for x, y in zip(a.zeros, b.zeros))
            and a.residual == b.residual and a.ramification == b.ramification)


def _lift_cubic_cases(seed: int, n: int):
    """The generator of criterion 8 (tests/props.py::check_end_to_end) with
    the zeros' ramification fixed at L = 1: products of three random linear
    factors, alpha alternating between 2 and 3/2, zeros with three terms of
    exponent in [-1, 2].

    With L up to 3 a case takes 0.1 s to 7 s, so a run holds only about 20
    of them and the draw of cheap and dear cases, not the program, sets
    every metric; at L = 1 a case takes 0.1 s to 0.9 s.

    Every planted coefficient has modulus at least MIN_COEFF: two cases in
    about a thousand, each with a smaller term (0.018 and 0.18), came back
    with a residual of 2^-55 or raised SkewError, and a benchmark input must
    not fail.
    """
    rnd = random.Random(seed)
    out = []
    with bits(FACTOR_BITS):
        for i in range(n):
            alpha = CUBIC_ALPHAS[i % len(CUBIC_ALPHAS)]
            zeros = [PuiseuxSeries(1, {k: _significant_coeff(rnd)
                                       for k in rnd.sample(range(-1, 3), 3)})
                     for _ in range(3)]
            f = SkewPoly.one(puiseux_ring(alpha))
            for z in zeros:
                f = f * SkewPoly.t_minus(f.ring, z)
            out.append({"f": f})
    return out


def _lift_cubic_warmup():
    with bits(FACTOR_BITS):
        ring = puiseux_ring(Fraction(2))
        f = SkewPoly.one(ring)
        for z in (PuiseuxSeries(1, {0: mp.mpc(1, 1), 1: 1}), PuiseuxSeries(1, {-1: 2})):
            f = f * SkewPoly.t_minus(ring, z)
    return {"f": f}


def _quartic(u: list, v: list):
    """(t^2 - 2u_1 t + u_1^2 - v_1^2 x)(t^2 - 2u_2 t + u_2^2 - v_2^2 x) over
    alpha = 1; its zeros are u_i +- v_i x^(1/2)."""
    ring = puiseux_ring(1)
    f = SkewPoly.one(ring)
    for ui, vi in zip(u, v):
        c0 = ui * ui - PuiseuxSeries(1, {1: vi * vi})
        f = f * SkewPoly(ring, [c0, ui.scale(-2), ring.one()])
    return f


def _branch_coeffs(rnd: random.Random):
    """v_1, v_2 whose branch residues +-v_1, +-v_2 are BRANCH_GAP apart.

    Branches much closer than that (0.016 apart) make the factorization
    come back with a residual of 1e160 and no error; that defect belongs to
    a robustness test, not to a benchmark that must not fail.
    """
    while True:
        v = [_coeff(rnd), _coeff(rnd)]
        if min(abs(v[0] - v[1]), abs(v[0] + v[1]), 2 * abs(v[0]), 2 * abs(v[1])) >= BRANCH_GAP:
            return v


def _classical_quartic_cases(seed: int, n: int):
    """alpha = 1: two conjugate quadratic pairs whose residue roots all equal
    c0, so every round needs the shift, the scale and the classical
    Newton-Puiseux step, and the zeros ramify with L = 2."""
    rnd = random.Random(seed)
    out = []
    with bits(FACTOR_BITS):
        for _ in range(n):
            c0 = _coeff(rnd)
            u = [PuiseuxSeries(1, {0: c0, 1: _coeff(rnd), 2: _coeff(rnd), 3: _coeff(rnd)})
                 for _ in range(2)]
            out.append({"f": _quartic(u, _branch_coeffs(rnd))})
    return out


def _classical_quartic_warmup():
    with bits(FACTOR_BITS):
        u = [PuiseuxSeries(1, {0: 1, 1: mp.mpc(0, 1)}), PuiseuxSeries(1, {0: 1, 1: 2})]
        return {"f": _quartic(u, [mp.mpc(1), mp.mpc(0.5, 0.5)])}


# -- skew-polynomial arithmetic -------------------------------------------------

def _dense_series(rnd: random.Random, L: int, nterms: int = 10):
    """nterms of the ten exponents 0, 1/L, ..., 9/L."""
    return PuiseuxSeries(L, {k: _coeff(rnd) for k in rnd.sample(range(10), nterms)})


def _dense_arith_case(rnd: random.Random, alpha: Fraction, L: int, nterms: int = 10):
    ring = puiseux_ring(alpha, L, _dense_series(rnd, L, nterms))
    f = SkewPoly(ring, [_dense_series(rnd, L, nterms) for _ in range(5)])
    g = SkewPoly(ring, [_dense_series(rnd, L, nterms) for _ in range(2)] + [ring.one()])
    return {"f": f, "g": g, "v": _dense_series(rnd, L, nterms)}


def _dense_arith_cases(seed: int, n: int):
    """A derived ring (a != 0) cycling through alpha in {2, 3/2, 1/2} and
    L in {1, 2}; f of degree 4 and monic g of degree 2 with dense
    coefficients of ten terms.  The term count does not grow with L, so
    every operation costs about the same and the latency percentiles do not
    hinge on the mix."""
    rnd = random.Random(seed)
    with bits(ARITH_BITS):
        return [_dense_arith_case(rnd, *ARITH_RINGS[i % len(ARITH_RINGS)])
                for i in range(n)]


def _dense_arith_warmup():
    with bits(ARITH_BITS):
        return _dense_arith_case(random.Random(0), Fraction(2), 1, nterms=2)


def _dense_arith_run(case):
    with bits(ARITH_BITS):
        p = case["f"] * case["g"]
        q, r = p.left_divmod(case["g"])
        ev = case["f"].evaluate(case["v"])
    return p, q, r, ev


def _dense_arith_check(case, result):
    """q = f and r = 0 to the working bits, and f(v) is by definition the
    constant r_v with f = q_v (t - v) + r_v, re-multiplied here."""
    f, v = case["f"], case["v"]
    p, q, r, ev = result
    with bits(ARITH_BITS):
        scale = max(mp.mpf(1), p.max_abs())
        dev = max(q.deviation(f), r.max_abs()) / scale
        t_v = SkewPoly.t_minus(f.ring.accommodate(v), v)
        qv, _ = f.left_divmod(t_v)
        ev_dev = (qv * t_v + SkewPoly.constant(t_v.ring, ev)).deviation(f) / max(mp.mpf(1), f.max_abs() * (1 + v.max_abs()) ** f.degree)
    tol = mp.mpf(2) ** -(ARITH_BITS - ARITH_SLACK_BITS)
    ok = dev <= tol and ev_dev <= tol
    return ok, min(_accuracy(dev, ARITH_BITS), _accuracy(ev_dev, ARITH_BITS))


def _same_arith(a, b) -> bool:
    return (all(_poly_eq(x, y) for x, y in zip(a[:3], b[:3]))
            and _series_eq(a[3], b[3]))


WORKLOADS = {
    "lift_cubic": {
        "cases": _lift_cubic_cases,
        "warmup": _lift_cubic_warmup,
        "run": _factor,
        "check": _check_factorization,
        "same": _same_factorization,
        "cases_per_s": 3.6,
    },
    "classical_quartic": {
        "cases": _classical_quartic_cases,
        "warmup": _classical_quartic_warmup,
        "run": _factor,
        "check": _check_factorization,
        "same": _same_factorization,
        "cases_per_s": 3.0,
    },
    "dense_arith": {
        "cases": _dense_arith_cases,
        "warmup": _dense_arith_warmup,
        "run": _dense_arith_run,
        "check": _dense_arith_check,
        "same": _same_arith,
        "cases_per_s": 2.3,
    },
}
