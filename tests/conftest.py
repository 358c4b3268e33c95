import random
from fractions import Fraction

import pytest
from mpmath import mp

from skewpuiseux import PuiseuxSeries, SkewPoly, bits, puiseux_ring, skewpoly
from skewpuiseux.scalar import to_mpc

PREC = 128


@pytest.fixture(autouse=True)
def working_precision():
    with bits(PREC):
        yield


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def rand_coeff(rnd, scale=2.0):
    return mp.mpc(rnd.uniform(-scale, scale), rnd.uniform(-scale, scale))


def rand_series(rnd, L=1, lo=0, hi=3, nterms=3, scale=2.0) -> PuiseuxSeries:
    span = list(range(lo * L, hi * L + 1))
    ks = rnd.sample(span, min(nterms, len(span)))
    return PuiseuxSeries(L, {k: rand_coeff(rnd, scale) for k in ks})


def rand_poly(ring, rnd, deg=2, L=None, lo=0, hi=3, nterms=3) -> SkewPoly:
    L = L or getattr(ring, "L", 1)
    coeffs = [rand_series(rnd, L, lo, hi, nterms) for _ in range(deg)]
    coeffs.append(PuiseuxSeries.one(L))
    return SkewPoly(ring, coeffs)


def rand_alpha(rnd):
    return rnd.choice([Fraction(2), Fraction(3, 2), Fraction(1, 2)])


def max_dev(a, b):
    return (a - b).max_abs()


def tol_bits(k: int):
    return mp.mpf(2) ** -k


def same_coeffs(a, b) -> bool:
    """Bit-for-bit equality of two lists of series (L, trunc and terms)."""
    return len(a) == len(b) and all(
        x.L == y.L and x.trunc == y.trunc and x.terms == y.terms for x, y in zip(a, b))


def near_coeffs(a, b, prec: int, scale=1) -> bool:
    """Two lists of series with the same L, truncations and supports, each
    term of a within 2^-(prec-8) max(scale, |b's term|) of b's."""
    tol = mp.mpf(2) ** -(prec - 8)
    return len(a) == len(b) and all(
        (x.L, x.trunc, set(x.terms)) == (y.L, y.trunc, set(y.terms))
        and all(abs(to_mpc(x.terms[k]) - to_mpc(c)) <= tol * max(scale, abs(to_mpc(c)))
                for k, c in y.terms.items())
        for x, y in zip(a, b))


def count_shifts(monkeypatch) -> list:
    """Record every t-shift of a table row (the ``shifted`` of either table
    arithmetic) in the returned list."""
    calls = []
    for cls in (skewpoly._Exact, skewpoly._Coeffs):
        def counting(self, row, shifted=cls.shifted):
            calls.append(len(row))
            return shifted(self, row)

        monkeypatch.setattr(cls, "shifted", counting)
    return calls
