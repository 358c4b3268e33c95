"""Exact series and skew operations against values recorded before exact
values moved into the exact rows of series.

Each case is an operation on exact operands (int, Fraction and
GaussianRational values) under alpha = 3/2.  A case that applies no
irrational twist factor must give exact values equal to the recorded ones.
A case that applies one (``twisted``: a t-shift or sigma of a term at an
x-exponent off the integers) may round once per output where the record
rounded once per series operation, so each of its values is held within
2^-(P-24) of the recorded one, relative to that value's modulus.
"""

from fractions import Fraction

import pytest
from mpmath import mp
from mpmath.libmp import to_rational

from skewpuiseux import (Alpha, GaussianRational, PuiseuxSeries, SkewPoly, puiseux_ring)
from skewpuiseux.scalar import EXACT_TYPES
from skewpuiseux.structure import shift_iso

from conftest import PREC

PS = PuiseuxSeries
ALPHA = Fraction(3, 2)


def _poly(ring, *coeffs):
    return SkewPoly(ring, [c if isinstance(c, PS) else PS.constant(c, ring.L) for c in coeffs])


def _cases():
    """(name, twisted, thunk) for every recorded operation; a thunk returns
    a series, a polynomial or a tuple of them."""
    third, two_fifths, g = Fraction(1, 3), Fraction(2, 5), GaussianRational(1, -1)
    fr = PS(1, {0: third, 2: -2})
    gr = PS(1, {0: g, 1: two_fifths})
    half = PS(2, {1: third})
    alpha = Alpha(ALPHA)
    r1 = puiseux_ring(ALPHA)
    r1a = puiseux_ring(ALPHA, 1, PS(1, {1: Fraction(1, 2)}))
    r2 = puiseux_ring(ALPHA, 2)
    x, y = PS.x_pow(1), PS.x_pow(Fraction(1, 2))
    f1 = _poly(r1, PS(1, {1: g}), PS(1, {0: third, 1: 1}), 0, 1)
    g1 = _poly(r1, PS(1, {1: two_fifths}), 1)
    f1a = _poly(r1a, PS(1, {0: g, 2: third}), PS(1, {1: -1}), 1)
    g1a = _poly(r1a, PS(1, {0: two_fifths}), 1)
    p2 = _poly(r2, x, 1)
    q2 = _poly(r2, y, 1)
    f2 = _poly(r2, PS(2, {1: g}), PS(2, {2: third}), 1)
    return [
        ("series sum", False, lambda: fr + gr),
        ("series difference", False, lambda: fr - gr),
        ("series product", False, lambda: fr * gr),
        ("series scale by a Fraction", False, lambda: fr.scale(Fraction(-3, 4))),
        ("series scale by a GaussianRational", False, lambda: gr.scale(GaussianRational(0, 1))),
        ("series sigma", False, lambda: fr.sigma_pow(1, alpha)),
        ("series sigma^-2", False, lambda: gr.sigma_pow(-2, alpha)),
        ("series sigma at L = 2", True, lambda: half.sigma_pow(1, alpha)),
        ("series inverse", False, lambda: fr.inverse(5)),
        ("series inverse of a GaussianRational lead", False, lambda: gr.inverse(4)),
        ("product at L = 1", False, lambda: f1 * g1),
        ("product at L = 1, other order", False, lambda: g1 * f1),
        ("left_divmod at L = 1", False, lambda: f1.left_divmod(g1)),
        ("evaluate at L = 1", False, lambda: f1.evaluate(PS(1, {0: Fraction(1, 2), 1: g}))),
        ("shift_iso at L = 1", False, lambda: shift_iso(f1, PS(1, {0: third, 1: 1}))),
        ("product in a derived ring", False, lambda: f1a * g1a),
        ("left_divmod in a derived ring", False, lambda: f1a.left_divmod(g1a)),
        ("evaluate in a derived ring", False, lambda: f1a.evaluate(PS(1, {0: third}))),
        ("product at L = 2, integral right operand", False, lambda: q2 * p2),
        ("product (t + x)(t + x^(1/2)) at L = 2", True, lambda: p2 * q2),
        ("left_divmod at L = 2", False, lambda: f2.left_divmod(p2)),
        ("evaluate at L = 2", True, lambda: f2.evaluate(PS(2, {1: third, 2: 1}))),
        ("shift_iso at L = 2", True, lambda: shift_iso(f2, PS(2, {1: g}))),
    ]


def _encode(c):
    """A value as exact data: ("int", n), ("q", num, den), ("g", re, im) for
    a GaussianRational, ("n", re, im) for an mpmath number, parts as
    (num, den) pairs of the exact rational value."""
    if isinstance(c, int):
        return ("int", c)
    if isinstance(c, Fraction):
        return ("q", c.numerator, c.denominator)
    if isinstance(c, GaussianRational):
        return ("g", (c.re.numerator, c.re.denominator), (c.im.numerator, c.im.denominator))
    z = mp.mpc(c)
    return ("n", to_rational(z.real._mpf_), to_rational(z.imag._mpf_))


def _value(code):
    """The exact GaussianRational of an encoded value."""
    kind, *parts = code
    if kind == "int":
        return GaussianRational(parts[0])
    if kind == "q":
        return GaussianRational(Fraction(*parts))
    return GaussianRational(Fraction(*parts[0]), Fraction(*parts[1]))


def _series(out):
    """The series of an operation's output, in order."""
    if isinstance(out, PS):
        return [out]
    if isinstance(out, SkewPoly):
        return list(out.coeffs)
    return [s for part in out for s in _series(part)]


def _record(out):
    return [(s.L, s.trunc, {k: _encode(c) for k, c in sorted(s.terms.items())})
            for s in _series(out)]


def _sq(g):
    return g.re * g.re + g.im * g.im


# recorded at 128 bits on the tree before the change (_record of each case)
RECORDED = {
    "series sum": [
        (1, None, {0: ("g", (4, 3), (-1, 1)), 1: ("q", 2, 5), 2: ("int", -2)}),
    ],
    "series difference": [
        (1, None, {0: ("g", (-2, 3), (1, 1)), 1: ("q", -2, 5), 2: ("int", -2)}),
    ],
    "series product": [
        (1, None,
         {0: ("g", (1, 3), (-1, 3)),
          1: ("q", 2, 15),
          2: ("g", (-2, 1), (2, 1)),
          3: ("q", -4, 5)}),
    ],
    "series scale by a Fraction": [
        (1, None, {0: ("q", -1, 4), 2: ("q", 3, 2)}),
    ],
    "series scale by a GaussianRational": [
        (1, None, {0: ("g", (1, 1), (1, 1)), 1: ("g", (0, 1), (2, 5))}),
    ],
    "series sigma": [
        (1, None, {0: ("q", 1, 3), 2: ("q", -9, 2)}),
    ],
    "series sigma^-2": [
        (1, None, {0: ("g", (1, 1), (-1, 1)), 1: ("q", 8, 45)}),
    ],
    "series sigma at L = 2": [
        (2, None,
         {1: ("n",
              (277839389140940196080662962564803128739,
               680564733841876926926749214863536422912),
              (0, 1))}),
    ],
    "series inverse": [
        (1, 5, {0: ("q", 3, 1), 2: ("q", 18, 1), 4: ("q", 108, 1)}),
    ],
    "series inverse of a GaussianRational lead": [
        (1, 4,
         {0: ("g", (1, 2), (1, 2)),
          1: ("g", (0, 1), (-1, 5)),
          2: ("g", (-1, 25), (1, 25)),
          3: ("g", (2, 125), (0, 1))}),
    ],
    "product at L = 1": [
        (1, None, {2: ("g", (2, 5), (-2, 5))}),
        (1, None, {1: ("g", (6, 5), (-1, 1)), 2: ("q", 3, 5)}),
        (1, None, {0: ("q", 1, 3), 1: ("q", 1, 1)}),
        (1, None, {1: ("q", 27, 20)}),
        (1, None, {0: ("q", 1, 1)}),
    ],
    "product at L = 1, other order": [
        (1, None, {2: ("g", (2, 5), (-2, 5))}),
        (1, None, {1: ("g", (49, 30), (-3, 2)), 2: ("q", 2, 5)}),
        (1, None, {0: ("q", 1, 3), 1: ("q", 3, 2)}),
        (1, None, {1: ("q", 2, 5)}),
        (1, None, {0: ("q", 1, 1)}),
    ],
    "left_divmod at L = 1": [
        (1, None, {0: ("q", 1, 3), 1: ("int", 1), 2: ("q", 27, 50)}),
        (1, None, {1: ("q", -9, 10)}),
        (1, None, {0: ("int", 1)}),
        (1, None, {1: ("g", (13, 15), (-1, 1)), 2: ("q", -2, 5), 3: ("q", -27, 125)}),
    ],
    "evaluate at L = 1": [
        (1, None,
         {0: ("q", 7, 24),
          1: ("g", (145, 48), (-121, 48)),
          2: ("g", (1, 1), (-65, 8)),
          3: ("g", (-27, 4), (-27, 4))}),
    ],
    "shift_iso at L = 1": [
        (1, None,
         {0: ("q", -4, 27), 1: ("g", (-7, 36), (-1, 1)), 2: ("q", -27, 8), 3: ("q", -27, 8)}),
        (1, None, {0: ("q", 2, 3), 1: ("q", 25, 6), 2: ("q", 57, 8)}),
        (1, None, {0: ("q", -1, 1), 1: ("q", -19, 4)}),
        (1, None, {0: ("q", 1, 1)}),
    ],
    "product in a derived ring": [
        (1, None, {0: ("g", (2, 5), (-2, 5)), 2: ("q", 2, 15)}),
        (1, None, {0: ("g", (1, 1), (-1, 1)), 1: ("q", -2, 5), 2: ("q", 1, 3)}),
        (1, None, {0: ("q", 2, 5), 1: ("q", -1, 1)}),
        (1, None, {0: ("q", 1, 1)}),
    ],
    "left_divmod in a derived ring": [
        (1, None, {0: ("q", -2, 5), 1: ("int", -1)}),
        (1, None, {0: ("int", 1)}),
        (1, None, {0: ("g", (29, 25), (-1, 1)), 1: ("q", 2, 5), 2: ("q", 1, 3)}),
    ],
    "evaluate in a derived ring": [
        (1, None, {0: ("g", (10, 9), (-1, 1)), 1: ("q", -1, 3), 2: ("q", 1, 3)}),
    ],
    "product at L = 2, integral right operand": [
        (2, None, {3: ("int", 1)}),
        (2, None, {1: ("int", 1), 2: ("q", 3, 2)}),
        (2, None, {0: ("q", 1, 1)}),
    ],
    "product (t + x)(t + x^(1/2)) at L = 2": [
        (2, None, {3: ("int", 1)}),
        (2, None,
         {1: ("n",
              (104189770927852573530248610961801173277, 85070591730234615865843651857942052864),
              (0, 1)),
          2: ("n", (1, 1), (0, 1))}),
        (2, None, {0: ("q", 1, 1)}),
    ],
    "left_divmod at L = 2": [
        (2, None, {2: ("q", -7, 6)}),
        (2, None, {0: ("int", 1)}),
        (2, None, {1: ("g", (1, 1), (-1, 1)), 4: ("q", 7, 6)}),
    ],
    "evaluate at L = 2": [
        (2, None,
         {1: ("n", (1, 1), (-1, 1)),
          2: ("n",
              (23153282428411683006721913547066927395, 170141183460469231731687303715884105728),
              (0, 1)),
          3: ("n",
              (173435014955521801745085759578685513463,
               170141183460469231731687303715884105728),
              (0, 1)),
          4: ("n",
              (311925503010860258174760056812454193835,
               170141183460469231731687303715884105728),
              (0, 1))}),
    ],
    "shift_iso at L = 2": [
        (2, None,
         {1: ("n", (1, 1), (-1, 1)),
          2: ("n", (0, 1),
              (-104189770927852573530248610961801173277,
               42535295865117307932921825928971026432)),
          3: ("n",
              (-226854911280625642308916404954512140971,
               680564733841876926926749214863536422912),
              (226854911280625642308916404954512140971,
               680564733841876926926749214863536422912))}),
        (2, None,
         {1: ("n",
              (-189260362658087189396092262819743226141,
               85070591730234615865843651857942052864),
              (189260362658087189396092262819743226141,
               85070591730234615865843651857942052864)),
          2: ("n",
              (226854911280625642308916404954512140971,
               680564733841876926926749214863536422912),
              (0, 1))}),
        (2, None, {0: ("q", 1, 1)}),
    ],
}


@pytest.mark.parametrize("name, twisted, thunk", _cases(), ids=[c[0] for c in _cases()])
def test_exact_operations_keep_their_recorded_values(name, twisted, thunk):
    got, want = _series(thunk()), RECORDED[name]
    assert [(s.L, s.trunc, sorted(s.terms)) for s in got] == [
        (L, trunc, sorted(terms)) for L, trunc, terms in want]
    bound = Fraction(1, 2 ** (PREC - 24)) ** 2
    for s, (_, _, terms) in zip(got, want):
        for k, code in terms.items():
            c = s.terms[k]
            if not twisted:
                assert isinstance(c, EXACT_TYPES) and _value(_encode(c)) == _value(code)
            else:
                d = _value(_encode(c)) - _value(code)
                assert _sq(d) <= bound * _sq(_value(code))
