"""Ring isomorphisms used by the reduction pipeline:

  shift:  F[t,s,delta_a] -> F[t,s,delta_(a-b)],   t |-> t - b
  scale:  F[t,s,delta_a] -> F[t,s,delta_(a*x^r)], t |-> x^(-r) t
  trace preimage: solves b + b^s + ... + b^(s^(d-1)) = g termwise

The shift is realized by substitute-and-expand (Horner over the image of t)
in the target ring, matching the universal-property construction, and is
validated by homomorphism invariants in the test suite.

The factorizer's scalings live in the underived ring F[t, sigma], where
(x^(-r) t)^i = beta_i x^(-ri) t^i with beta_i = alpha^(-r i(i-1)/2) (the
beta law).  There a scaling followed by a monomial unit maps each
coefficient to a monomial multiple of itself, and the scaling fixes the
coefficients, so it is a ring automorphism: a factorization of the scaled
polynomial into linear factors maps back zero by zero.  normalize_scaled and
scale_back_zeros therefore work in closed form, one monomial alpha^e x^q per
coefficient or zero (_monomial_times).  The general Horner scaling and the
beta law are test references (tests/props.py).
"""

from __future__ import annotations

from fractions import Fraction

from . import scalar
from .errors import NotMonicError, Obstruction, PrecisionExhausted, UsageError
from .puiseux import PuiseuxSeries, _lcm
from .scalar import EXACT_TYPES, INF, Alpha, to_mpc
from .skewpoly import PuiseuxRing, SkewPoly, _horner_image, puiseux_ring


def shift_iso(f: SkewPoly, b: PuiseuxSeries) -> SkewPoly:
    """Map sum g_i t^i to sum g_i (t-b)^i, landing in the delta_(a-b) ring."""
    ring = f.ring
    if not isinstance(ring, PuiseuxRing):
        raise UsageError("shift_iso needs Puiseux coefficients")
    b = ring.coerce(b)
    target = ring.with_a(ring.a - b)
    t_image = SkewPoly(target, [target.neg(target.coerce(b)), target.one()], trim=False)
    return _horner_image(target, [target.coerce(c) for c in f.coeffs], t_image)


def trace_solve(g: PuiseuxSeries, d: int, alpha) -> PuiseuxSeries:
    """Preimage of g under b -> b + b^sigma + ... + b^(sigma^(d-1)).

    Termwise: b_j = g_j / (1 + beta_j + ... + beta_j^(d-1)) with
    beta_j = alpha^(j/L); the denominators never vanish for positive real
    alpha.  In complex-alpha diagnostic mode a vanishing denominator raises
    an Obstruction carrying the offending exponent.
    """
    if not isinstance(alpha, Alpha):
        alpha = Alpha(alpha)
    if d < 1:
        raise UsageError("trace_solve needs d >= 1")
    if d == 1:
        return g
    terms = {}
    eps = scalar.zero_eps()
    for k, c in g.terms.items():
        beta = alpha.pow(Fraction(k, g.L))
        den = 1
        acc = 1
        for _ in range(d - 1):
            acc = acc * beta
            den = den + acc
        if abs(to_mpc(den)) < eps:
            raise Obstruction(Fraction(k, g.L), "vanishing trace denominator")
        terms[k] = c / den if isinstance(c, EXACT_TYPES) else c / scalar.mp_operand(den)
    return PuiseuxSeries(g.L, terms, g.trunc)


def scaling_exponent(f: SkewPoly):
    """r = max over i < d of -ord(f_i)/(d-i); None when f = t^d.

    A coefficient that is zero as far as its truncation shows participates
    with its truncation bound; if that bound would dominate, the Newton
    data is not determined and we refuse rather than guess.
    """
    d = f.degree
    best = None
    hidden = None
    for i in range(d):
        c = f.coeffs[i]
        if c.is_zero:
            if c.trunc is not None:
                bound = -Fraction(c.trunc, c.L) / (d - i)
                if hidden is None or bound > hidden:
                    hidden = bound
            continue
        val = -c.ord() / (d - i)
        if best is None or val > best:
            best = val
    if best is None:
        if hidden is not None and hidden > -INF:
            raise PrecisionExhausted("scaling exponent hidden below truncation")
        return None
    if hidden is not None and hidden > best:
        raise PrecisionExhausted("scaling exponent hidden below truncation")
    return best


def normalize_scaled(f: SkewPoly, r):
    """Replace f by beta_d^(-1) x^(rd) psi(f), psi the scaling by r: monic,
    all coefficient orders >= 0 and at least one equal to 0 (for r chosen
    by scaling_exponent).  In closed form, coefficient i is
    f_i alpha^(-r(i(i-1) - d(d-1))/2) x^(r(d-i)), in the underived ring at
    the ramification that holds r; the lead stays an exact 1.
    """
    r = Fraction(r)
    if r == 0:
        return f
    ring = f.ring
    if not isinstance(ring, PuiseuxRing) or not ring.a.is_zero:
        raise UsageError("closed-form scalings need the underived ring F[t, sigma]")
    if not f.is_monic:
        raise NotMonicError("closed-form scalings need a monic polynomial")
    target = puiseux_ring(ring.alpha, _lcm(ring.L, r.denominator))
    d = f.degree
    coeffs = [_monomial_times(c, ring.alpha, -r * Fraction(i * (i - 1) - d * (d - 1), 2),
                              r * (d - i), target.L)
              for i, c in enumerate(f.coeffs[:d])]
    return SkewPoly(target, coeffs + [target.one()], trim=False)


def scale_back_zeros(ws: list, r, alpha) -> list:
    """The zeros of f from those of F1 = normalize_scaled(f, r): when
    F1 = (t - w_1) ... (t - w_d), f = (t - z_1) ... (t - z_d) with
    z_i = alpha^(-r(d-i)) x^(-r) w_i.

    The scaling psi: t -> x^(-r) t fixes the coefficients, so it is a ring
    automorphism of F[t, sigma], and psi^(-1)(t - w_i) = x^r (t - x^(-r) w_i);
    moving each x^r left through the d - i factors to its right twists their
    zeros by alpha^(-r) once each, and the units gathered in front are
    beta_d^(-1) x^(rd), which normalize_scaled took off.
    """
    r = Fraction(r)
    if r == 0:
        return list(ws)
    d = len(ws)
    return [_monomial_times(w, alpha, -r * (d - i), -r, _lcm(w.L, r.denominator))
            for i, w in enumerate(ws, 1)]


def _monomial_times(c: PuiseuxSeries, alpha: Alpha, e: Fraction, q: Fraction,
                    L: int) -> PuiseuxSeries:
    """alpha^e x^q c at ramification L, which holds q and c.L."""
    c = c.at_ram(L)
    w = alpha.pow(e)
    j = int(q * L)
    if w == 1:
        terms = {k + j: v for k, v in c.terms.items()}
    else:
        wn = scalar.mp_operand(w)
        terms = {k + j: v * w if isinstance(v, EXACT_TYPES) else v * wn
                 for k, v in c.terms.items()}
    return PuiseuxSeries(L, terms, None if c.trunc is None else c.trunc + j)
