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
coefficient to a monomial multiple of itself, so normalize_scaled,
scale_back_monic and scale_back_left work coefficient-wise in closed form
(_rescaled).  The general Horner scaling and the beta law are test
references (tests/props.py).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import scalar
from .errors import NotMonicError, Obstruction, PrecisionExhausted, UsageError
from .puiseux import PuiseuxSeries
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
        terms[k] = c / den
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
    by scaling_exponent).  In closed form (_rescaled), coefficient i is
    f_i alpha^(-r(i(i-1) - d(d-1))/2) x^(r(d-i)).
    """
    r = Fraction(r)
    if r == 0:
        return f
    return _rescaled(f, r)


def scale_back_monic(v: SkewPoly, r):
    """Inverse-scale a monic factor and re-extract the leading unit so the
    result is monic again: psi^(-1)(v) = lead * result with lead a monomial.
    In closed form, coefficient i is v_i alpha^(r(i(i-1) - m(m-1))/2)
    x^(-r(m-i)), m = deg v."""
    r = Fraction(r)
    if r == 0:
        return v
    return _rescaled(v, -r)


def scale_back_left(u: SkewPoly, r, k: int):
    """The left factor that goes with scale_back_monic(v, r), k = deg v:
    when u v lifts normalize_scaled(f, r), f = quo * scale_back_monic(v, r).

    With m = deg u and d = m + k, coefficient i of quo is
    u_i alpha^(e_i) x^(-r(m-i)), e_i = r(i(i-1)/2 + k(k-1)/2 + k i - d(d-1)/2),
    so that e_m = 0: the unit x^(rd)/beta_d and the lead of psi^(-1)(v) are
    moved through psi^(-1)(u).
    """
    r = Fraction(r)
    if r == 0:
        return u
    return _rescaled(u, -r, r * k)


def _rescaled(p: SkewPoly, s: Fraction, twist=0) -> SkewPoly:
    """Coefficient i of p times alpha^(-s(i(i-1) - m(m-1))/2 - twist(m-i))
    x^(s(m-i)), m = deg p, in the underived ring at the ramification that
    holds s.  p is monic, and the lead stays an exact 1."""
    ring = p.ring
    if not isinstance(ring, PuiseuxRing) or not ring.a.is_zero:
        raise UsageError("closed-form scalings need the underived ring F[t, sigma]")
    if not p.is_monic:
        raise NotMonicError("closed-form scalings need a monic polynomial")
    alpha = ring.alpha
    L = ring.L * (s.denominator // gcd(ring.L, s.denominator))
    target = puiseux_ring(alpha, L)
    m = p.degree
    coeffs = []
    for i, c in enumerate(p.coeffs[:m]):
        c = c.at_ram(L)
        w = alpha.pow(-s * Fraction(i * (i - 1) - m * (m - 1), 2) - twist * (m - i))
        wn = scalar.to_mpf(w) if isinstance(w, Fraction) else w
        j = int(s * (m - i) * L)
        if w == 1:
            terms = {k + j: v for k, v in c.terms.items()}
        else:
            terms = {k + j: v * w if isinstance(v, EXACT_TYPES) else v * wn
                     for k, v in c.terms.items()}
        coeffs.append(PuiseuxSeries(L, terms, None if c.trunc is None else c.trunc + j))
    return SkewPoly(target, coeffs + [target.one()], trim=False)

