"""Ring isomorphisms used by the reduction pipeline.

Each map is realized by substitute-and-expand (Horner over the image of t)
in the target ring, matching the universal-property construction, and is
validated by homomorphism invariants in the test suite:

  shift:  F[t,s,delta_a] -> F[t,s,delta_(a-b)],   t |-> t - b
  scale:  F[t,s,delta_a] -> F[t,s,delta_(a*x^r)], t |-> x^(-r) t
  trace preimage: solves b + b^s + ... + b^(s^(d-1)) = g termwise
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import scalar
from .errors import Obstruction, PrecisionExhausted, UsageError
from .puiseux import PuiseuxSeries, SkewContext
from .scalar import INF, Alpha, to_mpc
from .skewpoly import PuiseuxRing, SkewPoly, _horner_image


@dataclass(frozen=True)
class IsoRecord:
    """Provenance entry for one applied isomorphism (for factor pullback)."""

    kind: str      # "shift" | "scale" | "unit_normalize" | "unit_extract"
    params: tuple

    def __str__(self):
        inner = ", ".join(str(p) for p in self.params)
        return f"{self.kind}({inner})"


def shift_iso(f: SkewPoly, b: PuiseuxSeries) -> SkewPoly:
    """Map sum g_i t^i to sum g_i (t-b)^i, landing in the delta_(a-b) ring."""
    ring = f.ring
    if not isinstance(ring, PuiseuxRing):
        raise UsageError("shift_iso needs Puiseux coefficients")
    b = ring.coerce(b)
    target = ring.with_a(ring.a - b)
    t_image = SkewPoly(target, [target.neg(target.coerce(b)), target.one()], trim=False)
    return _horner_image(target, [target.coerce(c) for c in f.coeffs], t_image)


def scale_iso(f: SkewPoly, r) -> SkewPoly:
    """Map sum g_i t^i to sum g_i (x^(-r) t)^i, landing in the delta_(a*x^r) ring.

    The ramification refines to make r representable.
    """
    ring = f.ring
    if not isinstance(ring, PuiseuxRing):
        raise UsageError("scale_iso needs Puiseux coefficients")
    r = Fraction(r)
    if r == 0:
        return f
    L = ring.L * (r.denominator // gcd(ring.L, r.denominator))
    xr = PuiseuxSeries.x_pow(r).at_ram(L)
    new_a = ring.a.at_ram(L) * xr if not ring.a.is_zero else PuiseuxSeries.zero(L)
    target = PuiseuxRing(SkewContext(ring.alpha, L, new_a))
    x_neg_r = PuiseuxSeries.x_pow(-r).at_ram(L)
    t_image = SkewPoly(target, [target.zero(), x_neg_r], trim=False)
    return _horner_image(target, [target.coerce(c) for c in f.coeffs], t_image)


def scaled_power_unit(alpha: Alpha, r, i: int):
    """The unit beta_i with (x^(-r) t)^i = beta_i x^(-ri) t^i when delta = 0.

    Certified by the expansion oracle in the tests: beta_i = alpha^(-r*i*(i-1)/2).
    """
    r = Fraction(r)
    return alpha.pow(-r * Fraction(i * (i - 1), 2))


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
    """Replace f by beta_d^(-1) x^(rd) psi(f): monic, all coefficient orders
    >= 0 and at least one equal to 0 (for r chosen by scaling_exponent).

    Returns (polynomial, records).
    """
    ring = f.ring
    d = f.degree
    r = Fraction(r)
    if r == 0:
        return f, []
    records = [IsoRecord("scale", (r,))]
    fs = scale_iso(f, r)
    target = fs.ring
    beta_d = scaled_power_unit(ring.alpha, r, d)
    inv_beta = 1 / beta_d
    unit = PuiseuxSeries.x_pow(r * d, 1).at_ram(target.L).scale(inv_beta)
    out = fs.lmul_base(unit)
    records.append(IsoRecord("unit_normalize", (inv_beta, r * d)))
    # the leading coefficient is 1 by construction; pin it exactly
    lead = out.coeffs[-1]
    dev = (lead - 1).max_abs()
    if dev > scalar.mp.mpf(2) ** -(scalar.mp.prec // 2):
        raise PrecisionExhausted(f"scaled normalization lost monicity (dev={dev})")
    coeffs = list(out.coeffs)
    coeffs[-1] = target.one()
    return SkewPoly(target, coeffs, trim=False), records


def scale_back_monic(v: SkewPoly, r):
    """Inverse-scale a monic factor and re-extract the leading unit so the
    result is monic again: psi^(-1)(v) = lead * result with lead a monomial."""
    r = Fraction(r)
    if r == 0:
        return v
    w = scale_iso(v, -r)
    lead = w.coeffs[-1]
    inv = lead.inverse()
    out = w.lmul_base(inv)
    coeffs = list(out.coeffs)
    coeffs[-1] = w.ring.one()
    return SkewPoly(w.ring, coeffs, trim=False)


def pull_unit_through_linear(u: PuiseuxSeries, c: PuiseuxSeries, ring: PuiseuxRing):
    """Rewrite u*(t-c) as (t-c')*u' in the same ring:
    u' = sigma^(-1)(u), c' = (u*c + delta(sigma^(-1)(u))) * sigma^(-1)(u)^(-1)."""
    u = ring.coerce(u)
    c = ring.coerce(c)
    u_prime = u.sigma_pow(-1, ring.alpha)
    u_prime_inv = u_prime.inverse() if (len(u_prime.terms) == 1 and u_prime.trunc is None) \
        else u_prime.inverse(_invert_target(u_prime, c))
    c_prime = (u * c + ring.delta(u_prime)) * u_prime_inv
    return c_prime, u_prime


def _invert_target(u: PuiseuxSeries, c: PuiseuxSeries) -> int:
    tu = INF if u.trunc is None else u.trunc
    tc = INF if c.trunc is None else c.trunc
    t = min(tu - 2 * u.ord_k(), tc - u.ord_k())
    if t == INF:
        t = u.L * 64  # both exact; any generous bound works
    return int(t)
