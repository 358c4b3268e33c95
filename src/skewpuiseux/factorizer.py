"""Factorization of monic skew polynomials over Puiseux series into linear
factors, and sigma-zero extraction.

Each recursion level works on a monic polynomial in the underived ring
F[t, sigma] and runs the reduction pipeline:

  1. t^d short-circuit;
  2. scale by x^(-r) and normalize monic, making all coefficient orders
     >= 0 with equality somewhere (closed form, normalize_scaled);
  3. read b0 = res(c_(d-1))/d off the t^(d-1) coefficient (0 when its
     order is positive): the residue of the trace solve b that the shift
     t -> t - b would use to kill that coefficient;
  4. split, on residue data only: when res F1 is not (t + b0)^d, group
     its roots by the orbits of the residue map T of F1's ring and lift
     the orbit split (prop_split).  Otherwise only one residue root -b0
     exists.  When alpha != 1 and F1 is truncated, lift the
     ((t + b0)^(d-1), t + b0) split of F1 (t_split).  When alpha = 1 or F1
     is exact, form b and the shifted polynomial F2 (landing in the
     delta_(-b) ring), and take d equal zeros when F2's lower coefficients
     all vanish, one classical Newton-Puiseux round when alpha = 1, or
     else t_split.  So trace_solve, _pinned_shift and its cancellation
     guard serve only alpha = 1 and exact levels.  Every lift runs on F1
     itself;
  5. recurse on both lifted factors u and v as they are, in F1's
     coordinates, handing each the root list of its residue, and map the
     zeros w_1..w_d of F1 back to f's once: z_i = alpha^(-r(d-i)) x^(-r) w_i
     (scale_back_zeros).

Splitting candidates are certified directly: a residue root is accepted as
orbit base as soon as its orbit captures some but not all roots, which is
exactly the lifting precondition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from mpmath import mp

from . import residue as residue_mod
from . import scalar
from .errors import (NoSplittingRoot, Obstruction, PrecisionExhausted,
                     UsageError)
from .hensel import hensel_lift
from .puiseux import PuiseuxSeries
from .residue import ResiduePoly
from .scalar import INF, is_negligible, to_mpc
from .skewpoly import PuiseuxRing, SkewPoly, puiseux_ring
from .structure import (normalize_scaled, scale_back_zeros, scaling_exponent,
                        shift_iso, trace_solve)

ORDER_MARGIN = 4  # extra x-orders lifted beyond the target
MAX_RAMIFICATION = 256  # largest ramification a recursion level may reach
MAX_CLASSICAL_ITERATIONS = 64  # nested classical rounds before the budget trips


@dataclass
class FactorConfig:
    target_order: Fraction = Fraction(16)
    bits: int = 128

    def __post_init__(self):
        self.target_order = Fraction(self.target_order)
        if self.target_order <= 0:
            raise UsageError(f"the target order must be positive, not {self.target_order}")
        if self.bits < scalar.MIN_BITS:
            raise UsageError(f"bits must be at least {scalar.MIN_BITS}, not {self.bits}")


@dataclass
class Factorization:
    """f = unit * (t - zeros[0]) * (t - zeros[1]) * ... * (t - zeros[-1]),
    with the residual and achieved order of verify_factorization."""

    zeros: list
    unit: PuiseuxSeries | None
    residual: object
    achieved_order: object
    ramification: int


def _is_t_power(f: SkewPoly) -> bool:
    return all(c.is_zero for c in f.coeffs[:-1])


def _t_power_zero(f: SkewPoly) -> PuiseuxSeries:
    """The zero O(x^zt) of every linear factor of a t-power f of degree d,
    zt = ceil(T/d) for the least truncation T of its lower coefficients."""
    ts = [c.trunc for c in f.coeffs[:-1] if c.trunc is not None]
    return PuiseuxSeries.zero(f.ring.L, max(0, -(-int(min(ts)) // f.degree)) if ts else None)


class _Engine:
    def __init__(self, alpha, cfg: FactorConfig):
        self.alpha = alpha
        self.cfg = cfg

    # -- helpers -------------------------------------------------------------

    def _level_target_k(self, L: int, r: Fraction, d: int, avail) -> int:
        margin = Fraction(math.ceil(abs(r) * d) + ORDER_MARGIN)
        n = int(math.ceil((self.cfg.target_order + margin) * L))
        if avail != INF:
            n = min(n, int(avail))
        if n < 1:
            raise PrecisionExhausted("no series precision left for lifting")
        return n

    def _candidates(self, rts, tmap, b0=0):
        """Residue roots in trial order, scored in the coordinates of the
        shift by b0: a root c as c + b0, the fixed point of T as
        -(tmap.a0 - b0).

        Every orbit of the affine map T accumulates at its fixed point; an
        outsider root close to the fixed point makes the twisted
        coprimality margins decay and the Bezout cofactors blow up.  So
        roots nearest the fixed point are tried as orbit base first,
        keeping them on the lifted-together side.  The Delta-set
        certificate (nonreal or wrong-signed c/a0) breaks ties, then the
        real and imaginary parts.  Keys within cluster_tol() (relative)
        tie, so rounding in the root search never decides the order, as it
        would for branch pairs +-v.  An identity T has no fixed point to
        approach; there the distance key is left out.
        """
        tol = scalar.cluster_tol()
        a0 = tmap.a0 - b0
        aeff = to_mpc(tmap.alpha_eff()).real
        scored = []
        for c, mult in rts:
            cs = c + b0
            certified = residue_mod.delta_pretest(cs, a0, aeff, tol) is False
            scored.append((abs(cs + a0), 0 if certified else 1,
                           mp.re(cs), mp.im(cs), (c, mult)))
        first = 1 if tmap.is_identity else 0
        def order(s, u):
            for a, b in zip(s[first:4], u[first:4]):
                if abs(a - b) > tol * max(1, abs(a), abs(b)):
                    return -1 if a < b else 1
            return 0
        scored.sort(key=cmp_to_key(order))
        return [s[4] for s in scored]

    # -- splitting ------------------------------------------------------------

    def _lift_split(self, F: SkewPoly, roots, target_k: int):
        """Lift res F = res u res v, each factor the product of its
        (root, multiplicity) list in ``roots`` (ResiduePoly.from_roots), to
        F = u v; returns the pairs (u, its roots), (v, its roots)."""
        ring = F.ring
        u, v = (SkewPoly(ring, [ring.from_scalar(c) for c in ResiduePoly.from_roots(rs).coeffs])
                for rs in roots)
        return list(zip(hensel_lift(F, u, v, target_k, roots=roots)[:2], roots))

    def prop_split(self, F: SkewPoly, res, b0, target_k: int, pairs=None):
        """Orbit-partition split: the roots of ``res`` = res F (``pairs``,
        searched when not given) are grouped by the orbit of a base root
        under the residue map T of F's ring; the orbit part lifts as the
        left factor of F.  ``b0`` only orders the candidate bases
        (_candidates)."""
        d = F.degree
        tmap = F.ring.tmap()
        if pairs is None:
            pairs = residue_mod.roots(res).pairs
        for c1, _ in self._candidates(pairs, tmap, b0):
            part = residue_mod.orbit_partition(pairs, c1, tmap)
            j = part.j
            if 1 <= j < d:
                members = [(c, m) for c, _, m in part.members]
                return self._lift_split(F, (members, part.outsiders), target_k)
        raise NoSplittingRoot(
            f"no residue root splits the orbit partition of {res!r}")

    def t_split(self, F: SkewPoly, b0, target_k: int):
        """Terminal branch: res F = (t + b0)^d, and sigma is nontrivial, so
        g = (t + b0)^(d-1), h = t + b0 lifts to a monic linear right factor
        of F."""
        groots = [(-b0, F.degree - 1)] if F.degree > 1 else []
        return self._lift_split(F, (groots, [(-b0, 1)]), target_k)

    # -- main recursion ---------------------------------------------------------

    def factor_monic(self, f: SkewPoly, depth: int, slope=Fraction(0), pairs=None):
        """Zeros c_1..c_d with f = (t - c_1) ... (t - c_d) in F[t, sigma].

        Each level splits F1 = normalize_scaled(f, r) in its own
        coordinates.  The branch is read off res F1: with b0 = res(c_(d-1))/d,
        the residue of the trace solve b of c_(d-1), res F1 = (t + b0)^d or
        not.  If not, its roots split by orbits (prop_split).  A split
        lifts F1 = u v in F[t, sigma], and u and v recurse as they are, with
        the root lists of their residues (``pairs``, read while the child's
        r is 0, where its residue is the parent's factor) and the slope
        accumulated down to F1 (``slope``, which sizes the child's lift).
        A t-power shifted polynomial gives d equal zeros, and the classical
        round the zeros of the shifted polynomial.  The level then maps its
        zeros back to f's once (scale_back_zeros).  The series b and the
        shifted polynomial are formed only in the single-root branch of
        alpha = 1 or of an exact level, where they are read: the t-power
        test and the classical round.  A level past MAX_CLASSICAL_ITERATIONS
        nested classical rounds or MAX_RAMIFICATION raises PrecisionExhausted
        naming that budget, before it lifts anything.
        """
        ring = f.ring
        d = f.degree
        if d <= 0:
            return []
        if d == 1:
            return [-f.coeffs[0]]
        if _is_t_power(f):
            return [_t_power_zero(f) for _ in range(d)]
        if depth > MAX_CLASSICAL_ITERATIONS:
            raise PrecisionExhausted(f"classical iteration budget {MAX_CLASSICAL_ITERATIONS} exhausted")

        r = scaling_exponent(f)
        total = slope + r
        if total.denominator * ring.L > MAX_RAMIFICATION:
            raise PrecisionExhausted(f"ramification budget {MAX_RAMIFICATION} exhausted")
        F1 = normalize_scaled(f, r)
        ring1 = F1.ring
        avail = min((INF if c.trunc is None else c.trunc for c in F1.coeffs), default=INF)
        target_k = self._level_target_k(ring1.L, total, d, avail)

        res = F1.reduce_residue()
        cdm1 = F1.coeffs[d - 1]
        # b0 = res b for the trace solve b of c_(d-1): its x^0 denominator is d
        b0 = to_mpc(cdm1.residue() / d) if ring1.ord_k(cdm1) == 0 else 0
        if _orbit_case(residue_mod.substitute(res, 1, -b0)):
            parts = self.prop_split(F1, res, b0, target_k, pairs if r == 0 else None)
        else:
            # res F1 = (t + b0)^d, and b0 != 0 as some lower coefficient of
            # F1 has order 0.  So -b0 is not the fixed point 0 of T, and a
            # truncated skew level lifts the t-split to its truncation.  An
            # exact level reads the shifted series first, whose t-power test
            # finds exact zeros, and alpha = 1 runs the classical round on it
            if self.alpha.is_one or avail == INF:
                b = trace_solve(cdm1, d, self.alpha)
                F2 = _pinned_shift(F1, b)
                if _is_t_power(F2):
                    # F2 = t^d, so F1 = (t + b + O(x^zt))^d
                    return scale_back_zeros([-(b + _t_power_zero(F2))] * d, r, self.alpha)
                if self.alpha.is_one:
                    # every delta_a vanishes, so re-read the shifted
                    # polynomial in the underived ring and iterate the round
                    flat_ring = puiseux_ring(self.alpha, F2.ring.L)
                    flat = SkewPoly(flat_ring, list(F2.coeffs), trim=False)
                    ws = [w - b for w in self.factor_monic(flat, depth + 1)]
                    return scale_back_zeros(ws, r, self.alpha)
            parts = self.t_split(F1, b0, target_k)

        ws = []
        for p, rts in parts:
            ws += self.factor_monic(p, depth, total, rts)
        return scale_back_zeros(ws, r, self.alpha)


def _orbit_case(res: ResiduePoly) -> bool:
    """Some coefficient of the monic res below t^(d-1) is nonzero: the
    orbit split."""
    return any(not is_negligible(c) for c in res.coeffs[:-2])


def _pinned_shift(F1: SkewPoly, b: PuiseuxSeries) -> SkewPoly:
    """shift_iso(F1, b) with its t^(d-1) coefficient, which the trace solve
    b of c_(d-1) cancels, pinned to a zero of the same truncation.

    That coefficient, as shift_iso forms it, is c_(d-1) - sum_(i<d)
    sigma^i(b); it cancels termwise unless the trace solve dropped a term
    below the zero test."""
    F2 = shift_iso(F1, b)
    coeffs = list(F2.coeffs)
    rest = coeffs[-2]
    if not rest.is_zero and rest.max_abs() > scalar.zero_eps() * max(1, F1.max_abs()):
        raise PrecisionExhausted("shift failed to cancel the t^(d-1) coefficient")
    coeffs[-2] = PuiseuxSeries.zero(F2.ring.L, rest.trunc)
    return SkewPoly(F2.ring, coeffs, trim=False)


def _require_plain_ring(f: SkewPoly) -> PuiseuxRing:
    ring = f.ring
    if not isinstance(ring, PuiseuxRing):
        raise UsageError("factorization works over Puiseux coefficients")
    if not ring.a.is_zero:
        raise UsageError("factorization input must live in the underived ring F[t, sigma]")
    if not ring.alpha.is_real_positive:
        raise UsageError("factorization needs a positive real alpha "
                         "(complex alpha is diagnostic-only)")
    return ring


def newton_puiseux_factor(f: SkewPoly, cfg: FactorConfig | None = None) -> Factorization:
    """Factor f in F[t, sigma] into linear factors to the configured order.

    The true factors of a nice polynomial can have geometrically growing
    coefficients (skew factor pairs are often divergent series); when the
    recovered zeros show such growth, the computation is repeated once at
    a precision large enough that the re-multiplication dust stays below
    the nominal 2^(-bits) scale.  A residual still above the ``ok`` bound
    of verify_factorization at the requested precision, zero_eps() *
    max(1, |f|) at cfg.bits, raises PrecisionExhausted; the retry's own
    precision does not tighten the bound.
    """
    cfg = cfg or FactorConfig()
    bits_eff = cfg.bits
    for attempt in range(2):
        with scalar.bits(bits_eff):
            fac = _factor_once(f, cfg)
        big = max([z.max_abs() for z in fac.zeros] + [mp.mpf(1)])
        growth_bits = int(mp.ceil(mp.log(big, 2))) if big > 1 else 0
        if attempt == 0 and growth_bits > cfg.bits // 8:
            bits_eff = cfg.bits + growth_bits + 16
            continue
        break
    with scalar.bits(cfg.bits):
        bound = scalar.zero_eps() * max(1, f.max_abs())
    if not fac.residual <= bound:
        raise PrecisionExhausted(f"factorization residual {mp.nstr(fac.residual, 5)} above "
                                 f"{mp.nstr(bound, 5)}")
    return fac


def _factor_once(f: SkewPoly, cfg: FactorConfig) -> Factorization:
    ring = _require_plain_ring(f)
    if f.is_zero:
        raise UsageError("cannot factor the zero polynomial")
    engine = _Engine(ring.alpha, cfg)
    unit = None
    fm = f
    if not f.is_monic:
        lead = f.lc
        if lead.trunc is None and len(lead.terms) == 1:
            inv = lead.inverse()
        else:
            inv = lead.inverse(_unit_target_k(lead, cfg))
        fm = f.lmul_base(inv)
        coeffs = list(fm.coeffs)
        coeffs[-1] = fm.ring.one()
        fm = SkewPoly(fm.ring, coeffs, trim=False)
        unit = lead
    zeros = engine.factor_monic(fm, 0)
    report = verify_factorization(f, zeros, unit, order=cfg.target_order)
    return Factorization(zeros, unit, report["residual"], report["achieved_order"],
                         max([z.L for z in zeros] + [ring.L]))


def _unit_target_k(lead: PuiseuxSeries, cfg: FactorConfig) -> int:
    base = int(math.ceil((cfg.target_order + ORDER_MARGIN) * lead.L))
    avail = INF if lead.trunc is None else lead.trunc - 2 * lead.ord_k()
    return int(min(base, avail)) if avail != INF else base


def sigma_zero(f: SkewPoly, cfg: FactorConfig | None = None) -> PuiseuxSeries:
    """A sigma-zero of f: the constant of the rightmost linear factor."""
    if f.degree < 1:
        raise UsageError("sigma_zero needs degree >= 1")
    fac = newton_puiseux_factor(f, cfg)
    return fac.zeros[-1]


def sigma_zero_quadratic(f: SkewPoly, cfg: FactorConfig | None = None) -> PuiseuxSeries:
    """Independent quadratic oracle: solve sigma(z) z + f1 z + f0 = 0
    coefficient by coefficient at fixed ramification.

    Works for any alpha convention, including complex alpha; raises
    Obstruction(q) when the pivot alpha^q-combination vanishes but the
    forcing term does not.
    """
    cfg = cfg or FactorConfig()
    with scalar.bits(cfg.bits):
        ring = f.ring
        if not isinstance(ring, PuiseuxRing) or not ring.a.is_zero:
            raise UsageError("the quadratic oracle needs F[t, sigma] coefficients")
        if f.degree != 2 or not f.is_monic:
            raise UsageError("the quadratic oracle needs a monic quadratic")
        if f.ord_k() < 0:
            raise UsageError("the quadratic oracle needs integral coefficients")
        alpha = ring.alpha
        L = ring.L
        f0, f1 = ring.coerce(f.coeffs[0]), ring.coerce(f.coeffs[1])
        c1 = to_mpc(f1.residue())
        c0 = to_mpc(f0.residue())
        disc = mp.sqrt(c1 * c1 - 4 * c0)
        roots_ = sorted([(-c1 + disc) / 2, (-c1 - disc) / 2],
                        key=lambda w: (mp.re(w), mp.im(w)))
        z0 = roots_[0]
        K = int(math.ceil(cfg.target_order * L))
        avail = min((INF if c.trunc is None else c.trunc for c in (f0, f1)))
        if avail != INF:
            K = min(K, int(avail))
        z = PuiseuxSeries(L, {0: z0})
        eps = scalar.zero_eps()
        for k in range(1, K):
            resid = z.sigma_pow(1, alpha) * z + f1 * z + f0
            mu = to_mpc(resid.terms.get(k, 0))
            lam = z0 * scalar.mp_operand(alpha.pow(Fraction(k, L)) + 1) + c1
            if abs(to_mpc(lam)) <= eps:
                if abs(mu) <= eps:
                    continue
                raise Obstruction(Fraction(k, L), "vanishing pivot with nonzero forcing term")
            zk = -mu / to_mpc(lam)
            if abs(zk) > eps:
                z = z + PuiseuxSeries(L, {k: zk}, normalize=False)
        return z.truncate(K)


def verify_factorization(f: SkewPoly, zeros, unit=None, order=None) -> dict:
    """Re-multiply unit * (t - zeros[0]) * ... * (t - zeros[-1]) in
    F[t, sigma] and measure its deviation from f up to ``order`` (x-units;
    defaults to the shared truncation), plus the order of f at the
    rightmost zero.  ``ok`` holds when the deviation is at most
    scalar.zero_eps() * max(1, |f|)."""
    ring = _require_plain_ring(f)
    L = ring.L
    for c in zeros:
        L = L * (c.L // math.gcd(L, c.L))
    if unit is not None:
        L = L * (unit.L // math.gcd(L, unit.L))
    work = puiseux_ring(ring.alpha, L)
    prod = SkewPoly.one(work)
    for c in zeros:
        prod = prod * SkewPoly.t_minus(work, c.at_ram(L))
    if unit is not None:
        prod = prod.lmul_base(unit)
    diff = f.in_ring(work) - prod
    if order is not None:
        diff = diff.truncate(int(math.ceil(Fraction(order) * L)))
    residual = diff.max_abs()
    achieved = INF if order is None else Fraction(order)
    for c in prod.coeffs:
        if c.trunc is not None:
            achieved = min(achieved, Fraction(c.trunc, c.L))
    eval_ord = None
    if zeros:
        ev = f.evaluate(zeros[-1])
        eval_ord = ev.ord()
        if ev.trunc is not None:
            eval_ord = min(eval_ord, Fraction(ev.trunc, ev.L))
        achieved = min(achieved, eval_ord) if eval_ord != INF else achieved
    return {
        "residual": residual,
        "achieved_order": achieved,
        "eval_ord": eval_ord,
        "ok": residual <= scalar.zero_eps() * max(1, f.max_abs()),
    }
