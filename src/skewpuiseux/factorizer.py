"""Factorization of monic skew polynomials over Puiseux series into linear
factors, and sigma-zero extraction.

Each recursion level works on a monic polynomial in the underived ring
F[t, sigma] and runs the reduction pipeline:

  1. t^d short-circuit;
  2. scale by x^(-r) and normalize monic, making all coefficient orders
     >= 0 with equality somewhere;
  3. if the t^(d-1) coefficient has order 0, kill it: solve the trace
     equation for b and shift t -> t - b (landing in the delta_(-b) ring);
  4. split: orbit-partition splitting when some lower coefficient has
     order 0, the (t^(d-1), t) lift when everything else vanishes mod x
     and sigma is nontrivial, or one classical Newton-Puiseux round when
     alpha = 1;
  5. pull the right factor back to F[t, sigma], re-monicize, divide it out
     and recurse on both parts.

Splitting candidates are certified directly: a residue root is accepted as
orbit base as soon as its orbit captures some but not all roots, which is
exactly the lifting precondition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from . import residue as residue_mod
from . import scalar
from .errors import (NoSplittingRoot, Obstruction, PrecisionExhausted,
                     UsageError)
from .hensel import hensel_lift
from .puiseux import PuiseuxSeries
from .residue import ResiduePoly
from .scalar import INF, to_mpc
from .skewpoly import PuiseuxRing, SkewPoly, puiseux_ring
from .structure import (IsoRecord, normalize_scaled, scale_back_monic,
                        scaling_exponent, shift_iso, trace_solve)


@dataclass
class FactorConfig:
    target_order: Fraction = Fraction(16)
    bits: int = 128
    max_ramification: int = 256
    max_classical_iterations: int = 64
    order_margin: int = 4
    root_tol: object = None    # None: 2^(-P/3)
    orbit_tol: object = None   # None: 2^(-P/3)

    def __post_init__(self):
        self.target_order = Fraction(self.target_order)


@dataclass
class Factorization:
    """f = unit * (t - zeros[0]) * (t - zeros[1]) * ... * (t - zeros[-1])."""

    zeros: list
    unit: PuiseuxSeries | None
    residual: object
    achieved_order: object
    ramification: int
    iso_trail: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def _is_t_power(f: SkewPoly) -> bool:
    return all(c.is_zero for c in f.coeffs[:-1])


def _sub_lead_trunc(f: SkewPoly):
    ts = [c.trunc for c in f.coeffs[:-1] if c.trunc is not None]
    return min(ts) if ts else None


class _Engine:
    def __init__(self, alpha, cfg: FactorConfig):
        self.alpha = alpha
        self.cfg = cfg
        self.trail: list = []
        self.warnings: list = []

    # -- helpers -------------------------------------------------------------

    def _orbit_tol(self):
        return self.cfg.orbit_tol if self.cfg.orbit_tol is not None else residue_mod.cluster_tol()

    def _level_target_k(self, L: int, r: Fraction, d: int, avail) -> int:
        margin = Fraction(math.ceil(abs(r) * d) + self.cfg.order_margin)
        n = int(math.ceil((self.cfg.target_order + margin) * L))
        if avail != INF:
            n = min(n, int(avail))
        if n < 1:
            raise PrecisionExhausted("no series precision left for lifting")
        return n

    def _budget_zeros(self, f: SkewPoly, why: str):
        """Partial result: zeros known only as O(x^T), where T comes from
        the Newton data (every zero order is >= -r); the shift/scale
        pullbacks then reattach the expansion accumulated so far."""
        self.warnings.append(why)
        L = f.ring.L
        t = 0
        try:
            r = scaling_exponent(f)
            if r is not None and r < 0:
                t = int(math.ceil(-r * L))
        except PrecisionExhausted:
            pass
        return [PuiseuxSeries.zero(L, t) for _ in range(f.degree)]

    def _candidates(self, rts, tmap):
        """Residue roots in trial order.

        Every orbit of the affine map T accumulates at its fixed point
        -a0; an outsider root close to the fixed point makes the twisted
        coprimality margins decay and the Bezout cofactors blow up.  So
        roots nearest the fixed point are tried as orbit base first,
        keeping them on the lifted-together side.  The Delta-set
        certificate (nonreal or wrong-signed c/a0) breaks ties.  An
        identity T has no fixed point to approach; there the distance key
        is left out, as for branch pairs +-v its last bit alone would
        decide the order.
        """
        tol = self._orbit_tol()
        a0 = tmap.a0
        aeff = to_mpc(tmap.alpha_eff()).real
        scored = []
        for c, mult in rts:
            if abs(a0) <= tol:
                certified = abs(c) > tol
            else:
                ratio = c / a0
                if abs(mp.im(ratio)) > tol * (1 + abs(ratio)):
                    certified = True
                elif aeff > 1:
                    certified = mp.re(ratio) < -tol
                elif aeff < 1:
                    certified = mp.re(ratio) > tol
                else:
                    certified = abs(c) > tol
            scored.append((abs(c + a0), 0 if certified else 1,
                           mp.re(c), mp.im(c), (c, mult)))
        first = 1 if tmap.is_identity else 0
        scored.sort(key=lambda s: s[first:4])
        return [s[4] for s in scored]

    # -- splitting ------------------------------------------------------------

    def prop_split(self, F: SkewPoly, target_k: int):
        """Orbit-partition split: residue roots are grouped by the T-orbit
        of a base root; the orbit part lifts as the left factor."""
        ring = F.ring
        d = F.degree
        tol = self._orbit_tol()
        res = F.reduce_residue()
        rts = residue_mod.roots(res, self.cfg.root_tol)
        tmap = ring.tmap()
        for c1, _ in self._candidates(rts.pairs, tmap):
            part = residue_mod.orbit_partition(rts.pairs, c1, tmap, tol)
            j = part.j
            if 1 <= j < d:
                members = [(c, m) for c, _, m in part.members]
                ubar = ResiduePoly.from_roots(members)
                vbar = ResiduePoly.from_roots(part.outsiders)
                ubar, vbar = residue_mod.refine_factor_pair(res, ubar, vbar)
                u = SkewPoly(ring, [ring.from_scalar(c) for c in ubar.coeffs])
                v = SkewPoly(ring, [ring.from_scalar(c) for c in vbar.coeffs])
                uh, vh, _ = hensel_lift(F, u, v, target_k,
                                        roots=(members, part.outsiders))
                return uh, vh
        raise NoSplittingRoot(
            f"no residue root splits the orbit partition of {res!r}")

    def t_split(self, F: SkewPoly, target_k: int):
        """Terminal branch: all lower coefficients vanish mod x, so
        g = t^(d-1), h = t lifts to a monic linear right factor."""
        ring = F.ring
        d = F.degree
        g = SkewPoly.t_pow(ring, d - 1)
        h = SkewPoly.t_pow(ring, 1)
        groots = [(0, d - 1)] if d > 1 else []
        uh, vh, _ = hensel_lift(F, g, h, target_k, roots=(groots, [(0, 1)]))
        return uh, vh

    def factor_step(self, F: SkewPoly, target_k: int):
        """Dispatch on a normalized integral polynomial (min coefficient
        order 0 unless everything vanishes mod x; t^(d-1) coefficient of
        positive order).  Returns ("split", u, v) or ("classical", None)."""
        d = F.degree
        ring = F.ring
        sub = F.coeffs[:d]
        if any(ring.ord_k(c) == 0 for c in sub[: d - 1]) or ring.ord_k(F.coeffs[d - 1]) == 0:
            if ring.ord_k(F.coeffs[d - 1]) == 0:
                raise UsageError("factor_step needs ord(f_(d-1)) > 0; shift first")
            return ("split", *self.prop_split(F, target_k))
        if self.alpha.is_one:
            return ("classical", None, None)
        return ("split", *self.t_split(F, target_k))

    # -- main recursion ---------------------------------------------------------

    def factor_monic(self, f: SkewPoly, depth: int):
        """Zeros c_1..c_d with f = (t - c_1) ... (t - c_d) in F[t, sigma]."""
        ring = f.ring
        d = f.degree
        if d <= 0:
            return []
        if d == 1:
            return [-f.coeffs[0]]
        if _is_t_power(f):
            t = _sub_lead_trunc(f)
            zt = None if t is None else max(0, -(-int(t) // d))
            return [PuiseuxSeries.zero(ring.L, zt) for _ in range(d)]
        if depth > self.cfg.max_classical_iterations:
            return self._budget_zeros(f, f"classical iteration budget {self.cfg.max_classical_iterations} exhausted")

        r = scaling_exponent(f)
        if r.denominator * ring.L > self.cfg.max_ramification:
            return self._budget_zeros(f, f"ramification budget {self.cfg.max_ramification} exhausted")
        F1, records = normalize_scaled(f, r)
        self.trail.extend(records)
        ring1 = F1.ring
        avail = min((INF if c.trunc is None else c.trunc for c in F1.coeffs), default=INF)
        target_k = self._level_target_k(ring1.L, r, d, avail)

        b = None
        F2 = F1
        if ring1.ord_k(F1.coeffs[d - 1]) == 0:
            b = trace_solve(F1.coeffs[d - 1], d, self.alpha)
            F2 = shift_iso(F1, b)
            self.trail.append(IsoRecord("shift", (str(b),)))
            # the trace cancellation is exact coefficient-wise; pin it
            cdm1 = F2.coeffs[d - 1]
            if not cdm1.is_zero:
                if cdm1.max_abs() > scalar.zero_eps() * max(1, F2.max_abs()):
                    raise PrecisionExhausted("shift failed to cancel the t^(d-1) coefficient")
            coeffs = list(F2.coeffs)
            coeffs[d - 1] = PuiseuxSeries.zero(F2.ring.L, cdm1.trunc)
            F2 = SkewPoly(F2.ring, coeffs, trim=False)

        if _is_t_power(F2):
            uh = SkewPoly.t_pow(F2.ring, d - 1)
            vh = SkewPoly.t_pow(F2.ring, 1)
            t = _sub_lead_trunc(F2)
            if t is not None:
                zt = max(0, -(-int(t) // d))
                vh = SkewPoly(F2.ring, [PuiseuxSeries.zero(F2.ring.L, zt), F2.ring.one()],
                              trim=False)
        else:
            kind, uh, vh = self.factor_step(F2, target_k)
            if kind == "classical":
                # alpha = 1: every delta_a vanishes, so re-read the shifted
                # polynomial in the underived ring and iterate the round
                flat_ring = puiseux_ring(self.alpha, F2.ring.L)
                flat = SkewPoly(flat_ring, list(F2.coeffs), trim=False)
                zsub = self.factor_monic(flat, depth + 1)
                xr = PuiseuxSeries.x_pow(-r) if r != 0 else None
                out = []
                for z in zsub:
                    if b is not None:
                        z = z - b
                    if xr is not None:
                        z = xr * z
                    out.append(z)
                return out

        if b is not None:
            uh = shift_iso(uh, -b)
            vh = shift_iso(vh, -b)
        vt = scale_back_monic(vh, r)
        quo, rem = f.left_divmod(vt)
        remdev = rem.max_abs()
        if remdev > mp.mpf(2) ** -(mp.prec // 4):
            self.warnings.append(f"factor pullback residual {remdev}")
        left = self.factor_monic(quo, depth)
        right = self.factor_monic(vt, depth)
        return left + right


def factor_step(f: SkewPoly, cfg: FactorConfig | None = None, target_k=None):
    """One splitting step on a normalized integral monic polynomial.

    Expects the pipeline's post-shift shape (t^(d-1) coefficient of
    positive order).  Returns ("split", u_hat, v_hat) with f = u_hat v_hat
    to the working order, or ("classical", None, None) when alpha = 1 and
    only a rescaling round can make progress.
    """
    cfg = cfg or FactorConfig()
    ring = f.ring
    if not isinstance(ring, PuiseuxRing):
        raise UsageError("factor_step works over Puiseux coefficients")
    engine = _Engine(ring.alpha, cfg)
    if target_k is None:
        target_k = engine._level_target_k(ring.L, Fraction(0), f.degree, INF)
    return engine.factor_step(f, target_k)


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
    the nominal 2^(-bits) scale.
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
        return fac
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
        engine.trail.append(IsoRecord("unit_extract", (str(lead),)))
    zeros = engine.factor_monic(fm, 0)
    fac = Factorization(
        zeros=zeros,
        unit=unit,
        residual=mp.mpf(0),
        achieved_order=cfg.target_order,
        ramification=max([z.L for z in zeros] + [ring.L]),
        iso_trail=engine.trail,
        warnings=engine.warnings,
    )
    report = verify_factorization(f, fac, order=cfg.target_order)
    fac.residual = report["residual"]
    fac.achieved_order = report["achieved_order"]
    return fac


def _unit_target_k(lead: PuiseuxSeries, cfg: FactorConfig) -> int:
    base = int(math.ceil((cfg.target_order + cfg.order_margin) * lead.L))
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
            lam = z0 * (alpha.pow(Fraction(k, L)) + 1) + c1
            if abs(to_mpc(lam)) <= eps:
                if abs(mu) <= eps:
                    continue
                raise Obstruction(Fraction(k, L), "vanishing pivot with nonzero forcing term")
            zk = -mu / to_mpc(lam)
            if abs(zk) > eps:
                z = z + PuiseuxSeries(L, {k: zk}, normalize=False)
        return z.truncate(K)


def verify_factorization(f: SkewPoly, fac: Factorization, tol=None,
                         order=None) -> dict:
    """Re-multiply the factors in F[t, sigma] and measure the deviation up
    to ``order`` (x-units; defaults to the shared truncation), plus the
    order of f at the rightmost zero."""
    ring = _require_plain_ring(f)
    L = ring.L
    for c in fac.zeros:
        L = L * (c.L // math.gcd(L, c.L))
    if fac.unit is not None:
        L = L * (fac.unit.L // math.gcd(L, fac.unit.L))
    work = puiseux_ring(ring.alpha, L)
    prod = SkewPoly.one(work)
    for c in fac.zeros:
        prod = prod * SkewPoly.t_minus(work, c.at_ram(L))
    if fac.unit is not None:
        prod = prod.lmul_base(fac.unit)
    diff = f.in_ring(work) - prod
    if order is not None:
        diff = diff.truncate(int(math.ceil(Fraction(order) * L)))
    residual = diff.max_abs()
    achieved = INF if order is None else Fraction(order)
    for c in prod.coeffs:
        if c.trunc is not None:
            achieved = min(achieved, Fraction(c.trunc, c.L))
    eval_ord = None
    if fac.zeros:
        ev = f.evaluate(fac.zeros[-1])
        eval_ord = ev.ord()
        if ev.trunc is not None:
            eval_ord = min(eval_ord, Fraction(ev.trunc, ev.L))
        achieved = min(achieved, eval_ord) if eval_ord != INF else achieved
    ok = tol is None or residual <= tol
    return {
        "residual": residual,
        "achieved_order": achieved,
        "eval_ord": eval_ord,
        "ok": ok,
    }
