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
  4. peel off res F1 the root (at alpha = 1, the cluster) that the rule
     below picks; when res F1 = (t + b0)^d, that is -b0, but alpha = 1 and
     exact levels first form b and the shifted polynomial F2 (in the
     delta_(-b) ring), and take d equal zeros when F2's lower coefficients
     all vanish, or run one classical Newton-Puiseux round when alpha = 1:
     so trace_solve and _pinned_shift serve only those levels.  Every lift
     runs on F1 itself;
  5. recurse on both lifted factors u and v as they are, in F1's
     coordinates, handing each the root list of its residue, and map the
     zeros w_1..w_d of F1 back to f's once: z_i = alpha^(-r(d-i)) x^(-r) w_i
     (scale_back_zeros).

The peel rule (_peel).  Let alpha_eff = alpha^(1/L); the residue map T of
F1's ring is w -> w / alpha_eff.  The skew Hensel lemma lifts res F1 =
res g res h unless a root c of res g is a twist alpha_eff^n c' (n >= 1) of
a root c' of res h (twist_coprime_affine), so one such split is needed,
not a search.  The left factor is (t - c)^e for the root c of least
modulus when alpha_eff > 1, of greatest modulus when alpha_eff < 1, and
of least real, then imaginary, part when alpha = 1; e = 1 unless T fixes
c (alpha = 1, or c = 0), when e is c's multiplicity.  The right factor
takes the other roots.  The choice certifies itself, with a margin:

  - alpha_eff > 1, c != 0: |alpha_eff^n c' - c| >= (alpha_eff - 1)|c|;
  - alpha_eff > 1, c = 0: the zero cluster goes left, alpha_eff^n c' != 0;
  - alpha_eff < 1: |c - alpha_eff^n c'| >= (1 - alpha_eff)|c|, and c != 0
    as res F1 != t^d;
  - alpha = 1: whole clusters split, so res g and res h share no root.

hensel_lift's twist check, which guards direct calls, is the only check a
peeled split meets.  The peeled factor is the left one, so a lift step
inverts k_n modulo res g = (t - c)^e.  At e = 1 a step is one pass of
evaluations at c, Horner's rule on k_n and on f_n, and when alpha != 1
the inverse is the reciprocal of the exact constant k_n(c), with no
Euclid.  A zero root peeled whole (e > 1) takes one Euclid per step; at
alpha = 1, k_n does not change with n, so the lift runs one Euclid
(hensel module docstring).

Order budget.  Let T be the target order, f = unit * (t - Z_1) ... (t - Z_d)
and V(zeta) = min_k (ord f_k + k zeta), read off f's Newton polygon once.
verify_factorization reads the product to T, so zero i is needed to

  need_i = T - ord(unit) - sum_(j != i) min(0, ord Z_j)
         = T - V(0) + min(0, ord Z_i),

and it reads f(Z_d) to T, which needs Z_d to T - ord(unit) -
sum_(j < d) min(ord Z_j, ord Z_d), at most T + zeta - V(zeta) for every
zeta <= ord Z_d.  A level sees its zeros in F1's coordinates, where a zero
of order o >= 0 has ord Z = o - total (total = slope + r, the scaling
accumulated down to F1).  It lifts F1 to what its zeros are needed to,
T - V(0) + min(total, o), or T - V(-total) when it holds Z_d, and to at
least one order past o, plus what the scalings of the levels below lose,
sum_(j != i) min(o_i, o_j) (_Engine._lift_k; cf. the truncation bounds of
D. Duval, Compositio Math. 70, 1989, and A. Poteaux, M. Rybowicz, AAECC 22,
2011).  F1's polygon gives the o, so the budget is known before the lift.
What the polygon cannot see, the separation of zeros that share a residue
root at alpha = 1 and the zeros O(x^(K/m)) of a t-power factor, the level
below finds when its data fall short of its own budget: it raises
_ShortLift to the lift above it, which lifts further, as far as its inputs
are known, and reruns its children.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from mpmath import mp

from . import residue as residue_mod
from . import scalar
from .errors import Obstruction, PrecisionExhausted, UsageError
from .hensel import hensel_lift
from .puiseux import PuiseuxSeries, _trunc_k
from .residue import ResiduePoly
from .scalar import INF, is_negligible, to_mpc
from .skewpoly import PuiseuxRing, SkewPoly, puiseux_ring
from .structure import (normalize_scaled, scale_back_zeros, scaling_exponent,
                        shift_iso, trace_solve)

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
    with the residual and achieved order of verify_factorization.  Each
    zero is known to the order at which that check reads it (need_i in the
    module docstring), or little further."""

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
    t = min(map(_trunc_k, f.coeffs[:-1]))
    return PuiseuxSeries.zero(f.ring.L, None if t == INF else max(0, -(-t // f.degree)))


def _target_k(order, L: int, avail=INF) -> int:
    """The x-order ``order`` in 1/L units, rounded up and capped at
    ``avail``, the order (1/L units) to which the inputs are known."""
    return int(min(math.ceil(order * L), avail))


class _ShortLift(Exception):
    """A level needs its data known args[0] more x-orders than the lift
    above it reached (module docstring); that lift catches it and lifts
    further."""


class _Engine:
    def __init__(self, alpha, cfg: FactorConfig, f: SkewPoly):
        """``f`` is the polynomial factored, whose Newton polygon every
        level budget reads: its points (k, ord f_k), in 1/L units of its
        ring, and base = T - V(0)."""
        self.alpha = alpha
        self.order = cfg.target_order
        ring = f.ring
        self.top = [(k, ring.ord_k(c)) for k, c in enumerate(f.coeffs) if not c.is_zero]
        self.top_L = ring.L
        self.base = self.order - self._valuation(Fraction(0))

    def _valuation(self, zeta: Fraction):
        """V(zeta) = min_k (ord f_k + k zeta) over the factored f: ord of
        its lead plus the sum of min(ord Z_j, zeta) over its zeros."""
        p, q = zeta.numerator, zeta.denominator
        return Fraction(min(v * q + k * p * self.top_L for k, v in self.top), self.top_L * q)

    def _need(self, total, o, last: bool):
        """The x-order to which a zero of order o >= 0 of a level is needed,
        in that level's coordinates (ord Z = o - total): T - V(0) +
        min(total, o) for the re-multiplied product and, when ``last``
        (the level holds the rightmost zero), T - V(-total) for f(z_last)."""
        need = self.base + min(total, o)
        if last and total > 0:
            need = max(need, self.order - self._valuation(-total))
        return need

    def _lift_k(self, F1: SkewPoly, total, last: bool) -> int:
        """The order, in 1/L units of its ring, to which a level lifts
        F1 = normalize_scaled(f, r), ``total`` = slope + r: what its zeros
        are needed to plus what the scalings below them lose.

        F1's Newton polygon, read once on integers, gives the orders o >= 0
        of its zeros: h of them lie below its first vertex (h, v), the
        others sum to v, and the largest of those, o_max, is the slope of
        its first edge.  A zero of order o is needed to _need(total, o) and
        to at least one order (1/L) past o itself, and the scalings below
        it lose sum_(j != i) min(o, o_j).  Each part grows with o, so the
        zero of order o_max sets the budget: its need plus v + (h - 1) o_max.
        A zero below the first vertex reads o = inf in _need.
        """
        ring = F1.ring
        pts = [(i, ring.ord_k(c)) for i, c in enumerate(F1.coeffs) if not c.is_zero]
        h, v = pts[0]
        num, den = max(((v - w, k - h) for k, w in pts[1:]), key=lambda p: p[0] / p[1])
        o = Fraction(num, den * ring.L)
        need = max(self._need(total, INF if h else o, last), o + Fraction(1, ring.L))
        return math.ceil((need + (h - 1) * o) * ring.L) + v

    def _power_zero(self, F: SkewPoly, o, total, last: bool, grow: bool):
        """_t_power_zero(F), for zeros of order o; one short of _need raises
        _ShortLift when ``grow``, for d times the shortfall."""
        zero = _t_power_zero(F)
        if grow and zero.trunc is not None:
            short = self._need(total, o, last) - Fraction(zero.trunc, zero.L)
            if short > 0:
                raise _ShortLift(F.degree * short)
        return zero

    # -- splitting ------------------------------------------------------------

    def _lift_split(self, F: SkewPoly, roots, target_k: int):
        """Lift res F = res u res v, each factor the product of its
        (root, multiplicity) list in ``roots`` (ResiduePoly.from_roots), to
        F = u v; returns the pairs (u, its roots), (v, its roots)."""
        ring = F.ring
        u, v = (SkewPoly(ring, [ring.from_scalar(c) for c in ResiduePoly.from_roots(rs).coeffs])
                for rs in roots)
        return list(zip(hensel_lift(F, u, v, target_k, roots=roots)[:2], roots))

    # -- main recursion ---------------------------------------------------------

    def factor_monic(self, f: SkewPoly, depth: int, slope=Fraction(0), pairs=None,
                     last=True, grow=False):
        """Zeros c_1..c_d with f = (t - c_1) ... (t - c_d) in F[t, sigma].

        Each level splits F1 = normalize_scaled(f, r) in its own
        coordinates.  The peel rule (module docstring) splits the roots of
        res F1, or its one root -b0 (b0 = res(c_(d-1))/d, the residue of the
        trace solve b of c_(d-1)) when res F1 = (t + b0)^d.  A split lifts
        F1 = u v in F[t, sigma], and u and v recurse as they are, with the
        root lists of their residues (``pairs``, read while the child's r is
        0, where its residue is the parent's factor) and the slope
        accumulated down to F1 (``slope``, which sizes the child's lift).
        The series b and the shifted polynomial are formed only in the
        one-root branch of alpha = 1 or of an exact level: a t-power shifted
        polynomial gives d equal zeros, and the classical round the zeros of
        the shifted polynomial.  The level then maps its zeros back to f's
        once (scale_back_zeros).  A level past MAX_CLASSICAL_ITERATIONS
        nested classical rounds or MAX_RAMIFICATION raises PrecisionExhausted
        naming that budget, before it lifts anything.

        A split lifts to the level's order budget (_lift_k, module
        docstring), not further: ``last`` says that f holds the rightmost
        zero, whose f(z) the check reads, and ``grow`` that the lift above
        can reach further.  Then a level whose data fall short of its
        budget, or a t-power whose zeros fall short of their need, raises
        _ShortLift, and the lift above raises its order by the shortfall
        and reruns its children.
        """
        ring = f.ring
        d = f.degree
        if d <= 0:
            return []
        if d == 1:
            return [-f.coeffs[0]]
        if _is_t_power(f):
            return [self._power_zero(f, INF, slope, last, grow)] * d
        if depth > MAX_CLASSICAL_ITERATIONS:
            raise PrecisionExhausted(f"classical iteration budget {MAX_CLASSICAL_ITERATIONS} exhausted")

        r = scaling_exponent(f)
        total = slope + r
        if total.denominator * ring.L > MAX_RAMIFICATION:
            raise PrecisionExhausted(f"ramification budget {MAX_RAMIFICATION} exhausted")
        F1 = normalize_scaled(f, r)
        ring1 = F1.ring
        avail = min(map(_trunc_k, F1.coeffs))
        budget = self._lift_k(F1, total, last)
        if grow and budget > avail:
            raise _ShortLift(Fraction(budget - avail, ring1.L))
        target_k = min(budget, avail)
        if target_k < 1:
            raise PrecisionExhausted("no series precision left for lifting")

        res = F1.reduce_residue()
        cdm1 = F1.coeffs[d - 1]
        # b0 = res b for the trace solve b of c_(d-1): its x^0 denominator is d
        b0 = to_mpc(cdm1.residue() / d) if ring1.ord_k(cdm1) == 0 else 0
        if _several_roots(residue_mod.substitute(res, 1, -b0)):
            res_roots = (pairs if r == 0 else None) or residue_mod.roots(res).pairs
        else:
            # res F1 = (t + b0)^d, with b0 != 0 as some lower coefficient
            # of F1 has order 0.  An exact level reads the shifted series
            # first, whose t-power test finds exact zeros, and alpha = 1
            # runs the classical round on it
            if self.alpha.is_one or avail == INF:
                b = trace_solve(cdm1, d, self.alpha)
                F2 = _pinned_shift(F1, b)
                if _is_t_power(F2):
                    # F2 = t^d, so F1 = (t + b + O(x^zt))^d
                    zero = self._power_zero(F2, 0, total, last, grow)
                    return scale_back_zeros([-(b + zero)] * d, r, self.alpha)
                if self.alpha.is_one:
                    # every delta_a vanishes, so re-read the shifted
                    # polynomial in the underived ring and iterate the round
                    flat_ring = puiseux_ring(self.alpha, F2.ring.L)
                    flat = SkewPoly(flat_ring, list(F2.coeffs), trim=False)
                    ws = self.factor_monic(flat, depth + 1, total, None, last, grow)
                    return scale_back_zeros([w - b for w in ws], r, self.alpha)
            res_roots = [(-b0, d)]
        sides = _peel(res_roots, ring1.tmap())

        while True:
            try:
                ws, parts = [], self._lift_split(F1, sides, target_k)
                for i, (p, rts) in enumerate(parts, 1):
                    ws += self.factor_monic(p, depth, total, rts, last and i == len(parts),
                                            target_k < avail)
                return scale_back_zeros(ws, r, self.alpha)
            except _ShortLift as short:
                # a level below needs more than this lift reached
                want = target_k + math.ceil(short.args[0] * ring1.L)
                if grow and want > avail:
                    raise _ShortLift(Fraction(want - avail, ring1.L)) from None
                target_k = min(want, avail)


def _several_roots(res: ResiduePoly) -> bool:
    """Some coefficient of the monic res below t^(d-1) is nonzero: res F1,
    shifted so that its roots sum to zero, has more than one root."""
    return any(not is_negligible(c) for c in res.coeffs[:-2])


def _peel(pairs, tmap):
    """The peel rule (module docstring) on the (root, multiplicity) list
    ``pairs``: the lists ([(c, e)], the other roots).  Keys within
    cluster_tol() (relative) tie, and ties go to the smaller real, then
    imaginary, part, so the last bits of the root search never decide."""
    tol = scalar.cluster_tol()
    sign = 0 if tmap.is_identity else (1 if to_mpc(tmap.alpha_eff()).real > 1 else -1)

    keys = [(sign * abs(c), mp.re(c), mp.im(c)) for c, _ in pairs]

    def before(u, w):
        for a, b in zip(keys[u], keys[w]):
            if abs(a - b) > tol * max(1, abs(a), abs(b)):
                return a < b
        return False

    i = reduce(lambda u, w: w if before(w, u) else u, range(len(pairs)))
    c, m = pairs[i]
    e = m if tmap.is_identity or abs(c) <= tol else 1
    return [(c, e)], pairs[:i] + pairs[i + 1:] + ([(c, m - e)] if m > e else [])


def _pinned_shift(F1: SkewPoly, b: PuiseuxSeries) -> SkewPoly:
    """shift_iso(F1, b) with its t^(d-1) coefficient, which the trace solve
    b of c_(d-1) cancels, pinned to a zero of the same truncation.

    That coefficient, as shift_iso forms it, is c_(d-1) - sum_(i<d)
    sigma^i(b); it cancels termwise unless the trace solve dropped a term
    below the zero test."""
    F2 = shift_iso(F1, b)
    coeffs = list(F2.coeffs)
    rest = coeffs[-2]
    if not rest.is_zero and rest.max_abs() > scalar.noise(F1.max_abs()):
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
    of verify_factorization at the requested precision, noise(|f|) at
    cfg.bits, raises PrecisionExhausted; the retry's own precision does not
    tighten the bound.
    """
    cfg = cfg or FactorConfig()
    bits_eff = cfg.bits
    for attempt in range(2):
        with scalar.bits(bits_eff):
            zeros, unit = _factor_once(f, cfg)
        big = max([z.max_abs() for z in zeros] + [mp.mpf(1)])
        growth_bits = int(mp.ceil(mp.log(big, 2))) if big > 1 else 0
        if attempt == 0 and growth_bits > cfg.bits // 8:
            bits_eff = cfg.bits + growth_bits + 16
            continue
        break
    with scalar.bits(bits_eff):
        report = verify_factorization(f, zeros, unit, order=cfg.target_order)
    fac = Factorization(zeros, unit, report["residual"], report["achieved_order"],
                        math.lcm(f.ring.L, *(z.L for z in zeros)))
    with scalar.bits(cfg.bits):
        bound = scalar.noise(f.max_abs())
    if not fac.residual <= bound:
        raise PrecisionExhausted(f"factorization residual {mp.nstr(fac.residual, 5)} above "
                                 f"{mp.nstr(bound, 5)}")
    return fac


def _factor_once(f: SkewPoly, cfg: FactorConfig):
    """(zeros, unit) of f at the working precision, not yet verified."""
    ring = _require_plain_ring(f)
    if f.is_zero:
        raise UsageError("cannot factor the zero polynomial")
    engine = _Engine(ring.alpha, cfg, f)
    unit = None
    fm = f
    if not f.is_monic:
        unit = lead = f.lc
        m = lead.ord_k()
        # the inverse of the lead's leading monomial gives fm its Newton
        # polygon.  A lead that is no exact monomial is then inverted to the
        # relative order to which the top level lifts fm's F1 (the zeros of
        # a t-power and of a constant do not read it)
        fm = _monic(f, PuiseuxSeries(lead.L, {m: lead.terms[m]}).inverse())
        exact = lead.trunc is None and len(lead.terms) == 1
        if not exact and fm.degree > 0 and not _is_t_power(fm):
            r = scaling_exponent(fm)
            F1 = normalize_scaled(fm, r)
            rel = Fraction(engine._lift_k(F1, r, True), F1.ring.L)
            avail = _trunc_k(lead) - 2 * m
            fm = _monic(f, lead.inverse(_target_k(rel - lead.ord(), lead.L, avail)))
    return engine.factor_monic(fm, 0), unit


def _monic(f: SkewPoly, inv: PuiseuxSeries) -> SkewPoly:
    """inv * f with its leading coefficient set to an exact one."""
    fm = f.lmul_base(inv)
    return SkewPoly(fm.ring, fm.coeffs[:-1] + [fm.ring.one()], trim=False)


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
        K = _target_k(cfg.target_order, L, min(map(_trunc_k, (f0, f1))))
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
    scalar.noise(|f|)."""
    ring = _require_plain_ring(f)
    L = math.lcm(ring.L, *(c.L for c in zeros), 1 if unit is None else unit.L)
    work = puiseux_ring(ring.alpha, L)
    prod = SkewPoly.one(work)
    for i, c in enumerate(zeros):
        # the product starts at t - z_1 itself, not at the product 1 * (t - z_1)
        lin = SkewPoly.t_minus(work, c.at_ram(L))
        prod = prod * lin if i else lin
    if unit is not None:
        prod = prod.lmul_base(unit)
    diff = f.in_ring(work) - prod
    known = min(map(_trunc_k, prod.coeffs))
    achieved = INF if known == INF else Fraction(known, L)
    if order is not None:
        achieved = min(Fraction(order), achieved)
        diff = diff.truncate(_target_k(Fraction(order), L))
    residual = diff.max_abs()
    eval_ord = None
    if zeros:
        eval_ord = f.evaluate(zeros[-1]).ord()
        achieved = min(achieved, eval_ord)
    return {
        "residual": residual,
        "achieved_order": achieved,
        "eval_ord": eval_ord,
        "ok": residual <= scalar.noise(f.max_abs()),
    }
