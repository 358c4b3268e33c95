"""Skew Hensel lifting, generic over the base-ring contract.

Given monic f and a residue-level factorization res(f) = res(g)*res(h)
whose left factor is coprime to every uniformizer-twist of the right one,
the loop constructs corrections p_n, q_n of bounded degree so that
g_n = g + sum p_k x^k and h_n = h + sum q_k x^k satisfy
ord(f - g_n h_n) >= n+1 after each step:

  defect           = f - g h                    (order >= n)
  f_n              with defect = f_n x^n;  its residue is the n-twist of
                    the coefficient-of-x^n slice of the defect
  step equation    p_n k_n + res(g) q_n = f_n,  k_n = twist_n(res(h)),
                    deg p_n < m = deg g,  deg q_n < d - m

The step equation is solved in the quotient algebra C[t]/(res g), of
dimension m (von zur Gathen & Gerhard, Modern Computer Algebra, 15.4):

  reduce           k_n mod res(g), with the tolerance-aware remainder of
                    ext_gcd, so a near-common root collapses it and raises
                    TwistCoprimeFailure(n, gcd)
  inverse          b_n = k_n^(-1) mod res(g) by ext_gcd of res(g) and the
                    reduced k_n; memoized per lift by k_n
  p_n              = b_n f_n mod res(g)
  q_n              = (f_n - p_n k_n) / res(g), an exact division whose
                    remainder is cancellation dust (SkewError above
                    2^(-P/4) of the running scale)

Corrections are lifted residue polynomials, which is exactly what the
order-increase argument consumes.  The defect is updated incrementally:
with P = p_n x^n and Q = q_n x^n,

  f - (g + P)(h + Q) = defect - (sum_i P_i t^i (h + Q) + sum_j g_j t^j Q),

where the rows t^i h (i < deg g) are kept in a table and each step adds
t^i Q to them, so t^i h is never re-derived through sigma and delta.  The
coefficients of t^j Q are few-term series (order >= n), which keeps every
product short.  The defect and the table are truncated at the target
order: a step at order n reads only the x^n slice, and n < target.

Before the loop, twist_precheck decides coprimality with every twist at
once, over Puiseux series from the T-orbits of residue roots.  A caller
that holds those roots (the orbit split; the t-split's g = t^(d-1), h = t)
passes them as ``roots=`` so they are not searched for again.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from . import residue as residue_mod
from . import scalar
from .errors import (PrecisionExhausted, SkewError, TwistCoprimeFailure,
                     UsageError)
from .scalar import INF
from .skewpoly import SkewPoly


@dataclass
class HenselState:
    """Snapshot after one correction step (for invariant checks)."""

    n: int
    g_cur: SkewPoly
    h_cur: SkewPoly
    defect: SkewPoly


def _lift(ring, rp: residue_mod.ResiduePoly) -> SkewPoly:
    return SkewPoly(ring, [ring.from_scalar(c) for c in rp.coeffs])


def _defect_slice(defect, n: int) -> residue_mod.ResiduePoly:
    """Residue polynomial made of each coefficient's x^n term."""
    return residue_mod.ResiduePoly(
        [scalar.to_mpc(c.terms.get(n, 0)) for c in defect])


def _truncate(coeffs, target_k: int) -> list:
    return [c.truncate(target_k) for c in coeffs]


def _ord(ring, coeffs):
    """Least coefficient order; a zero coefficient known only to O(x^k)
    reports k, so the minimum is INF only for an exactly zero list."""
    return min((ring.ord_k(c) for c in coeffs), default=INF)


def _add_rows(ring, row, other) -> list:
    return [ring.add(c, other[k]) if k < len(other) else c
            for k, c in enumerate(row)]


def _add_scaled(ring, acc, c, row, target_k: int):
    """acc += c * row (c a base element, row a coefficient list), keeping
    only what lies below x^target_k."""
    oc = ring.ord_k(c)
    for k, r in enumerate(row):
        orr = ring.ord_k(r)
        if oc + orr >= target_k:
            continue
        acc[k] = ring.add(acc[k], ring.mul(c.truncate(target_k - orr),
                                           r.truncate(target_k - oc)))


def _solve_step(n: int, gres, kn, fn, inverses: dict, floor, dust_bound):
    """Solve p kn + gres q = fn with deg p < deg gres, in C[t]/(gres).

    kn = phi^n(res h) is reduced mod gres (tolerance-aware remainder, so a
    near-common root collapses it), and b = kn^(-1) mod gres comes from
    ext_gcd(gres, kn mod gres), memoized in ``inverses`` by kn's
    coefficients; a non-constant gcd raises TwistCoprimeFailure(n, gcd).
    Then p = b fn mod gres and q = (fn - p kn) / gres by exact division of
    coefficient lists (gres is monic), so deg q < d - deg gres whenever
    deg fn < d = deg gres + deg kn.  The division's remainder is
    cancellation dust; above ``dust_bound`` it raises SkewError.  Returns
    (p, q, b) as ResiduePolys.
    """
    key = tuple(kn.coeffs)
    inv = inverses.get(key)
    if inv is None:
        _, kn_mod = kn.divmod(gres, tol=residue_mod.gcd_tol())
        one, _, b, _ = residue_mod.ext_gcd(gres, kn_mod)
        inv = inverses[key] = (one, b)
    one, b = inv
    if one.degree != 0:
        raise TwistCoprimeFailure(n, one)
    _, p = (b * fn).divmod(gres, tol=floor)
    g = gres.coeffs
    m = len(g) - 1
    r = list(fn.coeffs)
    r += [mp.mpc(0)] * (len(p.coeffs) + len(kn.coeffs) - 1 - len(r))
    for i, a in enumerate(p.coeffs):
        for j, c in enumerate(kn.coeffs):
            r[i + j] -= a * c
    q = [None] * max(0, len(r) - m)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + m]
        for j in range(m):
            r[k + j] -= c * g[j]
    dust = max((abs(c) for c in r[:m]), default=0)
    if dust > dust_bound:
        raise SkewError(f"hensel correction degree overflow ({dust})")
    return p, residue_mod.ResiduePoly(q, trim=False), b


def twist_precheck(g: SkewPoly, h: SkewPoly, tol=None, *, roots=None):
    """Raise TwistCoprimeFailure if res(g) is not coprime to the n-twisted
    res(h) for some n >= 1.  ``roots``, the (root, multiplicity) lists of
    res g and res h, spares the base ring its own root search."""
    fail = g.ring.twist_coprime(g.reduce_residue(), h.reduce_residue(), tol,
                                roots=roots)
    if fail is not None:
        n, witness = fail
        raise TwistCoprimeFailure(n, witness)


def hensel_lift(f: SkewPoly, g: SkewPoly, h: SkewPoly, target_k: int,
                on_state=None, *, roots=None):
    """Lift res(f) = res(g) res(h) to f = g_hat h_hat + O(x^target_k).

    Returns (g_hat, h_hat, achieved_order_k), where achieved_order_k is
    the least order of the final defect f - g_hat h_hat, a coefficient
    known only to O(x^k) counting as k; it is INF only for an exactly zero
    defect.  ``on_state`` receives a HenselState after every correction
    step.  ``roots``, the (root, multiplicity) lists of res g and res h if
    the caller holds them, goes to twist_precheck.
    """
    ring = f.ring.unify(g.ring).unify(h.ring)
    f = f.in_ring(ring)
    g = g.in_ring(ring)
    h = h.in_ring(ring)
    if not (f.is_monic and g.is_monic and h.is_monic):
        raise UsageError("hensel_lift needs monic f, g, h")
    d, m = f.degree, g.degree
    if h.degree != d - m:
        raise UsageError("degree mismatch: deg f != deg g + deg h")
    if f.ord_k() < 0 or g.ord_k() < 0 or h.ord_k() < 0:
        raise UsageError("hensel_lift needs integral coefficients")
    avail = min((INF if c.trunc is None else c.trunc for c in f.coeffs), default=INF)
    if avail < target_k:
        raise PrecisionExhausted(
            f"f is only known to order {avail} < requested {target_k}")

    gres = g.reduce_residue()
    hres = h.reduce_residue()
    fres = f.reduce_residue()
    mismatch = (fres - gres * hres).max_abs()
    if mismatch > mp.mpf(2) ** -(mp.prec // 4):
        raise UsageError(f"res(f) != res(g)res(h) (deviation {mismatch})")

    twist_precheck(g, h, roots=roots)

    # sigma and delta keep x-adic orders, so nothing at or above target_k
    # ever reaches a slice below it
    gh = g * h
    defect = _truncate([ring.sub(f.coeffs[i], gh.coeffs[i]) for i in range(d)],
                       target_k)
    th = [_truncate(h.coeffs, target_k)]  # th[i] = t^i h_cur
    for _ in range(1, m):
        th.append(_truncate(SkewPoly._t_mul_in(ring, th[-1]), target_k))
    g_cur, h_cur = g, h
    # corrections can grow with n (the true factors may have geometrically
    # growing coefficients); cancellation dust is judged against this scale
    scale = max(mp.mpf(1), f.max_abs())
    floor = mp.mpf(2) ** -(mp.prec - 24)
    dust_tol = mp.mpf(2) ** -(mp.prec // 4)
    # b_n depends on n only through k_n: one inverse serves every step when
    # the twist is the identity (alpha = 1), two when it has period 2
    # (C[[x, rho]])
    inverses = {}
    o = _ord(ring, defect)
    while o < target_k:
        n = int(o)
        if n < 1:
            raise SkewError("hensel invariant violated: defect has order 0")
        fn_res = ring.fn_residue(_defect_slice(defect, n), n)
        fn_max = fn_res.max_abs()
        p_res, qn_res, b_res = _solve_step(
            n, gres, ring.residue_twist(hres, n), fn_res, inverses, floor,
            max(scale, fn_max) * dust_tol)
        xn = SkewPoly.constant(ring, ring.uniformizer_pow(n))
        p_corr = _lift(ring, p_res) * xn
        q_corr = _lift(ring, qn_res) * xn
        tq = [_truncate(q_corr.coeffs, target_k)]  # tq[j] = t^j q_corr
        for _ in range(m):
            tq.append(_truncate(SkewPoly._t_mul_in(ring, tq[-1]), target_k))
        th = [_add_rows(ring, row, tq[i]) for i, row in enumerate(th)]
        # p_corr h_new + g_cur q_corr = p h + g q + p q
        update = [ring.zero()] * d
        for i, c in enumerate(p_corr.coeffs):
            _add_scaled(ring, update, c, th[i], target_k)
        for j, c in enumerate(g_cur.coeffs):
            _add_scaled(ring, update, c, tq[j], target_k)
        g_cur, h_cur = g_cur + p_corr, h_cur + q_corr
        scale = max(scale, fn_max, p_res.max_abs(), qn_res.max_abs(), b_res.max_abs())
        # clear cancellation dust at exponents <= n
        defect = [ring.sub(c, u).drop_small_upto(n, scale * floor)
                  for c, u in zip(defect, update)]
        o = _ord(ring, defect)
        if o <= n:
            raise SkewError(f"hensel step did not raise the defect order at n={n}")
        if on_state is not None:
            on_state(HenselState(n, g_cur, h_cur, SkewPoly(ring, defect)))

    return (_truncate_monic(g_cur, target_k), _truncate_monic(h_cur, target_k), o)


def _truncate_monic(p: SkewPoly, target_k: int) -> SkewPoly:
    """Truncate all coefficients but keep the (exact) leading 1 untouched."""
    coeffs = [c.truncate(target_k) for c in p.coeffs[:-1]] + [p.coeffs[-1]]
    return SkewPoly(p.ring, coeffs, trim=False)
