"""Skew Hensel lifting, generic over the base-ring contract.

Given monic f and a residue factorization res(f) = res(g) res(h) whose left
factor is coprime to every uniformizer-twist of the right one (checked at
once by twist_precheck), step n adds corrections p_n x^n to g and q_n x^n
to h (x the uniformizer) so that ord(f - g h) > n.  With f_n x^n the x^n
part of the defect, p_n k_n + res(g) q_n = f_n, k_n = phi^n(res h), is
solved in C[t]/(res g) (_solve_step).

Slices.  f, g, h are held as x-slices: row k lists the x^k coefficients
over t-degree (k < target_k), each left of its t^i.  Step n forms only
slice n of the defect, D_n = F_n - sum_(a+b=n) G_a * H_b, online (J. van
der Hoeven, "Relax, but don't be too lazy", JSC 2002).  The t^(i+j) entry
of G_a * H_b is g_(i,a) h_(j,b) alpha^(ib/L) in F[t, sigma] and
g_(i,a) rho^a(h_(j,b)) in C[[x, rho]]; the ring supplies only this
monomial twist (slice_twist), which also moves x^n right for f_n and k_n,
so both rings run one loop.  Slices are exact scalar.fixed_point
mantissas at their own binary exponents: D_n is one exact sum, rounded once.

Step rule.  A slice whose entries all pass is_negligible at zero_eps() is
skipped (at n = 0 any other slice breaks the order-0 invariant).  After a
step D_n is formed again from the same exact sum: an entry above
max(zero_eps(), scale floor_tol(24)) means the step did not raise the
defect order.

Derived rings.  delta_a = a(sigma - id) is inner, so s = t + a obeys
s u = sigma(u) s: shift_iso(., a) carries f, g, h to F[t, sigma], where the
lift runs, and shift_iso(., -a) carries the factors back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from mpmath import mp

from . import residue as residue_mod
from . import scalar
from .errors import PrecisionExhausted, SkewError, TwistCoprimeFailure, UsageError
from .puiseux import PuiseuxSeries
from .residue import ResiduePoly
from .scalar import INF, is_negligible
from .skewpoly import PuiseuxRing, SkewPoly
from .structure import shift_iso


@dataclass
class HenselState:
    """A step's snapshot, built only for ``on_state``, in the caller's ring."""

    n: int
    g_cur: SkewPoly
    h_cur: SkewPoly
    defect: SkewPoly


def _solve_step(n: int, gres, kn, fn, inverses: dict, floor, dust_bound):
    """Solve p kn + gres q = fn with deg p < deg gres, in C[t]/(gres)
    (von zur Gathen & Gerhard, Modern Computer Algebra, 15.4).

    b = kn^(-1) mod gres by ext_gcd(gres, kn mod gres), memoized in
    ``inverses``: kn collapses at a near-common root, and a non-constant gcd
    raises TwistCoprimeFailure.  p = b fn mod gres and q = (fn - p kn) /
    gres exactly; the remainder is dust, a SkewError above ``dust_bound``.
    """
    key = tuple(kn.coeffs)
    inv = inverses.get(key)
    if inv is None:
        _, kn_mod = kn.divmod(gres)
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
    dust = scalar.max_abs(r[:m])
    if dust > dust_bound:
        raise SkewError(f"hensel correction degree overflow ({dust})")
    return p, ResiduePoly(q, trim=False), b


def twist_precheck(g: SkewPoly, h: SkewPoly, *, roots=None):
    """Raise TwistCoprimeFailure if res(g) is not coprime to the n-twisted
    res(h) for some n >= 1.  ``roots``, the (root, multiplicity) lists of
    res g and res h, spares the base ring its own root search."""
    fail = g.ring.twist_coprime(g.reduce_residue(), h.reduce_residue(), roots=roots)
    if fail is not None:
        raise TwistCoprimeFailure(*fail)


def hensel_lift(f: SkewPoly, g: SkewPoly, h: SkewPoly, target_k: int,
                on_state=None, *, roots=None):
    """Lift res(f) = res(g) res(h) to f = g_hat h_hat + O(x^target_k).

    Returns (g_hat, h_hat, achieved_order_k): the factors, known to
    O(x^target_k) but for their exact leading 1, and target_k, the order
    to which f - g_hat h_hat is known to vanish.  ``on_state`` receives a
    HenselState after every correction step.  ``roots``, the (root,
    multiplicity) lists of res g and res h, goes to twist_precheck.
    """
    ring = f.ring.unify(g.ring).unify(h.ring)
    f, g, h = (p.in_ring(ring) for p in (f, g, h))
    if not (f.is_monic and g.is_monic and h.is_monic):
        raise UsageError("hensel_lift needs monic f, g, h")
    d, m = f.degree, g.degree
    if h.degree != d - m:
        raise UsageError("degree mismatch: deg f != deg g + deg h")
    if f.ord_k() < 0 or g.ord_k() < 0 or h.ord_k() < 0:
        raise UsageError("hensel_lift needs integral coefficients")
    avail = min([c.trunc for p in (f, g, h) for c in p.coeffs if c.trunc is not None] + [INF])
    if avail < target_k:
        raise PrecisionExhausted(f"f, g, h are only known to order {avail} < requested {target_k}")
    # delta_a is inner: lift in s = t + a, in F[t, sigma] (module docstring)
    shift = ring.a if isinstance(ring, PuiseuxRing) and not ring.a.is_zero else None

    def back(p):
        return p if shift is None else shift_iso(p, -shift)

    if shift is not None:
        a0 = scalar.to_mpc(shift.residue())
        roots = roots and tuple([(c + a0, k) for c, k in rs] for rs in roots)
        f, g, h = (shift_iso(p, shift) for p in (f, g, h))
        ring = f.ring
    gres, hres = g.reduce_residue(), h.reduce_residue()
    mismatch = (f.reduce_residue() - gres * hres).max_abs()
    if mismatch > scalar.dust_tol():
        raise UsageError(f"res(f) != res(g)res(h) (deviation {mismatch})")
    twist_precheck(g, h, roots=roots)

    F, G, H = (_slices(p.coeffs[:n], target_k) for p, n in ((f, d), (g, m + 1), (h, d - m + 1)))
    twists = [ring.slice_twist(k, d + 1) for k in range(target_k)]
    wfix = [w and _fixed(w) for w, _ in twists]

    def minus(acc, pairs):
        """acc - sum of G_a * H_b over the (a, b) in pairs, exactly."""
        for a, b in pairs:
            if G[a] and H[b]:
                acc = _add(acc, _minus_product(G[a], H[b], wfix[b], twists[a][1], d))
        return acc

    def factors():
        return (back(_poly(ring, G, m, target_k, g.coeffs[-1])),
                back(_poly(ring, H, d - m, target_k, h.coeffs[-1])))

    zero, floor = scalar.zero_eps(), scalar.floor_tol(24)
    # corrections can grow with n (the true factors may grow geometrically);
    # cancellation dust is judged against this scale
    scale = max(mp.mpf(1), f.max_abs())
    inverses = {}  # one per distinct k_n: per lift at alpha = 1
    for n in range(target_k):
        inner = minus(F[n], [(a, n - a) for a in range(1, n)])
        dn = _rounded(minus(inner, {(n, 0), (0, n)}), d)
        if all(is_negligible(c, zero) for c in dn):
            continue
        if n == 0:
            raise SkewError("hensel invariant violated: defect has order 0")
        # move x^n right of the slice: f_n, and k_n = phi^n(res h)
        w, conj = twists[n]
        fn = ResiduePoly(dn).coeffs
        kn = [scalar.conj_scalar(c) if conj else c for c in hres.coeffs]
        if w:
            fn, kn = ([c / w[i] for i, c in enumerate(cs)] for cs in (fn, kn))
        fn, kn = ResiduePoly(fn, trim=False), ResiduePoly(kn, trim=False)
        fn_max = fn.max_abs()
        p, q, b = _solve_step(n, gres, kn, fn, inverses, floor,
                              max(scale, fn_max) * scalar.dust_tol())
        # the corrections p x^n, q x^n in left form: t^i x^n = w_i x^n t^i
        for S, corr in ((G, p), (H, q)):
            S[n] = _add(S[n], _fixed([c * w[i] if w else c for i, c in enumerate(corr.coeffs)]))
        scale = max(scale, fn_max, p.max_abs(), q.max_abs(), b.max_abs())
        post = _rounded(minus(inner, {(n, 0), (0, n)}), d)
        if not all(is_negligible(c, max(zero, scale * floor)) for c in post):
            raise SkewError(f"hensel step did not raise the defect order at n={n}")
        if on_state is not None:
            rest = [None] * (n + 1) + [minus(F[k], [(a, k - a) for a in range(k + 1)])
                                       for k in range(n + 1, target_k)]
            on_state(HenselState(n, *factors(), back(_poly(ring, rest, d, target_k))))
    return (*factors(), target_k)


def _slices(coeffs, target_k: int) -> list:
    """Row k < target_k: the x^k coefficients over t-degree, as _fixed."""
    rows = [[0] * len(coeffs) for _ in range(target_k)]
    for i, c in enumerate(coeffs):
        for k, v in c.terms.items():
            if k < target_k:
                rows[k][i] = v
    return [_fixed(row) for row in rows]


def _fixed(row):
    """A row of scalars as exact mantissas (re, im, e), None when zero."""
    fx = scalar.fixed_point(row) or scalar.fixed_point([scalar.to_mpc(c) for c in row])
    if fx is None:  # inf or nan
        raise UsageError("hensel_lift needs finite coefficients")
    return fx[:3] if any(fx[0]) or any(fx[1]) else None


def _minus_product(x, y, w, conj: bool, d: int):
    """-(x * y) for exact slice rows x = G_a and y = H_b, its entries below
    t^d: w, an exact row or None, twists x's entries (alpha^(ib/L)), and
    conj conjugates y."""
    (xr, xi, ex), (yr, yi, ey) = x, y
    if w:
        xr, xi, ex = ([u * c - v * s for u, v, c, s in zip(xr, xi, w[0], w[1])],
                      [u * s + v * c for u, v, c, s in zip(xr, xi, w[0], w[1])], ex + w[2])
    yi = [-v for v in yi] if conj else yi
    re, im = [0] * d, [0] * d
    for i, (u, v) in enumerate(zip(xr, xi)):
        for j in range(min(len(yr), d - i)) if u or v else ():
            re[i + j] -= u * yr[j] - v * yi[j]
            im[i + j] -= u * yi[j] + v * yr[j]
    return re, im, ex + ey


def _add(x, y):
    """x + y for exact rows (re, im, e), at the lesser exponent."""
    if not (x and y):
        return x or y
    x, y = (x, y) if x[2] <= y[2] else (y, x)
    s = y[2] - x[2]
    return tuple([u + (v << s) for u, v in zip_longest(x[i], y[i], fillvalue=0)]
                 for i in (0, 1)) + (x[2],)


def _rounded(x, d: int) -> list:
    """The d entries of an exact row, each rounded once (from_fixed_point)."""
    re, im, e = x or ([], [], 0)
    return [scalar.from_fixed_point(re[k], im[k], e) if k < len(re) else mp.mpc(0)
            for k in range(d)]


def _poly(ring, rows, n: int, target_k: int, lead=None) -> SkewPoly:
    """sum_(i<n) c_i t^i (+ lead t^n), c_i + O(x^target_k) with slices rows."""
    L = getattr(ring, "L", 1)
    rows = [(k, _rounded(r, n)) for k, r in enumerate(rows) if r is not None]
    coeffs = [PuiseuxSeries(L, {k: r[i] for k, r in rows}, target_k) for i in range(n)]
    return SkewPoly(ring, coeffs + ([] if lead is None else [lead]), trim=False)
