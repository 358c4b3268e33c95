"""The skew Hensel lift as it was formed pair by pair: the reference that
tests hold hensel.hensel_lift to, bit for bit.

Every defect slice is a sum of one product and one addition per pair
(per_pair_minus), the check of step n sums D_n again over the slices it
lifted, and each step reduces modulo res g by division (hensel._divmod,
read at each call, which at a linear res g is the synthetic division of
hensel._divmod_linear): k_n mod res g for b, b f_n mod res g for p, and
the quotient of f_n - p k_n for q.  Each factor coefficient is written
from every slice (poly).  Inputs, checks, roundings and errors are the
lift's own.
"""

from __future__ import annotations

from skewpuiseux import hensel as hensel_mod
from skewpuiseux import residue as residue_mod
from skewpuiseux import scalar
from skewpuiseux.errors import PrecisionExhausted, TwistCoprimeFailure, UsageError
from skewpuiseux.hensel import (HenselState, _fixed, _minus_product, _reciprocal, _rounded,
                                _slices, _small, _twist_check)
from skewpuiseux.puiseux import _Fixed, _trunc_k
from skewpuiseux.residue import ResiduePoly
from skewpuiseux.scalar import INF, _fixed_add, _fixed_twist, _top, carry_row
from skewpuiseux.skewpoly import PuiseuxRing, SkewPoly
from skewpuiseux.structure import shift_iso


def per_pair_product(x, y, w=None, conj=False, d=INF):
    """-(x * y), entries below t^d, w twisting x and conj conjugating y: one
    term of the defect, pair by pair."""
    (xr, xi, ex), (yr, yi, ey) = _fixed_twist(x, w), y
    yi = [-v for v in yi] if conj else yi
    d = min(d, len(xr) + len(yr) - 1)
    re, im = [0] * d, [0] * d
    for i, (u, v) in enumerate(zip(xr, xi)):
        for j in range(min(len(yr), d - i)) if u or v else ():
            re[i + j] -= u * yr[j] - v * yi[j]
            im[i + j] -= u * yi[j] + v * yr[j]
    return re, im, ex + ey


def per_pair_minus(acc, G, H, pairs, twists, d):
    """acc - sum of G_a * H_b over pairs: one product and one addition per
    pair, entry i of G_a twisted by twists[b][0], H_b conjugated when
    twists[a][2] says so."""
    for a, b in pairs:
        if G[a] and H[b]:
            acc = _fixed_add(acc, per_pair_product(G[a], H[b], twists[b][0], twists[a][2], d))
    return acc


def inverse(n, gres, g, kn, reciprocal):
    """b = kn^(-1) mod gres: with ``reciprocal`` 1/r of the constant r = kn
    mod gres, else ext_gcd on r rounded and one exact Newton step."""
    _, r = hensel_mod._divmod(kn, g, scalar.zero_eps())
    if reciprocal:
        if not r[0]:
            raise TwistCoprimeFailure(n, gres.monic())
        return _reciprocal(r)
    one, _, b = residue_mod.ext_gcd(gres, ResiduePoly(_rounded(r, len(r[0])), trim=False))
    if one.degree != 0:
        raise TwistCoprimeFailure(n, one)
    b = _fixed(b.coeffs)
    return b and carry_row(hensel_mod._mulmod(b, _fixed_add(([2], [0], 0), _minus_product(b, kn)),
                                              g))


def solve_step(n, gres, g, kn, fn, inverses, scale):
    """p kn + gres q = fn by division modulo gres, b memoized per kn in
    ``inverses`` unless it is None."""
    m = gres.degree
    if inverses is None:
        b = inverse(n, gres, g, kn, m == 1)
    else:
        key = (tuple(kn[0]), tuple(kn[1]), kn[2])
        if key not in inverses:
            inverses[key] = inverse(n, gres, g, kn, False)
        b = inverses[key]
    p = carry_row(hensel_mod._mulmod(b, fn, g, scalar.floor_tol(24)))
    q, r = hensel_mod._divmod(_fixed_add(fn, p and _minus_product(p, kn)), g)
    if not _small(r, max(scale, _top(fn) - 1) + scalar.pow2_exp(scalar.dust_tol())):
        raise PrecisionExhausted(
            f"hensel correction degree overflow ({scalar.max_abs(_rounded(r, m))})")
    return p, carry_row(q), b


def poly(ring, rows, n, target_k, lead=None):
    """hensel._poly as it was: each c_i written from all target_k slices,
    empty ones included, at the least exponent over every slice."""
    ops = _Fixed(getattr(ring, "L", 1))
    e = min([r[2] for r in rows if r], default=0)
    coeffs = []
    for i in range(n):
        re, im = ([r[p][i] << (r[2] - e) if r and i < len(r[p]) else 0 for r in rows]
                  for p in (0, 1))
        coeffs.append(ops.out((0, re, im, e, target_k, None)))
    return SkewPoly(ring, coeffs + ([] if lead is None else [lead]), trim=False)


def hensel_lift(f, g, h, target_k, on_state=None, *, roots=None):
    """hensel.hensel_lift, each defect slice summed pair by pair and each
    step solved by solve_step."""
    ring = f.ring.unify(g.ring).unify(h.ring)
    f, g, h = (p.in_ring(ring) for p in (f, g, h))
    if not (f.is_monic and g.is_monic and h.is_monic):
        raise UsageError("hensel_lift needs monic f, g, h")
    d, m = f.degree, g.degree
    if h.degree != d - m:
        raise UsageError("degree mismatch: deg f != deg g + deg h")
    if f.ord_k() < 0 or g.ord_k() < 0 or h.ord_k() < 0:
        raise UsageError("hensel_lift needs integral coefficients")
    avail = min(_trunc_k(c) for p in (f, g, h) for c in p.coeffs)
    if avail < target_k:
        raise PrecisionExhausted(f"f, g, h are only known to order {avail} < requested {target_k}")
    shift = ring.a if isinstance(ring, PuiseuxRing) and not ring.a.is_zero else None

    def back(p):
        return p if shift is None else shift_iso(p, -shift)

    gres, hres, caller = g.reduce_residue(), h.reduce_residue(), ring
    if shift is not None:
        f, g, h = (shift_iso(p, shift) for p in (f, g, h))
        ring = f.ring
    K = max(1, target_k)
    F, G, H = (_slices(p.coeffs[:n], K) for p, n in ((f, d), (g, m + 1), (h, d - m + 1)))
    twists = [ring.slice_twist(k, d + 1) for k in range(K)]

    def minus(acc, pairs):
        return per_pair_minus(acc, G, H, pairs, twists, d)

    def factors():
        return (back(poly(ring, G, m, target_k, g.coeffs[-1])),
                back(poly(ring, H, d - m, target_k, h.coeffs[-1])))

    zero, floor = scalar.pow2_exp(scalar.zero_eps()), scalar.pow2_exp(scalar.floor_tol(24))
    d0 = minus(F[0], [(0, 0)])
    if not _small(d0, scalar.pow2_exp(scalar.dust_tol())):
        raise UsageError(f"res(f) != res(g)res(h) (deviation {scalar.max_abs(_rounded(d0, d))})")
    _twist_check(caller, gres, hres, roots)
    if shift is not None:
        gres = g.reduce_residue()
    if not _small(d0, zero):
        raise PrecisionExhausted("hensel invariant violated: defect has order 0")
    (gr, gi, ge), hfix = G[0], H[0]
    gfix = (gr[:m], gi[:m], ge)
    hbar = (hfix[0], [-v for v in hfix[1]], hfix[2])
    scale = max([0] + [_top(r) - 1 for r in F])
    inverses = None if any(w is not None for w, _, _ in twists) else {}
    for n in range(1, target_k):
        inner = minus(F[n], [(a, n - a) for a in range(1, n)])
        dn = minus(inner, [(n, 0), (0, n)])
        if _small(dn, zero):
            continue
        w, winv, conj = twists[n]
        fn = _fixed_twist(dn, winv)
        kn = _fixed_twist(hbar if conj else hfix, winv)
        p, q, b = solve_step(n, gres, gfix, kn, fn, inverses, scale)
        G[n] = _fixed_add(G[n], _fixed_twist(p, w))
        H[n] = _fixed_add(H[n], _fixed_twist(q, w))
        scale = max(scale, *(_top(x) - 1 for x in (fn, p, q, b)))
        if not _small(minus(inner, [(n, 0), (0, n)]), max(zero, scale + floor)):
            raise PrecisionExhausted(f"hensel step did not raise the defect order at n={n}")
        if on_state is not None:
            rest = [None] * (n + 1) + [minus(F[k], [(a, k - a) for a in range(k + 1)])
                                       for k in range(n + 1, target_k)]
            on_state(HenselState(n, *factors(), back(poly(ring, rest, d, target_k))))
    return (*factors(), target_k)
