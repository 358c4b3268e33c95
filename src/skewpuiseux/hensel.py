"""Skew Hensel lifting, generic over the base-ring contract.

Given monic f and a residue factorization res(f) = res(g) res(h) whose left
factor is coprime to every uniformizer-twist of the right one (checked at
once by twist_precheck), step n adds corrections p_n x^n to g and q_n x^n
to h (x the uniformizer) so that ord(f - g h) > n.  With f_n x^n the x^n
part of the defect, p_n k_n + res(g) q_n = f_n, k_n = phi^n(res h), is
solved in C[t]/(res g) (_solve_step).

Slices.  f, g, h are held as x-slices: row k (k < target_k) lists the x^k
coefficients over t-degree, each left of its t^i, as exact mantissas
(re, im, e) (scalar.fixed_point).  Each coefficient is read once, by the
exact kernel's reader (puiseux._Fixed.read): a series that kernel wrote
gives the exact form it holds, other numeric values are read exactly, and
an exact rational value is first rounded to nearest (scalar.mp_operand).
The residue rows res g and res h are slice 0, and conj(res h) is formed
from it once per lift.  The factors are written by the kernel's writer
(puiseux._Fixed.out): each coefficient is rounded once, to nearest at the
working precision, and zero-tested as a series is, and each factor
coefficient holds its exact form.  Step n forms only slice n of the defect,
D_n = F_n - sum_(a+b=n) G_a * H_b, online (J. van der Hoeven, "Relax, but
don't be too lazy", JSC 2002).  The t^(i+j) entry of G_a * H_b is
g_(i,a) h_(j,b) alpha^(ib/L) in F[t, sigma] and g_(i,a) rho^a(h_(j,b)) in
C[[x, rho]]; the ring supplies only this twist w (slice_twist).

Rounding and step rule.  D_n is exact, and so are f_n and k_n, its and res
h's products with the inverse twist 1/w, and, res g being monic, k_n and b
f_n mod res g and q_n = (f_n - p_n k_n) / res g.  1/w, b, p_n and q_n are
rounded once each, scalar.GUARD_BITS above the working precision, all but
1/w on their mantissas (scalar.carry_row): the lift carries a step's
error into every later order, where it grows.  b = k_n^(-1) mod res g is
ext_gcd on k_n mod res g (a constant, inverted with no division, for a
linear res g), rounded and collapsed at zero_eps(), then one exact Newton
step; it stays Euclid while the benchmark counts the lift's steps as its
ext_gcd calls.  p_n collapses at floor_tol(24) as divmod does.  Sizes
are read off bit lengths.  D_0 = res f - res g res h is the residue check,
exact: from dust_tol() up the inputs are no residue factorization
(UsageError), and from zero_eps() up they break the order-0 invariant
(SkewError).  A D_n below zero_eps() is skipped; with 2^scale <= max(1, |c|)
over the c met so far, D_n formed again must lie below max(zero_eps(),
2^scale floor_tol(24)), and q_n's remainder is dust below 2^scale
dust_tol().

Derived rings.  delta_a = a(sigma - id) is inner, so s = t + a obeys
s u = sigma(u) s: shift_iso(., a) carries f, g, h to F[t, sigma], where the
lift runs, and shift_iso(., -a) carries the factors back.  The twist check
runs in the caller's ring, on the caller's residues and roots: the ring
moves the roots to s itself (PuiseuxRing.twist_coprime), and a witness
is reported in t.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from . import residue as residue_mod
from . import scalar
from .errors import PrecisionExhausted, SkewError, TwistCoprimeFailure, UsageError
from .puiseux import PuiseuxSeries, _Fixed, _trunc_k
from .residue import ResiduePoly
from .scalar import INF, _fixed_add, _fixed_twist, carry_row
from .skewpoly import PuiseuxRing, SkewPoly
from .structure import shift_iso


@dataclass
class HenselState:
    """A step's snapshot, built only for ``on_state``, in the caller's ring."""

    n: int
    g_cur: SkewPoly
    h_cur: SkewPoly
    defect: SkewPoly


def _solve_step(n: int, gres, g, kn, fn, inverses: dict, scale):
    """Solve p kn + gres q = fn, deg p < deg gres, in C[t]/(gres) (von zur
    Gathen & Gerhard, Modern Computer Algebra, 15.4) on exact rows, g being
    gres's lower coefficients; b, memoized per kn, is the step's one
    ext_gcd call, and b, p and q round on mantissas (module docstring)."""
    key, m = (tuple(kn[0]), tuple(kn[1]), kn[2]), gres.degree
    inv = inverses.get(key)
    if inv is None:
        _, r = _divmod_monic(kn, g, scalar.zero_eps())
        one, _, b = residue_mod.ext_gcd(gres, ResiduePoly(_rounded(r, len(r[0])), trim=False))
        b = _fixed(b.coeffs)
        if b and one.degree == 0:  # one Newton step: b (2 - b kn) mod gres
            b = carry_row(_mulmod(b, _fixed_add(([2], [0], 0), _minus_product(b, kn)), g))
        inv = inverses[key] = (one, b)
    one, b = inv
    if one.degree != 0:
        raise TwistCoprimeFailure(n, one)
    p = carry_row(_mulmod(b, fn, g, scalar.floor_tol(24)))
    q, r = _divmod_monic(_fixed_add(fn, p and _minus_product(p, kn)), g)
    if not _small(r, max(scale, _top(fn) - 1) + scalar.pow2_exp(scalar.dust_tol())):
        raise SkewError(f"hensel correction degree overflow ({scalar.max_abs(_rounded(r, m))})")
    return p, carry_row(q), b


def twist_precheck(g: SkewPoly, h: SkewPoly):
    """Raise TwistCoprimeFailure if res(g) is not coprime to the n-twisted
    res(h) for some n >= 1."""
    _twist_check(g.ring, g.reduce_residue(), h.reduce_residue())


def _twist_check(ring, gres, hres, roots=None):
    """twist_precheck on residues; ``roots``, their (root, multiplicity)
    lists, spares the ring its own root search."""
    fail = ring.twist_coprime(gres, hres, roots=roots)
    if fail is not None:
        raise TwistCoprimeFailure(*fail)


def hensel_lift(f: SkewPoly, g: SkewPoly, h: SkewPoly, target_k: int,
                on_state=None, *, roots=None):
    """Lift res(f) = res(g) res(h) to f = g_hat h_hat + O(x^target_k).

    Returns (g_hat, h_hat, achieved_order_k): the factors, known to
    O(x^target_k) but for their exact leading 1, and target_k, the order
    to which f - g_hat h_hat is known to vanish.  ``on_state`` receives a
    HenselState after every correction step.  ``roots``, the (root,
    multiplicity) lists of res g and res h, goes to the ring's twist check.
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
    avail = min(_trunc_k(c) for p in (f, g, h) for c in p.coeffs)
    if avail < target_k:
        raise PrecisionExhausted(f"f, g, h are only known to order {avail} < requested {target_k}")
    # delta_a is inner: lift in s = t + a, in F[t, sigma] (module docstring)
    shift = ring.a if isinstance(ring, PuiseuxRing) and not ring.a.is_zero else None

    def back(p):
        return p if shift is None else shift_iso(p, -shift)

    gres, hres, caller = g.reduce_residue(), h.reduce_residue(), ring
    if shift is not None:
        f, g, h = (shift_iso(p, shift) for p in (f, g, h))
        ring = f.ring
    K = max(1, target_k)  # slice 0 holds the residues
    F, G, H = (_slices(p.coeffs[:n], K) for p, n in ((f, d), (g, m + 1), (h, d - m + 1)))
    twists = [ring.slice_twist(k, d + 1) for k in range(K)]
    wfix = [w and _fixed(w) for w, _ in twists]

    def minus(acc, pairs):
        """acc - sum of G_a * H_b over the (a, b) in pairs, exactly."""
        for a, b in pairs:
            if G[a] and H[b]:
                acc = _fixed_add(acc, _minus_product(G[a], H[b], wfix[b], twists[a][1], d))
        return acc

    def factors():
        return (back(_poly(ring, G, m, target_k, g.coeffs[-1])),
                back(_poly(ring, H, d - m, target_k, h.coeffs[-1])))

    # D_0 = res f - res g res h, exactly
    zero, floor = scalar.pow2_exp(scalar.zero_eps()), scalar.pow2_exp(scalar.floor_tol(24))
    d0 = minus(F[0], [(0, 0)])
    if not _small(d0, scalar.pow2_exp(scalar.dust_tol())):
        raise UsageError(f"res(f) != res(g)res(h) (deviation {scalar.max_abs(_rounded(d0, d))})")
    _twist_check(caller, gres, hres, roots)
    if shift is not None:
        gres = g.reduce_residue()  # res g in s
    if not _small(d0, zero):
        raise SkewError("hensel invariant violated: defect has order 0")
    (gr, gi, ge), hfix = G[0], H[0]  # res g below its lead, and res h
    gfix = (gr[:m], gi[:m], ge)
    hbar = (hfix[0], [-v for v in hfix[1]], hfix[2])  # conj(res h)

    # corrections can grow with n (the true factors may grow geometrically);
    # cancellation dust is judged against 2^scale <= max(1, |c|)
    scale = max([0] + [_top(r) - 1 for r in F])
    inverses = {}  # one per distinct k_n: per lift at alpha = 1
    for n in range(1, target_k):
        inner = minus(F[n], [(a, n - a) for a in range(1, n)])
        dn = minus(inner, {(n, 0), (0, n)})
        if _small(dn, zero):
            continue
        # move x^n right of the slice: f_n, and k_n = phi^n(res h)
        w, conj = twists[n]
        with mp.workprec(mp.prec + scalar.GUARD_BITS):
            winv = w and _fixed([1 / c for c in w])
        fn = _fixed_twist(dn, winv)
        kn = _fixed_twist(hbar if conj else hfix, winv)
        p, q, b = _solve_step(n, gres, gfix, kn, fn, inverses, scale)
        # the corrections p x^n, q x^n in left form: t^i x^n = w_i x^n t^i
        G[n] = _fixed_add(G[n], _fixed_twist(p, wfix[n]))
        H[n] = _fixed_add(H[n], _fixed_twist(q, wfix[n]))
        scale = max(scale, *(_top(x) - 1 for x in (fn, p, q, b)))
        if not _small(minus(inner, {(n, 0), (0, n)}), max(zero, scale + floor)):
            raise SkewError(f"hensel step did not raise the defect order at n={n}")
        if on_state is not None:
            rest = [None] * (n + 1) + [minus(F[k], [(a, k - a) for a in range(k + 1)])
                                       for k in range(n + 1, target_k)]
            on_state(HenselState(n, *factors(), back(_poly(ring, rest, d, target_k))))
    return (*factors(), target_k)


def _slices(coeffs, target_k: int) -> list:
    """Row k < target_k: the x^k coefficients over t-degree, as exact rows,
    None where all are zero.  Each coefficient is read once by the kernel's
    reader (module docstring); an exact rational value is read rounded to
    nearest (scalar.mp_operand), and inf or nan is refused."""
    ops, rows = _Fixed(coeffs[0].L), [None] * target_k
    for i, c in enumerate(coeffs):
        x = ops.read(c, []) or ops.read(PuiseuxSeries(
            c.L, {k: scalar.mp_operand(v) for k, v in c.terms.items()}, c.trunc,
            normalize=False), [])
        if x is None:
            raise UsageError("hensel_lift needs finite coefficients")
        k0, re, im, e, _, _ = x
        for j in range(min(len(re), target_k - k0)):
            if re[j] or im[j]:
                rows[k0 + j] = _fixed_add(rows[k0 + j], ([0] * i + [re[j]], [0] * i + [im[j]], e))
    return rows


def _fixed(row):
    """A row of finite mpmath numbers as exact mantissas (re, im, e), None
    when zero."""
    re, im, e, _ = scalar.fixed_point(row)
    return (re, im, e) if any(re) or any(im) else None


def _minus_product(x, y, w=None, conj=False, d=INF):
    """-(x * y) for exact rows x and y, its entries below t^d: w, an exact
    row or None, twists x's entries (alpha^(ib/L)), and conj conjugates y."""
    (xr, xi, ex), (yr, yi, ey) = _fixed_twist(x, w), y
    yi = [-v for v in yi] if conj else yi
    d = min(d, len(xr) + len(yr) - 1)
    re, im = [0] * d, [0] * d
    for i, (u, v) in enumerate(zip(xr, xi)):
        for j in range(min(len(yr), d - i)) if u or v else ():
            re[i + j] -= u * yr[j] - v * yi[j]
            im[i + j] -= u * yi[j] + v * yr[j]
    return re, im, ex + ey


def _top(x):
    """The least T with |Re c|, |Im c| < 2^T over an exact row's entries c."""
    b = max(map(abs, x[0] + x[1]), default=0).bit_length() if x else 0
    return b + x[2] if b else -INF


def _small(x, t) -> bool:
    """|c| < 2^t for every entry c of an exact row (scalar.first_at_least)."""
    return not x or scalar.first_at_least(*x, t) is None


def _divmod_monic(a, g, tol=None):
    """(quo, rem), exact rows with a = quo (t^m + g) + rem, deg rem < m, for
    exact rows a and g: each step lowers the exponent by g's, so nothing
    rounds.  With tol, if a step ran, the top coefficients c of rem collapse
    while |c| < tol max(1, |a|, |g|), as in residue._divmod, but exactly."""
    (rr, ri, e), (gr, gi, eg) = (list(a[0]), list(a[1]), a[2]), g
    m, s = len(gr), max(0, -eg)
    gr, gi = [v << (eg + s) for v in gr], [v << (eg + s) for v in gi]
    qr, qi = [], []  # the quotient from the top down
    while len(rr) > m:
        cr, ci = rr.pop(), ri.pop()
        rr, ri, qr, qi = ([v << s for v in x] for x in (rr, ri, qr + [cr], qi + [ci]))
        e -= s
        k = len(rr) - m
        for j in range(m):
            rr[k + j] -= cr * gr[j] - ci * gi[j]
            ri[k + j] -= cr * gi[j] + ci * gr[j]
    if tol is not None and len(a[0]) > m:
        # in squares, c = (u + iv) 2^e: u^2 + v^2 < max ceil(|x|^2 tol^2 4^-e)
        k = scalar.pow2_exp(tol) - e
        sq = [(max((u * u + v * v for u, v in zip(*x[:2])), default=0), k + x[2])
              for x in (([1], [0], 0), a, g)]
        top = max(n << 2 * j if j >= 0 else -(-n >> -2 * j) for n, j in sq)
        while rr and rr[-1] ** 2 + ri[-1] ** 2 < top:
            rr.pop(), ri.pop()
    return (qr[::-1], qi[::-1], e), (rr, ri, e)


def _mulmod(x, y, g, tol=None):
    """x y mod (t^m + g) for exact rows, None when zero (tol: _divmod_monic)."""
    if x and y:
        r = _divmod_monic(_minus_product(x, y), g, tol)[1]
        return [-v for v in r[0]], [-v for v in r[1]], r[2]


def _rounded(x, d: int) -> list:
    """The d entries of an exact row, each rounded once (from_fixed_point)."""
    re, im, e = x or ([], [], 0)
    return [scalar.from_fixed_point(re[k], im[k], e) if k < len(re) else mp.mpc(0)
            for k in range(d)]


def _poly(ring, rows, n: int, target_k: int, lead=None) -> SkewPoly:
    """sum_(i<n) c_i t^i (+ lead t^n), c_i + O(x^target_k) with slices rows,
    each c_i written as an mpc series by the kernel's writer (_Fixed.out)."""
    ops = _Fixed(getattr(ring, "L", 1))
    e = min([r[2] for r in rows if r], default=0)
    coeffs = []
    for i in range(n):
        re, im = ([r[p][i] << (r[2] - e) if r and i < len(r[p]) else 0 for r in rows]
                  for p in (0, 1))
        coeffs.append(ops.out((0, re, im, e, target_k, None)))
    return SkewPoly(ring, coeffs + ([] if lead is None else [lead]), trim=False)
