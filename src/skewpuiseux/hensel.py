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
C[[x, rho]]; the ring supplies only this twist w and 1/w (slice_twist).
D_n is one exact sum (_minus_sum): every product, its twist and conj
applied inline, goes into one accumulator at the least exponent, and a
pair with an empty slice is skipped.  So a step forms three sums whatever
n: over the pairs 0 < a < n, which its corrections leave alone, then D_n
from that, and D_n again once corrected.

Rounding and step rule.  D_n is exact, and so are f_n and k_n, its and res
h's products with the inverse twist 1/w, and, res g being monic, k_n and b
f_n mod res g and q_n = (f_n - p_n k_n) / res g.  When res g = t - c is
linear, twisted lift or not, these three are Horner's rule at c on exact
integers (_divmod_linear): k_n(c), (b f_n)(c), and the synthetic division
whose partial sums are q_n and whose last is the remainder, with the
collapses and the remainder check of the division they replace
(_divmod_monic, which serves deg res g >= 2).  1/w, b, p_n and q_n are
rounded once each, scalar.GUARD_BITS above the working precision, b, p_n
and q_n on their mantissas (scalar.carry_row), and 1/w with w once per
alpha, L and precision, in the memo of alpha's powers (Alpha.power_row):
the lift carries a step's error into every later order, where it grows.
b = k_n^(-1) mod res g is read off r = k_n mod res g, collapsed at
zero_eps() (_inverse).  A twisted lift (some slice twist w is not None:
alpha != 1) meets a new k_n at every step, so it memoizes nothing; with
res g = t - c, r = k_n(c) is an exact constant and b its reciprocal, two
integer divisions and one rounding (_reciprocal), with no ext_gcd.
Otherwise b is ext_gcd on r rounded, then one exact Newton step, memoized
per k_n: an untwisted lift meets one k_n (two in C[[x, rho]]), so it runs
Euclid once per lift, at a linear res g too while the benchmark counts the
lift's steps as its ext_gcd calls.  At a linear res g both routes give the
same b, bit for bit, unless the exact reciprocal lies within about 2^-2P,
relatively, of a rounding point.  p_n collapses at floor_tol(24) as divmod
does.  Sizes are read off bit lengths.  D_0 = res f - res g res h is the
residue check, exact: from dust_tol() up the inputs are no residue
factorization (UsageError), and from zero_eps() up they break the order-0
invariant.  A D_n below zero_eps() is skipped; with 2^scale <= max(1, |c|)
over the c met so far, D_n formed again must lie below max(zero_eps(),
2^scale floor_tol(24)), and q_n's remainder is dust below 2^scale
dust_tol().  A broken invariant, a D_n that stays and a remainder above
its dust are precision failures (PrecisionExhausted).

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
from .errors import PrecisionExhausted, TwistCoprimeFailure, UsageError
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


def _solve_step(n: int, gres, g, kn, fn, inverses, scale):
    """Solve p kn + gres q = fn, deg p < deg gres, in C[t]/(gres) (von zur
    Gathen & Gerhard, Modern Computer Algebra, 15.4) on exact rows, g being
    gres's lower coefficients, through b = kn^(-1) mod gres (_inverse): the
    reciprocal of a constant when ``inverses`` is None and gres is linear,
    else Euclid, memoized per kn in ``inverses`` unless it is None; b, p
    and q round on mantissas (module docstring).  Each reduction modulo a
    linear gres = t - c is an evaluation at c (_divmod): kn(c), (b fn)(c),
    and q with its remainder by synthetic division."""
    m = gres.degree
    if inverses is None:
        b = _inverse(n, gres, g, kn, m == 1)
    else:
        key = (tuple(kn[0]), tuple(kn[1]), kn[2])
        if key not in inverses:
            inverses[key] = _inverse(n, gres, g, kn, False)
        b = inverses[key]
    p = carry_row(_mulmod(b, fn, g, scalar.floor_tol(24)))
    q, r = _divmod(_fixed_add(fn, p and _minus_product(p, kn)), g)
    if not _small(r, max(scale, _top(fn) - 1) + scalar.pow2_exp(scalar.dust_tol())):
        raise PrecisionExhausted(
            f"hensel correction degree overflow ({scalar.max_abs(_rounded(r, m))})")
    return p, carry_row(q), b


def _inverse(n: int, gres, g, kn, reciprocal: bool):
    """b = kn^(-1) mod gres on exact rows, its parts rounded once each
    (carry_row), from r = kn mod gres: with ``reciprocal`` (gres linear, r
    a constant) b = 1/r (_reciprocal), else ext_gcd on r rounded, then one
    exact Newton step.  A collapsed r, or one that shares a factor with
    gres, raises TwistCoprimeFailure with Euclid's gcd as the witness."""
    _, r = _divmod(kn, g, scalar.zero_eps())
    if reciprocal:
        if not r[0]:
            raise TwistCoprimeFailure(n, gres.monic())
        return _reciprocal(r)
    one, _, b = residue_mod.ext_gcd(gres, ResiduePoly(_rounded(r, len(r[0])), trim=False))
    if one.degree != 0:
        raise TwistCoprimeFailure(n, one)
    b = _fixed(b.coeffs)
    # one Newton step: b (2 - b kn) mod gres
    return b and carry_row(_mulmod(b, _fixed_add(([2], [0], 0), _minus_product(b, kn)), g))


def _reciprocal(r):
    """1/r for an exact nonzero constant r = (a + ic) 2^e, each part
    rounded once, GUARD_BITS above the working precision (carry_row), as
    ext_gcd and its Newton step give it.  The parts are the quotients of a
    and -c by a^2 + c^2, shifted to keep 4 bits below that rounding at the
    smaller part's own scale, with a sticky bit for each remainder: the
    quotient then lies strictly between the same two rounding points as
    the exact part, so nothing rounds twice."""
    (a,), (c,), e = r
    norm = a * a + c * c
    s = (mp.prec + scalar.GUARD_BITS + 4 + norm.bit_length()
         - min(abs(v).bit_length() for v in (a, c) if v))
    parts = []
    for v in (a, -c):
        q, rem = divmod(v << s, norm)
        parts.append(q << 1 | bool(rem))
    return carry_row(([parts[0]], [parts[1]], -s - 1 - e))


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

    def minus(acc, pairs):
        return _minus_sum(acc, G, H, pairs, twists, d)

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
        raise PrecisionExhausted("hensel invariant violated: defect has order 0")
    (gr, gi, ge), hfix = G[0], H[0]  # res g below its lead, and res h
    gfix = (gr[:m], gi[:m], ge)
    hbar = (hfix[0], [-v for v in hfix[1]], hfix[2])  # conj(res h)

    # corrections can grow with n (the true factors may grow geometrically);
    # cancellation dust is judged against 2^scale <= max(1, |c|)
    scale = max([0] + [_top(r) - 1 for r in F])
    # an untwisted lift meets one k_n (two, alternating, under a conj twist):
    # their inverses are memoized
    inverses = None if any(w is not None for w, _, _ in twists) else {}
    for n in range(1, target_k):
        inner = minus(F[n], [(a, n - a) for a in range(1, n)])
        dn = minus(inner, {(n, 0), (0, n)})
        if _small(dn, zero):
            continue
        # move x^n right of the slice: f_n, and k_n = phi^n(res h)
        w, winv, conj = twists[n]
        fn = _fixed_twist(dn, winv)
        kn = _fixed_twist(hbar if conj else hfix, winv)
        p, q, b = _solve_step(n, gres, gfix, kn, fn, inverses, scale)
        # the corrections p x^n, q x^n in left form: t^i x^n = w_i x^n t^i
        G[n] = _fixed_add(G[n], _fixed_twist(p, w))
        H[n] = _fixed_add(H[n], _fixed_twist(q, w))
        scale = max(scale, *(_top(x) - 1 for x in (fn, p, q, b)))
        if not _small(minus(inner, {(n, 0), (0, n)}), max(zero, scale + floor)):
            raise PrecisionExhausted(f"hensel step did not raise the defect order at n={n}")
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


def _minus_sum(acc, G, H, pairs, twists, d):
    """acc - sum of G_a * H_b over the (a, b) in pairs, exactly, its entries
    below t^d: one sum in one accumulator, at the least exponent of acc and
    the terms.  Entry i of G_a is twisted by w = twists[b][0] (alpha^(ib/L))
    and H_b conjugated when twists[a][2] says so; a pair with an empty slice
    adds nothing, and acc comes back as it is when no pair is left."""
    terms, e, n = [], INF, 0
    for a, b in pairs:
        x, y = G[a], H[b]
        if x and y:
            w = twists[b][0]
            s = x[2] + y[2] + (w[2] if w else 0)
            terms.append((x, y, w, twists[a][2], s))
            e, n = min(e, s), max(n, len(x[0]) + len(y[0]) - 1)
    if not terms:
        return acc
    n = min(n, d)
    if acc:
        e, n = min(e, acc[2]), max(n, len(acc[0]))
        s = acc[2] - e
        re, im = ([v << s for v in acc[i]] + [0] * (n - len(acc[i])) for i in (0, 1))
    else:
        re, im = [0] * n, [0] * n
    for (xr, xi, _), (yr, yi, _), w, conj, s in terms:
        s -= e
        yi = [-v for v in yi] if conj else yi
        for i, (u, v) in enumerate(zip(xr, xi)):
            if u or v:
                if w:
                    u, v = u * w[0][i] - v * w[1][i], u * w[1][i] + v * w[0][i]
                u, v = u << s, v << s
                for j in range(min(len(yr), d - i)):
                    re[i + j] -= u * yr[j] - v * yi[j]
                    im[i + j] -= u * yi[j] + v * yr[j]
    return re, im, e


def _minus_product(x, y):
    """-(x * y) for exact rows x and y."""
    (xr, xi, ex), (yr, yi, ey) = x, y
    d = len(xr) + len(yr) - 1
    re, im = [0] * d, [0] * d
    for i, (u, v) in enumerate(zip(xr, xi)):
        for j in range(len(yr)) if u or v else ():
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
    rounds.  With tol, if a step ran, rem's top coefficients collapse
    (_collapse)."""
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
        _collapse(rr, ri, e, tol, a, g)
    return (qr[::-1], qi[::-1], e), (rr, ri, e)


def _divmod_linear(a, g, tol=None):
    """_divmod_monic for a linear t + g_0: Horner's rule at c = -g_0, whose
    partial sums are the quotient (synthetic division), on exact integers."""
    (ar, ai, e), ((gr,), (gi,), eg) = a, g
    k = len(ar) - 1
    if k < 1:
        return ([], [], e), (list(ar), list(ai), e)
    s = max(0, -eg)  # c = (cr + i ci) 2^-s, so each step lowers the exponent by s
    cr, ci = -gr << (eg + s), -gi << (eg + s)
    ur, ui, qr, qi = ar[k], ai[k], [], []
    for j in range(k - 1, -1, -1):
        qr.append(ur << s * j), qi.append(ui << s * j)
        ur, ui = (ur * cr - ui * ci + (ar[j] << s * (k - j)),
                  ur * ci + ui * cr + (ai[j] << s * (k - j)))
    rr, ri, e = [ur], [ui], e - s * k
    if tol is not None:
        _collapse(rr, ri, e, tol, a, g)
    return (qr[::-1], qi[::-1], e + s), (rr, ri, e)


def _divmod(a, g, tol=None):
    """_divmod_linear when t^m + g is linear, else _divmod_monic."""
    return (_divmod_linear if len(g[0]) == 1 else _divmod_monic)(a, g, tol)


def _collapse(rr, ri, e, tol, a, g):
    """Pop the top entries c = (u + iv) 2^e of a remainder while |c| < tol
    max(1, |a|, |g|), as in residue._divmod, but exactly: in squares, while
    u^2 + v^2 < max ceil(|x|^2 tol^2 4^-e) over x in 1, a, g."""
    k = scalar.pow2_exp(tol) - e
    sq = [(max((u * u + v * v for u, v in zip(*x[:2])), default=0), k + x[2])
          for x in (([1], [0], 0), a, g)]
    top = max(n << 2 * j if j >= 0 else -(-n >> -2 * j) for n, j in sq)
    while rr and rr[-1] ** 2 + ri[-1] ** 2 < top:
        rr.pop(), ri.pop()


def _mulmod(x, y, g, tol=None):
    """x y mod (t^m + g) for exact rows, None when zero (tol: _collapse)."""
    if x and y:
        r = _divmod(_minus_product(x, y), g, tol)[1]
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
