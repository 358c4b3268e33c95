"""Commutative C[t] toolkit over big complex scalars.

This is the residue level of the local theory: polynomial arithmetic,
a deterministic Durand-Kerner root finder with clustering, extended gcd
with tolerance-aware degree collapse, the scaling T by which conjugation
by the uniformizer moves residue roots in F[t, sigma], the exponent n of
a root in another's T-orbit, and the all-n twisted-coprimality decision.
Root search runs Durand-Kerner in double, then on exact Gaussian integers
from those seeds (D. A. Bini, G. Fiorentino, Numer. Algorithms 23, 2000):
q is read exactly, scaled by a power of two to roots of O(1) and made
monic on the grid 2^-(P+8), to which each iterate, value and step is
rounded once.  Settling, clustering, the Newton polish and the
re-expansion check compare exact squares, and each root is rounded once
to an mpc.  A cluster of size m is polished by plain Newton on q^(m-1),
whose root is simple there, and the clusters must re-expand to q, or the
search raises RootFindingError.  from_roots is the exact product of its
linear factors, rounded once per coefficient.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import reduce
from math import prod

from mpmath import mp

from . import scalar
from .errors import RootFindingError, UsageError
from .scalar import INF, Alpha, conj_scalar, to_mpc


def _collapser(values, tol):
    """The one collapse rule of the residue layer (degree honesty), which
    ResiduePoly's trim and each step of _divmod apply: the function that
    pops the top coefficients c of a list while |c| < tol * S, S = max |s|
    over ``values``.

    For tol = 2^t binary exponents decide: with T the largest mag_exp
    (scalar) over ``values``, the rounded S lies in [2^(T-1), 2^(T+1)), so
    a c with mag_exp above t + T + 1 stays and one below t + T - 1 goes.
    S and abs(c) are computed only for a c inside that band (or inf and
    nan), so every decision is the one abs(c) < tol * S gives.
    """
    t = scalar.pow2_exp(tol)
    tops = [scalar.mag_exp(c) for c in values]
    if t is None or None in tops:  # tol not a power of two; inf or nan
        z_lo, z_hi = -INF, INF
    else:
        z_lo, z_hi = t + max(tops) - 1, t + max(tops) + 1
    thr = None

    def collapse(r):
        nonlocal thr
        while r:
            top = scalar.mag_exp(r[-1])
            if top is not None and top > z_hi:
                break
            if top is None or top >= z_lo:
                if thr is None:
                    thr = tol * scalar.max_abs(values)
                if not abs(r[-1]) < thr:
                    break
            r.pop()
    return collapse


def _trim(coeffs):
    """Pop exact zeros, then leading dust (_collapser at zero_eps()), off a
    coefficient list."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if coeffs:
        _collapser(tuple(coeffs), scalar.zero_eps())(coeffs)
    return coeffs


def _mul(a, b):
    """Product of coefficient lists (ResiduePoly.__mul__), trimmed."""
    if not a or not b:
        return []
    out = [mp.mpc(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _sub(a, b):
    """a - b on coefficient lists, trimmed as ResiduePoly.__sub__ trims."""
    n = len(b)
    out = [x - b[i] if i < n else x for i, x in enumerate(a)]
    out += [-y for y in b[len(a):]]
    return _trim(out)


def _divmod(a, b, tol):
    """Long division of coefficient lists (ResiduePoly.divmod); after each
    step the remainder collapses at tol, S = max(1, max |a_i|, max |b_j|)
    (_collapser)."""
    collapse = _collapser(a + b + [mp.mpf(1)], tol)
    r = list(a)
    db = len(b) - 1
    q = [mp.mpc(0)] * max(0, len(r) - db)
    inv = 1 / b[-1]
    while len(r) - 1 >= db and r:
        # the top term cancels against c * lc(b) and is popped, not formed
        k = len(r) - 1 - db
        c = q[k] = r.pop() * inv
        for j in range(db):
            r[k + j] -= c * b[j]
        collapse(r)
    return q, r


class ResiduePoly:
    """Dense polynomial over big complex scalars; index i = coefficient of t^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, *, trim: bool = True):
        mpc = mp.mpc
        coeffs = [c if type(c) is mpc else to_mpc(c) for c in coeffs]
        if trim:
            _trim(coeffs)
        self.coeffs = coeffs

    @classmethod
    def from_roots(cls, pairs) -> "ResiduePoly":
        """Monic product of (t - c)^mult over (root, mult) pairs: the roots
        read exactly (scalar.fixed_point), their product formed exactly
        (_expand) and each coefficient rounded once."""
        cs = [c for c, mult in pairs for _ in range(mult)]
        re, im, e, _ = scalar.fixed_point(cs) or scalar.fixed_point([to_mpc(c) for c in cs])
        return cls([scalar.from_fixed_point(a, b, e * (len(cs) - j))
                    for j, (a, b) in enumerate(_expand(zip(re, im)))], trim=False)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if self.is_zero:
            raise UsageError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return mp.mpc(0)

    def monic(self) -> "ResiduePoly":
        if self.is_zero:
            return self
        c = self.lc
        return ResiduePoly([x / c for x in self.coeffs], trim=False)

    def eval(self, w):
        acc = mp.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * w + c
        return acc

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return ResiduePoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self):
        return ResiduePoly([-c for c in self.coeffs], trim=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ResiduePoly):
            return ResiduePoly([c * other for c in self.coeffs])
        return ResiduePoly(_mul(self.coeffs, other.coeffs), trim=False)

    __rmul__ = __mul__

    def divmod(self, other, tol=None):
        """Long division; trailing coefficients of the remainder below
        tol * max(1, |self|, |other|) are collapsed so degrees drop
        honestly (_collapser)."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if tol is None:
            tol = scalar.zero_eps()
        q, r = _divmod(self.coeffs, other.coeffs, tol)
        return ResiduePoly(q, trim=False), ResiduePoly(r, trim=False)

    def conj_coeffs(self) -> "ResiduePoly":
        return ResiduePoly([conj_scalar(c) for c in self.coeffs], trim=False)

    def max_abs(self):
        return scalar.max_abs(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, ResiduePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self):
        return scalar.fmt_sum((scalar.fmt_scalar(c), scalar.fmt_tpow(i))
                              for i, c in reversed(list(enumerate(self.coeffs)))
                              if c != 0 or i == self.degree)

    def __repr__(self):
        return f"<ResiduePoly {self}>"


@dataclass(frozen=True)
class RootsReport:
    pairs: list
    residual: object

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)


def roots(p: ResiduePoly) -> RootsReport:
    """All complex roots with multiplicities.

    k exactly-zero low coefficients give the root 0 with multiplicity k;
    the others come from the Durand-Kerner search on exact Gaussian
    integers of _nonzero_roots, which raises RootFindingError when the
    iteration does not settle or no clustering radius re-expands.  The
    residual is max |p(r)| over the returned roots r, each p(r) formed
    exactly and the largest rounded once (_residual).
    """
    if p.degree < 1:
        raise UsageError("root finding needs degree >= 1")
    k = next(i for i, c in enumerate(p.coeffs) if c != 0)
    pairs = [(mp.mpc(0), k)] if k else []
    if p.degree > k:
        pairs += _nonzero_roots(ResiduePoly(p.coeffs[k:], trim=False))
    pairs.sort(key=lambda rm: (mp.re(rm[0]), mp.im(rm[0])))
    return RootsReport(pairs, _residual(p, pairs))


def _residual(p: ResiduePoly, pairs):
    """max |p(r)| over the roots r of ``pairs``: p and each r read exactly
    (scalar.fixed_point), p(r) by _horner with no rounding, and only the
    largest formed as a number."""
    re, im, e, _ = scalar.fixed_point(p.coeffs)
    zr, zi, ez, _ = scalar.fixed_point([r for r, _ in pairs])
    ez, k, n = min(ez, 0), max(ez, 0), len(re) - 1  # the roots (zr + i zi) 2^(k + ez)
    cs = [(a << -ez * (n - i), b << -ez * (n - i)) for i, (a, b) in enumerate(zip(re, im))]
    # each p(r) 2^-(e + ez n), exactly
    vr, vi = max((_horner(cs, a << k, b << k, 0) for a, b in zip(zr, zi)),
                 key=lambda v: v[0] * v[0] + v[1] * v[1])
    return abs(scalar.from_fixed_point(vr, vi, e + ez * n))


def _sweep(ev, zs):
    """One Durand-Kerner sweep over the complex zs in place; returns the
    largest step.  A zero denominator raises ZeroDivisionError."""
    maxstep = 0
    for k, z in enumerate(zs):
        step = ev(z) / prod(z - w for j, w in enumerate(zs) if j != k)
        zs[k] = z - step
        maxstep = max(maxstep, abs(step))
    return maxstep


def _double_seeds(coeffs):
    """Durand-Kerner in double from (0.4+0.9i)^k, to a step below 2^-40, a
    stall below 2^-17 or 64 sweeps; None when a coefficient, an iterate or
    a step leaves the double range or a denominator is 0."""
    cs = [complex(c) for c in reversed(coeffs)]
    if not all(cmath.isfinite(x) and (x or c == 0) for x, c in zip(cs, reversed(coeffs))):
        return None
    zs, prev = [complex(0.4, 0.9) ** (k + 1) for k in range(len(cs) - 1)], INF
    try:
        for _ in range(64):
            step = _sweep(lambda w: reduce(lambda acc, c: acc * w + c, cs), zs)
            if step < 2.0 ** -40 or prev / 2 < step < 2.0 ** -17:
                break
            prev = step
    except (ZeroDivisionError, OverflowError):
        return None
    return zs if all(cmath.isfinite(z) for z in zs) else None


def _nonzero_roots(q: ResiduePoly) -> list:
    """The (root, multiplicity) pairs of q with q(0) != 0, from Durand-Kerner
    on exact Gaussian integers.

    Scale.  q is read once, exactly (scalar.fixed_point).  With t = 2^s u,
    s the power of two that brings its roots to O(1) (_scale), the monic
    q(2^s u) 2^(-s deg q) is formed on the grid 2^-F, F = P + 8 (the level
    floor_tol(-8)), each coefficient rounded once (_gdiv).  An iterate is
    a Gaussian integer U, the root U 2^(s-F), and each value and step the
    search forms is rounded once to that grid (_horner, _gdiv).  That
    rounding is the iteration's noise floor, on which the multiplicities
    rest, so F is a rule: a grid much finer than 2^-P resolves the split
    roots of a rounded multiple root and returns them apart.

    Search.  Durand-Kerner runs in double from _double_seeds on the scaled
    q, or else from (0.4+0.9i)^k, then on the grid (_grid_sweep), which
    alone decides settling: a largest step below floor_tol(12), or one
    below cluster_tol() and above half the one before.  Clustering, the
    Newton polish and the re-expansion check follow (_cluster_polish,
    _reexpands); the first radius, from cluster_tol() up by factors of 4,
    whose clusters re-expand to q within noise(|q|) gives the pairs, each
    root rounded once (_rounded).  Every decision compares exact squares:
    the rounding floors of settling and the polish against their level in
    u, as a rounding unit scales with the roots, and the clustering radius
    and the re-expansion against theirs in t.
    """
    re, im, _, _ = scalar.fixed_point(q.coeffs)
    F = -scalar.pow2_exp(scalar.floor_tol(-8))
    s = _scale(re, im)
    g, n = s - F, len(re) - 1
    qs = [_gdiv(a, b, re[n], im[n], F - s * (n - i)) for i, (a, b) in enumerate(zip(re, im))]
    zs = (_double_seeds([complex(a / (1 << F), b / (1 << F)) for a, b in qs])
          or [complex(0.4, 0.9) ** (k + 1) for k in range(n)])
    zs = [tuple(_rdiv(a << F, b) for a, b in map(float.as_integer_ratio, (z.real, z.imag)))
          for z in zs]
    # log2 of floor_tol(12) and cluster_tol(): in u, 2^(F + level) grid units
    hard = scalar.pow2_exp(scalar.floor_tol(12))
    soft = scalar.pow2_exp(scalar.cluster_tol())
    prev = INF
    for _ in range(512):
        # a zero denominator is floor_tol(12): the value times 2^-hard
        step = _grid_sweep(qs, zs, F, -hard)
        # multiple roots stall around the sqrt-precision floor
        if step < 1 << 2 * (F + hard) or prev < 4 * step < 4 << 2 * (F + soft):
            break
        prev = step
    else:
        raise RootFindingError("root iteration did not settle in 512 steps",
                               best=[scalar.from_fixed_point(*z, g) for z in zs])

    # iterates around an m-fold root stall at radius ~eps^(1/m), so the
    # right clustering radius is not known a priori: escalate it until the
    # clustered-and-polished roots re-expand to the input polynomial
    zs.sort()
    derivs = [qs]
    radius = soft
    for _ in range(max(2, mp.prec // 8)):
        pairs = _cluster_polish(derivs, zs, radius, g)
        if _reexpands(pairs, re, im, g):
            return _rounded(pairs, g)
        radius += 2
    raise RootFindingError("no clustering radius re-expands the roots to q",
                           best=[scalar.from_fixed_point(*z, g) for z in zs])


def _cluster_polish(derivs, zs, radius: int, g: int):
    """Single-linkage clustering of the sorted grid iterates zs, each the
    root U 2^g, at the radius 2^radius in t, then up to three Newton steps
    per center on q^(m-1), whose root is simple on a cluster of size m, to
    a step <= floor_tol(12) max(1, |center|) in u; a value of q^(m) below
    floor_tol(12) stops them.  derivs = [q, q', ...], on the grid of
    _nonzero_roots, grows only when a cluster needs a higher derivative.
    Returns the (center, m) pairs, centers on the grid, sorted."""
    F = -scalar.pow2_exp(scalar.floor_tol(-8))
    hard = scalar.pow2_exp(scalar.floor_tol(12))
    floor = 1 << 2 * (F + hard)
    d = len(zs)
    labels = list(range(d))
    for i in range(d):
        for j in range(i + 1, d):
            ur, ui = zs[i][0] - zs[j][0], zs[i][1] - zs[j][1]
            if _cmp(ur * ur + ui * ui, g, 1, radius) <= 0:
                old, new = labels[j], labels[i]
                for k in range(d):
                    if labels[k] == old:
                        labels[k] = new
    clusters: dict = {}
    for k in range(d):
        clusters.setdefault(labels[k], []).append(zs[k])
    pairs = []
    for members in clusters.values():
        mult = len(members)
        while len(derivs) <= mult:
            derivs.append([(i * a, i * b) for i, (a, b) in enumerate(derivs[-1])][1:])
        cr, ci = (_rdiv(sum(z[x] for z in members), mult) for x in (0, 1))
        for _ in range(3):
            pr, pi = _horner(derivs[mult], cr, ci, F)
            if pr * pr + pi * pi < floor:
                break
            sr, si = _gdiv(*_horner(derivs[mult - 1], cr, ci, F), pr, pi, F)
            cr, ci = cr - sr, ci - si
            step = sr * sr + si * si
            if step <= floor or step << -2 * hard <= cr * cr + ci * ci:
                break
        pairs.append(((cr, ci), mult))
    pairs.sort()
    return pairs


def _reexpands(pairs, re, im, g: int) -> bool:
    """The product of (t - c)^m over the grid ``pairs``, each c the root
    U 2^g (_expand, exact), lies within noise(|q|) of the monic q whose
    exact coefficients (re, im) _nonzero_roots read, coefficient by
    coefficient in exact squares: |E_j lc(q) 2^(g(n-j)) - q_j| <=
    zero_eps() max_i |q_i| over the coefficients q_j of the unscaled q,
    before it is made monic."""
    eps = scalar.pow2_exp(scalar.zero_eps())
    n = len(re) - 1
    top = max(a * a + b * b for a, b in zip(re, im))
    for j, (er, ei) in enumerate(_expand([c for c, m in pairs for _ in range(m)])[:n]):
        k = g * (n - j)  # E_j lc(q) 2^k - q_j, at the exponent min(k, 0)
        xr, xi = er * re[n] - ei * im[n], er * im[n] + ei * re[n]
        dr, di = ((x << max(k, 0)) - (y << max(-k, 0)) for x, y in ((xr, re[j]), (xi, im[j])))
        if _cmp(dr * dr + di * di, min(k, 0) - eps, top, 0) > 0:
            return False
    return True


def _scale(re, im) -> int:
    """The least s with |q_i| < 2^(s(n-i) + 3/2) for the monic q of the
    exact coefficients re + i im, n its degree, read off bit lengths; the
    roots of q(2^s u) then lie below 2^(5/2) (Fujiwara's bound)."""
    tops = [max(abs(a), abs(b)).bit_length() for a, b in zip(re, im)]
    return max(-((tops[-1] - t) // (len(tops) - 1 - i)) for i, t in enumerate(tops[:-1]) if t)


def _grid_sweep(qs, zs, F: int, tiny: int) -> int:
    """One Durand-Kerner sweep over the grid iterates zs in place: the step
    of u_k is q(u_k) / prod_(j != k) (u_k - u_j), the value by _horner,
    the product exact and the quotient rounded once to the grid (_gdiv); a
    zero product takes the value times 2^tiny, tiny >= 0.  Returns the
    largest squared step, in grid units."""
    sh = F * (len(zs) - 1)
    top = 0
    for k, (zr, zi) in enumerate(zs):
        dr, di = 1, 0
        for j, (wr, wi) in enumerate(zs):
            if j != k:
                dr, di = dr * (zr - wr) - di * (zi - wi), dr * (zi - wi) + di * (zr - wr)
        vr, vi = _horner(qs, zr, zi, F)
        sr, si = _gdiv(vr, vi, dr, di, sh) if dr or di else (vr << tiny, vi << tiny)
        zs[k] = zr - sr, zi - si
        top = max(top, sr * sr + si * si)
    return top


def _horner(cs, zr, zi, f: int):
    """Horner's rule for the Gaussian-integer coefficients cs, (re, im)
    pairs low degree first, at z = (zr + i zi) 2^-f, each product rounded
    to the nearest integer after the shift by f (exact at f = 0)."""
    ar, ai = cs[-1]
    h = 1 << f >> 1
    for br, bi in cs[-2::-1]:
        ar, ai = ((ar * zr - ai * zi + h) >> f) + br, ((ar * zi + ai * zr + h) >> f) + bi
    return ar, ai


def _gdiv(vr, vi, dr, di, sh: int):
    """(vr + i vi) 2^sh / (dr + i di), each part rounded to the nearest
    integer."""
    norm = (dr * dr + di * di) << max(-sh, 0)
    sh = max(sh, 0)
    return _rdiv((vr * dr + vi * di) << sh, norm), _rdiv((vi * dr - vr * di) << sh, norm)


def _rdiv(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, for b > 0."""
    return (2 * a + b) // (2 * b)


def _cmp(x2, ex, y2, ey) -> int:
    """The sign of x2 4^ex - y2 4^ey for ints x2, y2 >= 0: two squared
    moduli, each at its own power of two, compared exactly."""
    m = min(ex, ey)
    x2, y2 = x2 << 2 * (ex - m), y2 << 2 * (ey - m)
    return (x2 > y2) - (x2 < y2)


def _expand(zs) -> list:
    """The coefficients (re, im), low degree first, of the product of v - z
    over the Gaussian integers z = (re, im) in zs, exactly."""
    cs = [(1, 0)]
    for zr, zi in zs:
        cs = [(a - zr * c + zi * d, b - zr * d - zi * c)
              for (a, b), (c, d) in zip([(0, 0)] + cs, cs + [(0, 0)])]
    return cs


def _rounded(pairs, g: int):
    """The (root, mult) pairs with each grid root U rounded once to the
    root U 2^g (scalar.from_fixed_point), a part below its rounding unit
    floor_tol(0) |root| set to zero first: that part is dust."""
    unit = -2 * scalar.pow2_exp(scalar.floor_tol(0))
    out = []
    for (ur, ui), m in pairs:
        n2 = ur * ur + ui * ui
        ur, ui = (0 if x * x << unit < n2 else x for x in (ur, ui))
        out.append((scalar.from_fixed_point(ur, ui, g), m))
    return out


def ext_gcd(p: ResiduePoly, q: ResiduePoly, tol=None):
    """Extended Euclid: returns (g, a, b) with a*p + b*q = g.

    If p, q are coprime, g is normalized to the constant 1.  The loop runs
    on coefficient lists, with the trims of ResiduePoly arithmetic, and
    stops before the cofactor update of the step whose remainder is zero,
    which would be discarded; a nonzero constant divisor ends it with no
    division (a nonzero q reduced modulo a linear p is one).
    """
    if tol is None:
        tol = scalar.zero_eps()
    r0, r1 = p.coeffs, q.coeffs
    s0, s1 = [mp.mpc(1)], []
    t0, t1 = [], [mp.mpc(1)]
    while r1:
        quo, rem = _divmod(r0, r1, tol) if len(r1) > 1 else (None, [])
        if not rem:
            r0, s0, t0 = r1, s1, t1
            break
        r0, r1 = r1, rem
        s0, s1 = s1, _sub(s0, _mul(quo, s1))
        t0, t1 = t1, _sub(t0, _mul(quo, t1))
    r0 = ResiduePoly(r0, trim=False)
    s0, t0 = ResiduePoly(s0, trim=False), ResiduePoly(t0, trim=False)
    if r0.is_zero:
        return r0, s0, t0
    inv = 1 / r0.lc
    if r0.degree == 0:
        return ResiduePoly([1], trim=False), s0 * inv, t0 * inv
    return r0.monic(), s0 * inv, t0 * inv


class TMap:
    """The scaling T(w) = alpha_eff^(-1) w on residue roots, where alpha_eff
    = alpha^(1/L) is the multiplier of sigma on the working uniformizer;
    T^n multiplies by alpha_eff^(-n)."""

    __slots__ = ("alpha", "L")

    def __init__(self, alpha, L: int = 1):
        self.alpha = alpha if isinstance(alpha, Alpha) else Alpha(alpha)
        self.L = L

    @property
    def is_identity(self) -> bool:
        return self.alpha.is_one

    def mult(self, n: int):
        """alpha_eff^(-n) (Alpha.numeric_pow)."""
        return self.alpha.numeric_pow(-n, self.L)

    def alpha_eff(self):
        return self.alpha.numeric_pow(1, self.L)

    def apply(self, w, n: int = 1):
        if self.is_identity:
            return to_mpc(w)
        return self.mult(n) * w

    def __repr__(self):
        return f"TMap(alpha={self.alpha!r}, L={self.L})"


def twist_residue(p: ResiduePoly, n: int, tmap: TMap) -> ResiduePoly:
    """Residue image of phi^n: substitute t -> alpha_eff^(-n) t.

    A value c is a root of the result iff T^n(c) is a root of p.  The
    result keeps the degree of p: its leading coefficient is lc(p) * s^deg
    with s = alpha_eff^(-n) != 0, however small, so nothing is trimmed.
    """
    if n == 0 or tmap.is_identity:
        return p
    return substitute(p, to_mpc(tmap.mult(n)), 0)


def substitute(p: ResiduePoly, s, c0) -> ResiduePoly:
    """p(s t + c0) by Horner's rule, acc <- acc * (s t + c0) + p_i, which
    forms each coefficient as acc_(k-1) s + acc_k c0 (plus p_i in degree
    0); the degree of p is kept."""
    if p.is_zero:
        return p
    acc = [p.coeffs[-1]]
    for c in reversed(p.coeffs[:-1]):
        acc = ([acc[0] * c0 + c]
               + [acc[k - 1] * s + acc[k] * c0 for k in range(1, len(acc))]
               + [acc[-1] * s])
    return ResiduePoly(acc, trim=False)


def orbit_exponent(tmap: TMap, c1, c):
    """The n >= 1 with T^n(c1) = c, or None.  Decided in closed form:
    membership means c = alpha_eff^(-n) c1.  When T fixes c1 (T is the
    identity, or c1 is its fixed point 0) the orbit is {c1} and every n
    qualifies, so the answer is 1.  Roots match within
    scalar.cluster_tol()."""
    tol = scalar.cluster_tol()
    c1 = to_mpc(c1)
    c = to_mpc(c)
    scale_bound = 1 + abs(c1) + abs(c)
    if tmap.is_identity or abs(c1) <= tol:
        return 1 if abs(c - c1) <= tol * scale_bound else None
    ratio = c / c1
    # the ratio must be (tiny-or-not) real positive: relative imaginary test
    if abs(ratio) == 0 or mp.re(ratio) <= 0 or abs(mp.im(ratio)) > 16 * tol * abs(ratio):
        return None
    nf = -mp.log(mp.re(ratio)) / tmap.alpha.log_eff(tmap.L)
    n = int(mp.nint(nf))
    if n < 1 or abs(nf - n) > mp.mpf("0.25") or n > 10 ** 6:
        return None
    if abs(tmap.apply(c1, n) - c) <= 16 * tol * scale_bound:
        return n
    return None


def twist_coprime_affine(groots, hroots, tmap: TMap):
    """Decide for all n >= 1 at once whether res g, with the (root,
    multiplicity) pairs ``groots``, is coprime to the n-twisted res h,
    with the pairs ``hroots``.  Fails iff some root c of res g and root c'
    of res h have T^n(c) = c' for an integer n >= 1 (orbit_exponent: at
    most one candidate n per pair unless T fixes c).

    Returns None when coprime for all n, else (n, t - c) for the least n.
    """
    best = None
    for c, _ in groots:
        for cp, _ in hroots:
            n = orbit_exponent(tmap, c, cp)
            if n is not None and (best is None or n < best[0]):
                best = (n, ResiduePoly([-c, 1], trim=False))
    return best


def twist_coprime_periodic(gres: ResiduePoly, hres: ResiduePoly, twist_fn,
                           period: int):
    """Twisted coprimality when phi acts on residues with a finite period:
    check n = 1..period explicitly via the extended gcd."""
    if gres.degree < 1 or hres.degree < 1:
        return None
    for n in range(1, period + 1):
        g, _, _ = ext_gcd(gres, twist_fn(hres, n))
        if g.degree > 0:
            return (n, g)
    return None


# ---------------------------------------------------------------------------
# Delta-set diagnostics


def gamma_elements(alpha_eff, d: int, depth: int):
    """All d/(alpha_eff^(-n_1)+...+alpha_eff^(-n_d)) - 1 with 0 <= n_k <= depth."""
    a = to_mpc(alpha_eff).real
    out = []

    def rec(slots, n_min, acc):
        if slots == 0:
            out.append(d / acc - 1)
            return
        for n in range(n_min, depth + 1):
            rec(slots - 1, n, acc + a ** (-n))

    rec(d, 0, mp.mpf(0))
    return out


def delta_pretest(c, a0, aeff, tol):
    """The quick tests of Delta-set membership, for mpc c and a0 and real
    aeff = alpha_eff.  False when c is certainly outside the set (c/a0
    nonreal, or Re(c/a0) of the sign that no alpha_eff^(-n) sum reaches);
    True or False when the set is {0} (a0 = 0 or alpha_eff = 1), as c is 0
    or not; None when only the search over n can tell."""
    if abs(a0) <= tol:
        return abs(c) <= tol
    ratio = c / a0
    if abs(mp.im(ratio)) > tol * (1 + abs(ratio)):
        return False
    if (aeff > 1 and mp.re(ratio) < -tol) or (aeff < 1 and mp.re(ratio) > tol):
        return False
    if aeff == 1:
        return abs(c) <= tol
    return None


def delta_set_member(c, a0, alpha_eff, d: int, depth: int = 24):
    """Diagnostic decision whether c lies in the set
    {a0 (d/(alpha_eff^(-n_1)+...+alpha_eff^(-n_d)) - 1)}.

    Returns ("member", (n_1..n_d)), ("nonmember", None) or ("unknown", None)
    when the search depth is exhausted without a decision.  Not on the
    factorization path: its peel rule needs no Delta-set test.
    Values match within scalar.cluster_tol().
    """
    tol = scalar.cluster_tol()
    c = to_mpc(c)
    a0 = to_mpc(a0)
    a = to_mpc(alpha_eff).real
    quick = delta_pretest(c, a0, a, tol)
    if quick is not None:
        return ("member", tuple([0] * d)) if quick else ("nonmember", None)
    x = mp.re(c / a0)
    if x <= -1 + tol:
        return ("nonmember", None)
    target = d / (1 + x)  # required sum of alpha_eff^(-n_k)

    unknown = [False]

    def rec(slots, remaining, n_min):
        if slots == 0:
            return [] if abs(remaining) <= tol * d else None
        for n in range(n_min, depth + 1):
            v = a ** (-n)
            if a > 1:
                if v * slots < remaining - tol:
                    # terms only shrink from here on; within this depth nothing fits
                    break
                if v > remaining + tol:
                    continue
            else:
                if v > remaining + tol:
                    break
                if v * slots < remaining - tol and n == depth:
                    unknown[0] = True
            got = rec(slots - 1, remaining - v, n)
            if got is not None:
                return [n] + got
        else:
            if slots > 0 and a ** (-mp.mpf(depth)) * slots >= remaining - tol and a > 1:
                unknown[0] = True
        return None

    hit = rec(d, mp.mpf(target), 0)
    if hit is not None:
        return ("member", tuple(hit))
    return ("unknown", None) if unknown[0] else ("nonmember", None)
