"""Truncated Puiseux series with exact rational exponents.

A series lives in integer powers of the uniformizer y = x^(1/L); terms are
a sparse map k -> coefficient meaning c * x^(k/L), and ``trunc`` (in the
same 1/L units) records up to which exponent the series is known.  A trunc
of None means the value is exact (all absent coefficients are true zeros).
Operations compute the tightest provable truncation and never pad with
fabricated zeros.

Rounding contract of the product: when the coefficients are mpmath numbers
and ints, each product coefficient is rounded once.  The operands are read
exactly as Gaussian-integer mantissas at a shared binary exponent
(``scalar.fixed_point``), the convolution sum is formed exactly, and it is
rounded to nearest at the working precision; the result is the correctly
rounded exact sum.  Exact coefficients (ints alone, Fraction,
GaussianRational) and inf/nan are multiplied term by term as before.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from . import scalar
from .errors import PrecisionExhausted, UsageError, ZeroInversion
from .scalar import (EXACT_TYPES, INF, Alpha, fmt_exponent, fmt_scalar, fmt_term,
                     is_negligible, to_mpc)


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


class PuiseuxSeries:
    __slots__ = ("L", "terms", "trunc")

    def __init__(self, L: int, terms: dict, trunc=None, *, normalize: bool = True):
        if L < 1:
            raise UsageError("ramification must be a positive integer")
        self.L = L
        self.trunc = trunc
        if normalize:
            eps = scalar.zero_eps()
            kept = {}
            for k, c in terms.items():
                if trunc is not None and k >= trunc:
                    continue
                if not is_negligible(c, eps):
                    kept[k] = c
            self.terms = kept
        else:
            self.terms = dict(terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, L: int = 1, trunc=None) -> "PuiseuxSeries":
        return cls(L, {}, trunc, normalize=False)

    @classmethod
    def constant(cls, c, L: int = 1) -> "PuiseuxSeries":
        return cls(L, {0: c})

    @classmethod
    def one(cls, L: int = 1) -> "PuiseuxSeries":
        return cls(L, {0: 1}, normalize=False)

    @classmethod
    def x_pow(cls, q, coeff=1) -> "PuiseuxSeries":
        """The monomial coeff * x^q for rational q."""
        q = Fraction(q)
        return cls(q.denominator, {q.numerator: coeff})

    @classmethod
    def from_terms(cls, pairs, trunc=None) -> "PuiseuxSeries":
        """Build from (rational exponent, coefficient) pairs; trunc is a
        rational x-exponent bound or None."""
        L = 1
        exps = []
        for q, _ in pairs:
            q = Fraction(q)
            exps.append(q)
            L = _lcm(L, q.denominator)
        if trunc is not None:
            trunc = Fraction(trunc)
            L = _lcm(L, trunc.denominator)
        terms: dict = {}
        for q, c in zip(exps, (c for _, c in pairs)):
            k = q.numerator * (L // q.denominator)
            terms[k] = terms.get(k, 0) + c
        t = None if trunc is None else trunc.numerator * (L // trunc.denominator)
        return cls(L, terms, t)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def ord_k(self):
        """Order in 1/L units; the zero series reports its truncation bound."""
        if self.terms:
            return min(self.terms)
        return INF if self.trunc is None else self.trunc

    def ord(self):
        """x-adic order as an exact Fraction, or +inf for (known) zero."""
        if not self.terms:
            return INF
        return Fraction(min(self.terms), self.L)

    def coeff(self, q) -> object:
        q = Fraction(q)
        if self.L % q.denominator:
            return 0
        return self.terms.get(q.numerator * (self.L // q.denominator), 0)

    def reembed(self, k: int) -> "PuiseuxSeries":
        """Refine the ramification from L to k*L; pure re-indexing."""
        if k == 1:
            return self
        if k < 1:
            raise UsageError("reembed factor must be >= 1")
        t = None if self.trunc is None else self.trunc * k
        return PuiseuxSeries(self.L * k, {j * k: c for j, c in self.terms.items()},
                             t, normalize=False)

    def at_ram(self, L: int) -> "PuiseuxSeries":
        if L == self.L:
            return self
        if L % self.L:
            raise UsageError(f"cannot re-embed ramification {self.L} into {L}")
        return self.reembed(L // self.L)

    def unify(self, other: "PuiseuxSeries"):
        L = _lcm(self.L, other.L)
        return self.at_ram(L), other.at_ram(L)

    def truncate(self, T_k) -> "PuiseuxSeries":
        """Restrict knowledge to exponents < T_k (1/L units)."""
        if T_k == INF:
            return self
        T_k = int(T_k)
        t = T_k if self.trunc is None else min(self.trunc, T_k)
        return PuiseuxSeries(self.L, {k: c for k, c in self.terms.items() if k < t},
                             t, normalize=False)

    def x_shift(self, j: int) -> "PuiseuxSeries":
        """Multiply by y^j where y = x^(1/L); exact exponent shift."""
        t = None if self.trunc is None else self.trunc + j
        return PuiseuxSeries(self.L, {k + j: c for k, c in self.terms.items()},
                             t, normalize=False)

    def drop_small_upto(self, k_max: int, tol) -> "PuiseuxSeries":
        """Remove coefficients at exponents <= k_max with modulus <= tol."""
        terms = {k: c for k, c in self.terms.items()
                 if k > k_max or abs(to_mpc(c)) > tol}
        return PuiseuxSeries(self.L, terms, self.trunc, normalize=False)

    # -- field operations ---------------------------------------------------

    def __neg__(self):
        return PuiseuxSeries(self.L, {k: -c for k, c in self.terms.items()},
                             self.trunc, normalize=False)

    def __add__(self, other):
        if not isinstance(other, PuiseuxSeries):
            other = PuiseuxSeries.constant(other)
        a, b = self.unify(other)
        t = _min_trunc(a.trunc, b.trunc)
        terms = dict(a.terms)
        for k, c in b.terms.items():
            terms[k] = terms.get(k, 0) + c
        return PuiseuxSeries(a.L, terms, t)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if not isinstance(other, PuiseuxSeries):
            other = PuiseuxSeries.constant(other)
        a, b = self.unify(other)
        t = _min_trunc(a.trunc, b.trunc)
        terms = dict(a.terms)
        for k, c in b.terms.items():
            terms[k] = terms.get(k, 0) - c
        return PuiseuxSeries(a.L, terms, t)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return self.scale(other)
        a, b = self.unify(other)
        ta = INF if a.trunc is None else a.trunc
        tb = INF if b.trunc is None else b.trunc
        t = min(ta + b.ord_k(), tb + a.ord_k())
        terms = _mul_fixed_point(a.terms, b.terms, t)
        if terms is None:
            terms = {}
            for i, ci in a.terms.items():
                for j, cj in b.terms.items():
                    k = i + j
                    if k >= t:
                        continue
                    terms[k] = terms.get(k, 0) + ci * cj
        return PuiseuxSeries(a.L, terms, None if t == INF else int(t))

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c) -> "PuiseuxSeries":
        """Multiply every coefficient by the scalar c."""
        return PuiseuxSeries(self.L, {k: v * c for k, v in self.terms.items()}, self.trunc)

    def inverse(self, target_k=None) -> "PuiseuxSeries":
        """Multiplicative inverse by geometric-series iteration.

        ``target_k`` is the requested absolute truncation in 1/L units; for
        a single exact monomial the inverse is exact and needs no target.
        """
        if self.is_zero:
            raise ZeroInversion("inversion of a (numerically) zero series")
        m = min(self.terms)
        c = self.terms[m]
        if len(self.terms) == 1 and self.trunc is None:
            inv = PuiseuxSeries(self.L, {-m: 1 / c}, None, normalize=False)
            return inv if target_k is None else inv.truncate(target_k)
        avail = INF if self.trunc is None else self.trunc - 2 * m
        if target_k is None:
            if avail == INF:
                raise UsageError("inverse of an exact multi-term series needs a target order")
            target_k = avail
        if target_k > avail:
            raise PrecisionExhausted(
                f"inverse requested to order {target_k} but only {avail} is available")
        rel = int(target_k) + m  # relative order needed for the unit part
        unit = self.x_shift(-m).scale(1 / c)
        u = (unit - 1).truncate(rel)
        acc = PuiseuxSeries.one(self.L)
        pw = PuiseuxSeries.one(self.L)
        while True:
            pw = (pw * (-u)).truncate(rel)
            if pw.ord_k() >= rel:
                break
            acc = acc + pw
        return (acc.scale(1 / c)).x_shift(-m).truncate(int(target_k))

    # -- twist action -------------------------------------------------------

    def sigma_pow(self, q, alpha: Alpha) -> "PuiseuxSeries":
        """Apply sigma^q: each term c*x^(k/L) picks up the factor alpha^(q*k/L),
        taken for numeric coefficients from the memo of ``alpha.numeric_pow``."""
        q = Fraction(q)
        if q == 0 or alpha.is_one:
            return self
        num, den = q.numerator, q.denominator * self.L
        terms = {}
        for k, c in self.terms.items():
            if isinstance(c, EXACT_TYPES):
                terms[k] = c * alpha.pow(Fraction(num * k, den))
            else:
                terms[k] = c * alpha.numeric_pow(num * k, den)
        return PuiseuxSeries(self.L, terms, self.trunc)

    def conjugate(self) -> "PuiseuxSeries":
        return PuiseuxSeries(self.L, {k: scalar.conj_scalar(c) for k, c in self.terms.items()},
                             self.trunc, normalize=False)

    def residue(self):
        """Constant-term image in the residue field; requires ord >= 0."""
        if self.terms and min(self.terms) < 0:
            raise UsageError("residue of a series with negative order")
        return self.terms.get(0, 0)

    # -- measurement and comparison ----------------------------------------

    def max_abs(self):
        if not self.terms:
            return scalar.mp.mpf(0)
        return max(abs(to_mpc(c)) for c in self.terms.values())

    def deviation(self, other) -> object:
        """Max coefficient modulus of self - other up to shared truncation."""
        return (self - other).max_abs()

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            if not self.terms:
                return other == 0 and self.trunc is None
            other = PuiseuxSeries.constant(other)
        a, b = self.unify(other)
        return a.terms == b.terms and a.trunc == b.trunc

    __hash__ = None

    def __str__(self):
        parts = []
        for k in sorted(self.terms):
            q = Fraction(k, self.L)
            x = "" if q == 0 else "x" if q == 1 else f"x^{fmt_exponent(q)}"
            parts.append(fmt_term(fmt_scalar(self.terms[k]), x, first=not parts))
        body = " ".join(parts) if parts else "0"
        if self.trunc is not None:
            tq = Fraction(self.trunc, self.L)
            o = f"O(x^{fmt_exponent(tq)})" if tq != 1 else "O(x)"
            body = f"{body} + {o}" if parts else o
        return body

    def __repr__(self):
        return f"<PuiseuxSeries {self}>"


def _mul_fixed_point(x: dict, y: dict, t):
    """Product coefficients k < t of the term maps x and y as an exact
    Gaussian-integer convolution, each rounded once (see the module
    docstring).  None when the loop in ``__mul__`` must run instead: an
    operand holds an exact rational, inf or nan, or both hold only ints.
    The keys are those the loop would produce, zero sums included."""
    if not x or not y:
        return None
    x0, y0 = min(x), min(y)
    # terms that meet no partner below t do not enter the product
    xn = min(max(x), t - 1 - y0) - x0 + 1
    yn = min(max(y), t - 1 - x0) - y0 + 1
    if xn <= 0 or yn <= 0:
        return {}
    xs, x_full = _dense(x, x0, xn)
    ys, y_full = _dense(y, y0, yn)
    fx = scalar.fixed_point(xs)
    fy = scalar.fixed_point(ys)
    if fx is None or fy is None or not (fx[3] or fy[3]):
        return None
    xr, xi, ex, x_kind = fx
    yr, yi, ey, y_kind = fy
    n = min(xn + yn - 1, t - x0 - y0)
    re, im = _convolve(xr, xi, yr, yi, n)
    if x_full and y_full:
        support = range(n)
    else:
        support = sorted({i + j - x0 - y0 for i in x for j in y if i + j < t})
    e = ex + ey
    to_num = scalar.from_fixed_point
    if x_kind < 2 and y_kind < 2:  # real operands give mpf coefficients
        return {x0 + y0 + s: to_num(re[s], None, e) for s in support}
    return {x0 + y0 + s: to_num(re[s], im[s], e) for s in support}


def _dense(terms: dict, k0: int, n: int):
    """Coefficients at k0 .. k0+n-1 as a list, 0 where absent, and whether
    every one of them is present."""
    out = [0] * n
    hits = 0
    for k, c in terms.items():
        if k - k0 < n:
            out[k - k0] = c
            hits += 1
    return out, hits == n


def _convolve(xr: list, xi: list, yr: list, yi: list, n: int):
    """The first n coefficients of the product of the Gaussian-integer
    sequences xr + i*xi and yr + i*yi, exactly, as (re, im) lists.  Three
    dot products per coefficient: re = p1 - p2, im = p3 - p1 - p2."""
    nx, ny = len(xr), len(yr)
    xs = [a + b for a, b in zip(xr, xi)]
    yr, yi = yr[::-1], yi[::-1]  # reversed: each dot product reads both slices forward
    ys = [a + b for a, b in zip(yr, yi)]
    re, im = [], []
    for s in range(n):
        lo = s - ny + 1 if s >= ny else 0
        hi = s + 1 if s < nx else nx
        j = ny - 1 - s
        p1 = sum(map(mul, xr[lo:hi], yr[j + lo:j + hi]))
        p2 = sum(map(mul, xi[lo:hi], yi[j + lo:j + hi]))
        re.append(p1 - p2)
        im.append(sum(map(mul, xs[lo:hi], ys[j + lo:j + hi])) - p1 - p2)
    return re, im


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class SkewContext:
    """The data (alpha, L, a) of the working ring F[t, sigma, delta_a].

    ``a`` is the parameter of the inner derivation delta_a(b) = a*(sigma(b)-b);
    a = 0 gives the plain twisted ring F[t, sigma].  Values are immutable.
    """

    __slots__ = ("alpha", "L", "a")

    def __init__(self, alpha, L: int = 1, a: PuiseuxSeries | None = None):
        self.alpha = alpha if isinstance(alpha, Alpha) else Alpha(alpha)
        if a is None:
            a = PuiseuxSeries.zero(L)
        else:
            L = _lcm(L, a.L)
            a = a.at_ram(L)
        if a.is_zero and a.trunc is not None:
            # the derivation parameter is a ring datum, not a measured
            # quantity; a value that cancelled to zero is the zero map
            a = PuiseuxSeries.zero(L)
        self.L = L
        self.a = a

    def alpha_eff(self):
        """Multiplier of sigma on the uniformizer y = x^(1/L)."""
        return self.alpha.pow(Fraction(1, self.L))

    def sigma(self, f: PuiseuxSeries) -> PuiseuxSeries:
        return f.sigma_pow(1, self.alpha)

    def delta(self, f: PuiseuxSeries) -> PuiseuxSeries:
        if self.a.is_zero:
            return PuiseuxSeries.zero(f.L, None)
        return self.a * (self.sigma(f) - f)

    def sigma_delta(self, f: PuiseuxSeries):
        """(sigma(f), delta(f)), taking sigma(f) once for both."""
        s = self.sigma(f)
        if self.a.is_zero:
            return s, PuiseuxSeries.zero(f.L, None)
        return s, self.a * (s - f)

    def at_ram(self, L: int) -> "SkewContext":
        if L == self.L:
            return self
        return SkewContext(self.alpha, L, self.a.at_ram(L))

    def __eq__(self, other):
        if not isinstance(other, SkewContext):
            return NotImplemented
        L = _lcm(self.L, other.L)
        return (self.alpha == other.alpha
                and self.a.at_ram(L) == other.a.at_ram(L))

    __hash__ = None

    def __repr__(self):
        return f"SkewContext(alpha={self.alpha!r}, L={self.L}, a={self.a})"


def sigma_apply(f: PuiseuxSeries, q, alpha) -> PuiseuxSeries:
    """sigma^q applied to f (free-function form)."""
    if not isinstance(alpha, Alpha):
        alpha = Alpha(alpha)
    return f.sigma_pow(q, alpha)


def trace_apply(b: PuiseuxSeries, d: int, alpha) -> PuiseuxSeries:
    """b + sigma(b) + ... + sigma^(d-1)(b)."""
    if not isinstance(alpha, Alpha):
        alpha = Alpha(alpha)
    acc = b
    for j in range(1, d):
        acc = acc + b.sigma_pow(j, alpha)
    return acc
