"""Truncated Puiseux series with exact rational exponents.

A series lives in integer powers of the uniformizer y = x^(1/L); terms are
a sparse map k -> coefficient meaning c * x^(k/L), and ``trunc`` (in the
same 1/L units) records up to which exponent the series is known.  A trunc
of None means the value is exact (all absent coefficients are true zeros).
Operations compute the tightest provable truncation and never pad with
fabricated zeros.  This module holds only series: the ring data
(alpha, L, a) of F[t, sigma, delta_a] belongs to ``skewpoly.PuiseuxRing``.

Where a value lives.  Every series holds one form, its exact row
(``_fx``, the form of ``_Fixed``): the coefficients as Gaussian mantissas at
one binary exponent, with whether they are real and the zero test its order
was read at.  ``__init__`` reads the terms it is given into that form once,
the kernel writes it, and ``terms`` is formed from it, exactly, only when
something reads it.  A numeric row holds Gaussian-integer mantissas; an
exact row (its zero test None) holds the int or Fraction re and im parts of
int, Fraction and GaussianRational values at exponent 0.

Rounding contract: negation, conjugation, truncation, shifts and
re-embedding are exact.  Every sum, product, scaling and twist runs on
``_Fixed``, exactly when every operand is exact and every twist factor it
applies is an exact rational (``Alpha.pow``), else rounding each output
coefficient once and zero-testing it by the one noise rule
(``scalar._below``) that normalizes a numeric series built from terms and
reads the order of both.  The products before that rounding are exact
convolutions of packed rows (``_convolve``, Kronecker substitution), exact
rows with Fraction parts over their common denominators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import lcm
from operator import not_

from mpmath import mp

from . import scalar
from .errors import PrecisionExhausted, UsageError, ZeroInversion
# is_negligible is not called here but stays bound: bench/tracer.py wraps it here too
from .scalar import (EXACT_TYPES, INF, Alpha, GaussianRational, _fixed_add, _fixed_twist,
                     fmt_exponent, fmt_scalar, fmt_sum, is_negligible, mp_operand)


class PuiseuxSeries:
    """A truncated Puiseux series sum c_k x^(k/L) + O(x^(trunc/L)).

    Its value is ``_fx`` = (x, real, eps): x its row (``_Fixed``), real
    whether its values are, and eps the zero-test exponent its order was
    read at, None for an exact row.  ``__init__`` reads its terms into x
    once: all exact, as they are, else as ``scalar.fixed_point`` reads them
    (``scalar.mp_operand``: a Fraction or GaussianRational rounded to
    nearest); inf, nan and other values are refused.  ``normalize`` drops
    the terms its zero test finds; without it they stay, and the order is
    the least key given.  ``terms`` is formed from x on each read (``_value``).
    """

    __slots__ = ("L", "trunc", "_fx")

    def __init__(self, L: int, terms: dict, trunc=None, *, normalize: bool = True):
        if L < 1:
            raise UsageError("ramification must be a positive integer")
        self.L, self.trunc = L, trunc
        t = INF if trunc is None else trunc
        terms = {k: c for k, c in terms.items() if k < t}
        k0 = min(terms, default=0)
        values = [0] * (max(terms, default=-1) - k0 + 1)
        for k, c in terms.items():
            values[k - k0] = c
        if all(isinstance(c, EXACT_TYPES) for c in values):
            real, eps = not any(isinstance(c, GaussianRational) for c in values), None
            re, im = ([c.re if isinstance(c, GaussianRational) else c for c in values],
                      [c.im if isinstance(c, GaussianRational) else 0 for c in values])
            small, e = [not c for c in values], 0
        else:
            fx = scalar.fixed_point(values) or scalar.fixed_point(list(map(mp_operand, values)))
            if fx is None:
                raise UsageError("series arithmetic needs finite coefficients, exact or mpmath")
            re, im, e, kind = fx
            real, eps = kind < 2, scalar.pow2_exp(scalar.zero_eps())
            small = list(scalar._below(re, im, e, scalar.zero_eps()))
        if normalize:
            for i in compress(count(), small):
                re[i] = im[i] = 0
            x = _strip(k0, re, im, e, t)
        else:
            x = (k0, re, im, e, t, next(compress(count(k0), map(not_, small)), t))
        self._fx = (x, real, eps) if x[1] else (x, True, None)

    @classmethod
    def _held(cls, L: int, x, real: bool, eps) -> "PuiseuxSeries":
        """The series of the exact row x (``_Fixed``), its values real when
        ``real``, its order read at the zero test 2^eps (None: exact); an
        empty row is the exact zero.  ``__init__`` is not run."""
        s = object.__new__(cls)
        s.L, s.trunc = L, None if x[4] == INF else x[4]
        s._fx = (x, real, eps) if x[1] else (x, True, None)
        return s

    def __getattr__(self, name):
        """``terms``, formed from the exact row on each read, which stays
        its one stored value (``_value``); it is the one name formed."""
        if name != "terms":
            raise AttributeError(name)
        (k0, re, im, _, _, _), _, _ = self._fx
        return {k0 + i: self._value(i) for i, (u, v) in enumerate(zip(re, im)) if u or v}

    def _value(self, i: int):
        """Coefficient i of the row, exactly: an mpf or mpc of a numeric row
        (``scalar.fixed_value``); of an exact one an int (an integral
        Fraction too) or Fraction, a GaussianRational if complex."""
        (_, re, im, e, _, _), real, eps = self._fx
        if eps is not None:
            return scalar.fixed_value(re[i], None if real else im[i], e)
        if not real:
            return GaussianRational(re[i], im[i])
        u = re[i]
        return u.numerator if isinstance(u, Fraction) and u.denominator == 1 else u

    def _with(self, L: int, x) -> "PuiseuxSeries":
        """A series held as this one is, with the exact row x at L."""
        return PuiseuxSeries._held(L, x, *self._fx[1:])

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
        exps = [Fraction(q) for q, _ in pairs]
        trunc = None if trunc is None else Fraction(trunc)
        L = lcm(*(q.denominator for q in exps), 1 if trunc is None else trunc.denominator)
        terms: dict = {}
        for q, c in zip(exps, (c for _, c in pairs)):
            k = q.numerator * (L // q.denominator)
            terms[k] = terms.get(k, 0) + c
        t = None if trunc is None else trunc.numerator * (L // trunc.denominator)
        return cls(L, terms, t)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._fx[0][1]

    def ord_k(self):
        """Order in 1/L units; the zero series reports its truncation bound."""
        x = self._fx[0]
        return x[0] if x[1] else x[4]

    def ord(self):
        """``ord_k`` in x units, as an exact Fraction: a zero series known
        to O(x^T) reports T, and only the exact zero reports +inf."""
        k = self.ord_k()
        return INF if k == INF else Fraction(k, self.L)

    def coeff(self, q) -> object:
        q = Fraction(q)
        if self.L % q.denominator:
            return 0
        return self.terms.get(q.numerator * (self.L // q.denominator), 0)

    def reembed(self, k: int) -> "PuiseuxSeries":
        """Refine the ramification from L to k*L; pure re-indexing."""
        if k < 1:
            raise UsageError("reembed factor must be >= 1")
        k0, re, im, e, t, o = self._fx[0]
        return self._with(self.L * k, (k0 * k, _spread(re, k), _spread(im, k), e, t * k, o * k))

    def at_ram(self, L: int) -> "PuiseuxSeries":
        if L == self.L:
            return self
        if L % self.L:
            raise UsageError(f"cannot re-embed ramification {self.L} into {L}")
        return self.reembed(L // self.L)

    def unify(self, other: "PuiseuxSeries"):
        L = lcm(self.L, other.L)
        return self.at_ram(L), other.at_ram(L)

    def truncate(self, T_k) -> "PuiseuxSeries":
        """Restrict knowledge to exponents < T_k (1/L units)."""
        if T_k == INF:
            return self
        x = _cut(self._fx[0], int(T_k))
        return self if x is self._fx[0] else self._with(self.L, x)

    def x_shift(self, j: int) -> "PuiseuxSeries":
        """Multiply by y^j where y = x^(1/L); exact exponent shift."""
        k0, re, im, e, t, o = self._fx[0]
        return self._with(self.L, (k0 + j, re, im, e, t + j, o + j))

    # -- field operations ---------------------------------------------------

    def __neg__(self):
        """-self, exactly: the mantissas negated, not rounded."""
        k0, re, im, e, t, o = self._fx[0]
        return self._with(self.L, (k0, [-u for u in re], [-v for v in im], e, t, o))

    def __add__(self, other):
        if not isinstance(other, PuiseuxSeries):
            other = PuiseuxSeries.constant(other)
        a, b = self.unify(other)
        ops = _Fixed(a.L)
        return ops.out(ops.sum(ops.reads([[a, b]])[0]))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if not isinstance(other, PuiseuxSeries):
            other = PuiseuxSeries.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return self.scale(other)
        return _times(*self.unify(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c) -> "PuiseuxSeries":
        """Multiply every coefficient by the scalar c: a product (``_times``)."""
        return _times(self, PuiseuxSeries(self.L, {0: c}, normalize=False))

    def inverse(self, target_k=None) -> "PuiseuxSeries":
        """Multiplicative inverse by geometric-series iteration.

        ``target_k`` is the requested absolute truncation in 1/L units; for
        a single exact monomial the inverse is exact and needs no target.
        """
        if self.is_zero:
            raise ZeroInversion("inversion of a (numerically) zero series")
        (m, re, _, _, _, _), _, _ = self._fx
        c = self._value(0)
        inv_c = Fraction(1, c) if isinstance(c, int) else 1 / c  # an int lead stays exact
        if len(re) == 1 and self.trunc is None:
            inv = PuiseuxSeries(self.L, {-m: inv_c}, None, normalize=False)
            return inv if target_k is None else inv.truncate(target_k)
        avail = _trunc_k(self) - 2 * m
        if target_k is None:
            if avail == INF:
                raise UsageError("inverse of an exact multi-term series needs a target order")
            target_k = avail
        if target_k > avail:
            raise PrecisionExhausted(
                f"inverse requested to order {target_k} but only {avail} is available")
        rel = int(target_k) + m  # relative order needed for the unit part
        unit = self.x_shift(-m).scale(inv_c)
        u = (unit - 1).truncate(rel)
        acc = PuiseuxSeries.one(self.L)
        pw = PuiseuxSeries.one(self.L)
        while True:
            pw = (pw * (-u)).truncate(rel)
            if pw.ord_k() >= rel:
                break
            acc = acc + pw
        return (acc.scale(inv_c)).x_shift(-m).truncate(int(target_k))

    # -- twist action -------------------------------------------------------

    def sigma_pow(self, q, alpha: Alpha) -> "PuiseuxSeries":
        """Apply sigma^q: each term c*x^(k/L) picks up the factor alpha^(q*k/L).
        An exact series stays exact where every factor ``alpha.pow`` gives
        its terms is an exact rational (``_exact_powers``); else the row of
        ``alpha.numeric_pow`` factors (``Alpha.twist_row``) multiplies the
        series on ``_Fixed``, mpf when its values and the factors are."""
        q = Fraction(q)
        if q == 0 or alpha.is_one or self.is_zero:
            return self
        num, den = q.numerator, q.denominator * self.L
        x, _, eps = self._fx
        w = eps is None and _exact_powers(alpha, num, den, x[0], x[0] + len(x[1]), [x])
        ops = _Fixed(self.L)
        k0, re, im, e, t, _ = ops.reads([[self]], exact=bool(w))[0][0]
        if not w:
            *w, kind = alpha.twist_row(num, den, k0, len(re))
            ops.real = ops.real and kind < 2
        return ops.out((k0, *_fixed_twist((re, im, e), w), t, None))

    def conjugate(self) -> "PuiseuxSeries":
        """The conjugate series, exactly: the im mantissas negated."""
        k0, re, im, e, t, o = self._fx[0]
        return self._with(self.L, (k0, re, [-v for v in im], e, t, o))

    def residue(self):
        """Constant-term image in the residue field; requires ord >= 0."""
        k0, re = self._fx[0][:2]
        if k0 < 0 and re:
            raise UsageError("residue of a series with negative order")
        return self._value(0) if k0 == 0 and re else 0

    # -- measurement and comparison ----------------------------------------

    def max_abs(self):
        """max |c| over the coefficients, as ``scalar.max_abs`` takes it:
        one modulus, of an entry with the largest u^2 + v^2 on its
        mantissas, since a rounded modulus is monotone in u^2 + v^2."""
        _, re, im, _, _, _ = self._fx[0]
        top = max(range(len(re)), key=lambda i: re[i] * re[i] + im[i] * im[i], default=0)
        return abs(scalar.to_mpc(self._value(top))) if re and (re[top] or im[top]) else mp.mpf(0)

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
            parts.append((fmt_scalar(self.terms[k]), x))
        body = fmt_sum(parts)
        if self.trunc is not None:
            tq = Fraction(self.trunc, self.L)
            o = f"O(x^{fmt_exponent(tq)})" if tq != 1 else "O(x)"
            body = f"{body} + {o}" if parts else o
        return body

    def __repr__(self):
        return f"<PuiseuxSeries {self}>"


def _times(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """a * b for series of one ramification, on ``_Fixed``, to the tightest
    provable truncation."""
    t = min(_trunc_k(a) + b.ord_k(), _trunc_k(b) + a.ord_k())
    if a.is_zero or b.is_zero:
        return PuiseuxSeries.zero(a.L, None if t == INF else int(t))
    # only the terms that meet a partner below t are read; times reads
    # orders after the zero test, so its truncation is >= t
    ops = _Fixed(a.L)
    x, y = ops.reads([[a.truncate(t - b.ord_k()), b.truncate(t - a.ord_k())]])[0]
    return ops.out(ops.times(x, y)).truncate(t)


def _convolve(xr: list, xi: list, yr: list, yi: list, n: int):
    """The first n coefficients of the product of the sequences xr + i*xi
    and yr + i*yi, exactly, as (re, im) lists.

    Integer rows are packed (``_packed``), the narrower one, by the bit
    length of its largest part, as the loop: each of its entries costs
    three C-level multiplies of the whole packed row.  Rows with Fraction
    parts (exact rows) are multiplied as the integer rows d x and d' y,
    over the lcm d of x's denominators and d' of y's, and divided by d d'."""
    try:
        bx, by = max(map(int.bit_length, xr + xi)), max(map(int.bit_length, yr + yi))
    except TypeError:  # Fraction parts: integer rows over common denominators
        dx, dy = (lcm(*(v.denominator for v in row)) for row in (xr + xi, yr + yi))
        ints = [[v.numerator * (d // v.denominator) for v in row]
                for row, d in ((xr, dx), (xi, dx), (yr, dy), (yi, dy))]
        return tuple([Fraction(v, dx * dy) for v in row] for row in _convolve(*ints, n))
    if bx <= by:
        return _packed(xr, xi, yr, yi, n, bx + by)
    return _packed(yr, yi, xr, xi, n, bx + by)


def _packed(ur: list, ui: list, wr: list, wi: list, n: int, width: int):
    """``_convolve`` of the narrow row ur + i*ui by the wide row wr + i*wi,
    width the sum of their widths, by Kronecker substitution.

    Both rows are cut to n entries.  An integer packs a row when its slot j
    of s bits holds entry j; s is a whole number of bytes.  Each part of an
    output entry is a sum of at most m (the shorter length) terms, each of
    two products below 2^width (u*wr - v*wi, say), so its modulus is below
    2^(width + bitlen(m) + 1) and a slot of s >= width + bitlen(m) + 2 bits
    holds it signed.  The wide row's re and im parts are packed into Yr and
    Yi, and each narrow entry u + iv adds one shifted u*Yr, v*Yi and
    (u + v)*(Yr + Yi) to three accumulators (Gauss's three products).  The
    packed re and im rows, p1 - p2 and p3 - p1 - p2, are read back from
    their bytes with a bias of 2^(s-1) in every slot of the full product
    length, so that no slot borrows from the next, and their first n slots
    are decoded.  The byte conversions name their length and byte order,
    as Python 3.10 needs."""
    ur, ui, wr, wi = ur[:n], ui[:n], wr[:n], wi[:n]
    full = len(ur) + len(wr) - 1
    size = (width + min(len(ur), len(wr)).bit_length() + 9) // 8
    s = 8 * size
    bias = 1 << s - 1
    biases = int.from_bytes(bias.to_bytes(size, "little") * full, "little")
    wide = biases >> (len(ur) - 1) * s  # the biases of the wide row's slots
    yr, yi = (int.from_bytes(b"".join([(w + bias).to_bytes(size, "little") for w in part]),
                             "little") - wide for part in (wr, wi))
    ys = yr + yi
    p1 = p2 = p3 = 0
    for k, (u, v) in enumerate(zip(ur, ui)):
        p1 += (u * yr) << k * s
        p2 += (v * yi) << k * s
        p3 += ((u + v) * ys) << k * s
    rows = []
    for p in (p1 - p2, p3 - p1 - p2):
        b = (p + biases).to_bytes(full * size, "little")
        rows.append([int.from_bytes(b[i:i + size], "little") - bias
                     for i in range(0, n * size, size)])
    return rows[0], rows[1]


class _Fixed:
    """The arithmetic of every series operation and skew-table operation,
    and its rounding contract.

    A row is a tuple (k0, re, im, e, trunc, ord): the terms (re[i] +
    im[i]*1j) * 2^e * x^((k0 + i)/L), known to O(x^(trunc/L)) (trunc INF:
    exact), with ord its order after the zero test (the least key of a term
    of modulus >= zero_eps(), else trunc).  A numeric row holds
    Gaussian-integer mantissas at a shared binary exponent as
    ``scalar.fixed_point`` reads them; an exact row int or Fraction parts
    at e = 0, and its zero test is exact.

    The contract.  One reader (``reads``) reads a call's operands and
    decides its rule and ``real``.  A call runs exactly (``eps`` None: no
    rounding) when every operand is exact and every twist factor it
    applies is an exact rational (``Alpha.pow``, ``_exact_powers``; a
    skew-table call that meets another runs again rounded,
    ``skewpoly._table_call``).  Else it is rounded: a numeric row is read
    as it is, its order read again only if read at another zero test, and
    an exact one as ``scalar.mp_operand`` rounds each value.  Products
    (``_convolve``, or one pass over a row when an operand has one term)
    and sums (``sum`` folds ``scalar._fixed_add`` over its parts, each
    zero-padded to the least k0) are exact, with the truncation rules of
    ``PuiseuxSeries.__mul__`` and ``__add__`` on the orders after the zero
    test (``_times`` cuts its product back to its own rule, on ``ord_k``).
    In a rounded call, what a computation carries on exactly, the rows t^i
    b of a skew table after each t-shift and the multipliers of a
    division, is rounded GUARD_BITS above the working precision
    (``carry``), and each output coefficient is cut to its truncation,
    rounded once, to nearest at the working precision, and zero-tested once
    on its mantissas (``out``, by ``scalar.round_row``), which reads its
    order.  An output holds its row, real values when ``real``.
    """

    __slots__ = ("L", "eps", "real")

    def __init__(self, L: int):
        self.L = L
        self.eps = scalar.pow2_exp(scalar.zero_eps())
        self.real = False

    def reads(self, lists, real: bool = True, exact: bool = True):
        """The one reader of a call's operands: the lists of series
        ``lists`` as rows, exactly when ``exact`` holds and every series is
        exact, and ``real`` set when it holds and every value is real."""
        fxs = [c._fx for cs in lists for c in cs]
        self.real = real and all(f[1] for f in fxs)
        self.eps = (None if exact and all(f[2] is None for f in fxs)
                    else scalar.pow2_exp(scalar.zero_eps()))
        return [[self.read(c) for c in cs] for cs in lists]

    def read(self, c: PuiseuxSeries):
        """The row of the series c under this call's rule (class
        docstring)."""
        x, _, eps = c._fx
        if eps == self.eps or not x[1]:
            return x
        if eps is None:  # each value as mp_operand rounds it
            values = [mp_operand(c._value(i)) for i in range(len(x[1]))]
            x = (x[0], *scalar.fixed_point(values)[:3], x[4])
        return self._make(*x[:5])

    def out(self, x) -> PuiseuxSeries:
        """The series of x, each coefficient below its truncation rounded
        once and zero-tested (``scalar.round_row``) in a rounded call, its
        order the first one left."""
        k0, re, im, e, t, _ = x
        if self.eps is not None:
            n = len(re) if t == INF else max(0, t - k0)
            re, im, e = scalar.round_row(re[:n], im[:n], e) or ([], [], 0)
        return PuiseuxSeries._held(self.L, _strip(k0, re, im, e, t), self.real, self.eps)

    def ord_k(self, x):
        return x[5]

    def _make(self, k0, re, im, e, t):
        """The row of the terms k0 + i below t (``_strip``), with its order
        read at this call's zero test."""
        x = _strip(k0, re, im, e, t)
        if self.eps is None or not x[1]:
            return x
        i = scalar.first_at_least(x[1], x[2], e, self.eps)
        return x[:5] + (t if i is None else x[0] + i,)

    def times(self, x, y):
        kx, xr, xi, ex, tx, ox = x
        ky, yr, yi, ey, ty, oy = y
        t = min(tx + oy, ty + ox)
        n = len(xr) + len(yr) - 1 if t == INF else min(len(xr) + len(yr) - 1, t - kx - ky)
        if not (xr and yr) or n <= 0:
            return _zero(t)
        if len(xr) > 1 < len(yr):
            re, im = _convolve(xr, xi, yr, yi, n)
        else:
            # a one-term operand scales the other row in one pass; a
            # mantissa 1 (a power of two) leaves its mantissas as they are
            (u,), (v,), re, im = (xr, xi, yr, yi) if len(xr) == 1 else (yr, yi, xr, xi)
            re, im = re[:n], im[:n]
            if v:
                re, im = ([u * a - v * b for a, b in zip(re, im)],
                          [u * b + v * a for a, b in zip(re, im)])
            elif u != 1:
                re, im = [u * a for a in re], [u * b for b in im]
        return self._make(kx + ky, re, im, ex + ey, t)

    def sum(self, parts):
        t = min([p[4] for p in parts], default=INF)
        live = [p for p in parts if p[1]]
        if not live:
            return _zero(t)
        if len(live) == 1 and live[0][4] == t:
            return live[0]
        k0 = min(p[0] for p in live)
        acc = None
        for k, re, im, e, _, _ in live:
            s = k - k0
            acc = _fixed_add(acc, ([0] * s + re, [0] * s + im, e) if s else (re, im, e))
        return self._make(k0, *acc, t)

    def sub(self, x, y):
        k, re, im, e, t, o = y
        return self.sum([x, (k, [-u for u in re], [-v for v in im], e, t, o)])

    def carry(self, x):
        """x with each part rounded once, GUARD_BITS above the working
        precision (``scalar.carry_row``); an exact row as it is."""
        if not x[1] or self.eps is None:
            return x
        return (x[0], *scalar.carry_row(x[1:4]), *x[4:])


def _zero(t):
    """The exact series zero, known to O(x^(t/L)) (t INF: exact)."""
    return (0, [], [], 0, t, t)


def _strip(k0, re, im, e, t):
    """The row of the terms k0 + i below t, without leading or trailing zero
    terms, its order the first term left."""
    n = len(re) if t == INF else min(len(re), t - k0)
    lo = 0
    while lo < n and not (re[lo] or im[lo]):
        lo += 1
    if lo >= n:
        return _zero(t)
    while not (re[n - 1] or im[n - 1]):
        n -= 1
    if lo or n < len(re):
        re, im = re[lo:n], im[lo:n]
    return (k0 + lo, re, im, e, t, k0 + lo)


def _cut(x, t):
    """The row x known only to O(x^(t/L)): its terms below t (``_strip``),
    its order kept below t; x itself when it is known no further."""
    if t >= x[4]:
        return x
    y = _strip(*x[:4], t)
    return y[:5] + (min(x[5], t),) if y[1] else y


def _exact_powers(alpha: Alpha, num: int, den: int, lo: int, hi: int, rows):
    """The exact twist row (re, im, 0) of alpha.pow(num k / den) at each
    key lo <= k < hi of a nonzero entry of the rows ``rows`` (0 at the
    others); None when one such factor is not an exact rational."""
    w = [0] * (hi - lo)
    for k0, re, im, *_ in rows:
        for i, (u, v) in enumerate(zip(re, im)):
            if (u or v) and not w[k0 + i - lo]:
                w[k0 + i - lo] = p = alpha.pow(Fraction(num * (k0 + i), den))
                if not isinstance(p, EXACT_TYPES):
                    return None
    return w, [0] * len(w), 0


def _spread(parts: list, k: int) -> list:
    """The mantissas of consecutive terms at every k-th place, zeros between
    (re-embedding into k times the ramification)."""
    out = [0] * (k * len(parts) - k + 1)
    out[::k] = parts
    return out


def _trunc_k(c: PuiseuxSeries):
    """How far the series c is known, in 1/L units: INF when c is exact."""
    return INF if c.trunc is None else c.trunc
