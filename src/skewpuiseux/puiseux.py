"""Truncated Puiseux series with exact rational exponents.

A series lives in integer powers of the uniformizer y = x^(1/L); terms are
a sparse map k -> coefficient meaning c * x^(k/L), and ``trunc`` (in the
same 1/L units) records up to which exponent the series is known.  A trunc
of None means the value is exact (all absent coefficients are true zeros).
Operations compute the tightest provable truncation and never pad with
fabricated zeros.  This module holds only series: the ring data
(alpha, L, a) of F[t, sigma, delta_a] belongs to ``skewpoly.PuiseuxRing``.

Where a value lives.  A series built from terms holds them in ``terms``.
A numeric series that the exact kernel ``_Fixed`` writes (a sum, product,
scaling or twist, a skew-table output, a Hensel factor) holds its exact
form instead: the Gaussian-integer mantissas of its coefficients at one
binary exponent, and whether they are mpf or mpc.  The next kernel
operation reads that form as it is, and ``terms`` is formed from it,
exactly, only when something reads it.  Order, zero test, truncation,
shifts, re-embedding, negation, conjugation and the residue read the exact
form and form no terms.

Rounding contract: negation and conjugation are exact; every other
operation with an mpmath operand runs on ``_Fixed`` and rounds each output
coefficient once.  Only operands that are all exact keep exact terms.  The
products before that rounding are exact integer convolutions
(``_convolve``) on one of two branches: packed rows (Kronecker
substitution) when one operand's largest mantissa has at most half the
bits of the other's, else dot products.  Both give the same integers, so
the branch never moves an output bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from mpmath import mp

from . import scalar
from .errors import PrecisionExhausted, UsageError, ZeroInversion
from .scalar import (EXACT_TYPES, INF, Alpha, _fixed_add, _fixed_twist, fmt_exponent,
                     fmt_scalar, fmt_sum, is_negligible)


class PuiseuxSeries:
    """A truncated Puiseux series sum c_k x^(k/L) + O(x^(trunc/L)).

    Its value lives in ``terms`` (k -> coefficient) or, for a series the
    kernel wrote (``_held``), in ``_fx``: the exact form of ``_Fixed``,
    already rounded to the working precision and zero-tested, with its mpf
    flag and the zero-test exponent its order was read at.  Such a series
    forms ``terms`` from ``_fx`` on each read, exactly, whatever the
    reader's precision, and keeps no second copy; ``_fx`` is None for a
    series built from terms.
    """

    __slots__ = ("L", "terms", "trunc", "_fx")

    def __init__(self, L: int, terms: dict, trunc=None, *, normalize: bool = True):
        if L < 1:
            raise UsageError("ramification must be a positive integer")
        self.L = L
        self.trunc = trunc
        self._fx = None
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

    @classmethod
    def _held(cls, L: int, x, real: bool, eps: int) -> "PuiseuxSeries":
        """The series of the exact form x (``_Fixed``), its coefficients mpf
        when ``real``, its order read at the zero test 2^eps; the zero series
        when x has no term.  ``__init__`` is not run and ``terms`` is left
        unset (``__getattr__``)."""
        t = x[4]
        if not x[1]:
            return cls.zero(L, None if t == INF else t)
        s = object.__new__(cls)
        s.L, s.trunc, s._fx = L, None if t == INF else t, (x, real, eps)
        return s

    def __getattr__(self, name):
        """``terms`` of a held series, formed from its exact form on each
        read, which stays its one stored value: each coefficient exactly, as
        ``_Fixed.out`` rounded it (``_value``); ``terms`` is the one slot
        left unset."""
        if name != "terms":
            raise AttributeError(name)
        (k0, re, im, _, _, _), _, _ = self._fx
        return {k0 + i: self._value(i) for i, (u, v) in enumerate(zip(re, im)) if u or v}

    def _value(self, i: int):
        """Coefficient i of a held series' exact form, exactly: an mpf when
        the kernel wrote it real, else an mpc (``scalar.fixed_value``)."""
        (_, re, im, e, _, _), real, _ = self._fx
        return scalar.fixed_value(re[i], None if real else im[i], e)

    def _with(self, L: int, x) -> "PuiseuxSeries":
        """A series held as this one is, with the exact form x at L."""
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
        return self._fx is None and not self.terms

    def ord_k(self):
        """Order in 1/L units; the zero series reports its truncation bound."""
        if self._fx is not None:
            return self._fx[0][0]
        return min(self.terms) if self.terms else _trunc_k(self)

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
        if self._fx is not None:
            k0, re, im, e, t, o = self._fx[0]
            return self._with(self.L * k, (k0 * k, _spread(re, k), _spread(im, k), e,
                                           t * k, o * k))
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
        L = lcm(self.L, other.L)
        return self.at_ram(L), other.at_ram(L)

    def truncate(self, T_k) -> "PuiseuxSeries":
        """Restrict knowledge to exponents < T_k (1/L units)."""
        if T_k == INF:
            return self
        T_k = int(T_k)
        if self._fx is not None:
            x = _cut(self._fx[0], T_k)
            return self if x is self._fx[0] else self._with(self.L, x)
        t = min(_trunc_k(self), T_k)
        return PuiseuxSeries(self.L, {k: c for k, c in self.terms.items() if k < t},
                             t, normalize=False)

    def x_shift(self, j: int) -> "PuiseuxSeries":
        """Multiply by y^j where y = x^(1/L); exact exponent shift."""
        if self._fx is not None:
            k0, re, im, e, t, o = self._fx[0]
            return self._with(self.L, (k0 + j, re, im, e, t + j, o + j))
        t = None if self.trunc is None else self.trunc + j
        return PuiseuxSeries(self.L, {k + j: c for k, c in self.terms.items()},
                             t, normalize=False)

    # -- field operations ---------------------------------------------------

    def __neg__(self):
        """-self; an mpmath coefficient is negated exactly, not rounded."""
        if self._fx is not None:
            k0, re, im, e, t, o = self._fx[0]
            return self._with(self.L, (k0, [-u for u in re], [-v for v in im], e, t, o))
        terms = {k: -c if isinstance(c, EXACT_TYPES) else mp.fneg(c, exact=True)
                 for k, c in self.terms.items()}
        return PuiseuxSeries(self.L, terms, self.trunc, normalize=False)

    def __add__(self, other):
        if not isinstance(other, PuiseuxSeries):
            other = PuiseuxSeries.constant(other)
        a, b = self.unify(other)
        ops = _Fixed(a.L)
        xy = ops.reads([[a, b]])
        if xy:
            return ops.out(ops.sum(xy[0]))
        t = min(_trunc_k(a), _trunc_k(b))
        terms = dict(a.terms)
        for k, c in b.terms.items():
            terms[k] = terms.get(k, 0) + c
        return PuiseuxSeries(a.L, terms, None if t == INF else t)

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
        m = min(self.terms)
        c = self.terms[m]
        inv_c = Fraction(1, c) if isinstance(c, int) else 1 / c  # an int lead stays exact
        if len(self.terms) == 1 and self.trunc is None:
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
        Exact terms stay exact where every ``alpha.pow`` factor is exact; else
        the row of ``alpha.numeric_pow`` factors (``Alpha.twist_row``) multiplies
        the series on ``_Fixed``, mpf when its values and the factors are."""
        q = Fraction(q)
        if q == 0 or alpha.is_one:
            return self
        num, den = q.numerator, q.denominator * self.L
        if not _numeric(self):
            pw = {k: alpha.pow(Fraction(num * k, den)) for k in self.terms}
            if all(isinstance(p, EXACT_TYPES) for p in pw.values()):
                return PuiseuxSeries(self.L, {k: c * pw[k] for k, c in self.terms.items()},
                                     self.trunc)
        ops, kinds = _Fixed(self.L), []
        k0, re, im, e, t, _ = ops.read(self, kinds)
        wr, wi, ew, kind = alpha.twist_row(num, den, k0, len(re))
        ops.real = max(kinds) < 2 and kind < 2
        return ops.out((k0, *_fixed_twist((re, im, e), (wr, wi, ew)), t, None))

    def conjugate(self) -> "PuiseuxSeries":
        """The conjugate series, exactly: a held one negates its im mantissas."""
        if self._fx is not None:
            k0, re, im, e, t, o = self._fx[0]
            return self._with(self.L, (k0, re, [-v for v in im], e, t, o))
        return PuiseuxSeries(self.L, {k: scalar.conj_scalar(c) for k, c in self.terms.items()},
                             self.trunc, normalize=False)

    def residue(self):
        """Constant-term image in the residue field; requires ord >= 0."""
        if self._fx is not None:
            k0, re, im = self._fx[0][:3]
            if k0 < 0:
                raise UsageError("residue of a series with negative order")
            return self._value(0) if k0 == 0 else 0
        if self.terms and min(self.terms) < 0:
            raise UsageError("residue of a series with negative order")
        return self.terms.get(0, 0)

    # -- measurement and comparison ----------------------------------------

    def max_abs(self):
        """max |c| over the coefficients (scalar.max_abs).  A held series
        takes one modulus, of an entry with the largest u^2 + v^2 on its
        mantissas: a rounded modulus is monotone in u^2 + v^2."""
        if self._fx is None:
            return scalar.max_abs(self.terms.values())
        _, re, im, _, _, _ = self._fx[0]
        top = max(range(len(re)), key=lambda i: re[i] * re[i] + im[i] * im[i])
        return abs(scalar.to_mpc(self._value(top))) if re[top] or im[top] else mp.mpf(0)

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
    """a * b for series of one ramification, to the tightest provable
    truncation: on ``_Fixed`` where an operand holds an mpmath value
    (``_Fixed.reads``), else by exact terms."""
    t = min(_trunc_k(a) + b.ord_k(), _trunc_k(b) + a.ord_k())
    if not (a.is_zero or b.is_zero):
        # only the terms that meet a partner below t are read; times
        # reads orders after the zero test, so its truncation is >= t
        ops = _Fixed(a.L)
        xy = ops.reads([[a.truncate(t - b.ord_k()), b.truncate(t - a.ord_k())]])
        if xy:
            return ops.out(ops.times(*xy[0])).truncate(t)
    terms = {}
    for i, ci in a.terms.items():
        for j, cj in b.terms.items():
            k = i + j
            if k < t:
                terms[k] = terms.get(k, 0) + ci * cj
    return PuiseuxSeries(a.L, terms, None if t == INF else int(t))


def _convolve(xr: list, xi: list, yr: list, yi: list, n: int):
    """The first n coefficients of the product of the Gaussian-integer
    sequences xr + i*xi and yr + i*yi, exactly, as (re, im) lists.

    Two branches with equal outputs, chosen by width: the bit length of an
    operand's largest mantissa part (re or im).  When the narrower
    operand's width is at most half the wider one's, the product is packed
    (``_packed``): each narrow entry then costs three C-level multiplies of
    a whole packed row, where dot products of short narrow-by-wide terms
    spend their time in the interpreter.  Otherwise, for balanced and equal
    widths, where packing would multiply wide numbers by wide rows, three
    dot products per coefficient: re = p1 - p2, im = p3 - p1 - p2."""
    bx, by = max(map(int.bit_length, xr + xi)), max(map(int.bit_length, yr + yi))
    if 2 * bx <= by:
        return _packed(xr, xi, yr, yi, n, bx + by)
    if 2 * by <= bx:
        return _packed(yr, yi, xr, xi, n, bx + by)
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
    """Exact arithmetic of numeric series, and the rounding contract of
    every numeric series operation and skew-table operation.

    A series in exact form is a tuple (k0, re, im, e, trunc, ord): the terms
    (re[i] + im[i]*1j) * 2^e * x^((k0 + i)/L), Gaussian-integer mantissas
    at a shared binary exponent as ``scalar.fixed_point`` reads them, known
    to O(x^(trunc/L)) (trunc INF: exact), with ord its order read after the
    zero test (the least key of a term of modulus >= zero_eps(), else
    trunc).

    The contract.  Operands are read exactly, by one reader (``reads``) for
    series sums and products and the skew tables alike, which also decides
    between this arithmetic and exact term arithmetic and sets ``real``;
    its per-series ``read`` also reads the series of ``sigma_pow`` and the
    slices of ``hensel_lift``, and takes a series the writer made as the
    exact form it holds (``PuiseuxSeries._held``).  Only operands that are
    all exact keep exact term arithmetic (the term loops of
    ``PuiseuxSeries``, ``skewpoly._Coeffs``); otherwise an exact rational
    is read rounded to nearest (``scalar.mp_operand``), and inf and nan are
    refused.  Products (``_convolve``: packed rows when one operand's
    largest mantissa has at most half the bits of the other's, else dot
    products; or one pass over a row when an operand has one term) and
    sums (``sum`` folds ``scalar._fixed_add`` over its parts, each
    zero-padded to the least k0) are exact, with the truncation rules of
    ``PuiseuxSeries.__mul__`` and ``__add__`` on the orders after the zero
    test (``_times`` cuts its product back to its own rule, on
    ``ord_k``).  What a computation carries on exactly, the rows
    t^i b of a skew table after each t-shift and the multipliers of a
    division, is rounded GUARD_BITS above the working precision
    (``carry``).  Each output coefficient is rounded once, to nearest at the
    working precision, and zero-tested once, as a ``PuiseuxSeries`` is
    normalized, on its mantissas (``out``, by ``scalar.round_row``); the
    series it returns holds that rounded exact form, and no mpmath number is
    formed.  ``real`` makes ``out`` give mpf coefficients; until ``reads``
    sets it they are mpc.
    """

    __slots__ = ("L", "eps", "real")

    def __init__(self, L: int):
        self.L = L
        self.eps = scalar.pow2_exp(scalar.zero_eps())
        self.real = False

    def reads(self, lists, real: bool = True):
        """The one reader of a call's operands, and its two decisions: the
        lists of series ``lists`` in exact form, with ``real`` set when no
        value is read as an mpc and ``real`` holds, or None when no value is
        an mpmath number (``_numeric``): exact operands keep exact terms."""
        if not any(_numeric(c) for cs in lists for c in cs):
            return None
        kinds = []
        read = [[self.read(c, kinds) for c in cs] for cs in lists]
        self.real = real and max(kinds) < 2
        return read

    def read(self, c: PuiseuxSeries, kinds: list):
        """The series c in exact form, ``kinds`` collecting fixed_point's kind
        of each reading.  A Fraction or GaussianRational value is read as
        ``scalar.mp_operand`` rounds it, and inf and nan are refused
        (UsageError).  A held series gives its exact form as it is, its order
        read again only if it was read at another zero test."""
        if c._fx is not None:
            x, real, eps = c._fx
            kinds.append(1 if real else 2)
            return x if eps == self.eps else self._make(*x[:5])
        t = _trunc_k(c)
        if not c.terms:
            return _zero(t)
        k0 = min(c.terms)
        values = [0] * (max(c.terms) - k0 + 1)
        for k, v in c.terms.items():
            values[k - k0] = v
        fx = scalar.fixed_point(values) or scalar.fixed_point(list(map(scalar.mp_operand, values)))
        if fx is None:
            raise UsageError("series arithmetic needs finite coefficients, exact or mpmath")
        kinds.append(fx[3])
        return self._make(k0, fx[0], fx[1], fx[2], t)

    def out(self, x) -> PuiseuxSeries:
        """The series of x, each coefficient rounded once and zero-tested
        (``scalar.round_row``), holding its exact form."""
        k0, re, im, e, t, _ = x
        row = re and scalar.round_row(re, im, e)
        y = self._make(k0, *row, t) if row else _zero(t)
        return PuiseuxSeries._held(self.L, y, self.real, self.eps)

    def ord_k(self, x):
        return x[5]

    def _make(self, k0, re, im, e, t):
        """The tuple of the terms k0 + i, those below t, without leading or
        trailing zero terms, and with its ord."""
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
        k0 += lo
        i = scalar.first_at_least(re, im, e, self.eps)
        return (k0, re, im, e, t, t if i is None else k0 + i)

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
        precision (``scalar.carry_row``)."""
        k0, re, im, e, t, o = x
        if not re:
            return x
        return (k0, *scalar.carry_row((re, im, e)), t, o)


def _zero(t):
    """The exact series zero, known to O(x^(t/L)) (t INF: exact)."""
    return (0, [], [], 0, t, t)


def _cut(x, t):
    """The exact form x known only to O(x^(t/L)): its terms below t, without
    trailing zero terms; x itself when it is known no further."""
    k0, re, im, e, tx, o = x
    if t >= tx:
        return x
    n = min(len(re), t - k0)
    while n > 0 and not (re[n - 1] or im[n - 1]):
        n -= 1
    if n <= 0:
        return _zero(t)
    return (k0, re[:n], im[:n], e, t, o if o < t else t)


def _spread(parts: list, k: int) -> list:
    """The mantissas of consecutive terms at every k-th place, zeros between
    (re-embedding into k times the ramification)."""
    out = [0] * (k * len(parts) - k + 1)
    out[::k] = parts
    return out


def _trunc_k(c: PuiseuxSeries):
    """How far the series c is known, in 1/L units: INF when c is exact."""
    return INF if c.trunc is None else c.trunc


def _numeric(c: PuiseuxSeries) -> bool:
    """Whether c holds a value that is not int, Fraction or GaussianRational."""
    return c._fx is not None or not all(isinstance(v, EXACT_TYPES) for v in c.terms.values())
