"""Scalar layer: exact rationals, exact Gaussian rationals, big complex
floats, and the multiplier alpha, sole owner of its powers (Alpha).

Numeric coefficients are mpmath values computed at the ambient working
precision; enter a computation through ``with bits(P):`` to fix it.  Exact
coefficients (int / Fraction / GaussianRational) sit in exact series rows
as their re and im parts, and stay exact among themselves.  Where one
meets an mpmath value, in one series or in series arithmetic (an int-led
polynomial made monic by the exact inverse of its lead), it is read as
``mp_operand`` rounds it (``puiseux._Fixed``).

The exact kernel: ``fixed_point`` reads numeric coefficients exactly as
Gaussian-integer mantissas, ``_fixed_add`` is the one adder of exact rows
(series sums and Hensel rows), ``round_row`` rounds a row once and
zero-tests it, ``fixed_value`` forms a value exactly, ``from_fixed_point``
rounds one value once, ``carry_row`` rounds a carried row and
``first_at_least`` reads an order; the rounding contract is stated once, at
``puiseux._Fixed``.

Tolerance policy: only this module turns the working precision P into a
threshold; every other module reads these levels by name.
  zero_eps()     2^-(P/2)  zero tests and degree collapse (series, residue
                           division, ext_gcd), monicity
  noise(s)       zero_eps() max(1, s)  rounding noise of a value of size s:
                           root re-expansion, the trace pin, residual bounds
  cluster_tol()  2^-(P/3)  root clustering and stall test, the twist
                           matching of residue.orbit_exponent, the Delta-set
                           test, the tie rule of the factorizer's peel
  dust_tol()     2^-(P/4)  res f mismatch and dust bound of hensel_lift
  floor_tol(j)   2^-(P-j)  cancellation floors: hensel_lift (j = 24), roots
                           (j = 12); j = 0 is the dust rule of roots
                           (residue._rounded), j = -8 the grid its search
                           runs on
The levels keep this order, floor_tol(24) < zero_eps() < cluster_tol() <
dust_tol(), from P = MIN_BITS on.  Every zero test and collapse, |c| < tol
or |c| < tol S, is one rule with one body, ``_below``: exact, on mantissas.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, count, zip_longest
from operator import or_

import mpmath
from mpmath import mp

from .errors import UsageError

INF = float("inf")

# the least working precision: floor_tol(24) < zero_eps() needs P - 24 > P // 2
MIN_BITS = 2 * 24 + 1
GUARD_BITS = 32


def bits(prec: int):
    """Context manager fixing the working precision in bits."""
    return mp.workprec(prec)


@lru_cache(maxsize=256)  # the tolerance levels and every bound first_at_least reads
def _pow2(k: int):
    return mp.mpf(2) ** k  # exact at any precision


def zero_eps():
    """Magnitude below which a numeric coefficient counts as noise."""
    return _pow2(-(mp.prec // 2))


def noise(size):
    """The rounding noise a value of modulus ``size`` may carry."""
    return zero_eps() * max(1, size)


def cluster_tol():
    """Distance within which residue roots count as one."""
    return _pow2(-(mp.prec // 3))


def dust_tol():
    """Relative size of cancellation dust a result may carry."""
    return _pow2(-(mp.prec // 4))


def floor_tol(j: int):
    """Rounding floor j bits above the unit roundoff."""
    return _pow2(-(mp.prec - j))


def to_mpf(x):
    if isinstance(x, Fraction):
        # correctly rounded in one step (mpf(num)/den would round twice)
        return mp.make_mpf(mpmath.libmp.from_rational(
            x.numerator, x.denominator, mp.prec, mpmath.libmp.round_nearest))
    return mp.mpf(x)


def mp_operand(x):
    """x as an operand of mpmath arithmetic: a Fraction rounded to nearest
    (to_mpf), which mpmath itself would round toward zero, and a
    GaussianRational, which mpmath does not read, through to_mpc; any other
    value as it is."""
    if isinstance(x, Fraction):
        return to_mpf(x)
    return to_mpc(x) if isinstance(x, GaussianRational) else x


def to_mpc(x):
    if isinstance(x, Fraction):
        return mp.mpc(to_mpf(x))
    if isinstance(x, GaussianRational):
        return mp.mpc(to_mpf(x.re), to_mpf(x.im))
    return mp.mpc(x)


_FZERO = mpmath.libmp.fzero


def fixed_point(values):
    """Exact fixed-point form of a list of numeric coefficients.

    Returns (re, im, e, kind) with values[i] == (re[i] + im[i]*1j) * 2^e
    exactly: re and im are lists of signed Python ints and e is the least
    binary exponent of the nonzero parts, so nothing is rounded.  ``kind``
    is 0 when every value is an int, 1 when the values are ints and mpf,
    2 when some value is an mpc.  Returns None when a value is exact
    rational (Fraction, GaussianRational), inf or nan.
    """
    kind, parts, e = 0, [], INF
    for c in values:
        z = getattr(c, "_mpc_", None)
        if z is None:
            f = getattr(c, "_mpf_", None)
            if f is None:
                if not isinstance(c, int):
                    return None
                parts.append((c, 0, 0, 0))
                e = 0 if c and e > 0 else e
                continue
            z = (f, _FZERO)
            kind = kind or 1
        else:
            kind = 2
        (rs, rm, rx, _), (js, jm, jx, _) = z
        if (not rm and rx) or (not jm and jx):  # inf and nan
            return None
        if rm and rx < e:
            e = rx
        if jm and jx < e:
            e = jx
        parts.append((-rm if rs else rm, rx, -jm if js else jm, jx))
    e = 0 if e == INF else e
    return ([rm << (rx - e) if rm else 0 for rm, rx, _, _ in parts],
            [jm << (jx - e) if jm else 0 for _, _, jm, jx in parts], e, kind)


def from_fixed_point(re: int, im: int, e: int):
    """The mpc (re + im*1j) * 2^e, each part rounded once, to nearest at the
    working precision."""
    prec, rnd = mp.prec, mpmath.libmp.round_nearest
    return mp.make_mpc((mpmath.libmp.from_man_exp(re, e, prec, rnd),
                        mpmath.libmp.from_man_exp(im, e, prec, rnd)))


def _nearest(m: int, prec: int) -> int:
    """The mantissa m rounded to prec significant bits, to nearest and ties
    to even as from_fixed_point rounds, at m's own scale."""
    n = m.bit_length() - prec
    if n <= 0:
        return m
    a = -m if m < 0 else m
    half = 1 << (n - 1)
    q, low = a >> n, a & ((half << 1) - 1)
    if low > half or low == half and q & 1:
        q += 1
    return q << n if m > 0 else -(q << n)


def _normal(parts: list, n: int, e: int):
    """The row whose re parts are parts[:n] and im parts parts[n:], at
    exponent e, in fixed_point's form (e the least exponent of a nonzero
    part); None when every part is zero."""
    z = reduce(or_, parts, 0)  # its lowest set bit is the parts' least
    if not z:
        return None
    z = (z & -z).bit_length() - 1
    return [m >> z for m in parts[:n]], [m >> z for m in parts[n:]], e + z


def carry_row(x):
    """The exact row x = (re, im, e) with each part rounded once, GUARD_BITS
    above the working precision (_nearest), in fixed_point's form; None
    when x is None or zero.  No mpmath number is formed."""
    if not x:
        return None
    prec = mp.prec + GUARD_BITS
    re, im, e = x
    return _normal([_nearest(m, prec) for m in re + im], len(re), e)


def round_row(re, im, e: int):
    """The exact row (re + im*1j) * 2^e as its entries leave from_fixed_point
    and the zero test of a series: each part rounded once, to nearest at the
    working precision (_nearest), and each entry below zero_eps() (_below)
    set to zero, in fixed_point's form; None when no entry is left.  No
    mpmath number is formed."""
    prec, n = mp.prec, len(re)
    parts = [_nearest(m, prec) for m in re + im]
    for i in compress(count(), _below(parts[:n], parts[n:], e, zero_eps())):
        parts[i] = parts[n + i] = 0
    return _normal(parts, n, e)


def fixed_value(re: int, im, e: int):
    """The value (re + im*1j) * 2^e exactly, at any working precision: an
    mpf when im is None, else an mpc."""
    r = mpmath.libmp.from_man_exp(re, e)
    if im is None:
        return mp.make_mpf(r)
    return mp.make_mpc((r, mpmath.libmp.from_man_exp(im, e)))


def first_at_least(re, im, e: int, t: int):
    """The order read on mantissas: the index of the first entry of the exact
    row (re + im*1j) * 2^e whose modulus is at least 2^t (_below), None
    when every one lies below."""
    for i, small in enumerate(_below(re, im, e, _pow2(t))):
        if not small:
            return i
    return None


def _top(x):
    """The least T with |Re c|, |Im c| < 2^T over an exact row's entries c."""
    b = max(map(abs, x[0] + x[1]), default=0).bit_length() if x else 0
    return b + x[2] if b else -INF


def _below(re, im, e: int, tol, size=None):
    """The noise rule, the one body of every zero test and collapse: for
    each entry c = (u + iv) 2^e of an exact row, in order, whether |c| <
    tol S, decided exactly as |c|^2 < tol^2 S^2.  tol is a positive mpf,
    read exactly; S = 1, or S^2 = max |s|^2 over the entries s of the
    exact rows ``size``, one of them nonzero.  Bit lengths decide outside a
    band of a few binary orders about tol S, integer squares inside it, and
    the bound tol^2 S^2 is formed only there."""
    _, m, x, bc = tol._mpf_  # tol = m 2^x, m odd: 1, or in (2^(bc-1), 2^bc)
    # with t the bit length of |u| | |v|, 2^(t-1) <= |c| 2^-e < 2^(t+1/2):
    # t <= lo puts c below tol S, t >= hi at or above it; a zero entry is below
    lo, hi = x + bc - 2 - e, x + bc + 1 - e - (m == 1)
    if size:  # 2^(T-1) <= S < 2^(T+1/2)
        T = max(map(_top, size))
        lo, hi = lo + T - 1, hi + T + 1
    hi, n = max(hi, 1), None
    for u, v in zip(re, im):
        t = (abs(u) | abs(v)).bit_length()
        if t >= hi:
            yield False
        elif t <= lo:
            yield True
        else:
            if n is None:  # the bound tol^2 S^2 = n 2^k, exactly
                n, k = m * m, 2 * x
                if size:
                    sq = [(max(a * a + b * b for a, b in zip(r[0], r[1])), 2 * r[2]) for r in size]
                    j = min(i for _, i in sq)
                    n, k = n * max(s << (i - j) for s, i in sq), k + j
                d = 2 * e - k  # |c|^2 < n 2^k if and only if (u^2 + v^2) 2^d < n
                n, d = (n << -d, 0) if d < 0 else (n, d)
            yield (u * u + v * v) << d < n


def _fixed_twist(x, w):
    """Entry i of the exact row x times entry i of w (None: all ones), rows
    in fixed_point's form (re, im, e)."""
    if not (x and w):
        return x
    (xr, xi, ex), (wr, wi, ew) = x, w
    return ([u * c - v * s for u, v, c, s in zip(xr, xi, wr, wi)],
            [u * s + v * c for u, v, c, s in zip(xr, xi, wr, wi)], ex + ew)


def _fixed_add(x, y):
    """x + y for exact rows (re, im, e), at the lesser exponent; rows at one
    exponent, exact rows with Fraction parts among them, add as they are."""
    if not (x and y):
        return x or y
    (xr, xi, e), (yr, yi, s) = (x, y) if x[2] <= y[2] else (y, x)
    s -= e
    if not s:
        return ([u + v for u, v in zip_longest(xr, yr, fillvalue=0)],
                [u + v for u, v in zip_longest(xi, yi, fillvalue=0)], e)
    return ([u + (v << s) for u, v in zip_longest(xr, yr, fillvalue=0)],
            [u + (v << s) for u, v in zip_longest(xi, yi, fillvalue=0)], e)


def mag_exp(c):
    """Binary exponent e with 2^(e-1) <= max(|Re c|, |Im c|) < 2^e for a
    finite nonzero mpmath number, -inf for zero, and None for inf, nan and
    values that are not mpmath numbers."""
    parts = getattr(c, "_mpc_", None)
    if parts is None:
        part = getattr(c, "_mpf_", None)
        if part is None:
            return None
        parts = (part,)
    top = -INF
    for _, man, exp, bc in parts:
        if man:
            if exp + bc > top:
                top = exp + bc
        elif exp:  # inf and nan have a zero mantissa and a special exponent
            return None
    return top


def max_abs(values):
    """max(abs(to_mpc(c)) for c in values), mpf 0 for none, with the
    modulus taken only where it can be the largest.

    An entry two or more binary orders below the top (mag_exp) has modulus
    below sqrt(2) 2^(top-2) < 2^(top-1), the least a top entry can have,
    and rounding keeps that order, so dropping it leaves the result bit for
    bit as the plain max, ties included.  A value that is not an mpmath
    number, or is inf or nan, sends the whole list to the plain max.
    """
    values = list(values)
    tops = [mag_exp(c) for c in values]
    if None in tops:
        return max((abs(to_mpc(c)) for c in values), default=mp.mpf(0))
    if not tops:
        return mp.mpf(0)
    cut = max(tops) - 1
    return max(abs(to_mpc(c)) for c, e in zip(values, tops) if e >= cut)


def pow2_exp(eps):
    """log2(eps) when eps is an mpf power of two, else None."""
    part = getattr(eps, "_mpf_", None)
    if part is None:
        return None
    sign, man, exp, _ = part
    return exp if man == 1 and not sign else None


def is_negligible(c) -> bool:
    """Zero test: exact scalars exactly, numeric ones by |c| < zero_eps()
    (_below); inf and nan are never negligible."""
    if isinstance(c, (Fraction, GaussianRational)):
        return not c
    x = fixed_point([c]) or fixed_point([mp.mpc(c)])
    return x is not None and next(_below(*x[:3], zero_eps()))


def conj_scalar(c):
    if isinstance(c, (int, Fraction)):
        return c
    if isinstance(c, GaussianRational):
        return GaussianRational(c.re, -c.im)
    return mpmath.conj(c)


class GaussianRational:
    """Exact a + b*i with rational a, b.  Supports field arithmetic with
    ints and Fractions; never coerces to floats."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / n,
                                (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


# coefficient types that arithmetic keeps exact
EXACT_TYPES = (int, Fraction, GaussianRational)


class Alpha:
    """The positive real multiplier of the twist x -> alpha*x.

    The value is an int or a Fraction, stored exactly so that the
    alpha == 1 test and integer powers stay exact, or an mpmath number
    (mpf or mpc); rational powers materialize lazily to big floats at the
    ambient precision.  A non-real value, or a negative numeric one, is
    accepted only with ``allow_complex=True`` (diagnostic mode: the
    factorization guarantees do not apply there) and held as an mpc.

    Alpha owns its powers: numeric_pow, power_row, twist_row and log_eff
    fill one process-wide memo lazily (_powers, an lru_cache of 64 keys),
    keyed by L, the working precision and alpha's kind and value, exact and
    numeric apart: Alpha(2) == Alpha(mpf(2)), yet their powers round apart.
    """

    __slots__ = ("exact", "numeric", "allow_complex")

    def __init__(self, value, allow_complex: bool = False):
        self.allow_complex = allow_complex
        self.exact = None
        self.numeric = None
        positive = "alpha must be a positive real (or complex with allow_complex)"
        if isinstance(value, (int, Fraction)):
            self.exact = Fraction(value)
            if self.exact <= 0:
                raise UsageError(positive)
            return
        z = mp.mpc(value)
        if z == 0:
            raise UsageError("alpha must be nonzero")
        if z.imag == 0 and z.real > 0:
            self.numeric = z.real
        elif allow_complex:
            # a negative real too is held as an mpc, so its powers have one kind
            self.numeric = z
        else:
            raise UsageError("complex alpha requires allow_complex=True" if z.imag else positive)

    @property
    def is_one(self) -> bool:
        return self.exact == 1

    @property
    def is_real_positive(self) -> bool:
        if self.exact is not None:
            return self.exact > 0
        return not isinstance(self.numeric, mp.mpc)

    def real_value(self):
        if self.exact is not None:
            return to_mpf(self.exact)
        return self.numeric

    def pow(self, q: Fraction):
        """alpha**q for rational q; exact Fraction result when possible."""
        q = Fraction(q)
        if self.exact is not None:
            if self.exact == 1 or q == 0:
                return Fraction(1)
            if q.denominator == 1:
                return self.exact ** q.numerator
            base = to_mpf(self.exact)
            return mp.power(base, to_mpf(q))
        if not isinstance(self.numeric, mp.mpc):
            return mp.power(self.numeric, to_mpf(q))
        # polar convention: (r e^{i theta})^q = r^q e^{i theta q}, theta in (-pi, pi]
        r, theta = mpmath.polar(self.numeric)
        qf = to_mpf(q)
        return mp.power(r, qf) * mp.mpc(mp.cos(theta * qf), mp.sin(theta * qf))

    def numeric_pow(self, num: int, den: int):
        """alpha**(num/den) as an mpmath number, from the memo at L = den
        (class docstring), keyed by num unreduced; an exact Fraction power is
        rounded to nearest (to_mpf), not toward zero as mpmath would."""
        memo = _powers(self.exact, self.numeric, den, mp.prec)
        v = memo.get(num)
        if v is None:
            v = self.pow(Fraction(num, den))
            v = memo[num] = to_mpf(v) if isinstance(v, Fraction) else mp.convert(v)
        return v

    def power_row(self, L: int, k: int, count: int, inverse: bool = False):
        """_power_row from the memo; a held row that is longer comes whole."""
        memo = _powers(self.exact, self.numeric, L, mp.prec)
        row = memo.get((k, inverse))
        if row is None or len(row[0]) < count:
            row = memo[k, inverse] = _power_row(self, L, k, count, inverse)
        return row

    def twist_row(self, num: int, den: int, k0: int, n: int):
        """numeric_pow(num * k, den), k0 <= k < k0 + n, in fixed_point's form
        (re, im, e, kind): the twist factors of sigma_pow and a t-shift.  It
        is a slice of the memo's one row per num, grown to span every k asked
        for, so its mantissas sit at that row's exponent: the values, and the
        kind, of fixed_point on the slice.  All powers of one alpha have one
        kind (mpf when it is real, mpc else), so the row's kind, read once
        per growth, is the slice's; an empty slice has kind 0."""
        memo = _powers(self.exact, self.numeric, den, mp.prec)
        lo, kind, (re, im, e) = memo.get(("twist", num), (k0, 0, ([], [], 0)))
        if n and (k0 < lo or k0 + n > lo + len(re)):
            lo, hi = min(lo, k0), max(lo + len(re), k0 + n)
            re, im, e, kind = fixed_point([self.numeric_pow(num * k, den)
                                           for k in range(lo, hi)])
            memo["twist", num] = lo, kind, (re, im, e)
        i = k0 - lo
        return re[i:i + n], im[i:i + n], e, kind if n else 0

    def log_eff(self, L: int):
        """log Re alpha^(1/L) from the memo."""
        memo = _powers(self.exact, self.numeric, L, mp.prec)
        if "log" not in memo:
            memo["log"] = mp.log(mp.re(self.numeric_pow(1, L)))
        return memo["log"]

    def __eq__(self, other):
        if not isinstance(other, Alpha):
            return NotImplemented
        if self.exact is not None and other.exact is not None:
            return self.exact == other.exact
        return self.real_value() == other.real_value()

    def __repr__(self):
        if self.exact is not None:
            return f"Alpha({self.exact})"
        return f"Alpha({self.numeric})"


@lru_cache(maxsize=64)
def _powers(exact, numeric, L: int, prec: int) -> dict:
    """The memo entry of alpha's powers at L and prec bits (Alpha)."""
    return {}


def _power_row(alpha: Alpha, L: int, k: int, count: int, inverse: bool):
    """The exact row (fixed_point) of alpha_eff^(ik), i < count, or of their
    inverses, each 1/c of the P-rounded c rounded GUARD_BITS above P."""
    row = [alpha.numeric_pow(i * k, L) for i in range(count)]
    if inverse:
        with mp.workprec(mp.prec + GUARD_BITS):
            row = [1 / c for c in row]
    return fixed_point(row)[:3]


# ---------------------------------------------------------------------------
# deterministic formatting


def _fmt_mpf(x) -> str:
    if mpmath.isnan(x) or mpmath.isinf(x):
        return str(x)
    if x == int(x) and abs(x) < mp.mpf(10) ** 18:
        return str(int(x))
    digits = int(mp.prec / 3.321928) + 3
    s = mp.nstr(x, digits, strip_zeros=True)
    return s


def fmt_scalar(c) -> str:
    """Canonical text form of a coefficient; parses back to the same value."""
    if isinstance(c, int):
        return str(c)
    if isinstance(c, Fraction):
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    if isinstance(c, GaussianRational):
        re, im, part = c.re, c.im, fmt_scalar
    else:
        z = mp.mpc(c)
        re, im, part = z.real, z.imag, _fmt_mpf
    if im == 0:
        return part(re)
    if re == 0:
        return f"{part(im)}i"
    return f"{part(re)}{'+' if im > 0 else '-'}{part(abs(im))}i"


def fmt_term(cs: str, var: str, first: bool) -> str:
    """One term of a printed sum: the coefficient text ``cs`` times ``var``
    ("" for a constant term), signed for its place in the sum.  A leading
    minus becomes the term's sign unless ``cs`` has another sign inside;
    such a coefficient is parenthesized, and a coefficient of 1 before
    ``var`` is dropped."""
    inner = any(ch in cs[1:] for ch in "+-")
    neg = cs.startswith("-") and not inner
    if neg:
        cs = cs[1:]
    elif inner and not cs.startswith("("):
        cs = f"({cs})"
    body = cs if not var else var if cs == "1" else f"{cs}*{var}"
    if first:
        return f"-{body}" if neg else body
    return f"- {body}" if neg else f"+ {body}"


def fmt_sum(terms) -> str:
    """The printed sum of (coefficient text, variable) pairs in order, each
    term signed for its place (fmt_term); "0" for no terms.  Series,
    residue and skew polynomials print through it."""
    return " ".join(fmt_term(cs, var, first=not i) for i, (cs, var) in enumerate(terms)) or "0"


def fmt_tpow(i: int) -> str:
    """The variable of t^i in a printed sum ("" for i = 0)."""
    return "" if i == 0 else "t" if i == 1 else f"t^{i}"


def fmt_exponent(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"({q.numerator}/{q.denominator})"
