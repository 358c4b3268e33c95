"""Skew polynomial rings A[t, sigma, delta] over a base-ring contract.

Multiplication follows the rule t*a = sigma(a)*t + delta(a).  Two local
instances are shipped: ``PuiseuxRing``, the Puiseux-series coefficients of
F[t, sigma, delta_a] (twist sigma(x) = alpha*x, inner derivation delta_a),
which holds the ring data (alpha, L, a), and the skew power series ring
C[[x, rho]] (rho = complex conjugation) with a central t.  A thin
complex-field instance C[t, rho] (no uniformizer) supports substitution
examples.  Everything a polynomial needs from its coefficients goes through
the ring object, so the lifting and factoring engines stay generic.

The coefficients are plain values and the twist lives in the ring: an
element of C[[x, rho]] is a ``PuiseuxSeries`` with L = 1, as an element of
C[t, rho] is an mpc.  Their own ``*`` is the commutative product; the
twisted product x*u = rho(u)*x is ``ConjSeriesRing.mul``, which is what
``SkewPoly`` multiplies through.

On a ``PuiseuxRing`` the table arithmetic (products, left division and so
evaluation, and the Horner images behind shift_iso) runs on series rows
under the rule of ``puiseux._Fixed``, exact or rounded per call, and its
outputs hold their rows for the next operation to read; the conj rings
run it on their own coefficients (``_Coeffs``).  Each of these operations
is a sum over the rows t^i b of one polynomial b, its table (``_row``).  A
row depends only on the ring and on b, so a table there is a value with
one owner, a small process-wide memo (``_tables``) keyed by the exact
reads: a division by the g a product has just multiplied by reads the rows
that product built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import residue as residue_mod
from . import scalar
from .errors import ContextMismatch, NotMonicError, UsageError
from .puiseux import PuiseuxSeries, _exact_powers, _Fixed, _zero
from .scalar import INF, Alpha, _fixed_twist, conj_scalar, is_negligible, to_mpc


class BaseRing:
    """Capability set a coefficient domain must provide.

    The maximal ideal is generated by a uniformizer; orders (``ord_k``) are
    measured in integer units of it.  The defaults for the arithmetic and
    the one test are those of series-valued elements; a ring overrides what
    differs, and each ring reads its own values in (``coerce``).  Equality
    by kind, ``unify``, ``repr`` and the absent hash have one body here;
    ``PuiseuxRing`` overrides them for its data.
    """

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_scalar(self, c):
        raise NotImplementedError

    def is_one_value(self, a) -> bool:
        """Whether the series a is the one term 1 at k = 0, decided on the
        parts of its exact row; no term is formed."""
        (k0, re, im, e, _, _), _, _ = a._fx
        live = [(k0 + i, u, v) for i, (u, v) in enumerate(zip(re, im)) if u or v]
        return e <= 0 and live == [(0, 1 << -e, 0)]

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def sigma(self, a):
        raise NotImplementedError

    def delta(self, a):
        raise NotImplementedError

    def sigma_delta(self, a):
        """(sigma(a), delta(a)); a ring whose delta is built from sigma
        overrides this to take sigma(a) once for both."""
        return self.sigma(a), self.delta(a)

    def ord_k(self, a):
        raise NotImplementedError

    def residue(self, a):
        raise NotImplementedError

    def slice_twist(self, k: int, count: int):
        """The monomial twist of hensel_lift's slice product: (w, winv, conj),
        t^i u^k = w[i] u^k t^i for i < count and u^k c = c' u^k, c' = conj(c)
        if conj else c, u the uniformizer; w and winv = 1/w (rounded GUARD_BITS
        above P) are exact rows of count or more entries, None when w is 1."""
        raise NotImplementedError

    def twist_coprime(self, gres, hres, *, roots=None):
        """Decide coprimality of gres against the n-twisted hres for all
        n >= 1; returns None if coprime, else (n, witness).  ``roots`` may
        hold the (root, multiplicity) lists of gres and hres; a ring that
        decides from residue roots then need not find them again."""
        raise NotImplementedError

    def accommodate(self, a) -> "BaseRing":
        """A ring (possibly ramification-refined) that can hold ``a``."""
        return self

    def unify(self, other: "BaseRing") -> "BaseRing":
        if self is other or self == other:
            return self
        raise ContextMismatch(f"incompatible rings {self!r} and {other!r}")

    def __eq__(self, other):
        return type(self) is type(other)

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}()"


class PuiseuxRing(BaseRing):
    """The coefficients of F[t, sigma, delta_a]: Puiseux series with
    sigma(x) = alpha*x and the inner derivation delta_a(b) = a*(sigma(b) - b).

    a = 0 gives the plain twisted ring F[t, sigma].  The ramification L is
    raised to that of a.  Values are immutable.
    """

    __slots__ = ("alpha", "L", "a")

    def __init__(self, alpha, L: int = 1, a: PuiseuxSeries | None = None):
        self.alpha = alpha if isinstance(alpha, Alpha) else Alpha(alpha)
        if a is None:
            a = PuiseuxSeries.zero(L)
        else:
            L = lcm(L, a.L)
            a = a.at_ram(L)
        if a.is_zero and a.trunc is not None:
            # the derivation parameter is a ring datum, not a measured
            # quantity; a value that cancelled to zero is the zero map
            a = PuiseuxSeries.zero(L)
        self.L = L
        self.a = a

    def zero(self):
        return PuiseuxSeries.zero(self.L)

    def one(self):
        return PuiseuxSeries.one(self.L)

    def from_scalar(self, c):
        return PuiseuxSeries.constant(c, self.L)

    def sigma(self, f):
        return f.sigma_pow(1, self.alpha)

    def delta(self, f):
        return self.sigma_delta(f)[1]

    def sigma_delta(self, f):
        s = f.sigma_pow(1, self.alpha)
        if self.a.is_zero:
            return s, PuiseuxSeries.zero(f.L)
        return s, self.a * (s - f)

    def ord_k(self, a):
        return a.at_ram(self.L).ord_k()

    def residue(self, a):
        return to_mpc(a.residue())

    def tmap(self) -> residue_mod.TMap:
        """The residue map T of this ring, the scaling w -> w / alpha_eff;
        with a != 0 it acts on the residue roots of s = t + a
        (twist_coprime)."""
        return residue_mod.TMap(self.alpha, self.L)

    def slice_twist(self, k: int, count: int):
        # t^i y^k = alpha_eff^(ik) y^k t^i; scalars commute with y
        if k == 0 or self.alpha.is_one:
            return None, None, False
        return (*(self.alpha.power_row(self.L, k, count, inv) for inv in (False, True)), False)

    def twist_coprime(self, gres, hres, *, roots=None):
        if roots is None:
            if gres.degree < 1 or hres.degree < 1:
                return None
            roots = (residue_mod.roots(gres), residue_mod.roots(hres))
        if self.a.is_zero:
            return residue_mod.twist_coprime_affine(*roots, self.tmap())
        # delta_a is inner: T scales the roots c + res a of s = t + a, and
        # the witness t - c is given back in t
        a0 = to_mpc(self.a.residue())
        groots, hroots = ([(c + a0, m) for c, m in rs] for rs in roots)
        fail = residue_mod.twist_coprime_affine(groots, hroots, self.tmap())
        if fail is None:
            return None
        n, witness = fail
        c = next(c for (c, _), (z, _) in zip(roots[0], groots) if witness.coeffs[0] == -z)
        return n, residue_mod.ResiduePoly([-c, 1], trim=False)

    def coerce(self, a):
        if not isinstance(a, PuiseuxSeries):
            a = PuiseuxSeries.constant(a)
        return a.at_ram(self.L)

    def accommodate(self, a) -> "PuiseuxRing":
        if isinstance(a, PuiseuxSeries) and self.L % a.L:
            return self.at_ram(lcm(self.L, a.L))
        return self

    def at_ram(self, L: int) -> "PuiseuxRing":
        if L == self.L:
            return self
        return PuiseuxRing(self.alpha, L, self.a.at_ram(L))

    def with_a(self, a: PuiseuxSeries) -> "PuiseuxRing":
        return PuiseuxRing(self.alpha, self.L, a)

    def unify(self, other: "BaseRing") -> "BaseRing":
        if self is other:
            return self
        if not isinstance(other, PuiseuxRing):
            raise ContextMismatch("cannot mix Puiseux and non-Puiseux coefficients")
        if not self.alpha == other.alpha:
            raise ContextMismatch("rings have different alpha")
        if self != other:
            raise ContextMismatch("rings have different derivation parameter")
        return self.at_ram(lcm(self.L, other.L))

    def __eq__(self, other):
        if not isinstance(other, PuiseuxRing):
            return False
        L = lcm(self.L, other.L)
        return self.alpha == other.alpha and self.a.at_ram(L) == other.a.at_ram(L)

    def __repr__(self):
        return f"PuiseuxRing(alpha={self.alpha!r}, L={self.L}, a={self.a})"


class ConjSeriesRing(BaseRing):
    """C[[x, rho]] as coefficient ring of R = A[t] with central t
    (sigma = id, delta = 0 at the polynomial level).

    An element is a ``PuiseuxSeries`` with L = 1 and no negative powers
    (``coerce`` admits nothing else).  Its own ``*`` is the commutative
    product; the twisted product x*u = rho(u)*x is ``mul``."""

    def zero(self):
        return PuiseuxSeries.zero()

    def one(self):
        return PuiseuxSeries.one()

    def from_scalar(self, c):
        return PuiseuxSeries.constant(c)

    def mul(self, a, b):
        """(sum u_i x^i)(sum v_j x^j) collects u_i * rho^i(v_j) at x^(i+j):
        the even terms of a times b plus the odd terms times conj(b), by the
        series' own ``*`` and ``+``."""
        even, odd = (PuiseuxSeries(1, {k: c for k, c in a.terms.items() if k % 2 == r},
                                   a.trunc, normalize=False) for r in (0, 1))
        return even * b + odd * b.conjugate()

    def sigma(self, a):
        return a

    def delta(self, a):
        return self.zero()

    def ord_k(self, a):
        return a.ord_k()

    def residue(self, a):
        return to_mpc(a.terms.get(0, 0))

    def residue_twist(self, p, n: int):
        return p if n % 2 == 0 else p.conj_coeffs()

    def slice_twist(self, k: int, count: int):
        # t is central; x^k c = rho^k(c) x^k
        return None, None, k % 2 == 1

    def twist_coprime(self, gres, hres, *, roots=None):
        # phi has period 2 on residues: the ext_gcd check needs no roots
        return residue_mod.twist_coprime_periodic(gres, hres, self.residue_twist, 2)

    def coerce(self, a):
        if not isinstance(a, PuiseuxSeries):
            return PuiseuxSeries.constant(a)
        if a.L != 1:
            if any(k % a.L for k in a.terms):
                raise UsageError("C[[x,rho]] coefficients need integer exponents")
            a = PuiseuxSeries(1, {k // a.L: c for k, c in a.terms.items()},
                              None if a.trunc is None else a.trunc // a.L)
        if not a.is_zero and a.ord_k() < 0:
            raise UsageError("C[[x,rho]] has no negative powers")
        return a


class ComplexConjRing(BaseRing):
    """C[t, rho]: plain complex coefficients, sigma = complex conjugation.
    A field, so no uniformizer; supports arithmetic and substitution only."""

    def zero(self):
        return scalar.mp.mpc(0)

    def one(self):
        return scalar.mp.mpc(1)

    def from_scalar(self, c):
        return to_mpc(c)

    def is_one_value(self, a) -> bool:
        return to_mpc(a) == 1

    def sigma(self, a):
        return conj_scalar(a)

    def delta(self, a):
        return self.zero()

    def ord_k(self, a):
        return INF if is_negligible(a) else 0

    def coerce(self, a):
        if isinstance(a, PuiseuxSeries):
            raise UsageError("C[t,rho] coefficients are complex numbers, not series")
        return to_mpc(a)


class SkewPoly:
    """Dense polynomial sum_i c_i t^i over a base ring."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: BaseRing, coeffs, *, trim: bool = True):
        self.ring = ring
        coeffs = [ring.coerce(c) for c in coeffs]
        if trim:
            _trim_exact_zeros(ring, coeffs)
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, [])

    @classmethod
    def one(cls, ring):
        return cls(ring, [ring.one()])

    @classmethod
    def constant(cls, ring, c):
        return cls(ring, [c])

    @classmethod
    def t_pow(cls, ring, d: int):
        return cls(ring, [ring.zero()] * d + [ring.one()], trim=False)

    @classmethod
    def t_minus(cls, ring, c):
        return cls(ring, [ring.neg(ring.coerce(c)), ring.one()], trim=False)

    # -- structure -----------------------------------------------------------

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

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.ring.is_one_value(self.coeffs[-1])

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero()

    def ord_k(self):
        """min over coefficient orders, in uniformizer units."""
        if self.is_zero:
            return INF
        return min(self.ring.ord_k(c) for c in self.coeffs)

    def ord(self):
        """x-adic order as an exact Fraction (+inf for the zero polynomial);
        {p : ord(p) >= n} is the two-sided ideal generated by x^n."""
        o = self.ord_k()
        if o == INF:
            return INF
        return Fraction(int(o), getattr(self.ring, "L", 1))

    def in_ring(self, ring: BaseRing) -> "SkewPoly":
        return SkewPoly(ring, [ring.coerce(c) for c in self.coeffs], trim=False)

    # -- ring operations ------------------------------------------------------

    def _common(self, other: "SkewPoly"):
        ring = self.ring.unify(other.ring)
        return ring, self.in_ring(ring), other.in_ring(ring)

    def __add__(self, other):
        ring, a, b = self._common(other)
        n = max(len(a.coeffs), len(b.coeffs))
        return SkewPoly(ring, [ring.add(a.coeff(i), b.coeff(i)) for i in range(n)])

    def __neg__(self):
        return SkewPoly(self.ring, [self.ring.neg(c) for c in self.coeffs], trim=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SkewPoly):
            other = SkewPoly.constant(self.ring, other)
        ring, a, b = self._common(other)
        if a.is_zero or b.is_zero:
            return SkewPoly.zero(ring)
        return SkewPoly(ring, _table_call(
            ring, lambda ops, bs, cs: [ops.out(c) for c in _lmul(ops, ops.table(bs), cs)],
            b.coeffs, a.coeffs))

    def lmul_base(self, c) -> "SkewPoly":
        """Left multiplication by a base element (coefficient-wise)."""
        ring = self.ring
        c = ring.coerce(c)
        return SkewPoly(ring, [ring.mul(c, ci) for ci in self.coeffs])

    def left_divmod(self, p: "SkewPoly"):
        """f = q*p + r with deg r < deg p; requires p monic.

        The step for q_k (k from deg f - deg p down to 0) subtracts
        c * (t^k p) from the remainder, c its leading coefficient.  The rows
        t^k p come from one table (``_row``), each derived from the row
        below by one t-shift, so a division of degree n by degree m takes
        n - m shifts (a fresh product c t^k * p per step took
        (n-m)(n-m+1)/2).  The leading coefficient of c * (t^k p) is c, as p
        is monic: it cancels exactly and is not formed.  An exact zero c
        subtracts nothing; a zero known only to O(x^k) subtracts its O(x^k)
        multiple of the row.  The table of p is ``ops.table``'s: after a
        product by an equal p it comes with its rows built, and the
        division takes no shift.  Each q_k is an output when it leaves the
        remainder, and its value rounded by ``carry`` multiplies the rows
        (``puiseux._Fixed``).
        """
        ring, f, p = self._common(p)
        if not p.is_monic:
            raise NotMonicError("left division requires a monic divisor")
        dp = p.degree

        def divide(ops, ps, r):
            rows = ops.table(ps)
            q = [ring.zero()] * max(0, len(r) - dp)
            while len(r) > dp:
                k = len(r) - 1 - dp
                c = r.pop()
                q[k] = ops.out(c)
                if ring.ord_k(q[k]) != INF:
                    c, row = ops.carry(c), _row(ops, rows, k)
                    for j in range(len(r)):
                        r[j] = ops.sub(r[j], ops.times(c, row[j]))
                _trim_exact_zeros(ops, r)
            return SkewPoly(ring, q), SkewPoly(ring, [ops.out(c) for c in r])
        return _table_call(ring, divide, p.coeffs, f.coeffs)

    def evaluate(self, a):
        """(sigma, delta)-substitution of a: the remainder of left division
        by t - a.  f(a) = 0 iff t - a divides f on the right.

        The division reads the rows t^k (t - a), k < deg f, from one table:
        deg f - 1 shifts of t - a, or none when a product by t - a has
        built them (``left_divmod``), as the last product of
        ``verify_factorization`` does for its last zero.
        """
        ring = self.ring.accommodate(a)
        a = ring.coerce(a)
        if self.is_zero:
            return ring.zero()
        _, rem = self.left_divmod(SkewPoly.t_minus(ring, a))
        return rem.coeff(0)

    def reduce_residue(self):
        """Coefficient-wise residue; requires all coefficient orders >= 0."""
        ring = self.ring
        out = []
        for c in self.coeffs:
            o = ring.ord_k(c)
            if o < 0:
                raise UsageError("reduction requires nonnegative coefficient orders")
            out.append(ring.residue(c))
        return residue_mod.ResiduePoly(out)

    def truncate(self, T_k) -> "SkewPoly":
        return SkewPoly(self.ring, [c.truncate(T_k) for c in self.coeffs])

    # -- measurement -----------------------------------------------------------

    def max_abs(self):
        if self.is_zero:
            return scalar.mp.mpf(0)
        return max(c.max_abs() for c in self.coeffs)

    def deviation(self, other) -> object:
        return (self - other).max_abs()

    def __eq__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        try:
            _, a, b = self._common(other)
        except ContextMismatch:
            return False
        return a.coeffs == b.coeffs

    __hash__ = None

    def __str__(self):
        from .parsing import poly_to_str
        return poly_to_str(self)

    def __repr__(self):
        try:
            return f"<SkewPoly {self}>"
        except Exception:
            return f"<SkewPoly deg={self.degree}>"


def _row(ops, rows: list, i: int) -> list:
    """Row i of a table: t^i * b as a coefficient list in the form of
    ``ops`` (``_ops``), where rows[0] = b, the coefficients of a nonzero
    polynomial.  Row i is derived from row i - 1 by one t-shift
    (``ops.shifted``) the first time it is asked for and appended to
    ``rows``, so a table pays K shifts for rows 0..K however often they are
    read (rounding: ``puiseux._Fixed``).  ``ops.table`` gives the table: on
    ``_Exact`` the memo's, shared by every call with equal reads of the
    ring and of b, which only read its rows and only here extend it; on
    ``_Coeffs`` one of this call."""
    while len(rows) <= i:
        rows.append(ops.shifted(rows[-1]))
    return rows[i]


def _lmul(ops, rows: list, cs) -> list:
    """sum_i cs[i] * (t^i b) as a coefficient list, cs, the table ``rows``
    of b (``_row``, from ``ops.table``) and the result in the form of
    ``ops``.  An exact zero cs[i] adds nothing (a zero known only to O(x^k)
    adds its truncated products); the products that reach an output
    coefficient are summed in order of i.  Both callers trim exact zeros,
    so cs[-1] is nonzero and its row spans every output coefficient: each
    gets at least one product, and ``ops.sum`` is never handed an empty
    list."""
    out = [[] for _ in range(len(rows[0]) + len(cs) - 1)]
    for i, c in enumerate(cs):
        if ops.ord_k(c) == INF:
            continue
        for j, s in enumerate(_row(ops, rows, i)):
            out[j].append(ops.times(c, s))
    return [ops.sum(ps) for ps in out]


def _horner_image(ring, coeffs, t_image: SkewPoly) -> SkewPoly:
    """sum coeffs[i] * t_image^i in ``ring`` by Horner's rule,
    acc <- acc * t_image + coeffs[i], each step trimmed of exact zeros.

    Every product acc * t_image reads the rows t^j t_image from one table
    (``_lmul``): the last step reads j < d for d = len(coeffs) - 1, so the
    image takes at most d - 1 shifts of t_image, where a fresh product per
    step took d(d-1)/2; the table is ``ops.table``'s, so an image by an
    equal t_image reads the rows an earlier one built.  acc stays exact
    from step to step.
    """
    def image(ops, ts, cs):
        rows = ops.table(ts)
        acc = []
        for c in reversed(cs):
            if acc:
                acc = _lmul(ops, rows, acc)
                _trim_exact_zeros(ops, acc)
            if acc:
                acc[0] = ops.sum([acc[0], c])
            else:
                acc = [c]
            _trim_exact_zeros(ops, acc)
        return SkewPoly(ring, [ops.out(c) for c in acc])
    return _table_call(ring, image, t_image.coeffs, coeffs)


def _ops(ring, *lists, exact: bool = True):
    """The arithmetic of a table call and copies of its operand coefficient
    lists in that arithmetic's form: on a ``PuiseuxRing`` ``_Exact`` under
    the rule of ``puiseux._Fixed``, exact where ``exact`` holds and every
    operand is exact; on the conj rings ``_Coeffs``."""
    if not isinstance(ring, PuiseuxRing):
        return _Coeffs(ring), [list(cs) for cs in lists]
    ops = _Exact(ring)
    (ops.a,), *read = ops.reads([[ring.a], *lists],
                                not isinstance(ring.alpha.numeric, scalar.mp.mpc), exact)
    return ops, read


def _table_call(ring, body, *lists):
    """body(ops, *copies) on ``_ops``; a call run exactly runs again rounded
    when a t-shift meets a twist factor that is not an exact rational
    (``_Irrational``), so the rule holds per call."""
    ops, read = _ops(ring, *lists)
    try:
        return body(ops, *read)
    except _Irrational:
        ops, read = _ops(ring, *lists, exact=False)
        return body(ops, *read)


class _Irrational(Exception):
    """An exact table call met a twist factor that is not an exact
    rational (``_Exact.shifted``)."""


class _Coeffs:
    """Table arithmetic on the ring's own coefficients, for
    ``ConjSeriesRing`` and ``ComplexConjRing``: every product and every
    partial sum is a rounded, normalized coefficient."""

    __slots__ = ("ring",)

    def __init__(self, ring):
        self.ring = ring

    def table(self, row):
        """A table (``_row``) of this call whose row 0 is ``row``."""
        return [row]

    def out(self, c):
        return c

    def carry(self, c):
        return c

    def ord_k(self, c):
        return self.ring.ord_k(c)

    def times(self, c, s):
        return self.ring.mul(c, s)

    def sub(self, x, y):
        return self.ring.sub(x, y)

    def sum(self, parts):
        acc = parts[0]
        for p in parts[1:]:
            acc = self.ring.add(acc, p)
        return acc

    def shifted(self, row):
        """t * row, one ``sigma_delta`` per coefficient."""
        ring, out, s_prev = self.ring, [], None
        for c in row:
            s, d = ring.sigma_delta(c)
            out.append(d if s_prev is None else ring.add(s_prev, d))
            s_prev = s
        return out + [s_prev]


class _Exact(_Fixed):
    """The table arithmetic of a ``PuiseuxRing`` on series in exact form
    (``puiseux._Fixed``): its ring data and the t-shift."""

    __slots__ = ("alpha", "a")

    def __init__(self, ring):
        super().__init__(ring.L)
        self.alpha = ring.alpha

    def table(self, row):
        """The table (``_row``) whose row 0 is ``row``, from the memo of skew
        tables (``_tables``): a table already built for equal reads of the
        ring and of row 0 under the same rule comes with the rows it holds."""
        alpha = self.alpha
        rows = _tables(alpha.exact, alpha.numeric, self.L,
                       None if self.eps is None else scalar.mp.prec, _key([self.a]), _key(row))
        if not rows:
            rows.append(row)
        return rows

    def shifted(self, row):
        """t * row exactly, each new coefficient sigma(c_(j-1)) + delta(c_j)
        carried: sigma multiplies by the twist factors alpha_eff^k, in an
        exact call the exact rationals of ``puiseux._exact_powers`` (else
        ``_Irrational``), else those of ``Alpha.numeric_pow`` from the memo of
        alpha's powers, and delta_a(u) = a (sigma(u) - u) is one exact
        product."""
        live = [c for c in row if c[1]]
        twist = live and not self.alpha.is_one
        if twist:
            k_lo = min(c[0] for c in live)
            k_hi = max(c[0] + len(c[1]) for c in live)
            w = (_exact_powers(self.alpha, 1, self.L, k_lo, k_hi, live) if self.eps is None
                 else self.alpha.twist_row(1, self.L, k_lo, k_hi - k_lo)[:3])
            if w is None:
                raise _Irrational
            wr, wi, ew = w
        a = self.a
        out, s_prev = [], None
        for c in row:
            k0, re, im, e, t, _ = c
            s = c
            if twist and re:
                i, j = k0 - k_lo, k0 - k_lo + len(re)
                s = self._make(k0, *_fixed_twist((re, im, e), (wr[i:j], wi[i:j], ew)), t)
            # delta = 0 where a = 0, and a O(x^t) where sigma(c) = c
            d = self.times(a, _zero(t) if s is c or not a[1] else self.sub(s, c))
            out.append(d if s_prev is None else self.sum([s_prev, d]))
            s_prev = s
        out.append(s_prev)
        return [self.carry(c) for c in out]


@lru_cache(maxsize=4)
def _tables(exact, numeric, L: int, prec: int, a: tuple, b: tuple) -> list:
    """The memo of skew tables on ``_Exact``, process-wide: the rows of the
    polynomial b in the ring of alpha's kind and value (exact and numeric
    apart, as ``scalar._powers`` keys them), L and a at prec bits (None in
    an exact call), a and b as ``_key`` gives their reads.  A row depends on
    nothing else, so a table is a value of its key.  The 4 most recently
    used keys are kept; the list is empty until ``_Exact.table`` puts b in
    as row 0, and only ``_row`` appends to it.  Like mpmath's working
    precision, the memo serves one thread at a time."""
    return []


def _key(xs) -> tuple:
    """The exact reads xs (``puiseux._Fixed``) as a key, each without its
    order, which the zero test at the key's precision reads from the rest."""
    return tuple((k0, tuple(re), tuple(im), e, t) for k0, re, im, e, t, _ in xs)


def _trim_exact_zeros(ring, coeffs: list):
    """Pop trailing coefficients known to be zero (order INF).  A zero known
    only to O(x^k) stays: it still bounds the polynomial's order.  ``ring``
    is the coefficient ring or a table arithmetic (``_ops``)."""
    while coeffs and ring.ord_k(coeffs[-1]) == INF:
        coeffs.pop()


def puiseux_ring(alpha, L: int = 1, a: PuiseuxSeries | None = None) -> PuiseuxRing:
    """Convenience constructor for the main coefficient ring."""
    return PuiseuxRing(alpha, L, a)
