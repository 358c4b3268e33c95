"""Text grammar for scalars, series and polynomials, with printers that
round-trip through the parser.

  POLY   := ['-'] PTERM (('+'|'-') PTERM)*
  PTERM  := [PCOEFF '*'] 't' ['^' INT] | PCOEFF
  PCOEFF := SPROD | '(' SERIES ')'
  SERIES := ['-'] STERM (('+'|'-') STERM)*
  STERM  := 'O' '(' XPART ')' | [SPROD '*'] XPART | SPROD
  XPART  := 'x' ['^' EXP]
  EXP    := SINT | '(' SINT ['/' INT] ')'
  SPROD  := SATOM (('*'|'/') SATOM)*     (stops before '*' 'x')
  SATOM  := NUM ['i'] | 'i' | '(' SEXPR ')'
  NUM    := (DIGITS ['.' [DIGITS]] | '.' DIGITS) ['e' ['+'|'-'] DIGITS]
  INT    := DIGITS

Scalar sub-expressions evaluate exactly over Gaussian rationals; decimals,
with or without an exponent suffix, become exact fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .puiseux import PuiseuxSeries
from .scalar import INF, GaussianRational, fmt_scalar, fmt_sum, fmt_tpow, to_mpc

_OPS = set("+-*/^()")
_NUM = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks = []  # (kind, value, pos)
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in _OPS:
                self.toks.append(("op", ch, i))
                i += 1
                continue
            m = _NUM.match(text, i)
            if m:
                self.toks.append(("num", m.group(), i))
                i = m.end()
                continue
            if ch.isalpha():
                self.toks.append(("name", ch, i))
                i += 1
                continue
            raise ParseError(text, i, f"unexpected character {ch!r}")
        self.toks.append(("end", "", n))
        self.k = 0

    def peek(self, ahead: int = 0):
        j = min(self.k + ahead, len(self.toks) - 1)
        return self.toks[j]

    def next(self):
        t = self.toks[self.k]
        if t[0] != "end":
            self.k += 1
        return t

    def expect(self, kind, value=None):
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            want = value if value is not None else kind
            raise ParseError(self.text, t[2], f"expected {want!r}")
        return t

    def accept(self, kind, value=None) -> bool:
        t = self.peek()
        if t[0] == kind and (value is None or t[1] == value):
            self.next()
            return True
        return False

    def error(self, msg):
        raise ParseError(self.text, self.peek()[2], msg)


def _parse_satom(ts: _Tokens) -> GaussianRational:
    t = ts.peek()
    if t[0] == "num":
        ts.next()
        v = Fraction(t[1])
        return GaussianRational(0, v) if ts.accept("name", "i") else GaussianRational(v, 0)
    if ts.accept("name", "i"):
        return GaussianRational(0, 1)
    if ts.accept("op", "("):
        v = _parse_sexpr(ts)
        ts.expect("op", ")")
        return v
    ts.error("expected a scalar")


def _starts_xpart(ts: _Tokens, ahead: int = 0) -> bool:
    t = ts.peek(ahead)
    return t[0] == "name" and t[1] == "x"


def _starts_variable(ts: _Tokens, ahead: int = 0) -> bool:
    t = ts.peek(ahead)
    return t[0] == "name" and t[1] in ("x", "t")


def _parse_sprod(ts: _Tokens) -> GaussianRational:
    v = _parse_satom(ts)
    while True:
        t = ts.peek()
        if t[0] == "op" and t[1] == "*" and not _starts_variable(ts, 1):
            ts.next()
            v = v * _parse_satom(ts)
        elif t[0] == "op" and t[1] == "/":
            ts.next()
            pos = ts.peek()[2]
            w = _parse_satom(ts)
            if w == 0:
                raise ParseError(ts.text, pos, "division by zero")
            v = v / w
        else:
            return v


def _parse_sexpr(ts: _Tokens) -> GaussianRational:
    neg = False
    if ts.accept("op", "-"):
        neg = True
    else:
        ts.accept("op", "+")
    v = _parse_sprod(ts)
    if neg:
        v = -v
    while True:
        t = ts.peek()
        if t[0] == "op" and t[1] in "+-":
            ts.next()
            w = _parse_sprod(ts)
            v = v + w if t[1] == "+" else v - w
        else:
            return v


def parse_scalar(text: str) -> GaussianRational:
    """Exact Gaussian-rational value of a scalar literal."""
    ts = _Tokens(text)
    v = _parse_sexpr(ts)
    if ts.peek()[0] != "end":
        ts.error("trailing input after scalar")
    return v


def _parse_int(ts: _Tokens, what: str) -> int:
    num = ts.expect("num")
    if not num[1].isdigit():
        raise ParseError(ts.text, num[2], what)
    return int(num[1])


def _parse_exponent(ts: _Tokens) -> Fraction:
    what = "exponents must be integers or fractions"
    if ts.accept("op", "("):
        neg = ts.accept("op", "-")
        p = _parse_int(ts, what)
        q = 1
        if ts.accept("op", "/"):
            pos = ts.peek()[2]
            q = _parse_int(ts, what)
            if q == 0:
                raise ParseError(ts.text, pos, "division by zero")
        ts.expect("op", ")")
        val = Fraction(p, q)
        return -val if neg else val
    neg = ts.accept("op", "-")
    val = Fraction(_parse_int(ts, what))
    return -val if neg else val


def _parse_xpart(ts: _Tokens) -> Fraction:
    ts.expect("name", "x")
    if ts.accept("op", "^"):
        return _parse_exponent(ts)
    return Fraction(1)


def _parse_monomial(ts: _Tokens):
    """XPART | SPROD ['*' XPART] as (exponent, coefficient): a bare x-part
    has coefficient 1, a bare scalar product exponent 0."""
    if _starts_xpart(ts):
        return _parse_xpart(ts), GaussianRational(1, 0)
    v = _parse_sprod(ts)
    if ts.peek()[:2] == ("op", "*") and _starts_xpart(ts, 1):
        ts.next()
        return _parse_xpart(ts), v
    return Fraction(0), v


def _parse_series_body(ts: _Tokens, stop_at_paren: bool = False):
    terms = []  # (exponent, GaussianRational)
    trunc = None
    first = True
    while True:
        sign = 1
        t = ts.peek()
        if t[0] == "op" and t[1] in "+-":
            ts.next()
            sign = -1 if t[1] == "-" else 1
        elif not first:
            break
        first = False
        t = ts.peek()
        if t[0] == "name" and t[1] == "O":
            ts.next()
            ts.expect("op", "(")
            q = _parse_xpart(ts)
            ts.expect("op", ")")
            trunc = q if trunc is None else min(trunc, q)
            continue
        q, coeff = _parse_monomial(ts)
        terms.append((q, -coeff if sign < 0 else coeff))
        nxt = ts.peek()
        if nxt[0] == "end" or (stop_at_paren and nxt[0] == "op" and nxt[1] == ")"):
            break
        if not (nxt[0] == "op" and nxt[1] in "+-"):
            ts.error("expected '+', '-' or end of series")
    return terms, trunc


def parse_series(text: str) -> PuiseuxSeries:
    """Parse the series grammar into numeric-coefficient PuiseuxSeries."""
    ts = _Tokens(text)
    terms, trunc = _parse_series_body(ts)
    if ts.peek()[0] != "end":
        ts.error("trailing input after series")
    return _build_series(terms, trunc)


def _build_series(terms, trunc) -> PuiseuxSeries:
    pairs = [(q, to_mpc(c)) for q, c in terms]
    return PuiseuxSeries.from_terms(pairs, trunc)


def _parse_pcoeff(ts: _Tokens):
    """Coefficient of a polynomial term: scalar product, a bare x-monomial,
    or a parenthesized series."""
    t = ts.peek()
    if t[0] == "op" and t[1] == "(":
        ts.next()
        terms, trunc = _parse_series_body(ts, stop_at_paren=True)
        ts.expect("op", ")")
        return _build_series(terms, trunc)
    return _build_series([_parse_monomial(ts)], None)


def _parse_tpow(ts: _Tokens) -> int:
    """The degree of 't' ['^' INT], its 't' already read."""
    return _parse_int(ts, "t-degrees must be integers") if ts.accept("op", "^") else 1


def parse_poly(text: str, ring):
    """Parse the polynomial grammar into a SkewPoly over the given ring."""
    from .skewpoly import SkewPoly

    ts = _Tokens(text)
    coeffs: dict = {}
    while True:
        sign = 1
        t = ts.peek()
        if t[0] == "op" and t[1] in "+-":
            ts.next()
            sign = -1 if t[1] == "-" else 1
        if ts.accept("name", "t"):
            deg = _parse_tpow(ts)
            coeff = PuiseuxSeries.constant(sign)
        else:
            coeff = _parse_pcoeff(ts)
            if sign < 0:
                coeff = -coeff
            deg = 0
            if ts.peek()[:2] == ("op", "*") and ts.peek(1)[:2] == ("name", "t"):
                ts.k += 2
                deg = _parse_tpow(ts)
        if deg in coeffs:
            coeffs[deg] = coeffs[deg] + coeff
        else:
            coeffs[deg] = coeff
        nxt = ts.peek()
        if nxt[0] == "end":
            break
        if not (nxt[0] == "op" and nxt[1] in "+-"):
            ts.error("expected '+', '-' or end of polynomial")
    d = max(coeffs) if coeffs else 0
    lst = [coeffs.get(i, PuiseuxSeries.zero()) for i in range(d + 1)]
    for c in lst:
        ring = ring.accommodate(c)
    return SkewPoly(ring, lst)


# ---------------------------------------------------------------------------
# printers


def series_to_str(s) -> str:
    return str(s)


def _coeff_to_str(c) -> str:
    """Render a polynomial coefficient; (series) unless a bare scalar."""
    if isinstance(c, PuiseuxSeries):
        if c.trunc is None and set(c.terms) <= {0}:
            return fmt_scalar(c.terms.get(0, 0))
        return f"({c})"
    return fmt_scalar(c)


def poly_to_str(p) -> str:
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        # a zero known only to O(x^k) is printed: it bounds the order
        if p.ring.ord_k(c) != INF or (i == 0 and not parts):
            parts.append((_coeff_to_str(c), fmt_tpow(i)))
    return fmt_sum(parts)
