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

Scalar sub-expressions evaluate exactly over Gaussian rationals; decimals
become exact fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, UsageError
from .puiseux import PuiseuxSeries
from .scalar import INF, GaussianRational, fmt_scalar, fmt_term, to_mpc

_OPS = set("+-*/^()")


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
            if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                seen_dot = False
                while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                    if text[j] == ".":
                        seen_dot = True
                    j += 1
                self.toks.append(("num", text[i:j], i))
                i = j
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


def _num_fraction(tok_value: str) -> Fraction:
    return Fraction(tok_value)


def _parse_satom(ts: _Tokens) -> GaussianRational:
    t = ts.peek()
    if t[0] == "num":
        ts.next()
        v = _num_fraction(t[1])
        if ts.peek() == ("name", "i", ts.peek()[2]) or (ts.peek()[0] == "name" and ts.peek()[1] == "i"):
            ts.next()
            return GaussianRational(0, v)
        return GaussianRational(v, 0)
    if t[0] == "name" and t[1] == "i":
        ts.next()
        return GaussianRational(0, 1)
    if t == ("op", "(", t[2]) or (t[0] == "op" and t[1] == "("):
        ts.next()
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
            v = v / _parse_satom(ts)
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


def _parse_exponent(ts: _Tokens) -> Fraction:
    if ts.accept("op", "("):
        neg = ts.accept("op", "-")
        num = ts.expect("num")
        p = int(num[1])
        q = 1
        if ts.accept("op", "/"):
            q = int(ts.expect("num")[1])
        ts.expect("op", ")")
        val = Fraction(p, q)
        return -val if neg else val
    neg = ts.accept("op", "-")
    num = ts.expect("num")
    if "." in num[1]:
        raise ParseError(ts.text, num[2], "exponents must be integers or fractions")
    val = Fraction(int(num[1]))
    return -val if neg else val


def _parse_xpart(ts: _Tokens) -> Fraction:
    ts.expect("name", "x")
    if ts.accept("op", "^"):
        return _parse_exponent(ts)
    return Fraction(1)


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
        if _starts_xpart(ts):
            q = _parse_xpart(ts)
            coeff = GaussianRational(sign, 0)
        else:
            coeff = _parse_sprod(ts)
            if sign < 0:
                coeff = -coeff
            if ts.peek()[0] == "op" and ts.peek()[1] == "*" and _starts_xpart(ts, 1):
                ts.next()
                q = _parse_xpart(ts)
            else:
                q = Fraction(0)
        terms.append((q, coeff))
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
    if _starts_xpart(ts):
        q = _parse_xpart(ts)
        return _build_series([(q, GaussianRational(1, 0))], None)
    v = _parse_sprod(ts)
    if ts.peek()[0] == "op" and ts.peek()[1] == "*" and _starts_xpart(ts, 1):
        ts.next()
        q = _parse_xpart(ts)
        return _build_series([(q, v)], None)
    return PuiseuxSeries.constant(to_mpc(v))


def parse_poly(text: str, ring):
    """Parse the polynomial grammar into a SkewPoly over the given ring."""
    from .skewpoly import SkewPoly

    ts = _Tokens(text)
    coeffs: dict = {}
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
        if t[0] == "name" and t[1] == "t":
            ts.next()
            deg = 1
            if ts.accept("op", "^"):
                num = ts.expect("num")
                deg = int(num[1])
            coeff = PuiseuxSeries.constant(sign)
        else:
            coeff = _parse_pcoeff(ts)
            if sign < 0:
                coeff = -coeff
            deg = 0
            if ts.peek()[0] == "op" and ts.peek()[1] == "*":
                save = ts.k
                ts.next()
                if ts.peek()[0] == "name" and ts.peek()[1] == "t":
                    ts.next()
                    deg = 1
                    if ts.accept("op", "^"):
                        num = ts.expect("num")
                        deg = int(num[1])
                else:
                    ts.k = save
        if deg in coeffs:
            coeffs[deg] = coeffs[deg] + coeff
        else:
            coeffs[deg] = coeff
        nxt = ts.peek()
        if nxt[0] == "end":
            break
        if not (nxt[0] == "op" and nxt[1] in "+-"):
            ts.error("expected '+', '-' or end of polynomial")
    if ts.peek()[0] != "end":
        ts.error("trailing input after polynomial")
    d = max(coeffs) if coeffs else 0
    lst = [coeffs.get(i, PuiseuxSeries.zero()) for i in range(d + 1)]
    from .skewpoly import PuiseuxRing

    if isinstance(ring, PuiseuxRing):
        for c in lst:
            ring = ring.accommodate(c)
    return SkewPoly(ring, [_to_ring_coeff(ring, c) for c in lst])


def _to_ring_coeff(ring, series: PuiseuxSeries):
    from .skewpoly import ConjSeriesRing, PuiseuxRing

    if isinstance(ring, PuiseuxRing):
        return series
    if isinstance(ring, ConjSeriesRing):
        return series_to_conj(series)
    raise UsageError(f"cannot parse coefficients for ring {ring!r}")


def series_to_conj(series: PuiseuxSeries):
    """Reinterpret an integral-exponent series as an element of C[[x, rho]]."""
    from .skewpoly import ConjSeries

    if series.L != 1:
        if any(k % series.L for k in series.terms):
            raise UsageError("C[[x,rho]] coefficients need integer exponents")
        series = PuiseuxSeries(1, {k // series.L: c for k, c in series.terms.items()},
                               None if series.trunc is None else series.trunc // series.L,
                               normalize=False)
    return ConjSeries(dict(series.terms), series.trunc)


def conj_to_series(u) -> PuiseuxSeries:
    return PuiseuxSeries(1, dict(u.terms), u.trunc, normalize=False)


# ---------------------------------------------------------------------------
# printers


def series_to_str(s) -> str:
    from .skewpoly import ConjSeries

    if isinstance(s, ConjSeries):
        s = conj_to_series(s)
    return str(s)


def _coeff_to_str(c) -> str:
    """Render a polynomial coefficient; (series) unless a bare scalar."""
    from .skewpoly import ConjSeries

    if isinstance(c, ConjSeries):
        c = conj_to_series(c)
    if isinstance(c, PuiseuxSeries):
        if c.trunc is None and set(c.terms) <= {0}:
            return fmt_scalar(c.terms.get(0, 0))
        return f"({c})"
    return fmt_scalar(c)


def poly_to_str(p) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        # a zero known only to O(x^k) is printed: it bounds the order
        if p.ring.ord_k(c) == INF and not (i == 0 and not parts):
            continue
        var = "" if i == 0 else "t" if i == 1 else f"t^{i}"
        parts.append(fmt_term(_coeff_to_str(c), var, first=not parts))
    return " ".join(parts)
