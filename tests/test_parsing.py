from fractions import Fraction

import pytest
from mpmath import mp

from skewpuiseux import (ComplexConjRing, ConjSeriesRing, GaussianRational, bits,
                         parse_poly, parse_scalar, parse_series, poly_to_str,
                         puiseux_ring, series_to_str)
from skewpuiseux.errors import ParseError, UsageError
from skewpuiseux.scalar import fmt_scalar, to_mpc

from conftest import rand_poly, rand_series, rng


def test_scalar_forms():
    assert parse_scalar("3") == GaussianRational(3, 0)
    assert parse_scalar("3/2") == GaussianRational(Fraction(3, 2), 0)
    assert parse_scalar("1.5") == GaussianRational(Fraction(3, 2), 0)
    assert parse_scalar("i") == GaussianRational(0, 1)
    assert parse_scalar("2i") == GaussianRational(0, 2)
    assert parse_scalar("1+2i") == GaussianRational(1, 2)
    assert parse_scalar("1-2i") == GaussianRational(1, -2)
    assert parse_scalar("-(1/2 - i)") == GaussianRational(Fraction(-1, 2), 1)
    assert parse_scalar("(1+i)*(1-i)") == GaussianRational(2, 0)
    assert parse_scalar("1/(1+i)") == GaussianRational(Fraction(1, 2), Fraction(-1, 2))


def test_series_grammar():
    s = parse_series("1 - 3/2*x^(1/2) + (2+1i)*x^2")
    assert s.L == 2
    assert s.coeff(0) == mp.mpc(1)
    assert s.coeff(Fraction(1, 2)) == mp.mpc(-1.5)
    assert s.coeff(2) == mp.mpc(2, 1)
    assert s.trunc is None


def test_series_truncation_marker():
    s = parse_series("x + O(x^(7/2))")
    assert s.trunc == 7 and s.L == 2
    s2 = parse_series("O(x^3)")
    assert s2.is_zero and s2.trunc == 3


def test_series_negative_exponents():
    s = parse_series("x^(-1) + 2*x^(-1/2)")
    assert s.ord() == -1
    assert s.coeff(Fraction(-1, 2)) == mp.mpc(2)


def test_poly_examples():
    R = puiseux_ring(2)
    f = parse_poly("t^2 - (2+x)*t + (1+2*x)", R)
    assert f.degree == 2 and f.is_monic
    assert f.coeffs[1].coeff(0) == mp.mpc(-2)
    assert f.coeffs[0].coeff(1) == mp.mpc(2)

    t = parse_poly("t", R)
    assert t.degree == 1 and t.coeffs[0].is_zero

    g = parse_poly("t^2 - (1+x^2)", R)
    assert g.coeffs[1].is_zero
    assert g.coeffs[0].coeff(2) == mp.mpc(-1)


def test_poly_round_trip_corpus():
    R = puiseux_ring(2)
    corpus = [
        "t^2 - (2+x)*t + (1+2*x)",
        "t",
        "t^3 + 2i*t - (1/2 + x^(1/3))",
        "(1 - x)*t^2 + (x^(-2))*t + 3",
        "t^2 - (1+x^2)",
        "-t + 1",
    ]
    for text in corpus:
        f = parse_poly(text, R)
        assert parse_poly(poly_to_str(f), R) == f


def test_random_round_trip():
    rnd = rng(71)
    R = puiseux_ring(Fraction(3, 2))
    for _ in range(40):
        f = rand_poly(R, rnd, rnd.randint(0, 3))
        assert parse_poly(poly_to_str(f), R) == f
    for _ in range(40):
        s = rand_series(rnd, rnd.choice([1, 2, 3]), -2, 4)
        assert parse_series(series_to_str(s)) == s


def test_round_trip_keeps_truncated_zeros():
    R = puiseux_ring(2)
    d = parse_poly("t^2 - (4+O(x^10))*t + (3+O(x^10))", R) - parse_poly("t^2 - 4*t + 3", R)
    for f in (d, parse_poly("t^3 + (O(x^2))*t^2 + (1 + O(x^4))", R)):
        back = parse_poly(poly_to_str(f), R)
        assert back.degree == f.degree
        assert [c.trunc for c in back.coeffs] == [c.trunc for c in f.coeffs]
        assert back == f
    assert poly_to_str(d) == "(O(x^10))*t + (O(x^10))"


def test_conj_series_ring_parsing():
    CR = ConjSeriesRing()
    f = parse_poly("t^2 + (1+x)", CR)
    assert f.degree == 2
    assert f.coeffs[0].terms[0] == mp.mpc(1)
    assert f.coeffs[0].terms[1] == mp.mpc(1)
    # C[[x, rho]] elements are L = 1 series: integral exponents re-index
    g = parse_poly("t + (x + O(x^(5/2)))", CR)
    assert (g.coeffs[0].L, g.coeffs[0].terms, g.coeffs[0].trunc) == (1, {1: 1}, 2)
    with pytest.raises(UsageError, match="integer exponents"):
        parse_poly("t + x^(1/2)", CR)
    with pytest.raises(UsageError, match="no negative powers"):
        parse_poly("t + x^-1", CR)
    with pytest.raises(UsageError, match="complex numbers"):
        parse_poly("t + 1", ComplexConjRing())


def test_position_annotated_errors():
    with pytest.raises(ParseError) as exc:
        parse_series("1 + * x")
    assert exc.value.pos == 4
    with pytest.raises(ParseError):
        parse_poly("t^", puiseux_ring(2))
    with pytest.raises(ParseError):
        parse_scalar("1 + ")


@pytest.mark.parametrize("parse, text, message, pos", [
    (parse_scalar, "1 $ 2", "unexpected character '$'", 2),
    (parse_scalar, "1 2", "trailing input after scalar", 2),
    (parse_series, "O(x) 2", "trailing input after series", 5),
    (parse_series, "1 + x 2", "expected '+', '-' or end of series", 6),
    (parse_poly, "t^2 x", "expected '+', '-' or end of polynomial", 4),
    (parse_poly, "t t", "expected '+', '-' or end of polynomial", 2),
    (parse_poly, "t + 1 )", "expected '+', '-' or end of polynomial", 6),
    (parse_poly, "(1 + x) t", "expected '+', '-' or end of polynomial", 8),
    (parse_poly, "t + (1 + x) (2)", "expected '+', '-' or end of polynomial", 12),
    (parse_poly, "t + 1 2", "expected '+', '-' or end of polynomial", 6),
    (parse_poly, "t + (x O(x^2))", "expected '+', '-' or end of series", 7),
])
def test_parse_errors_name_the_fault_and_its_position(parse, text, message, pos):
    with pytest.raises(ParseError) as exc:
        parse(text) if parse is not parse_poly else parse(text, puiseux_ring(2))
    assert (exc.value.msg, exc.value.pos) == (message, pos)


def test_whitespace_insensitive():
    R = puiseux_ring(2)
    assert parse_poly("t^2-2*t+1", R) == parse_poly(" t^2  - 2*t +  1 ", R)


@pytest.mark.parametrize("prec", [128, 192])
def test_printed_scalars_parse_back_to_the_same_value(prec):
    # values from 2^-200 to 2^200 print in exponent notation at both ends
    rnd = rng(prec)

    def rand_mpf(e):
        man = rnd.getrandbits(prec) | 1 << (prec - 1)
        return mp.ldexp(mp.mpf(rnd.choice([-1, 1]) * man), e - prec)

    with bits(prec):
        for e in range(-200, 201, 5):
            for c in (rand_mpf(e), mp.mpc(rand_mpf(e), rand_mpf(rnd.randint(-200, 200)))):
                text = fmt_scalar(c)
                assert to_mpc(parse_scalar(text)) == c, text


@pytest.mark.parametrize("text, pos", [("t^1e3", 2), ("t^2.5", 2), ("t + x^1e2", 6),
                                       ("t + x^(1e2)", 7), ("t + x^(1/2e1)", 9)])
def test_exponent_notation_is_no_integer(text, pos):
    # a number with an exponent suffix is a scalar, never a degree or an
    # x-exponent
    with pytest.raises(ParseError) as exc:
        parse_poly(text, puiseux_ring(2))
    assert exc.value.pos == pos
