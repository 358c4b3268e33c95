from fractions import Fraction

import pytest
from mpmath import mp

from skewpuiseux import Alpha, GaussianRational, alpha_pow, bits
from skewpuiseux.errors import UsageError
from skewpuiseux.scalar import is_negligible, set_zero_eps_bits, zero_eps

from conftest import rng


def test_alpha_one_power_exact():
    assert alpha_pow(Alpha(1), Fraction(7, 3)) == Fraction(1)


def test_alpha_principal_square_root():
    v = alpha_pow(Alpha(4), Fraction(1, 2))
    assert v == 2


def test_alpha_complex_polar_convention():
    # i^2 = -1, so 1 + alpha^2 vanishes
    a = Alpha(mp.mpc(0, 1), allow_complex=True)
    v = a.pow(Fraction(2))
    assert abs(1 + v) < mp.mpf(2) ** -120


def test_alpha_equality_is_symmetric():
    from skewpuiseux import parse_poly, puiseux_ring
    exact, numeric = Alpha(2), Alpha(mp.mpf(2))
    assert exact == numeric and numeric == exact
    assert exact != Alpha(mp.mpf(3)) and Alpha(mp.mpf(3)) != exact
    t1 = parse_poly("t", puiseux_ring(exact))
    t2 = parse_poly("t", puiseux_ring(numeric))
    assert str(t1 * t2) == str(t2 * t1) == "t^2"


def test_alpha_zero_rejected():
    with pytest.raises(UsageError):
        Alpha(0)
    with pytest.raises(UsageError):
        Alpha(Fraction(-2))


def test_alpha_complex_requires_flag():
    with pytest.raises(UsageError):
        Alpha(mp.mpc(1, 1))


def test_alpha_integer_powers_exact():
    a = Alpha(Fraction(3, 2))
    assert a.pow(Fraction(3)) == Fraction(27, 8)
    assert a.pow(Fraction(-2)) == Fraction(4, 9)


def test_alpha_pow_group_law():
    rnd = rng(42)
    a_vals = [Fraction(2), Fraction(3, 2), Fraction(7, 5)]
    tol = mp.mpf(2) ** -(mp.prec - 8)
    for k in range(200):
        a = Alpha(a_vals[k % len(a_vals)])
        q1 = Fraction(rnd.randint(-40, 40), rnd.randint(1, 64))
        q2 = Fraction(rnd.randint(-40, 40), rnd.randint(1, 64))
        lhs = mp.mpf(1) * a.pow(q1) * a.pow(q2)
        rhs = mp.mpf(1) * a.pow(q1 + q2)
        assert abs(lhs - rhs) <= tol * abs(rhs)


def test_rational_arithmetic_exact():
    rnd = rng(43)
    for _ in range(200):
        a = Fraction(rnd.randint(-999, 999), rnd.randint(1, 999))
        b = Fraction(rnd.randint(-999, 999), rnd.randint(1, 999))
        c = Fraction(rnd.randint(-999, 999), rnd.randint(1, 999))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_gaussian_rational_field_laws():
    rnd = rng(44)
    for _ in range(200):
        vals = [GaussianRational(Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)),
                                 Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)))
                for _ in range(3)]
        a, b, c = vals
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        if b != 0:
            assert (a / b) * b == a


def _near_pow2(rnd, E):
    """mpf and mpc values whose parts straddle 2^-E and 2^-E/sqrt(2)."""
    eps = mp.ldexp(1, -E)
    ulp = mp.ldexp(eps, -mp.prec)
    edge = eps / mp.sqrt(2)
    out = [eps, -eps, eps - ulp, eps + ulp, -(eps - ulp), mp.mpf(0),
           mp.mpc(eps, 0), mp.mpc(0, -eps), mp.mpc(0, eps - ulp), mp.mpc(0),
           mp.mpc(edge, edge), mp.mpc(-edge, edge - ulp),
           mp.mpc(edge + ulp, -edge), mp.mpc(eps / 2, eps / 2),
           mp.mpc(eps / 2 - ulp, eps / 2 - ulp), mp.mpc(eps - ulp, ulp),
           mp.inf, -mp.inf, mp.nan, mp.mpc(mp.inf, 0), mp.mpc(0, mp.nan),
           mp.mpc(ulp, mp.inf)]
    for _ in range(300):
        re = mp.ldexp(rnd.uniform(-1, 1), -E + rnd.randint(-2, 2))
        im = mp.ldexp(rnd.uniform(-1, 1), -E + rnd.randint(-2, 2))
        out += [re, mp.mpc(re, im), mp.mpc(re, 0), mp.mpc(0, im)]
    # parts with more bits than the working precision
    with bits(mp.prec + 40):
        for _ in range(50):
            t = mp.mpf(rnd.uniform(0.7, 0.71)) * mp.ldexp(1, -E)
            out += [mp.mpc(t, t), t]
    return out


def test_zero_test_matches_modulus_threshold():
    rnd = rng(45)
    for prec in (53, 128, 160):
        with bits(prec):
            for E in (0, 3, 64, 80, -5):
                eps = mp.ldexp(1, -E)
                other = [eps * 3 / 4, eps * mp.mpf("1.1"), mp.mpf(1) / 3]
                for c in _near_pow2(rnd, E):
                    for e in [eps] + other:
                        assert is_negligible(c, e) == (abs(c) < e), (prec, E, c, e)
    assert is_negligible(0) and is_negligible(Fraction(0))
    assert not is_negligible(Fraction(1, 10**40))
    assert is_negligible(GaussianRational(0, 0))
    assert not is_negligible(GaussianRational(0, Fraction(1, 10**40)))


def test_zero_eps_follows_precision_and_override():
    try:
        for prec in (64, 128, 161, 256, 128):
            with bits(prec):
                assert zero_eps() == mp.ldexp(1, -(prec // 2))
                assert is_negligible(mp.ldexp(1, -(prec // 2) - 1))
                assert not is_negligible(mp.ldexp(1, -(prec // 2)))
        set_zero_eps_bits(40)
        with bits(256):
            assert zero_eps() == mp.ldexp(1, -40)
            assert not is_negligible(mp.ldexp(1, -40))
        set_zero_eps_bits(None)
        with bits(256):
            assert zero_eps() == mp.ldexp(1, -128)
    finally:
        set_zero_eps_bits(None)
