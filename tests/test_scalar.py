from fractions import Fraction

import pytest
from mpmath import mp

from skewpuiseux import (Alpha, FactorConfig, GaussianRational, PuiseuxSeries, SkewPoly, TMap,
                         bits, puiseux_ring, sigma_zero_quadratic, trace_solve)
from skewpuiseux.errors import UsageError
from skewpuiseux import scalar as scalar_mod
from skewpuiseux.scalar import (MIN_BITS, cluster_tol, dust_tol, floor_tol,
                                is_negligible, max_abs, to_mpc, zero_eps)

from conftest import rng


def test_alpha_one_power_exact():
    assert Alpha(1).pow(Fraction(7, 3)) == Fraction(1)


def test_alpha_principal_square_root():
    v = Alpha(4).pow(Fraction(1, 2))
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


def test_a_negative_numeric_alpha_is_refused_as_an_exact_one_is():
    # whatever its type, a real alpha must be positive without allow_complex
    for value in (-2, Fraction(-3, 2), mp.mpf(-2), mp.mpc(-2, 0), -2.0):
        with pytest.raises(UsageError, match="alpha must be a positive real"):
            Alpha(value)


def test_a_negative_real_alpha_with_allow_complex_is_an_mpc():
    # its powers are all mpc, so one twist row has one kind
    a = Alpha(mp.mpf(-2), allow_complex=True)
    assert isinstance(a.numeric, mp.mpc) and not a.is_real_positive
    with bits(128):
        assert abs(a.numeric_pow(1, 2) - mp.mpc(0, mp.sqrt(2))) < mp.mpf(2) ** -120
        assert {a.twist_row(1, 2, 0, 5)[3], a.twist_row(2, 2, 0, 5)[3]} == {2}
        assert isinstance(a.numeric_pow(2, 2), mp.mpc)


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


# binary exponents of zero_eps, cluster_tol and dust_tol at each precision
TOLERANCE_LEVELS = {64: (-32, -21, -16), 128: (-64, -42, -32),
                    161: (-80, -53, -40), 256: (-128, -85, -64)}


def test_tolerance_levels_follow_precision():
    for prec, (ez, ec, ed) in TOLERANCE_LEVELS.items():
        with bits(prec):
            assert zero_eps() == mp.ldexp(1, ez)
            assert cluster_tol() == mp.ldexp(1, ec)
            assert dust_tol() == mp.ldexp(1, ed)
            for j in (8, 12, 24):
                assert floor_tol(j) == mp.ldexp(1, j - prec)
            assert is_negligible(mp.ldexp(1, ez - 1))
            assert not is_negligible(mp.ldexp(1, ez))


def test_least_precision_keeps_the_level_order():
    for prec in (MIN_BITS, MIN_BITS + 1):
        with bits(prec):
            assert floor_tol(24) < zero_eps() < cluster_tol() < dust_tol()
    with bits(MIN_BITS - 1):
        assert not floor_tol(24) < zero_eps()


def _outcome(fn, values):
    """What fn(values) gives, bit for bit: the result's type and value (an
    mpf as its raw tuple, so nan matches nan), or the error."""
    try:
        v = fn(values)
    except TypeError as e:
        return type(e)
    return type(v), getattr(v, "_mpf_", v)


def _plain_max(values):
    return max((abs(to_mpc(c)) for c in values), default=mp.mpf(0))


def test_max_abs_is_the_plain_max_bit_for_bit():
    rnd = rng(131)
    c = mp.mpc("0.75", "-1.25")
    lists = [
        [], [mp.mpc(0)], [mp.mpc(0), mp.mpf(0)], [0, mp.mpc(0)],
        [c, -c, c.conjugate(), mp.mpc(c.imag, c.real)],       # ties of the modulus
        [mp.mpf(3), mp.mpc(3), mp.mpc(0, -3)],                 # exact ties of the value
        [mp.mpf("0.5"), mp.mpf(-1), mp.mpc("0.75", "0.75")],   # the max one order down
        [3, mp.mpf(2)], [Fraction(7, 2), mp.mpc(1, 1)], [GaussianRational(1, 2), mp.mpc(2)],
        [mp.mpf("inf"), mp.mpc(1)], [mp.mpc(1), mp.mpf("nan"), mp.mpc(5)],
        [mp.mpc(0, "-inf"), mp.mpf("nan")], [mp.mpf(2) ** -200, mp.mpf(2) ** 200],
    ]
    for _ in range(300):
        lists.append([mp.mpc(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) * mp.mpf(2) ** rnd.randint(-4, 4)
                      if rnd.random() < 0.8 else mp.mpf(rnd.uniform(-3, 3))
                      for _ in range(rnd.randint(1, 6))])
    for values in lists:
        assert _outcome(max_abs, values) == _outcome(_plain_max, values), values
    # the residue layer's own form, abs(c) of mpc coefficients
    for values in lists[-300:]:
        mpcs = [mp.mpc(v) for v in values]
        assert _outcome(max_abs, mpcs) == _outcome(lambda vs: max(abs(v) for v in vs), mpcs)


def test_max_abs_sizes_only_the_top_orders(monkeypatch):
    sized = []
    real = scalar_mod.to_mpc

    def counting(x):
        sized.append(x)
        return real(x)

    monkeypatch.setattr(scalar_mod, "to_mpc", counting)
    values = [mp.mpc(1, 1) / 8, mp.mpf(3), mp.mpc(0, "-0.75"), mp.mpf(2) ** -60, mp.mpc(-2, 1)]
    assert max_abs(values) == 3
    assert sized == [mp.mpf(3), mp.mpc(-2, 1)]


def test_mantissa_zero_test_matches_the_modulus():
    # first_at_least decides |(u + iv) 2^e| >= 2^t exactly, zeros included
    rnd = rng(61)
    for _ in range(2000):
        e, t = rnd.randint(-80, 10), rnd.randint(-70, 0)
        n = rnd.randint(1, 5)
        re = [rnd.choice([0, rnd.randint(-2 ** 40, 2 ** 40)]) for _ in range(n)]
        im = [rnd.choice([0, rnd.randint(-2 ** 40, 2 ** 40)]) for _ in range(n)]
        with bits(256):
            big = [abs(mp.mpc(u, v) * mp.mpf(2) ** e) >= mp.mpf(2) ** t for u, v in zip(re, im)]
        want = big.index(True) if True in big else None
        assert scalar_mod.first_at_least(re, im, e, t) == want
    # the band: |3 + 4i| = 5 against 2^2 and 2^3, both with top bit length 3
    assert scalar_mod.first_at_least([0, 3], [0, 4], 0, 3) is None
    assert scalar_mod.first_at_least([0, 3], [0, 4], 0, 2) == 1
    assert scalar_mod.first_at_least([0], [0], 5, 0) is None


def _writer_keeps(u, v, e):
    """round_row's verdict on one entry, checked against from_fixed_point
    and is_negligible, the write-out and zero test it stands for."""
    c = scalar_mod.from_fixed_point(u, v, e)
    row = scalar_mod.round_row([u], [v], e)
    assert (row is None) == is_negligible(c), (u, v, e)
    if row:
        (x,), (y,), f = row
        assert scalar_mod.fixed_value(x, y, f)._mpc_ == c._mpc_
    return row is not None


@pytest.mark.parametrize("prec", [53, 128, 256])
def test_the_writer_zero_test_decides_as_is_negligible(prec):
    # entries of modulus just below, at and just above zero_eps() = 2^z: the
    # row writer must keep exactly what from_fixed_point and is_negligible keep
    isqrt = __import__("math").isqrt
    with bits(prec):
        z = scalar_mod.pow2_exp(zero_eps())
        e = z - prec  # mantissas below 2^prec hold prec bits: rounding leaves them
        top = 1 << prec
        rnd = rng(62 + prec)
        # |u + iv| < 2^z exactly, but the modulus rounds to 2^z: kept
        while True:
            u = rnd.randint(top // 2, top * 4 // 5)
            v = isqrt(top * top - 1 - u * u)
            if top * top - (top >> 6) < u * u + v * v:
                break
        assert _writer_keeps(u, v, e) and _writer_keeps(-v, u, e)
        assert scalar_mod.first_at_least([u], [v], e, z) is None
        # further below, the rounded modulus is below 2^z too: dropped
        v = isqrt(top * top - (top * top >> (prec - 8)) - u * u)
        assert not _writer_keeps(u, v, e)
        # at 2^z, one part or two, and just above it: kept
        assert _writer_keeps(top, 0, e) and _writer_keeps(0, -top, e)
        assert _writer_keeps(u, isqrt(top * top - u * u) + 1, e)
        # one part just below 2^z, and one that rounds up to it: as is_negligible
        assert not _writer_keeps(top - 1, 0, e)
        assert _writer_keeps((top << 9) - 1, 0, e - 9)
        assert not _writer_keeps(0, 0, e)
        # random mantissas around the band, with more bits than prec
        for _ in range(300):
            s = rnd.randint(0, 40)
            w = rnd.randint(top * 7 // 10, top) << s
            u = rnd.randint(0, w)
            v = isqrt(max(0, w * w - u * u)) + rnd.randint(-3, 3)
            _writer_keeps(u * rnd.choice((1, -1)), v, e - s)


@pytest.mark.parametrize("alpha", [Fraction(3, 2), Fraction(2, 3)])
def test_fraction_operands_reach_mpmath_rounded_to_nearest(alpha):
    # mpmath rounds a Fraction operand toward zero: mpc(1) * Fraction(2, 3)
    # is one ulp below nearest at 128 bits; each site rounds it with to_mpf
    to_mpf = scalar_mod.to_mpf
    w = mp.mpc("0.3", "-1.7")
    with bits(128):
        tm = TMap(alpha)
        for n in range(1, 6):
            assert tm.apply(w, n) == to_mpf(alpha ** -n) * w
        f = PuiseuxSeries(1, {0: w, 1: mp.mpf("0.7"), 2: 5})
        g = f.scale(alpha)
        # a series that mixes exact and mpmath values is one numeric series
        assert g.terms == {0: w * to_mpf(alpha), 1: mp.mpf("0.7") * to_mpf(alpha),
                           2: 5 * to_mpf(alpha)}
        assert all(isinstance(c, mp.mpc) for c in g.terms.values())
        f = PuiseuxSeries(1, {k: mp.mpc(k - 3, 0.5 * k + 0.25) for k in range(8)})
        for d in (2, 3):
            b = trace_solve(f, d, alpha)
            for k, c in f.terms.items():
                assert b.terms[k] == c / to_mpf(sum(alpha ** (k * j) for j in range(d)))
        # the first forcing term at x^k meets the pivot z0 (alpha^k + 1) + c1
        c1, c0, a = mp.mpc(-3, "0.5"), mp.mpc(2, "0.25"), mp.mpf("0.75")
        for k in range(1, 7):
            quad = SkewPoly(puiseux_ring(alpha), [PuiseuxSeries(1, {0: c0, k: a}),
                                                  PuiseuxSeries(1, {0: c1}), 1])
            z = sigma_zero_quadratic(quad, FactorConfig(target_order=k + 1, bits=128))
            assert z.terms[k] == -mp.mpc(a) / (z.terms[0] * to_mpf(alpha ** k + 1) + c1)


def test_alpha_zero_and_scalar_text_edges():
    with pytest.raises(UsageError, match="nonzero"):
        Alpha(mp.mpf(0))
    assert scalar_mod.fmt_scalar(GaussianRational(Fraction(1, 2), -3)) == "1/2-3i"
    assert scalar_mod.fmt_scalar(GaussianRational(0, Fraction(2, 3))) == "2/3i"
    assert scalar_mod.fmt_scalar(mp.nan) == "nan"


def _entries(row, count):
    """The first count entries of an exact row as (re, im) mpf tuples,
    exactly."""
    re, im, e = row
    assert len(re) >= count
    return [(scalar_mod.fixed_value(u, None, e)._mpf_, scalar_mod.fixed_value(v, None, e)._mpf_)
            for u, v in zip(re[:count], im[:count])]


def _fresh(alpha, L, k, count, inverse):
    """alpha_eff^(ik), i < count, computed afresh from Alpha.pow (an exact
    power rounded to nearest), or their inverses 1/c of the P-rounded c at
    P + 32 bits, as (re, im) mpf tuples."""
    out = []
    for i in range(count):
        c = alpha.pow(Fraction(i * k, L))
        c = scalar_mod.to_mpf(c) if isinstance(c, Fraction) else c
        if inverse:
            with mp.workprec(mp.prec + 32):
                c = 1 / c
        out.append(getattr(c, "_mpc_", None) or (c._mpf_, (0, 0, 0, 0)))
    return out


def test_memo_rows_equal_a_fresh_computation_bit_for_bit(monkeypatch):
    # the memo of alpha's powers grows in K and in count, keeps a row per
    # precision, and holds each entry as a fresh computation gives it
    built = []
    power_row = scalar_mod._power_row
    monkeypatch.setattr(scalar_mod, "_power_row",
                        lambda *args: built.append(args[1:]) or power_row(*args))
    scalar_mod._powers.cache_clear()
    alphas = [Alpha(2), Alpha(Fraction(3, 2)), Alpha(Fraction(1, 2)), Alpha(mp.mpf("1.7")),
              Alpha(mp.mpc("1.5", "0.5"), allow_complex=True)]
    for prec, count, K in ((128, 3, 4), (256, 5, 6), (128, 3, 7), (128, 5, 7)):
        with bits(prec):
            for alpha in alphas:
                for L in (1, 2, 3):
                    for k in range(K):
                        for inverse in (False, True):
                            row = alpha.power_row(L, k, count, inverse)
                            assert _entries(row, count) == _fresh(alpha, L, k, count, inverse)
    # 128 bits, count 3, K 4 builds each row; 256 bits builds its own; back
    # at 128 bits only k = 4..6 are new, and count 5 grows every row once
    per = len(alphas) * 3 * 2
    assert len(built) == per * (4 + 6 + 3 + 7)
    # the held row serves a smaller count, by value across Alpha instances
    with bits(128):
        assert Alpha(2).power_row(2, 3, 3) is Alpha(2).power_row(2, 3, 5)
        assert len(built) == per * 20


def test_memo_is_keyed_by_kind_and_value_not_alpha_equality():
    scalar_mod._powers.cache_clear()
    exact, numeric = Alpha(2), Alpha(mp.mpf(2))
    assert exact == numeric
    with bits(128):
        for L in (1, 2, 3):
            for inverse in (False, True):
                for k in (1, 2, 5):
                    a = exact.power_row(L, k, 4, inverse)
                    b = numeric.power_row(L, k, 4, inverse)
                    assert a is not b
                    assert a is Alpha(Fraction(2)).power_row(L, k, 4, inverse)
                    assert b is Alpha(mp.mpf(2)).power_row(L, k, 4, inverse)
        assert exact.numeric_pow(1, 2) is not numeric.numeric_pow(1, 2)
    # one entry per kind and L
    assert scalar_mod._powers.cache_info().currsize == 6


def test_twist_rows_are_slices_of_one_memo_row_per_num(monkeypatch):
    # windows below, inside, across and above the held row, with negative
    # k, and empty ones outside it: each slice holds the values and the kind
    # fixed_point gives the window, and one row per num grows to span the
    # nonempty ones, built once per growth
    read = []
    fixed_point = scalar_mod.fixed_point
    monkeypatch.setattr(scalar_mod, "fixed_point",
                        lambda values: read.append(len(values)) or fixed_point(values))
    scalar_mod._powers.cache_clear()
    windows = [(0, 4), (1, 2), (-3, 2), (-3, 10), (5, 3), (-1, 0), (2, 1), (-9, 0), (20, 0)]
    alphas = [Alpha(2), Alpha(Fraction(3, 2)), Alpha(mp.mpf("1.7")),
              Alpha(mp.mpc("1.5", "0.5"), allow_complex=True)]
    for prec in (128, 256):
        with bits(prec):
            for alpha in alphas:
                for num, den in ((1, 1), (1, 2), (-2, 3), (3, 2)):
                    for k0, n in windows:
                        re, im, e, kind = alpha.twist_row(num, den, k0, n)
                        values = [alpha.numeric_pow(num * k, den) for k in range(k0, k0 + n)]
                        fp = fixed_point(values)
                        assert kind == fp[3] and len(re) == len(im) == n
                        assert [scalar_mod.fixed_value(u, v, e) for u, v in zip(re, im)] == [
                            scalar_mod.fixed_value(u, v, fp[2]) for u, v in zip(*fp[:2])]
                    memo = scalar_mod._powers(alpha.exact, alpha.numeric, den, prec)
                    # one kind per row: mpc for the complex alpha, mpf else
                    lo, kind, (re, _, _) = memo["twist", num]
                    assert (lo, len(re), kind) == (-3, 11, 2 if alpha is alphas[-1] else 1)
    # the windows grow the row at (0, 4), (-3, 2), (-3, 10) and (5, 3) to 4,
    # 7, 10 and 11 entries (the others are held), each growth reading the
    # row, and with it its kind, once
    assert [n for n in read if n > 1] == [4, 7, 10, 11] * (2 * 4 * 4)
    assert read.count(1) == 0


def test_memo_evicts_the_least_recently_used_of_64_keys():
    scalar_mod._powers.cache_clear()
    alpha = Alpha(Fraction(3, 2))
    with bits(128):
        first, second = alpha.numeric_pow(1, 1), alpha.numeric_pow(1, 2)
        for L in range(3, 65):
            alpha.numeric_pow(1, L)
        assert scalar_mod._powers.cache_info().currsize == 64
        assert alpha.numeric_pow(1, 1) is first  # L = 1 is now the most recent
        alpha.numeric_pow(1, 65)
        assert scalar_mod._powers.cache_info().currsize == 64
        assert alpha.numeric_pow(1, 1) is first
        # L = 2 went: its power is built again, equal but a new value
        again = alpha.numeric_pow(1, 2)
        assert again is not second and again == second
        assert alpha.log_eff(1) == mp.log(first)
