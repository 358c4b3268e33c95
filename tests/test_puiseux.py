from fractions import Fraction

import pytest
from mpmath import mp

from mpmath.libmp import mpf_neg, to_rational

from skewpuiseux import (Alpha, ConjSeriesRing, GaussianRational, PuiseuxSeries, SkewPoly, bits,
                         puiseux_ring)
from skewpuiseux import puiseux as puiseux_mod
from skewpuiseux import scalar as scalar_mod
from skewpuiseux.errors import PrecisionExhausted, UsageError, ZeroInversion
from skewpuiseux.puiseux import _Fixed
from skewpuiseux.scalar import EXACT_TYPES, INF, is_negligible, max_abs, mp_operand, to_mpf

from conftest import rand_series, rng
from props import check_leibniz, trace_apply

PS = PuiseuxSeries


def test_negation_is_exact():
    # a coefficient formed at 217 bits keeps its mantissa under -s at 128
    with bits(217):
        c = mp.mpf(1) / 3
        z = mp.mpc(c, -c)
    assert c._mpf_[3] == 217
    s = PS(1, {0: c, 1: z, 2: 3, 3: Fraction(-2, 3)}, 5)
    neg = -s
    _, man, exp, bc = c._mpf_
    assert neg.terms[0]._mpf_ == (1, man, exp, bc)
    assert neg.terms[1]._mpc_ == ((1, man, exp, bc), (0, man, exp, bc))
    assert neg.terms[2] == -3 and neg.terms[3] == Fraction(2, 3) and neg.trunc == 5
    assert (-neg).terms == s.terms


def test_ord_examples():
    assert PS.zero().ord() == INF
    f = PS.from_terms([(Fraction(1, 2), 1), (1, 1)])
    assert f.ord() == Fraction(1, 2)
    g = PS.from_terms([(0, 3), (2, 1)])
    assert g.ord() == 0


def test_sigma_defining_action():
    x = PS.x_pow(1)
    assert x.sigma_pow(1, Alpha(2)) == PS.from_terms([(1, 2)])


def test_sigma_on_ramified_uniformizer():
    h = PS.x_pow(Fraction(1, 2))
    out = h.sigma_pow(1, Alpha(4))
    assert (out - PS.from_terms([(Fraction(1, 2), 2)])).max_abs() == 0


def test_sigma_fixes_constants():
    c = PS.constant(5)
    assert c.sigma_pow(Fraction(7, 3), Alpha(3)) == c


def test_delta_examples():
    x = PS.x_pow(1)
    ctx0 = puiseux_ring(2, 1, None)
    assert ctx0.delta(x).is_zero
    ctx1 = puiseux_ring(2, 1, PS.one())
    # delta_1(x) = 1*(2x - x) = x
    assert (ctx1.delta(x) - x).max_abs() == 0
    assert ctx1.delta(PS.constant(7)).is_zero
    # a value of a that cancelled to zero, known to O(x^5), is the zero map
    ctx2 = puiseux_ring(2, 1, PS.zero(1, 5))
    assert ctx2 == puiseux_ring(2)
    assert ctx2.a.trunc is None
    d = ctx2.delta(x)
    assert d.is_zero and d.trunc is None
    # the ramification is raised to that of a
    ctx3 = puiseux_ring(2, 1, PS.x_pow(Fraction(1, 2)))
    assert ctx3.L == 2 and ctx3.a.L == 2
    a = PS.from_terms([(0, 1), (1, 3)], trunc=6)
    assert puiseux_ring(2).with_a(a).with_a(a - a) == puiseux_ring(2)


def test_series_inverse_identity():
    one_minus_x = PS.from_terms([(0, 1), (1, -1)])
    inv = one_minus_x.inverse(12)
    prod = one_minus_x * inv
    assert prod.trunc == 12
    assert (prod - 1).max_abs() == 0


def test_exponent_addition():
    h = PS.x_pow(Fraction(1, 2))
    assert (h * h - PS.x_pow(1)).max_abs() == 0


def test_ord_additivity_random():
    rnd = rng(21)
    for _ in range(100):
        L = rnd.choice([1, 2, 3])
        f = rand_series(rnd, L, -2, 3)
        g = rand_series(rnd, L, -1, 2)
        assert (f * g).ord() == f.ord() + g.ord()
        assert (f + g).ord() >= min(f.ord(), g.ord())


def test_reembed_is_bookkeeping():
    x = PS.x_pow(1)
    y = x.reembed(2)
    assert y.L == 2 and y.terms == {2: 1}
    assert y.ord() == 1
    rnd = rng(22)
    for _ in range(50):
        f = rand_series(rnd, 2, -2, 4)
        assert f.reembed(3).ord() == f.ord()
        assert f.reembed(3) == f  # equality unifies ramification


def test_sigma_composition():
    rnd = rng(23)
    tol = mp.mpf(2) ** -(mp.prec - 16)
    for _ in range(200):
        alpha = Alpha(Fraction(rnd.randint(1, 5), rnd.randint(1, 3)))
        f = rand_series(rnd, rnd.choice([1, 2]), -2, 4)
        q1 = Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
        q2 = Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
        lhs = f.sigma_pow(q1 + q2, alpha)
        rhs = f.sigma_pow(q2, alpha).sigma_pow(q1, alpha)
        assert (lhs - rhs).max_abs() <= tol * max(1, f.max_abs()) * 8


def test_leibniz_rule():
    assert check_leibniz(200) == 200


def test_trunc_tracking_through_mul():
    f = PS.from_terms([(1, 1)], trunc=5)     # x + O(x^5)
    g = PS.from_terms([(2, 1)], trunc=9)     # x^2 + O(x^9)
    h = f * g
    assert h.trunc == 7  # min(5+2, 9+1)
    assert h.terms == {3: 1}


def test_inverse_beyond_precision_raises():
    f = PS.from_terms([(0, 1), (1, -1)], trunc=4)
    with pytest.raises(PrecisionExhausted):
        f.inverse(10)
    with pytest.raises(ZeroInversion):
        PS.zero().inverse(4)
    with pytest.raises(UsageError):
        PS.from_terms([(0, 1), (1, 1)]).inverse()  # exact multi-term needs a target


def test_monomial_inverse_exact():
    m = PS.x_pow(Fraction(3, 2), 4)
    inv = m.inverse()
    assert inv.trunc is None
    assert (m * inv - 1).max_abs() == 0


def test_trace_apply_example():
    b = PS.x_pow(1)
    out = trace_apply(b, 2, Alpha(4))
    assert (out - PS.from_terms([(1, 5)])).max_abs() == 0


def test_residue_requires_integrality():
    f = PS.from_terms([(-1, 1), (0, 2)])
    with pytest.raises(UsageError):
        f.residue()
    assert PS.from_terms([(0, 3), (1, 1)]).residue() == 3


def test_zero_threshold_drops_noise():
    tiny = mp.mpf(2) ** -100
    f = PS(1, {0: 1, 1: tiny})
    assert f.terms == {0: 1}


def _exact(c):
    """A numeric coefficient as the GaussianRational it equals."""
    if isinstance(c, int):
        return GaussianRational(c)
    z = mp.mpc(c)
    return GaussianRational(Fraction(*to_rational(z.real._mpf_)),
                            Fraction(*to_rational(z.imag._mpf_)))


def _mixed_coeff(rnd):
    kind = rnd.choice(["int", "mpf", "mpc"])
    if kind == "int":
        return rnd.randint(-10 ** 6, 10 ** 6)
    scale = mp.mpf(2) ** rnd.randint(-70, 60)
    if kind == "mpf":
        return mp.mpf(rnd.uniform(-1, 1)) * scale
    return mp.mpc(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) * scale


def test_product_is_exact_convolution_rounded_once():
    rnd = rng(31)
    for prec in (128, 256):
        with bits(prec):
            for _ in range(150):
                L = rnd.choice([1, 2, 3])
                ops = []
                for _ in range(2):
                    ks = rnd.sample(range(-3, 14), rnd.randint(1, 8))
                    trunc = rnd.choice([None, 9, 14, 20])
                    ops.append(PS(L, {k: _mixed_coeff(rnd) for k in ks}, trunc,
                                  normalize=False))
                a, b = ops
                # the same operands with exact coefficients take the generic loop
                ref = (PS(L, {k: _exact(c) for k, c in a.terms.items()}, a.trunc)
                       * PS(L, {k: _exact(c) for k, c in b.terms.items()}, b.trunc))
                prod = a * b
                assert prod.trunc == ref.trunc
                want = {}
                for k, g in ref.terms.items():
                    re, im = to_mpf(g.re), to_mpf(g.im)
                    if not is_negligible(mp.mpc(re, im)):
                        want[k] = (re._mpf_, im._mpf_)
                assert set(prod.terms) == set(want)
                for k, c in prod.terms.items():
                    c = mp.mpc(c)
                    assert (c.real._mpf_, c.imag._mpf_) == want[k]


def test_integer_products_stay_exact():
    f = PS(1, {0: 3, 2: -5}) * PS(1, {1: 7})
    assert f.terms == {1: 21, 3: -35}
    assert all(type(c) is int for c in f.terms.values())


def test_sigma_pow_factors_match_alpha_pow_bit_for_bit():
    # the factor is alpha.pow's value, an exact Fraction power rounded to
    # nearest (mpmath's own conversion of a Fraction rounds toward zero)
    rnd = rng(32)
    alphas = [Alpha(2), Alpha(Fraction(3, 2)),
              Alpha(mp.mpc("1.5", "0.5"), allow_complex=True)]
    for prec in (128, 256, 128):
        with bits(prec):
            for alpha in alphas:
                for L in (1, 2, 3):
                    terms = {k: rnd.choice([mp.mpc(rnd.random(), rnd.random()),
                                            mp.mpf(rnd.random())])
                             for k in range(-12, 25)}
                    f = PS(L, terms, normalize=False)
                    for q in (1, -1, Fraction(5, 3), 7):
                        out = f.sigma_pow(q, alpha)
                        refs = {}
                        for k, c in terms.items():
                            w = alpha.pow(Fraction(q) * Fraction(k, L))
                            refs[k] = c * (to_mpf(w) if isinstance(w, Fraction) else w)
                        # one numeric series: mpf exactly when every value is
                        real = all(isinstance(r, mp.mpf) for r in refs.values())
                        for k, c in out.terms.items():
                            assert isinstance(c, mp.mpf if real else mp.mpc)
                            assert mp.mpc(c)._mpc_ == mp.mpc(refs[k])._mpc_


def test_inverse_of_an_int_lead_stays_exact():
    # 1 / 3 would be a 53-bit Python float; the int lead inverts as a Fraction
    assert PS(1, {0: 3}).inverse().terms == {0: Fraction(1, 3)}
    inv = PS(1, {0: 3, 1: 1}, 6).inverse(4)
    assert inv.trunc == 4
    assert inv.terms == {k: Fraction((-1) ** k, 3 ** (k + 1)) for k in range(4)}
    assert all(type(c) is Fraction for c in inv.terms.values())


def test_ord_of_a_truncated_zero_is_its_truncation():
    # the zero series known to O(x^T) has order T; only the exact zero is inf
    assert PS.zero(1, 5).ord() == 5
    assert PS(2, {}, 7).ord() == Fraction(7, 2)
    assert PS.zero(3).ord() == INF


@pytest.mark.parametrize("op", ["times", "plus", "sigma_pow", "scale"])
def test_a_fraction_meets_mpmath_rounded_to_nearest(op):
    # mpmath would convert the Fraction itself, rounding toward zero
    third = PS(1, {0: Fraction(1, 3)})
    with bits(128):
        near = to_mpf(Fraction(1, 3))
        if op == "times":
            assert (third * PS(1, {0: mp.mpc(1)})).terms[0].real == near
        elif op == "plus":
            assert (third + PS(1, {0: mp.mpc(0, 1)})).terms[0].real == near
        elif op == "scale":
            assert third.scale(mp.mpf(2)).terms[0] == 2 * near
        else:
            s = PS(2, {1: Fraction(1, 3)}).sigma_pow(1, Alpha(2))
            assert s.terms[1] == near * Alpha(2).pow(Fraction(1, 2))


@pytest.mark.parametrize("op", ["times", "plus", "sigma_pow", "scale", "skew_product"])
def test_a_gaussian_rational_meets_mpmath_through_to_mpc(op):
    # mpmath does not read a GaussianRational; exact times exact stays exact
    g = GaussianRational(1, 1)
    with bits(128):
        if op == "times":
            assert (PS(1, {0: g}) * PS(1, {0: mp.mpc(1)})).terms == {0: mp.mpc(1, 1)}
            assert (PS(1, {0: g}) * PS(1, {0: g})).terms == {0: GaussianRational(0, 2)}
        elif op == "plus":
            assert (PS(1, {0: g}) + PS(1, {0: mp.mpc(1)})).terms == {0: mp.mpc(2, 1)}
        elif op == "sigma_pow":
            s = PS(2, {1: g}).sigma_pow(1, Alpha(2))
            assert s.terms == {1: mp.mpc(1, 1) * Alpha(2).pow(Fraction(1, 2))}
        elif op == "scale":
            assert PS(1, {0: g}).scale(mp.mpf(2)).terms == {0: mp.mpc(2, 2)}
            half = PS(1, {0: g}).scale(Fraction(1, 2)).terms[0]
            assert half == GaussianRational(Fraction(1, 2), Fraction(1, 2))
            assert type(half) is GaussianRational
        else:
            ring = puiseux_ring(2)
            t = SkewPoly.t_pow(ring, 1)
            prod = (t + SkewPoly.constant(ring, g)) * (t + SkewPoly.constant(ring, mp.mpc(1, 2)))
            assert [c.terms for c in prod.coeffs] == [{0: mp.mpc(-1, 3)}, {0: mp.mpc(2, 3)}, {0: 1}]


def test_ramification_bookkeeping_usage_errors():
    with pytest.raises(UsageError, match="ramification must be a positive integer"):
        PS(0, {})
    f = PS.from_terms([(Fraction(1, 2), 3)])  # L = 2
    with pytest.raises(UsageError, match="reembed factor"):
        f.reembed(0)
    with pytest.raises(UsageError, match="cannot re-embed ramification 2 into 3"):
        f.at_ram(3)
    # a coefficient off the 1/L grid is zero
    assert f.coeff(Fraction(1, 3)) == 0 and f.coeff(Fraction(1, 2)) == 3


def test_inverse_of_a_truncated_series_defaults_to_its_precision():
    f = PS.from_terms([(0, 1), (1, -1)], trunc=4)  # 1 - x + O(x^4)
    inv = f.inverse()
    assert inv.trunc == 4 and inv.terms == {0: 1, 1: 1, 2: 1, 3: 1}


# -- series the exact kernel writes ----------------------------------------------


def _raw(c):
    """A coefficient's type and bits."""
    return type(c), getattr(c, "_mpc_", getattr(c, "_mpf_", c))


def _raw_terms(s):
    return {k: _raw(c) for k, c in s.terms.items()}


def _holds_terms(s) -> bool:
    try:
        PS.terms.__get__(s)
    except AttributeError:
        return False
    return True


def _copy(s):
    """The same series built from its terms."""
    return PS(s.L, dict(s.terms), s.trunc, normalize=False)


def test_a_written_series_keeps_its_bits_at_a_lower_precision():
    # produced at 256 bits, its coefficients are formed exactly when read
    # at 53, and an mpf product stays an mpf
    rnd = rng(51)
    with bits(256):
        a = PS(1, {k: mp.mpf(rnd.uniform(-2, 2)) / 3 for k in range(4)})
        b = PS(1, {k: mp.mpf(rnd.uniform(-2, 2)) / 7 for k in range(3)})
        z = PS(1, {0: mp.mpc(1, 2) / 3, 1: mp.mpc(-1, 1) / 5})
        p, q = a * b, a * z
        ref_p, ref_q = _raw_terms(a * b), _raw_terms(a * z)
    assert not _holds_terms(p) and not _holds_terms(q)
    with bits(53):
        assert _raw_terms(p) == ref_p and _raw_terms(q) == ref_q
    assert all(type(c) is mp.mpf for c in p.terms.values())
    assert all(type(c) is mp.mpc for c in q.terms.values())
    assert max(c._mpf_[3] for c in p.terms.values()) > 200
    # only the terms slot is formed on a read; other names stay unknown
    assert not hasattr(q, "coeffs") and not hasattr(q, "_terms")
    # read again by a product at 128 bits, it gives what its terms give
    with bits(128):
        assert _raw_terms(p * q) == _raw_terms(_copy(p) * _copy(q))


def _written(rnd, L):
    """A product the kernel wrote, with a truncation, interior zero terms
    and, now and then, terms that its zero test drops."""
    def operand():
        ks = rnd.sample(range(-2, 8), rnd.randint(1, 5))
        return PS(L, {k: rnd.choice([mp.mpf(rnd.uniform(-1, 1)),
                                     mp.mpc(rnd.uniform(-1, 1), rnd.uniform(-1, 1)),
                                     mp.mpf(2) ** -rnd.randint(60, 70)]) for k in ks},
                  rnd.choice([None, 6, 9, 14]))
    return operand() * operand()


def test_a_written_series_reads_its_exact_form_for_structure():
    # order, zero test, truncation, shifts, re-embedding, negation and the
    # residue of a series the kernel wrote build no terms and agree with the
    # same series built from its terms, bit for bit
    rnd = rng(52)
    seen = 0
    for _ in range(200):
        L = rnd.choice([1, 2])
        s = _written(rnd, L)
        if s.is_zero:
            continue
        seen += 1
        o = s.ord_k()
        ops = ([("truncate", T) for T in (o - 1, o, o + 1, o + 3, 30, INF)]
               + [("x_shift", j) for j in (-3, 0, 5)] + [("reembed", k) for k in (1, 2, 3)]
               + [("at_ram", 2 * L), ("__neg__",), ("ord_k",)])
        gots = [getattr(s, op)(*args) for op, *args in ops]
        assert not _holds_terms(s)
        assert all(g.is_zero or not _holds_terms(g) for g in gots[:-2])
        t = _copy(s)
        outs = list(zip(gots, [getattr(t, op)(*args) for op, *args in ops]))
        assert outs.pop() == (o, min(t.terms))
        if o < 0:
            with pytest.raises(UsageError, match="negative order"):
                s.residue()
        else:
            assert _raw(s.residue()) == _raw(t.residue())
        outs.append((s, t))
        for got, want in outs:
            assert got.ord_k() == want.ord_k() and got.is_zero == want.is_zero
            assert (got.L, got.trunc) == (want.L, want.trunc)
            assert _raw_terms(got) == _raw_terms(want)
        # the reader takes each result as its terms would read
        ops = _Fixed(s.L)
        for got, _ in outs[:-1]:
            if got.L == s.L:
                x, y = ops.reads([[got]]), ops.reads([[_copy(got)]])
                assert (x is None) == (y is None)
                if x:
                    (k0, re, im, e, t, o), (k1, re1, im1, e1, t1, o1) = x[0][0], y[0][0]
                    assert (k0, t, o) == (k1, t1, o1)
                    assert ([(u << e - min(e, e1), v << e - min(e, e1)) for u, v in zip(re, im)]
                            == [(u << e1 - min(e, e1), v << e1 - min(e, e1))
                                for u, v in zip(re1, im1)])
    assert seen > 150


def test_a_one_term_operand_scales_the_other_row():
    # x^k, a power of two and a complex monomial times a dense series:
    # the result is the exact product rounded once, as the convolution gives
    rnd = rng(53)
    s = PS(2, {k: mp.mpc(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) for k in range(9)}, 11)
    r = PS(2, {k: mp.mpf(rnd.uniform(-1, 1)) for k in range(9)})
    for m in (PS(2, {3: 1}), PS(2, {0: mp.mpf(2) ** -5}), PS(2, {1: mp.mpc(0.75, -1.5)}),
              PS(2, {-1: mp.mpf(3)}, 4)):
        for x in (s, r):
            got = m * x
            want = PS(2, {k: _exact(c) for k, c in m.terms.items()}, m.trunc) * PS(
                2, {k: _exact(c) for k, c in x.terms.items()}, x.trunc)
            assert got.trunc == want.trunc
            assert _raw_terms(got) == _raw_terms(x * m)
            assert {k: _raw(mp.mpc(c)) for k, c in got.terms.items()} == {
                k: _raw(mp.mpc(to_mpf(g.re), to_mpf(g.im))) for k, g in want.terms.items()}
    # an exact 1 leaves the terms as they are, cut to the product's truncation
    one = PS(2, {0: 1}, 5) * s
    assert one.trunc == 5 and _raw_terms(one) == _raw_terms(s.truncate(5))


def _convolution(xr, xi, yr, yi, n):
    """The first n coefficients of (xr + i xi)(yr + i yi), by definition."""
    re, im = [0] * n, [0] * n
    for i, (a, b) in enumerate(zip(xr, xi)):
        for j, (c, d) in enumerate(zip(yr, yi)):
            if i + j < n:
                re[i + j] += a * c - b * d
                im[i + j] += a * d + b * c
    return re, im


def _gaussian_row(rnd, size: int, width: int, shape: str):
    """A Gaussian-integer row of `size` entries whose largest part has
    `width` bits: random signed parts; every re and every im part of the
    largest modulus, each with one sign ("extreme": one part of each
    product of two such rows is then as large as it can be); all-zero im
    ("real"); or zero entries at both ends and inside ("holes")."""
    top = (1 << width) - 1
    if shape == "extreme":
        re, im = [rnd.choice((top, -top))] * size, [rnd.choice((top, -top))] * size
    else:
        re = [rnd.randint(-top, top) for _ in range(size)]
        im = [0] * size if shape == "real" else [rnd.randint(-top, top) for _ in range(size)]
    if shape == "holes":
        for i in {0, size - 1, rnd.randrange(size)}:
            re[i] = im[i] = 0
    re[rnd.randrange(size)] = rnd.choice((top, -top))  # the row is `width` bits wide
    return re, im


def test_convolve_is_the_convolution_by_definition():
    # both branches of _convolve, in both argument orders, bit for bit the
    # convolution by definition, to every n up to the full length
    rnd = rng(36)
    shapes = ("random", "extreme", "real", "holes")
    for _ in range(400):
        nx, ny = rnd.randint(1, 40), rnd.randint(1, 40)
        sx = rnd.choice(shapes)
        x = _gaussian_row(rnd, nx, rnd.randint(1, 700), sx)
        y = _gaussian_row(rnd, ny, rnd.randint(1, 700), rnd.choice((sx, rnd.choice(shapes))))
        n = rnd.choice((nx + ny - 1, rnd.randint(1, nx + ny - 1)))
        want = _convolution(*x, *y, n)
        assert puiseux_mod._convolve(*x, *y, n) == want
        assert puiseux_mod._convolve(*y, *x, n) == want


def test_convolve_packs_only_when_one_operand_is_narrow(monkeypatch):
    # the narrow operand's largest part has at most half the bits of the
    # wide one's: packed, with the narrow row first, in either order;
    # balanced and equal widths stay on the dot products
    calls = []
    packed = puiseux_mod._packed
    monkeypatch.setattr(puiseux_mod, "_packed",
                        lambda ur, ui, wr, wi, n, width: calls.append(ur) or packed(
                            ur, ui, wr, wi, n, width))
    rnd = rng(37)
    for nx, ny, bx, by, narrow in ((10, 36, 52, 300, True), (10, 18, 52, 104, True),
                                   (7, 7, 60, 600, True), (18, 37, 150, 300, True),
                                   (10, 36, 53, 104, False), (19, 27, 300, 340, False),
                                   (10, 10, 52, 52, False), (36, 36, 300, 300, False)):
        for shape in ("random", "extreme", "holes"):
            x = _gaussian_row(rnd, nx, bx, shape)
            y = _gaussian_row(rnd, ny, by, shape)
            for a, b in ((x, y), (y, x)):
                calls.clear()
                assert puiseux_mod._convolve(*a, *b, nx + ny - 1) == _convolution(
                    *a, *b, nx + ny - 1)
                assert calls == ([x[0]] if narrow else [])


def test_max_abs_of_a_held_series_is_the_plain_max():
    # a kernel-written series reads max_abs off its mantissas: bit for bit
    # the max over its terms, real or complex, read at its own precision or
    # at a lower one
    rnd = rng(41)
    for real in (False, True):
        for _ in range(20):
            with bits(256):
                a, b = (rand_series(rnd, L=2, hi=4, nterms=6) for _ in range(2))
                if real:
                    a, b = (PS(2, {k: mp.re(c) for k, c in s.terms.items()}) for s in (a, b))
                prod = a * b
            assert prod._fx is not None and prod._fx[1] == real
            for prec in (256, 128):
                with bits(prec):
                    assert prod.max_abs()._mpf_ == max_abs(prod.terms.values())._mpf_
    with bits(128):
        held = PS(1, {0: mp.mpc(0, 3), 1: mp.mpc(2, 0)}) * PS(1, {0: mp.mpc(1, 0)})
        assert held._fx is not None and held.max_abs() == 3


# -- the rule of one numeric arithmetic ------------------------------------
#
# The term arithmetic that +, scale and sigma_pow ran before they ran on the
# kernel, kept as the reference: on operands at the working precision that
# are all mpf or all mpc, the kernel must give its values bit for bit.


def _ref_operands(x: dict, y: dict):
    kinds = set(map(type, x.values())).union(map(type, y.values()))
    if (Fraction in kinds or GaussianRational in kinds) and not kinds.issubset(EXACT_TYPES):
        return ({k: mp_operand(c) for k, c in m.items()} for m in (x, y))
    return x, y


def _ref_add(a, b):
    a, b = a.unify(b)
    t = min(INF if a.trunc is None else a.trunc, INF if b.trunc is None else b.trunc)
    x, y = _ref_operands(a.terms, b.terms)
    terms = dict(x)
    for k, c in y.items():
        terms[k] = terms.get(k, 0) + c
    return PS(a.L, terms, None if t == INF else t)


def _ref_scale(f, c):
    if c == 1:
        return PS(f.L, f.terms, f.trunc)
    exact, cn = isinstance(c, EXACT_TYPES), mp_operand(c)
    return PS(f.L, {k: (v * c if exact else mp_operand(v) * c)
                    if isinstance(v, EXACT_TYPES) else v * cn
                    for k, v in f.terms.items()}, f.trunc)


def _ref_sigma_pow(f, q, alpha):
    q = Fraction(q)
    if q == 0 or alpha.is_one:
        return f
    num, den = q.numerator, q.denominator * f.L
    terms = {}
    for k, c in f.terms.items():
        if isinstance(c, EXACT_TYPES):
            p = alpha.pow(Fraction(num * k, den))
            terms[k] = c * p if isinstance(p, EXACT_TYPES) else mp_operand(c) * p
        else:
            terms[k] = c * alpha.numeric_pow(num * k, den)
    return PS(f.L, terms, f.trunc)


def _parts(f):
    """A numeric series' bits, each value compared as mpc parts."""
    return f.L, f.trunc, {k: mp.mpc(c)._mpc_ for k, c in f.terms.items()}


def _typed(f):
    """An exact series' values with their types."""
    return f.L, f.trunc, {k: (type(c), c) for k, c in f.terms.items()}


def _draw(rnd, L, kind):
    """A series at the working precision whose values are all mpf, all mpc
    or all exact (int, Fraction, GaussianRational)."""
    def value():
        if kind == "mpf":
            return mp.mpf(rnd.uniform(-2, 2)) / 3
        if kind == "mpc":
            return mp.mpc(rnd.uniform(-2, 2), rnd.uniform(-2, 2)) / 3
        return rnd.choice([rnd.randint(-9, 9) or 1, Fraction(rnd.randint(1, 9), rnd.randint(2, 9)),
                           GaussianRational(Fraction(rnd.randint(-9, 9), 7), rnd.randint(1, 5))])
    ks = rnd.sample(range(-4, 8), rnd.randint(1, 7))
    return PS(L, {k: value() for k in ks}, rnd.choice([None, 8, 12]))


SCALARS = (1, 3, Fraction(-2, 3), GaussianRational(Fraction(1, 3), -2))
TWISTS = (1, -1, Fraction(5, 3), 7)


def _alphas():
    return (Alpha(2), Alpha(Fraction(3, 2)), Alpha(Fraction(1, 2)),
            Alpha(mp.mpc("1.5", "0.5"), allow_complex=True))


def test_numeric_sums_scalings_and_twists_match_the_term_reference_bit_for_bit():
    rnd = rng(61)
    for prec in (128, 256):
        with bits(prec):
            scalars = SCALARS + (mp.mpf(5) / 7, mp.mpc(-1, 2) / 3)
            for alpha in _alphas():
                for L in (1, 2, 3):
                    for kind in ("mpf", "mpc"):
                        a, b, e = _draw(rnd, L, kind), _draw(rnd, L, kind), _draw(rnd, L, "exact")
                        # as drawn, and as the kernel wrote them
                        for x, y in ((a, b), (a.scale(1), b.scale(1))):
                            assert _parts(x) == _parts(a)
                            for got, ref in ((x + y, _ref_add(x, y)), (x - y, _ref_add(x, -y)),
                                             (x + e, _ref_add(x, e)), (x - e, _ref_add(x, -e)),
                                             (e - x, _ref_add(e, -x))):
                                assert _parts(got) == _parts(ref)
                            for c in scalars:
                                assert _parts(x.scale(c)) == _parts(_ref_scale(x, c))
                            for q in TWISTS:
                                got = x.sigma_pow(q, alpha)
                                assert _parts(got) == _parts(_ref_sigma_pow(x, q, alpha))
                            bar = x.conjugate()
                            assert bar.trunc == x.trunc and set(bar.terms) == set(x.terms)
                            for k, c in x.terms.items():
                                re, im = mp.mpc(c)._mpc_
                                assert type(bar.terms[k]) is type(c)
                                assert mp.mpc(bar.terms[k])._mpc_ == (re, mpf_neg(im))


def test_exact_operands_keep_the_exact_values_of_the_term_reference():
    rnd = rng(62)
    for L in (1, 2, 3):
        for _ in range(8):
            a, b = _draw(rnd, L, "exact"), _draw(rnd, L, "exact")
            assert _typed(a + b) == _typed(_ref_add(a, b))
            assert _typed(a - b) == _typed(_ref_add(a, -b))
            for c in SCALARS:
                assert _typed(a.scale(c)) == _typed(_ref_scale(a, c))
            # every power is exact where q k / L is an integer
            for alpha in (Alpha(2), Alpha(Fraction(3, 2)), Alpha(Fraction(1, 2))):
                for q in (L, -L, 3 * L):
                    assert _typed(a.sigma_pow(q, alpha)) == _typed(_ref_sigma_pow(a, q, alpha))
            want = {}
            for i, u in a.terms.items():
                for j, v in b.terms.items():
                    want[i + j] = want.get(i + j, 0) + u * v
            prod = a * b
            assert _typed(prod)[2] == {k: (type(c), c) for k, c in want.items()
                                       if k < (INF if prod.trunc is None else prod.trunc) and c}
            assert all(isinstance(c, EXACT_TYPES) for c in prod.terms.values())


def _mixed(rnd, L, kinds):
    """A series whose values are drawn from ``kinds``, mpmath and exact,
    with a term below its truncation."""
    def value(kind):
        if kind == "mpc":
            return mp.mpc(rnd.uniform(-2, 2), rnd.uniform(-2, 2)) / 3
        if kind == "mpf":
            return mp.mpf(rnd.uniform(-2, 2)) / 7
        if kind == "fraction":
            return Fraction(rnd.randint(-50, 50) or 1, rnd.randint(2, 30))
        if kind == "gaussian":
            return GaussianRational(Fraction(rnd.randint(-9, 9), 11),
                                    Fraction(1, rnd.randint(2, 9)))
        return rnd.randint(-99, 99) or 1
    ks = rnd.sample(range(-3, 7), rnd.randint(1, 6))
    return PS(L, {k: value(rnd.choice(kinds)) for k in ks}, rnd.choice([None, 7, 12]))


def _read(f):
    """f with each exact value read as the kernel reads it."""
    return PS(f.L, {k: mp_operand(c) for k, c in f.terms.items()}, f.trunc, normalize=False)


def test_a_mixed_product_is_the_exact_sum_of_read_products_rounded_once():
    rnd = rng(63)
    for prec in (128, 256):
        with bits(prec):
            for _ in range(60):
                L = rnd.choice([1, 2, 3])
                a = _mixed(rnd, L, rnd.choice([["mpf", "int"], ["mpc", "mpf", "int"]]))
                a = a + PS(L, {rnd.randint(-3, 6): mp.mpf(2) / 3})  # some value is an mpf
                b = _mixed(rnd, L, rnd.choice([["fraction", "int"], ["fraction", "gaussian"]]))
                # only the terms that meet a partner below the product's
                # truncation are read, and they decide mpf or mpc
                t = min(INF if a.trunc is None else a.trunc + b.ord_k(),
                        INF if b.trunc is None else b.trunc + a.ord_k())
                real = not any(isinstance(c, (mp.mpc, GaussianRational))
                               for s, o in ((a, b), (b, a))
                               for c in s.truncate(t - o.ord_k()).terms.values())
                ref = (PS(L, {k: _exact(mp_operand(c)) for k, c in a.terms.items()}, a.trunc)
                       * PS(L, {k: _exact(mp_operand(c)) for k, c in b.terms.items()}, b.trunc))
                want = {}
                for k, g in ref.terms.items():
                    re, im = to_mpf(g.re), to_mpf(g.im)
                    if not is_negligible(mp.mpc(re, im)):
                        want[k] = (re._mpf_, im._mpf_)
                for prod in (a * b, b * a):
                    assert prod.trunc == ref.trunc and set(prod.terms) == set(want)
                    for k, c in prod.terms.items():
                        assert isinstance(c, mp.mpf if real else mp.mpc)
                        c = mp.mpc(c)
                        assert (c.real._mpf_, c.imag._mpf_) == want[k]


def test_mixed_skew_operations_read_exact_values_as_mp_operand():
    rnd = rng(64)
    kinds = ["mpc", "mpf", "fraction", "gaussian", "int"]
    for alpha in (2, Fraction(3, 2)):
        for L, a in ((1, None), (2, None), (2, PS(2, {1: Fraction(1, 2)}))):
            ring = puiseux_ring(alpha, L, a)
            for _ in range(3):
                cs = [_mixed(rnd, L, kinds) for _ in range(3)]
                cs[0] = cs[0] + PS(L, {0: mp.mpc(1, -1) / 3})  # some value is an mpc
                f = SkewPoly(ring, cs + [1])
                g = SkewPoly(ring, [_mixed(rnd, L, kinds), 1])
                z = _mixed(rnd, L, kinds)
                rf, rg = (SkewPoly(ring, [_read(c) for c in p.coeffs]) for p in (f, g))
                assert _poly_bits(f * g) == _poly_bits(rf * rg)
                assert _poly_bits(g * f) == _poly_bits(rg * rf)
                q, r = f.left_divmod(g)
                rq, rr = rf.left_divmod(rg)
                assert _poly_bits(q) == _poly_bits(rq) and _poly_bits(r) == _poly_bits(rr)
                v, rv = f.evaluate(z), rf.evaluate(_read(z))
                assert (v.trunc, _raw_terms(v)) == (rv.trunc, _raw_terms(rv))


def _poly_bits(p):
    return [(c.trunc, _raw_terms(c)) for c in p.coeffs]


def _gaussian(c):
    """A value, exact or mpmath, as the GaussianRational it equals."""
    if isinstance(c, GaussianRational):
        return c
    return GaussianRational(c) if isinstance(c, Fraction) else _exact(c)


def test_a_conj_series_product_lies_within_its_rounding_bound():
    rnd = rng(65)
    ring = ConjSeriesRing()
    for prec in (128, 256):
        with bits(prec):
            for _ in range(40):
                a, b = (_mixed(rnd, 1, ["mpc", "mpf", "fraction", "int"]) for _ in range(2))
                a, b = (PS(1, {k + 3: c for k, c in s.terms.items()},
                           None if s.trunc is None else s.trunc + 3) for s in (a, b))
                a = a + PS(1, {1: mp.mpc(2, 1) / 3})  # numeric, with an odd term
                p = ring.mul(a, b)
                ta, tb = (INF if s.trunc is None else s.trunc for s in (a, b))
                t = min(ta + b.ord_k(), tb + a.ord_k())
                assert p.trunc == (None if t == INF else t)
                want = {}
                for i, u in a.terms.items():
                    for j, v in b.terms.items():
                        w = _gaussian(v)
                        if i % 2:
                            w = GaussianRational(w.re, -w.im)
                        if i + j < t:
                            want[i + j] = want.get(i + j, 0) + _gaussian(u) * w
                top = max(g.re ** 2 + g.im ** 2 for g in want.values())
                for k in set(want) | set(p.terms):
                    d = _gaussian(p.terms.get(k, 0)) - want.get(k, 0)
                    assert (d.re ** 2 + d.im ** 2) * 4 ** (prec - 4) <= top


def test_kernel_written_series_form_no_values_in_sums_scalings_and_twists(monkeypatch):
    rnd = rng(66)
    alpha = Alpha(Fraction(3, 2))
    for L in (1, 2):
        x = (rand_series(rnd, L, lo=-1, hi=4, nterms=6) * rand_series(rnd, L)).truncate(5 * L)
        y = _draw(rnd, L, "mpf") * _draw(rnd, L, "mpf")
        assert x._fx is not None and y._fx is not None
        calls = []
        fixed_value = scalar_mod.fixed_value
        monkeypatch.setattr(scalar_mod, "fixed_value",
                            lambda *args: calls.append(args) or fixed_value(*args))
        outs = [x + y, x - y, x + 1, 2 - x, x + PS(L, {1: Fraction(1, 3)}), x.conjugate()]
        outs += [x.scale(c) for c in SCALARS + (mp.mpf(3), mp.mpc(1, 2))]
        outs += [x.sigma_pow(q, alpha) for q in TWISTS]
        monkeypatch.undo()
        assert calls == []
        assert all(s._fx is not None for s in outs if not s.is_zero)


@pytest.mark.parametrize("bad", [mp.inf, mp.nan])
def test_arithmetic_refuses_non_finite_coefficients(bad):
    s = PS(1, {0: bad, 1: mp.mpf(1)})
    other = PS(1, {0: mp.mpc(1, 2), 2: Fraction(1, 3)})
    ring = puiseux_ring(2)
    ops = [lambda: s + other, lambda: other - s, lambda: s * other, lambda: other * s,
           lambda: s.scale(3), lambda: s.scale(mp.mpf(2)), lambda: s.sigma_pow(1, Alpha(2)),
           lambda: SkewPoly(ring, [s, 1]) * SkewPoly(ring, [other, 1])]
    for op in ops:
        with pytest.raises(UsageError, match="finite coefficients"):
            op()
