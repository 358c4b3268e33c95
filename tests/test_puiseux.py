from fractions import Fraction

import pytest
from mpmath import mp

from mpmath.libmp import to_rational

from skewpuiseux import Alpha, GaussianRational, PuiseuxSeries, SkewPoly, bits, puiseux_ring
from skewpuiseux.errors import PrecisionExhausted, UsageError, ZeroInversion
from skewpuiseux.puiseux import _Fixed
from skewpuiseux.scalar import INF, is_negligible, max_abs, to_mpf

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
                        for k, c in out.terms.items():
                            w = alpha.pow(Fraction(q) * Fraction(k, L))
                            ref = terms[k] * (to_mpf(w) if isinstance(w, Fraction) else w)
                            assert type(c) is type(ref)
                            assert getattr(c, "_mpc_", None) == getattr(ref, "_mpc_", None)
                            assert getattr(c, "_mpf_", None) == getattr(ref, "_mpf_", None)


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
