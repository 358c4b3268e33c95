from fractions import Fraction

import pytest
from mpmath import mp

from skewpuiseux import (Alpha, ConjSeriesRing, PuiseuxSeries, SkewPoly, bits, parse_poly,
                         puiseux_ring, normalize_scaled, scaling_exponent,
                         shift_iso, trace_solve)
from skewpuiseux import skewpoly
from skewpuiseux.errors import NotMonicError, Obstruction, PrecisionExhausted, UsageError
from skewpuiseux.scalar import to_mpc, to_mpf
from skewpuiseux.structure import scale_back_zeros

from conftest import count_shifts, near_coeffs, rand_poly, rand_series, rng
from props import (check_beta_law, check_dif_identity, check_iso_homomorphisms,
                   check_normalize_post, check_trace_roundtrip, scale_iso,
                   scaled_power_unit, trace_apply)

PS = PuiseuxSeries


def test_shift_square_example():
    R = puiseux_ring(2)
    out = shift_iso(SkewPoly.t_pow(R, 2), PS.one())
    # target ring is delta_(-1); the image is (t-1)^2 = t^2 - 2t + 1 there
    assert (out.coeff(1) + PS.constant(2)).max_abs() == 0
    assert (out.coeff(0) - PS.one()).max_abs() == 0
    assert not out.ring.a.is_zero


def test_shift_by_zero_is_identity():
    R = puiseux_ring(Fraction(3, 2))
    rnd = rng(61)
    f = SkewPoly(R, [rand_series(rnd, 1, 0, 2), rand_series(rnd, 1, 0, 2), PS.one()])
    assert shift_iso(f, PS.zero()).deviation(f) == 0


def test_dif_identity():
    assert check_dif_identity(60) == 60


def test_scale_by_zero_is_identity():
    R = puiseux_ring(2)
    rnd = rng(62)
    f = SkewPoly(R, [rand_series(rnd, 1, 0, 2), PS.one()])
    assert scale_iso(f, 0) is f


def test_scale_square_unit():
    # (x^(-r) t)^2 = alpha^(-r) x^(-2r) t^2 in the underived ring
    R = puiseux_ring(2)
    r = Fraction(1, 2)
    img = scale_iso(SkewPoly.t_pow(R, 2), r)
    lead = img.coeff(2)
    want = PS.x_pow(-1).scale(mp.power(2, mp.mpf("-0.5")))
    assert (lead - want).max_abs() < mp.mpf(2) ** -120
    assert img.coeff(1).is_zero and img.coeff(0).is_zero


def test_scale_ord_bookkeeping():
    rnd = rng(63)
    R = puiseux_ring(Fraction(3, 2))
    for _ in range(40):
        f = SkewPoly(R, [rand_series(rnd, 1, -1, 3) for _ in range(3)] + [PS.one()])
        r = Fraction(rnd.choice([1, -1, 2]), rnd.choice([1, 2, 3]))
        img = scale_iso(f, r)
        for i, c in enumerate(f.coeffs):
            if not c.is_zero:
                assert img.coeff(i).ord() == c.ord() - r * i


def test_beta_law_certified():
    assert check_beta_law() > 0


def test_trace_solve_examples():
    b = trace_solve(PS.x_pow(1), 2, Alpha(4))
    assert (b - PS.from_terms([(1, Fraction(1, 5))])).max_abs() < mp.mpf(2) ** -120
    back = trace_apply(b, 2, Alpha(4))
    assert (back - PS.x_pow(1)).max_abs() < mp.mpf(2) ** -120

    c = trace_solve(PS.constant(6), 2, Alpha(2))
    assert (c - PS.constant(3)).max_abs() < mp.mpf(2) ** -120  # beta_0 = 1

    g = PS.from_terms([(Fraction(1, 2), 2), (1, -3)])
    assert trace_solve(g, 1, Alpha(2)) == g


def test_trace_solve_obstruction_for_complex_alpha():
    # 1 + i^2 = 0 blocks the trace preimage at exponent 2
    a = Alpha(mp.mpc(0, 1), allow_complex=True)
    g = PS.x_pow(2)
    with pytest.raises(Obstruction) as exc:
        trace_solve(g, 2, a)
    assert exc.value.q == 2


def test_trace_roundtrip_random():
    assert check_trace_roundtrip(60) == 60


def test_zero_coefficient_after_shift():
    rnd = rng(64)
    for _ in range(40):
        R = puiseux_ring(rnd.choice([Fraction(2), Fraction(3, 2)]))
        d = rnd.randint(2, 4)
        coeffs = [rand_series(rnd, 1, 0, 3) for _ in range(d)] + [PS.one()]
        coeffs[d - 1] = rand_series(rnd, 1, 0, 3, 3)
        f = SkewPoly(R, coeffs, trim=False)
        b = trace_solve(f.coeffs[d - 1], d, R.alpha)
        out = shift_iso(f, b)
        assert out.coeff(d - 1).max_abs() <= mp.mpf(2) ** -60 * max(1, f.max_abs())


def test_iso_homomorphisms():
    assert check_iso_homomorphisms(60) == 60


def test_scaling_exponent_and_normalize():
    R = puiseux_ring(2)
    f = SkewPoly(R, [PS.x_pow(-2), PS.zero(), PS.one()], trim=False)
    r = scaling_exponent(f)
    assert r == 1
    F1 = normalize_scaled(f, r)
    ords = [F1.ring.ord_k(c) for c in F1.coeffs[:-1]]
    assert ords[0] == 0 and F1.coeffs[1].is_zero
    assert F1.is_monic


def test_normalize_identity_when_integral():
    R = puiseux_ring(2)
    f = parse_poly("t^2 - 2*t + 1", R)
    assert scaling_exponent(f) == 0
    assert normalize_scaled(f, 0) is f


def test_scaling_exponent_hidden_raises():
    R = puiseux_ring(2)
    hidden = PS.zero(1, -4)  # O(x^-4): nothing known yet
    f = SkewPoly(R, [hidden, PS.one()], trim=False)
    with pytest.raises(PrecisionExhausted):
        scaling_exponent(f)


def test_scaling_exponent_hidden_above_a_known_order_raises():
    # t^2 + O(x^-4) t + 1: the known constant gives r = 0, but the unknown
    # t coefficient could give r up to 4
    f = SkewPoly(puiseux_ring(2), [PS.one(), PS.zero(1, -4), PS.one()], trim=False)
    with pytest.raises(PrecisionExhausted, match="hidden below truncation"):
        scaling_exponent(f)


def test_normalize_post_random():
    assert check_normalize_post(60) == 60


def rand_coeff_nonzero(rnd):
    while True:
        v = mp.mpc(rnd.uniform(-2, 2), rnd.uniform(-2, 2))
        if abs(v) > mp.mpf("0.25"):
            return v


def ref_horner(f, target, t_image):
    """sum f_i * t_image^i through a fresh product acc * t_image per step."""
    acc = SkewPoly.constant(target, target.coerce(f.coeffs[-1]))
    for c in reversed(f.coeffs[:-1]):
        acc = acc * t_image + SkewPoly.constant(target, target.coerce(c))
    return acc


@pytest.mark.parametrize("prec", [128, 256])
def test_horner_images_match_reference(prec):
    # the reference runs 64 bits above the image
    rnd = rng(81 + prec)
    with bits(prec):
        for alpha in (Fraction(2), Fraction(3, 2), Fraction(1, 2)):
            for L in (1, 2):
                R = puiseux_ring(alpha, L, rand_series(rnd, L, 0, 2, 3))
                f = rand_poly(R, rnd, 4, nterms=4)
                b = rand_series(rnd, L, 0, 2, 3)
                out = shift_iso(f, b)
                tgt = out.ring
                t_image = SkewPoly(tgt, [tgt.neg(tgt.coerce(b)), tgt.one()], trim=False)
                assert not tgt.a.is_zero
                with bits(prec + 64):
                    assert near_coeffs(out.coeffs, ref_horner(f, tgt, t_image).coeffs, prec)
                for r in (Fraction(1, 2), Fraction(-2, 3), Fraction(1)):
                    out = scale_iso(f, r)
                    tgt = out.ring
                    x_neg_r = PuiseuxSeries.x_pow(-r).at_ram(tgt.L)
                    t_image = SkewPoly(tgt, [tgt.zero(), x_neg_r], trim=False)
                    with bits(prec + 64):
                        assert near_coeffs(out.coeffs, ref_horner(f, tgt, t_image).coeffs, prec)


def test_horner_image_takes_d_minus_one_shifts(monkeypatch):
    # from an empty memo of skew tables; t_image = x^(-1/2) t is the same for
    # every f, so a warm scale_iso reads rows an earlier image built
    rnd = rng(85)
    calls = count_shifts(monkeypatch)
    R = puiseux_ring(Fraction(3, 2), 1, rand_series(rnd, 1, 0, 2, 2))
    for d in range(1, 7):
        f = rand_poly(R, rnd, d)
        skewpoly._tables.cache_clear()
        del calls[:]
        shift_iso(f, rand_series(rnd, 1, 0, 2, 2))
        assert len(calls) == d - 1
        del calls[:]
        scale_iso(f, Fraction(1, 2))
        assert len(calls) == d - 1
        del calls[:]
        scale_iso(f, Fraction(1, 2))
        assert calls == []


def ref_normalize_scaled(f, r):
    """The substitute-and-expand route: scale_iso, then the unit
    x^(rd)/beta_d on the left, the lead pinned to 1."""
    fs = scale_iso(f, r)
    d = f.degree
    unit = PS.x_pow(r * d).at_ram(fs.ring.L).scale(1 / scaled_power_unit(f.ring.alpha, r, d))
    return _pin_lead(fs.lmul_base(unit))


def _pin_lead(p):
    return SkewPoly(p.ring, p.coeffs[:-1] + [p.ring.one()], trim=False)


def _close_same_support(got, want, tol):
    """Same ring, L, truncations and supports; every term within tol relative."""
    assert got.ring == want.ring and got.is_monic
    for a, b in zip(got.coeffs, want.coeffs, strict=True):
        assert (a.L, a.trunc, set(a.terms)) == (b.L, b.trunc, set(b.terms))
        for k, c in b.terms.items():
            assert abs(a.terms[k] - c) <= tol * abs(c), (k, a.terms[k], c)


@pytest.mark.parametrize("prec", [128, 256])
def test_closed_form_scalings_match_the_horner_route(prec):
    rnd = rng(91 + prec)
    with bits(prec):
        tol = mp.mpf(2) ** -(prec - 8)
        for alpha in (Fraction(2), Fraction(3, 2), Fraction(1, 2)):
            for L in (1, 2):
                R = puiseux_ring(alpha, L)
                for r in (Fraction(-1), Fraction(-1, 2), Fraction(1, 3), Fraction(1), Fraction(2)):
                    f = rand_poly(R, rnd, rnd.randint(2, 4), lo=-2, hi=3, nterms=4)
                    coeffs = list(f.coeffs)
                    coeffs[0] = coeffs[0].truncate(5 * L)  # a truncated coefficient
                    f = SkewPoly(R, coeffs)
                    _close_same_support(normalize_scaled(f, r), ref_normalize_scaled(f, r), tol)


def test_closed_form_scalings_need_the_underived_ring():
    R = puiseux_ring(2, 1, PS.one())
    f = parse_poly("t^2 + x*t + 1", R)
    with pytest.raises(UsageError):
        normalize_scaled(f, 1)


def test_structure_maps_reject_what_they_cannot_map():
    with pytest.raises(UsageError, match="Puiseux coefficients"):
        shift_iso(parse_poly("t^2 + 1", ConjSeriesRing()), PS.one())
    with pytest.raises(NotMonicError, match="monic"):
        normalize_scaled(parse_poly("2*t^2 + x", puiseux_ring(2)), 1)


def _term_dev(a, b, below=None):
    """max |a_k - b_k| over the terms of two series (below ``below``), read
    without the zero test that a series difference would apply."""
    ks = [k for k in set(a.terms) | set(b.terms) if below is None or k < below]
    return max([abs(to_mpc(a.terms.get(k, 0)) - to_mpc(b.terms.get(k, 0))) for k in ks] + [0])


@pytest.mark.parametrize("prec", [128, 256])
def test_zeros_scale_back_through_the_normalization(prec):
    # psi: t -> x^(-r) t is a ring automorphism of F[t, sigma], so
    # normalize_scaled(prod (t - z_i), r) = prod (t - w_i) with
    # w_i = alpha^(r(d-i)) x^r z_i, and scale_back_zeros maps the w_i back
    rnd = rng(97 + prec)
    with bits(prec):
        tol = mp.mpf(2) ** -(prec - 8)
        for alpha in (Fraction(2), Fraction(3, 2), Fraction(1, 2)):
            for L in (1, 2):
                R = puiseux_ring(alpha, L)
                for r in (Fraction(-1), Fraction(-1, 2), Fraction(1, 3), Fraction(1), Fraction(2)):
                    d = rnd.randint(2, 4)
                    zs = [PS(L, {k: rand_coeff_nonzero(rnd) for k in rnd.sample(range(-2, 3), 3)})
                          for _ in range(d)]
                    j = rnd.randrange(d)
                    zs[j] = zs[j].truncate(3 * L)  # a truncated zero
                    F1 = normalize_scaled(_product(R, zs), r)
                    ws = [PS.x_pow(r, _alpha_pow(R.alpha, r * (d - i))) * z
                          for i, z in enumerate(zs, 1)]
                    _close_same_support(F1, _pin_lead(_product(F1.ring, ws)), tol)
                    for got, z in zip(scale_back_zeros(ws, r, R.alpha), zs, strict=True):
                        z = z.at_ram(got.L)
                        assert (got.trunc, set(got.terms)) == (z.trunc, set(z.terms))
                        assert _term_dev(got, z) <= tol * z.max_abs()


def _alpha_pow(alpha, e):
    """alpha^e as an mpf, by mpmath's power."""
    return alpha.real_value() ** (mp.mpf(e.numerator) / e.denominator)


def _product(R, zs):
    """(t - zs[0]) ... (t - zs[-1]) in R."""
    f = SkewPoly.one(R)
    for z in zs:
        f = f * SkewPoly.t_minus(R, z)
    return f


def test_trace_solve_rounds_an_exact_coefficient_to_nearest():
    # an exact term over a numeric denominator: the Fraction is rounded to
    # nearest before mpmath divides by it
    alpha = Alpha(2)
    with bits(128):
        b = trace_solve(PS(2, {1: Fraction(1, 3)}), 2, alpha)
        assert b.terms[1] == to_mpf(Fraction(1, 3)) / (1 + alpha.pow(Fraction(1, 2)))


def test_trace_solve_needs_a_positive_degree():
    with pytest.raises(UsageError, match="d >= 1"):
        trace_solve(PS.x_pow(1), 0, 2)
