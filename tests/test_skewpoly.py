from fractions import Fraction

import pytest
from mpmath import mp

from skewpuiseux import (Alpha, ComplexConjRing, ConjSeriesRing,
                         GaussianRational, PuiseuxSeries, SkewPoly, bits,
                         parse_poly, puiseux_ring)
from skewpuiseux.errors import ContextMismatch, NotMonicError, UsageError
from skewpuiseux.scalar import INF

from conftest import count_shifts, rand_coeff, rand_poly, rand_series, rng, same_coeffs
from props import (check_division_identity, check_evaluate_paths,
                   check_phi_identities, check_ring_laws, conj_by_x, rand_conj_poly,
                   uniformizer_pow, x_shift)

PS = PuiseuxSeries


def test_twist_rule_delta_zero():
    R = puiseux_ring(2)
    t = SkewPoly.t_pow(R, 1)
    x = SkewPoly.constant(R, PS.x_pow(1))
    out = t * x
    assert out.coeffs[1] == PS.from_terms([(1, 2)])  # 2x * t
    assert out.coeffs[0].is_zero


def test_twist_rule_with_derivation():
    # t x = alpha x t + a (alpha - 1) x
    R = puiseux_ring(2, 1, PS.one())
    t = SkewPoly.t_pow(R, 1)
    x = SkewPoly.constant(R, PS.x_pow(1))
    out = t * x
    assert (out.coeffs[1] - PS.from_terms([(1, 2)])).max_abs() == 0
    assert (out.coeffs[0] - PS.x_pow(1)).max_abs() == 0


def test_central_constants():
    R = puiseux_ring(Fraction(3, 2))
    p = parse_poly("t + 1", R) * parse_poly("t - 1", R)
    assert (p - parse_poly("t^2 - 1", R)).max_abs() == 0


def test_ring_laws_random():
    assert check_ring_laws(60) == 60


def test_exact_mode_ring_laws_bit_exact():
    rnd = rng(77)
    R = puiseux_ring(2)

    def exact_series():
        return PS(1, {k: GaussianRational(Fraction(rnd.randint(-5, 5)),
                                          Fraction(rnd.randint(-5, 5)))
                      for k in rnd.sample(range(4), 2)})

    for _ in range(40):
        polys = [SkewPoly(R, [exact_series() for _ in range(rnd.randint(1, 3))] + [PS.one()])
                 for _ in range(3)]
        f, g, h = polys
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_left_divmod_examples():
    R = puiseux_ring(2)
    t2 = SkewPoly.t_pow(R, 2)
    p = parse_poly("t - 1", R)
    q, r = t2.left_divmod(p)
    assert (q - parse_poly("t + 1", R)).max_abs() == 0
    assert (r - SkewPoly.one(R)).max_abs() == 0
    q2, r2 = p.left_divmod(p)
    assert (q2 - SkewPoly.one(R)).max_abs() == 0 and r2.is_zero
    q3, r3 = SkewPoly.one(R).left_divmod(p)
    assert q3.is_zero and (r3 - SkewPoly.one(R)).max_abs() == 0


def test_divmod_requires_monic():
    R = puiseux_ring(2)
    with pytest.raises(NotMonicError):
        SkewPoly.t_pow(R, 2).left_divmod(parse_poly("2*t - 1", R))


def test_division_identity_random():
    assert check_division_identity(60) == 60


def test_evaluate_examples():
    R = puiseux_ring(2)
    t2 = SkewPoly.t_pow(R, 2)
    x = PS.x_pow(1)
    assert (t2.evaluate(x) - PS.from_terms([(2, 2)])).max_abs() == 0  # sigma(x) x = 2x^2
    for alpha in (Fraction(2), Fraction(1), Fraction(3, 2)):
        f = parse_poly("t^2 - 2*t + 1", puiseux_ring(alpha))
        assert f.evaluate(PS.one()).max_abs() == 0


def test_truncated_zero_difference_keeps_its_order():
    R = puiseux_ring(2)
    f = parse_poly("t^2 - (4+O(x^10))*t + (3+O(x^10))", R)
    g = parse_poly("t^2 - 4*t + 3", R)
    d = f - g
    assert not d.is_zero
    assert d.ord_k() == 10 and d.ord() == 10
    rem = f.evaluate(PS.one())  # 1 - 4 + 3 = 0, known to O(x^10)
    assert rem.is_zero and rem.trunc == 10
    assert (g - g).is_zero and (g - g).ord() == INF


def test_rho_zero_on_unit_circle():
    K = ComplexConjRing()
    f = SkewPoly(K, [mp.mpc(-1), mp.mpc(0), mp.mpc(1)])  # t^2 - 1 in C[t, rho]
    for theta in ("0.3", "0.71", "1.9"):
        a = mp.expjpi(mp.mpf(theta))
        assert abs(f.evaluate(a)) < mp.mpf(2) ** -120
    # and t^2 + i has no rho-zero: a^rho a is real, so f(a) != 0
    g = SkewPoly(K, [mp.mpc(0, 1), mp.mpc(0), mp.mpc(1)])
    for theta in ("0.1", "0.5"):
        assert abs(g.evaluate(2 * mp.expjpi(mp.mpf(theta)))) > mp.mpf("0.5")


def test_evaluate_paths_random():
    assert check_evaluate_paths(60) == 60


def test_reduce_residue_examples():
    R = puiseux_ring(2)
    f = parse_poly("t^2 - (2+x)*t + (1+2*x)", R)
    res = f.reduce_residue()
    assert [mp.mpc(c) for c in res.coeffs] == [mp.mpc(1), mp.mpc(-2), mp.mpc(1)]
    CR = ConjSeriesRing()
    f2 = parse_poly("t^2 + (1+x)", CR)
    res2 = f2.reduce_residue()
    assert res2.coeffs[0] == mp.mpc(1) and res2.coeffs[2] == mp.mpc(1)


def test_reduce_residue_is_homomorphism():
    rnd = rng(31)
    tol = mp.mpf(2) ** -(mp.prec - 16)
    for _ in range(60):
        R = puiseux_ring(Fraction(3, 2), 1, rand_series(rnd, 1, 0, 2, 2))
        f = rand_poly(R, rnd, 2)
        g = rand_poly(R, rnd, 2)
        lhs = (f * g).reduce_residue()
        rhs = f.reduce_residue() * g.reduce_residue()
        assert (lhs - rhs).max_abs() <= tol * max(1, f.max_abs() * g.max_abs())


def test_reduce_residue_rejects_negative_ord():
    R = puiseux_ring(2)
    f = SkewPoly(R, [PS.x_pow(-1), PS.one()])
    with pytest.raises(UsageError):
        f.reduce_residue()


def test_residue_commutes_with_t():
    # reduction sends t*c to res(c)*t: sigma-bar = id and delta-bar = 0
    rnd = rng(32)
    for _ in range(40):
        R = puiseux_ring(2, 1, rand_series(rnd, 1, 0, 2, 2))
        c = rand_series(rnd, 1, 0, 3, 3)
        lhs = (SkewPoly.t_pow(R, 1) * SkewPoly.constant(R, c)).reduce_residue()
        rhs = (SkewPoly.constant(R, c) * SkewPoly.t_pow(R, 1)).reduce_residue()
        assert (lhs - rhs).max_abs() <= mp.mpf(2) ** -100


def test_conj_by_x_examples():
    R = puiseux_ring(2)
    t = SkewPoly.t_pow(R, 1)
    assert (conj_by_x(t).coeffs[1] - PS.constant(Fraction(1, 2))).max_abs() == 0
    CR = ConjSeriesRing()
    h = parse_poly("t - i", CR)
    hphi = conj_by_x(h)
    assert abs(mp.mpc(hphi.coeffs[0].terms[0]) - mp.mpc(0, 1)) == 0  # t + i
    xpoly = SkewPoly.constant(CR, uniformizer_pow(CR, 1))
    assert conj_by_x(xpoly) == xpoly  # x^phi = x


def test_phi_identities_random():
    assert check_phi_identities(60) == 60


def test_ord_poly():
    R = puiseux_ring(2)
    f = SkewPoly(R, [PS.x_pow(2), PS.x_pow(1)])
    assert f.ord_k() == 1
    assert SkewPoly.zero(R).ord_k() == INF
    rnd = rng(33)
    for _ in range(40):
        g = rand_poly(R, rnd, 2, lo=-1, hi=3)
        assert x_shift(g, 1).ord_k() == g.ord_k() + 1


def test_context_mismatch():
    f = SkewPoly.t_pow(puiseux_ring(2), 1)
    g = SkewPoly.t_pow(puiseux_ring(3), 1)
    with pytest.raises(ContextMismatch):
        f * g


def test_conj_series_product_rule():
    # x a = rho(a) x inside C[[x, rho]]
    u = PuiseuxSeries(1, {1: 1})
    a = PuiseuxSeries(1, {0: mp.mpc(0, 1)})
    prod = ConjSeriesRing().mul(u, a)
    assert prod.terms[1] == mp.mpc(0, -1)


# -- the row table: references and shift counts -----------------------------------

DERIVED_RINGS = [(alpha, L) for alpha in (Fraction(2), Fraction(3, 2), Fraction(1, 2))
                 for L in (1, 2)]


def ref_t_mul(ring, coeffs):
    """t * sum c_i t^i by its definition sum sigma(c_i) t^(i+1) + delta(c_i) t^i."""
    out = [ring.delta(coeffs[0])]
    for i in range(1, len(coeffs)):
        out.append(ring.add(ring.sigma(coeffs[i - 1]), ring.delta(coeffs[i])))
    out.append(ring.sigma(coeffs[-1]))
    return out


def ref_mul(a, b):
    """a * b with every output coefficient started from ring.zero(); only
    an exact zero coefficient (order INF) is skipped."""
    ring = a.ring
    acc = [ring.zero()] * (a.degree + b.degree + 1)
    tb = list(b.coeffs)
    for i, ci in enumerate(a.coeffs):
        if ring.ord_k(ci) != INF:
            for j, gj in enumerate(tb):
                acc[j] = ring.add(acc[j], ring.mul(ci, gj))
        if i < a.degree:
            tb = ref_t_mul(ring, tb)
    return SkewPoly(ring, acc)


def ref_left_divmod(f, p):
    """Left division through a fresh product (c t^k) * p at every step."""
    ring = f.ring
    dp = p.degree
    r = list(f.coeffs)
    q = [ring.zero()] * max(0, len(r) - dp)
    while len(r) - 1 >= dp and r:
        k = len(r) - 1 - dp
        c = r[-1]
        q[k] = ring.add(q[k], c)
        sub = SkewPoly(ring, [ring.zero()] * k + [c], trim=False) * p
        for j, s in enumerate(sub.coeffs):
            r[j] = ring.sub(r[j], s)
        r.pop()
        while r and ring.ord_k(r[-1]) == INF:
            r.pop()
    return SkewPoly(ring, q), SkewPoly(ring, r)


def rand_derived_case(rnd, alpha, L):
    """A derived ring (a != 0) and dense mpc operands, one coefficient of f
    truncated and one a zero known only to O(x^3)."""
    R = puiseux_ring(alpha, L, rand_series(rnd, L, 0, 2, 4))
    f = [rand_series(rnd, L, 0, 3, 5) for _ in range(5)]
    f[1] = f[1].truncate(2 * L + 1)
    f[2] = PS.zero(L, 3 * L)
    f = SkewPoly(R, f)
    g = SkewPoly(R, [rand_series(rnd, L, 0, 3, 5) for _ in range(2)] + [R.one()])
    return R, f, g, rand_series(rnd, L, 0, 3, 4)


@pytest.mark.parametrize("prec", [128, 256])
def test_table_arithmetic_matches_references_bit_for_bit(prec):
    rnd = rng(91 + prec)
    with bits(prec):
        for alpha, L in DERIVED_RINGS:
            R, f, g, v = rand_derived_case(rnd, alpha, L)
            assert not R.a.is_zero
            fg = f * g
            assert same_coeffs(fg.coeffs, ref_mul(f, g).coeffs)
            assert same_coeffs((g * f).coeffs, ref_mul(g, f).coeffs)
            top_unknown = SkewPoly(R, list(f.coeffs) + [PS.zero(L, 4 * L)])
            for num in (fg, f, top_unknown):
                q, r = num.left_divmod(g)
                q_ref, r_ref = ref_left_divmod(num, g)
                assert same_coeffs(q.coeffs, q_ref.coeffs)
                assert same_coeffs(r.coeffs, r_ref.coeffs)
            _, rem = ref_left_divmod(f, SkewPoly.t_minus(R, v))
            assert same_coeffs([f.evaluate(v)], [rem.coeff(0)])


def test_division_takes_one_shift_per_quotient_degree(monkeypatch):
    rnd = rng(95)
    R = puiseux_ring(Fraction(3, 2), 1, rand_series(rnd, 1, 0, 2, 2))
    calls = count_shifts(monkeypatch)
    for n in range(1, 7):
        f = rand_poly(R, rnd, n)
        for m in range(1, n + 1):
            del calls[:]
            f.left_divmod(rand_poly(R, rnd, m))
            assert len(calls) == n - m
        del calls[:]
        f.evaluate(rand_series(rnd, 1, 0, 2, 2))
        assert len(calls) == n - 1
        del calls[:]
        f * rand_poly(R, rnd, 2)
        assert len(calls) == n


def test_t_shift_matches_its_definition():
    rnd = rng(97)
    x1 = PS.x_pow(1)
    rings = [puiseux_ring(Fraction(3, 2), 2), puiseux_ring(2, 2, rand_series(rnd, 2, 0, 1, 2)),
             puiseux_ring(Fraction(1, 2), 1, x1)]
    for R in rings:
        for n in (1, 2, 4):
            coeffs = [rand_series(rnd, R.L, 0, 3, 4) for _ in range(n)]
            coeffs[0] = coeffs[0].truncate(3 * R.L)
            assert same_coeffs(SkewPoly._t_mul_in(R, coeffs), ref_t_mul(R, coeffs))
    CR = ConjSeriesRing()
    for n in (1, 3):
        coeffs = [PuiseuxSeries(1, {k: rand_coeff(rnd) for k in range(3)}, 5) for _ in range(n)]
        assert SkewPoly._t_mul_in(CR, coeffs) == ref_t_mul(CR, coeffs)
    K = ComplexConjRing()
    for n in (1, 3):
        coeffs = [rand_coeff(rnd) for _ in range(n)]
        assert SkewPoly._t_mul_in(K, coeffs) == ref_t_mul(K, coeffs)
