import random
from fractions import Fraction

import pytest
from mpmath import mp

from skewpuiseux import (Alpha, ConjSeriesRing, PuiseuxSeries, ResiduePoly, TMap, bits,
                         delta_set_member, ext_gcd, puiseux_ring, roots,
                         twist_coprime_affine, twist_coprime_periodic,
                         twist_residue)
from skewpuiseux import residue as residue_mod
from skewpuiseux import scalar as scalar_mod
from skewpuiseux.errors import RootFindingError, UsageError
from skewpuiseux.residue import delta_pretest, gamma_elements, orbit_exponent
from skewpuiseux.scalar import GaussianRational, to_mpc, zero_eps

from conftest import exact_below, exact_sq, rand_coeff, rng


def test_roots_double():
    p = ResiduePoly([1, -2, 1])  # (t-1)^2
    rr = roots(p)
    assert len(rr.pairs) == 1
    root, mult = rr.pairs[0]
    assert mult == 2
    assert abs(root - 1) < mp.mpf(2) ** -40


def test_roots_conjugate_pair():
    p = ResiduePoly([1, 0, 1])  # t^2 + 1
    rr = roots(p)
    vals = sorted([r for r, m in rr.pairs], key=lambda w: mp.im(w))
    assert len(vals) == 2
    assert abs(vals[0] + mp.mpc(0, 1)) < mp.mpf(2) ** -100
    assert abs(vals[1] - mp.mpc(0, 1)) < mp.mpf(2) ** -100


def test_roots_t_power():
    p = ResiduePoly([0, 0, 0, 1])  # t^3
    rr = roots(p)
    assert len(rr.pairs) == 1
    assert rr.pairs[0][1] == 3
    assert abs(rr.pairs[0][0]) < mp.mpf(2) ** -40


def test_roots_reexpansion():
    rnd = rng(51)
    for _ in range(40):
        vals = [rand_coeff(rnd) for _ in range(rnd.randint(1, 4))]
        p = ResiduePoly.from_roots([(v, 1) for v in vals])
        rr = roots(p)
        rec = ResiduePoly.from_roots(rr.pairs)
        tol = mp.mpf(2) ** -(mp.prec // 3)
        assert (rec - p).max_abs() <= tol * max(1, p.max_abs())
        assert sum(m for _, m in rr.pairs) == p.degree


def test_roots_rejects_constants():
    with pytest.raises(UsageError):
        roots(ResiduePoly([3]))


def test_ext_gcd_coprime_linear():
    p = ResiduePoly([-1, 1])  # t - 1
    q = ResiduePoly([-2, 1])  # t - 2
    g, a, b = ext_gcd(p, q)
    assert g.degree == 0 and abs(g.coeff(0) - 1) < mp.mpf(2) ** -100
    # (-1)(t-1) + (1)(t-2) = -1; normalizing the gcd to 1 flips the signs
    assert a.degree == 0 and abs(a.coeff(0) - 1) < mp.mpf(2) ** -100
    assert b.degree == 0 and abs(b.coeff(0) + 1) < mp.mpf(2) ** -100
    ident = a * p + b * q
    assert (ident - ResiduePoly([1])).max_abs() < mp.mpf(2) ** -100


def test_ext_gcd_equal_inputs():
    p = ResiduePoly([mp.mpc(0, 1), 1])  # t + i
    g, _, _ = ext_gcd(p, p)
    assert g.degree == 1  # not coprime; gcd is p itself (monic)
    assert abs(g.coeff(0) - mp.mpc(0, 1)) < mp.mpf(2) ** -100


def test_twist_residue_examples():
    tm = TMap(Alpha(2))
    p = ResiduePoly([-1, 1])  # t - 1
    assert twist_residue(p, 0, tm) is p
    q = twist_residue(p, 1, tm)  # (1/2) t - 1, root 2
    assert abs(q.eval(mp.mpf(2))) < mp.mpf(2) ** -100
    CR = ConjSeriesRing()
    h = ResiduePoly([mp.mpc(0, -1), 1])  # t - i
    tw = CR.residue_twist(h, 1)
    assert abs(tw.coeff(0) - mp.mpc(0, 1)) < mp.mpf(2) ** -120  # t + i


def test_twist_residue_composition():
    rnd = rng(52)
    tm = TMap(Alpha(Fraction(3, 2)), 2)
    p = ResiduePoly([rand_coeff(rnd), rand_coeff(rnd), 1])
    lhs = twist_residue(twist_residue(p, 2, tm), 3, tm)
    rhs = twist_residue(p, 5, tm)
    assert (lhs - rhs).max_abs() < mp.mpf(2) ** -100


def test_orbit_exponent_examples():
    tm = TMap(Alpha(2))
    assert orbit_exponent(tm, 1, mp.mpf(0.5)) == 1
    assert orbit_exponent(tm, 1, mp.mpf(0.125)) == 3
    assert orbit_exponent(tm, 1, 1) is None  # n >= 1, and T moves 1
    assert orbit_exponent(tm, 1, 2) is None  # T^(-1)(1)
    assert orbit_exponent(tm, 1, 3) is None
    assert orbit_exponent(tm, 0, 0) == 1  # T fixes 0


def test_orbit_identity_map():
    tm = TMap(Alpha(1))
    assert orbit_exponent(tm, 1, 1) == 1
    assert orbit_exponent(tm, 1, mp.mpf(0.5)) is None


def _affine_apply(tmap: TMap, a0, w, n):
    """T^n(w) in t for a ring with res a = a0, the affine map
    s w + a0 (s - 1), s = alpha_eff^(-n): the scaling T of s = t + a."""
    if tmap.is_identity:
        return to_mpc(w)
    s = tmap.mult(n)
    return scalar_mod.mp_operand(s) * w + a0 * scalar_mod.mp_operand(s - 1)


def _ring_twist(R, c, cp, mult=1):
    """R's twist check of res g = t - c against res h = (t - cp)^mult."""
    groots, hroots = [(c, 1)], [(cp, mult)]
    return R.twist_coprime(ResiduePoly.from_roots(groots), ResiduePoly.from_roots(hroots),
                           roots=(groots, hroots))


def _derived(alpha, a0):
    """puiseux_ring(alpha) with a = a0, a constant (a0 = 0: the plain ring)."""
    return puiseux_ring(alpha).with_a(PuiseuxSeries.constant(a0))


def test_orbit_closed_form_vs_bruteforce():
    # in a ring with res a = a0 the twist check matches roots under the
    # affine T of t; with a0 = 0 it is the scaling itself
    rnd = rng(53)
    for a0 in (0, 1):
        R = _derived(2, a0)
        tm = R.tmap()
        for _ in range(100):
            c1 = rand_coeff(rnd)
            if rnd.random() < 0.5:
                c = _affine_apply(tm, a0, c1, rnd.randint(1, 64))
            else:
                c = rand_coeff(rnd)
            member_closed = _ring_twist(R, c1, c) is not None
            member_brute = any(abs(_affine_apply(tm, a0, c1, n) - c) < mp.mpf(2) ** -40
                               for n in range(1, 65))
            assert member_closed == member_brute


def test_twist_coprime_affine_examples():
    p = ResiduePoly([-1, 1])
    assert twist_coprime_affine(roots(p), roots(p), TMap(Alpha(2))) is None
    fail = twist_coprime_affine(roots(p), roots(p), TMap(Alpha(1)))
    assert fail is not None and fail[0] == 1


def _twist_hit(tmap: TMap, a0, c, cprime, tol):
    """Smallest n >= 1 with T^n(c) = cprime in a ring with res a = a0, or
    None."""
    c = to_mpc(c)
    cprime = to_mpc(cprime)
    scale_bound = 1 + abs(c) + abs(cprime)
    if tmap.is_identity:
        return 1 if abs(c - cprime) <= tol * scale_bound else None
    z = c + a0
    zp = cprime + a0
    if abs(z) <= tol:
        return 1 if abs(zp) <= tol else None
    ratio = zp / z
    if abs(ratio) == 0 or mp.re(ratio) <= 0 or abs(mp.im(ratio)) > 16 * tol * abs(ratio):
        return None
    nf = -mp.log(mp.re(ratio)) / mp.log(to_mpc(tmap.alpha_eff()).real)
    n = int(mp.nint(nf))
    if n < 1 or abs(nf - n) > mp.mpf("0.25") or n > 10 ** 6:
        return None
    if abs(_affine_apply(tmap, a0, c, n) - cprime) <= 16 * tol * scale_bound:
        return n
    return None


def test_twist_coprime_affine_matches_reference():
    # _twist_hit above is the twist check's former closed form, affine in
    # t, kept as a reference for the ring's check, which scales the roots
    # shifted to s = t + a; the pairs stay well away from the tolerance
    # boundary, and a witness is t - c in t
    rnd = rng(2311)
    tol = mp.mpf(2) ** -(mp.prec // 3)
    for alpha in (1, 2, Fraction(3, 2), Fraction(1, 2)):
        for a0 in (0, 1, mp.mpc(1, 1)):
            R = _derived(alpha, a0)
            tm, a0 = R.tmap(), to_mpc(a0)
            pairs = [(-a0, -a0), (-a0, rand_coeff(rnd))]
            for n in range(1, 41):
                c = rand_coeff(rnd)
                pairs += [(c, _affine_apply(tm, a0, c, n)), (c, c), (c, rand_coeff(rnd))]
            for c, cp in pairs:
                got = _ring_twist(R, c, cp, 2)
                want = _twist_hit(tm, a0, c, cp, tol)
                assert (got and got[0]) == want, (alpha, a0, c, cp)
                if want is not None:
                    assert got[1] == ResiduePoly([-c, 1])


def test_twist_coprime_periodic_example():
    CR = ConjSeriesRing()
    g = ResiduePoly([mp.mpc(0, 1), 1])   # t + i
    h = ResiduePoly([mp.mpc(0, -1), 1])  # t - i
    fail = twist_coprime_periodic(g, h, CR.residue_twist, 2)
    assert fail is not None
    n, witness = fail
    assert n == 1
    assert abs(witness.coeff(0) - mp.mpc(0, 1)) < mp.mpf(2) ** -40  # t + i


def test_roots_of_a_double_root_reexpand_past_the_root_floor():
    # Newton on q' refines the double root to full precision, so the
    # product of the roots is the factor pair: multiplicity-weighted Newton
    # on q stopped at sqrt(eps), 2^-61.7 at 128 bits
    c = mp.mpc("1.25", "-0.5")
    p = ResiduePoly.from_roots([(c, 2), (-2 * c, 1)])
    pairs = roots(p).pairs
    assert sorted(m for _, m in pairs) == [1, 2]
    assert (p - ResiduePoly.from_roots(pairs)).max_abs() < mp.mpf(2) ** -110


def test_delta_set_examples():
    member, ns = delta_set_member(0, 2, mp.mpf(2), 3, depth=8)
    assert member == "member" and ns == (0, 0, 0)
    verdict, _ = delta_set_member(1, 0, mp.mpf(2), 3, depth=8)
    assert verdict == "nonmember"
    # wrong sign: alpha > 1 forces c/a0 >= 0
    verdict, _ = delta_set_member(-1, 1, mp.mpf(2), 3, depth=8)
    assert verdict == "nonmember"
    # a genuine member: d=2, n = (0, 1): a0 (2/(1 + 1/2) - 1) = a0/3
    verdict, ns = delta_set_member(mp.mpf(1) / 3, 1, mp.mpf(2), 2, depth=8)
    assert verdict == "member" and tuple(sorted(ns)) == (0, 1)


def test_delta_pretest_decides_the_quick_cases():
    tol = mp.mpf(2) ** -40
    one, i = mp.mpc(1), mp.mpc(0, 1)
    # a0 = 0 or alpha_eff = 1: the set is {0}
    assert delta_pretest(mp.mpc(0), mp.mpc(0), mp.mpf(2), tol) is True
    assert delta_pretest(one, mp.mpc(0), mp.mpf(2), tol) is False
    assert delta_pretest(mp.mpc(0), one, mp.mpf(1), tol) is True
    assert delta_pretest(one, one, mp.mpf(1), tol) is False
    # c/a0 nonreal, or of the sign no alpha_eff^(-n) sum reaches
    assert delta_pretest(i, one, mp.mpf(2), tol) is False
    assert delta_pretest(-one / 2, one, mp.mpf(2), tol) is False
    assert delta_pretest(one / 2, one, mp.mpf(1) / 2, tol) is False
    # otherwise only the search can tell
    assert delta_pretest(one / 2, one, mp.mpf(2), tol) is None
    assert delta_pretest(-one / 2, one, mp.mpf(1) / 2, tol) is None


def test_gamma_sign_structure():
    for a, sign in ((mp.mpf(2), 1), (mp.mpf("0.5"), -1)):
        for d in (2, 3):
            for g in gamma_elements(a, d, 6):
                assert sign * g >= -mp.mpf(2) ** -100
    assert all(abs(g) < mp.mpf(2) ** -100 for g in gamma_elements(mp.mpf(1), 3, 3))


def test_zero_sum_on_balanced_roots():
    # roots summing to zero cannot all be nonzero Delta members
    for c in (mp.mpc("0.7"), mp.mpc("1.3")):
        up, _ = delta_set_member(c, 1, mp.mpf(2), 2, depth=10)
        down, _ = delta_set_member(-c, 1, mp.mpf(2), 2, depth=10)
        assert not (up == "member" and down == "member")


def _dust_degree(coeffs):
    """Degree after the leading-dust trim, computed from the exact moduli
    (exact_below); a list with inf or nan keeps its top."""
    coeffs = [mp.mpc(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    sqs = [exact_sq(c) for c in coeffs]
    if coeffs and None not in sqs:
        while coeffs and exact_below(coeffs[-1], zero_eps(), max(sqs)):
            coeffs.pop()
    return len(coeffs) - 1


def test_leading_dust_trim_matches_moduli():
    rnd = rng(46)
    ulp = mp.ldexp(1, -mp.prec)
    for _ in range(400):
        body = [rand_coeff(rnd, rnd.choice([1e-3, 1, 1e5])) for _ in range(rnd.randint(1, 3))]
        M = max(abs(c) for c in body)
        eps = zero_eps() * M
        phase = mp.expjpi(mp.mpf(rnd.uniform(-1, 1)))
        lead = [eps * phase * (1 + k * ulp) for k in (-2, -1, 0, 1, 2)]
        lead += [eps * phase * rnd.uniform(0.25, 4), eps, -eps, mp.mpc(0, eps),
                 mp.mpc(eps * (1 - ulp), 0)]
        for c in lead:
            coeffs = body + [c]
            assert ResiduePoly(coeffs).degree == _dust_degree(coeffs)
            coeffs = body + [c, c * rnd.uniform(0.5, 2)]
            assert ResiduePoly(coeffs).degree == _dust_degree(coeffs)
    assert ResiduePoly([1, 0, mp.inf]).degree == _dust_degree([1, 0, mp.inf])


# -- divmod and ext_gcd against the code they replaced ----------------------------


def ref_divmod(a, b, tol):
    """ResiduePoly.divmod as it was, its collapse decided on the exact
    moduli (exact_below), S^2 = max(1, |a_i|^2, |b_j|^2)."""
    size = max(exact_sq(c) for c in a.coeffs + b.coeffs + [mp.mpf(1)])
    r = list(a.coeffs)
    q = [mp.mpc(0)] * max(0, len(r) - b.degree)
    inv = 1 / b.lc
    while len(r) - 1 >= b.degree and r:
        k = len(r) - 1 - b.degree
        c = r[-1] * inv
        q[k] += c
        for j, y in enumerate(b.coeffs):
            r[k + j] -= c * y
        r.pop()
        while r and exact_below(r[-1], tol, size):
            r.pop()
    return ResiduePoly(q, trim=False), ResiduePoly(r, trim=False)


def ref_mul(a, b):
    """ResiduePoly.__mul__ as it was."""
    if a.is_zero or b.is_zero:
        return ResiduePoly([])
    out = [mp.mpc(0)] * (a.degree + b.degree + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return ResiduePoly(out)


def ref_ext_gcd(p, q, tol):
    """ext_gcd as it was: ResiduePoly arithmetic, every cofactor updated."""
    one = ResiduePoly([1], trim=False)
    zero = ResiduePoly([])
    r0, r1 = p, q
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero:
        quo, rem = ref_divmod(r0, r1, tol)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - ref_mul(quo, s1)
        t0, t1 = t1, t0 - ref_mul(quo, t1)
    if r0.is_zero:
        return r0, s0, t0
    if r0.degree == 0:
        c = r0.coeff(0)
        return one, s0 * (1 / c), t0 * (1 / c)
    c = r0.lc
    return r0.monic(), s0 * (1 / c), t0 * (1 / c)


def _bits_of(p):
    return [c._mpc_ for c in p.coeffs]


def _near_threshold_division(rnd, tol, ulp):
    """(a, b) with a = q b + r, q and b of small Gaussian integers (so q b
    is exact and its largest modulus may exceed 2^T, T its largest binary
    exponent) and r's top coefficient on or near the collapse threshold
    tol * max(1, |a|, |b|)."""
    def gauss():
        return mp.mpc(rnd.randint(-3, 3), rnd.randint(-3, 3))
    b = ResiduePoly([gauss() for _ in range(rnd.randint(1, 2))] + [1])
    q = ResiduePoly([gauss() for _ in range(rnd.randint(1, 2))] + [1])
    qb = q * b
    scale = max(qb.max_abs(), b.max_abs(), mp.mpf(1))
    thr = tol * scale
    phase = mp.expjpi(mp.mpf(rnd.uniform(-1, 1)))
    top = thr * rnd.choice([phase * (1 + k * ulp) for k in (-2, -1, 0, 1, 2)]
                           + [phase * rnd.uniform(0.25, 4), mp.mpc(1), mp.mpc(0, 1),
                              mp.mpc(1 - ulp)])
    r = [rand_coeff(rnd) * thr * 2 ** rnd.randint(-8, 8) for _ in range(b.degree - 1)] + [top]
    a = ResiduePoly([c + (r[i] if i < len(r) else 0) for i, c in enumerate(qb.coeffs)],
                    trim=False)
    return a, b


@pytest.mark.parametrize("prec", [128, 256])
def test_divmod_and_ext_gcd_match_old_code_bit_for_bit(prec):
    rnd = rng(prec + 3)
    with mp.workprec(prec):
        ulp = mp.ldexp(1, -prec + 4)
        tols = [mp.ldexp(1, -(prec // 2)), mp.ldexp(1, -(prec - 24)), mp.mpf("1e-20")]
        pairs = []
        for _ in range(60):
            tol = rnd.choice(tols[:2])
            pairs.append((*_near_threshold_division(rnd, tol, ulp), tol))
        for _ in range(60):
            # random pairs, pairs with a common factor and with a near-common root
            u = [(rand_coeff(rnd), 1) for _ in range(rnd.randint(0, 3))]
            v = [(rand_coeff(rnd), 1) for _ in range(rnd.randint(0, 3))]
            w = [(rand_coeff(rnd), 1) for _ in range(rnd.randint(1, 2))]
            near = [(c + rand_coeff(rnd) * mp.ldexp(1, -(prec // 2) + rnd.randint(-4, 4)), m)
                    for c, m in w]
            p = ResiduePoly.from_roots(u + w) * rand_coeff(rnd)
            q = ResiduePoly.from_roots(v + rnd.choice([w, near, []]))
            pairs.append((p, q, rnd.choice(tols)))
        collapsed = 0
        for a, b, tol in pairs:
            q, r = a.divmod(b, tol=tol)
            q_ref, r_ref = ref_divmod(a, b, tol)
            assert _bits_of(q) == _bits_of(q_ref) and _bits_of(r) == _bits_of(r_ref)
            collapsed += r.degree < b.degree - 1
            got, ref = ext_gcd(a, b, tol), ref_ext_gcd(a, b, tol)
            assert [_bits_of(x) for x in got] == [_bits_of(x) for x in ref]
        assert collapsed > 10


@pytest.mark.parametrize("prec", [128, 256])
def test_ext_gcd_stops_at_a_constant_divisor(prec, monkeypatch):
    """A nonzero constant divisor ends Euclid with no division: a constant
    q at once, a q whose remainders turn constant mid-way after one
    division per nonconstant divisor; (g, a, b) as the reference Euclid."""
    divisors = []
    real = residue_mod._divmod

    def counting(a, b, tol):
        divisors.append(len(b) - 1)
        return real(a, b, tol)

    monkeypatch.setattr(residue_mod, "_divmod", counting)
    rnd = rng(prec + 5)
    with mp.workprec(prec):
        tol = zero_eps()
        for _ in range(30):
            p = ResiduePoly([rand_coeff(rnd) for _ in range(rnd.randint(2, 4))])
            for q, nonconstant in ((ResiduePoly([rand_coeff(rnd)]), 0),
                                   (ResiduePoly([rand_coeff(rnd) for _ in range(p.degree)]),
                                    p.degree - 1)):
                del divisors[:]
                got, ref = ext_gcd(p, q, tol), ref_ext_gcd(p, q, tol)
                assert [_bits_of(x) for x in got] == [_bits_of(x) for x in ref]
                assert got[0].degree == 0
                # generic remainders drop one degree a step: deg q, ..., 1, then 0
                assert divisors == list(range(p.degree - 1, 0, -1))[:nonconstant]


def test_twist_keeps_its_degree():
    # phi^40 with alpha 2 scales t^3 by 2^-120: below the dust threshold
    # 2^-64 max|c| at 128 bits, yet the leading coefficient is lc * s^3 != 0
    tm = TMap(2)
    p = ResiduePoly.from_roots([(1, 1), (mp.mpc(0, 2), 1), (-3, 1)]) * mp.mpc(2, 1)
    q = twist_residue(p, 40, tm)
    assert q.degree == 3
    assert q.lc == p.lc * mp.ldexp(1, -120)
    assert twist_residue(q, -40, tm).degree == 3
    dev = (twist_residue(q, -40, tm) - p).max_abs()
    assert dev < mp.mpf(2) ** -(mp.prec - 16) * p.max_abs()


def test_roots_reads_the_degree_past_exact_zero_tops():
    # an untrimmed ResiduePoly may end in exact zeros: [0, 0] once raised a
    # bare StopIteration and [1, 0] a ZeroDivisionError
    for coeffs in ([0, 0], [1, 0], [0, 0, 0], [2, 0, 0]):
        with pytest.raises(UsageError, match="root finding needs degree >= 1"):
            roots(ResiduePoly(coeffs, trim=False))
    c0, c1 = mp.mpc("0.75", "-1.5"), mp.mpc(2, 1)
    got = roots(ResiduePoly([c0, c1, 0], trim=False))
    assert got.pairs == roots(ResiduePoly([c0, c1], trim=False)).pairs
    (r, mult), = got.pairs
    assert mult == 1 and abs(c0 + c1 * r) < mp.mpf(2) ** -(mp.prec - 4)
    assert roots(ResiduePoly([0, 0, 1, 0], trim=False)).pairs == [(0, 2)]


@pytest.mark.parametrize("prec", [128, 160, 256])
def test_roots_multiple_root_at_zero(prec):
    # exactly-zero low coefficients are the root 0 with its multiplicity;
    # Durand-Kerner alone gave four simple roots of modulus 2^-(P/3) or so
    with bits(prec):
        assert roots(ResiduePoly([0, 0, 0, 0, 1])).pairs == [(0, 4)]
        pairs = roots(ResiduePoly.from_roots([(0, 4), (1, 1)])).pairs
        assert [m for _, m in pairs] == [4, 1]
        assert pairs[0][0] == 0
        assert abs(pairs[1][0] - 1) < mp.mpf(2) ** -(prec - 8)


def test_real_roots_carry_no_imaginary_dust():
    # Newton polishing left imaginary parts of ~1e-220 on these real roots;
    # a component below the root's rounding unit is set to 0
    for c in (mp.sqrt(2), mp.mpf(3)):
        for p in (ResiduePoly([0, -c, 0, 1]), ResiduePoly([c * c, 0, -(1 + c * c), 0, 1])):
            rr = roots(p)
            assert len(rr.pairs) == p.degree
            assert all(r.imag == 0 for r, _ in rr.pairs)
            assert rr.residual < mp.mpf(2) ** -100


def ref_nonzero_roots(q):
    """The root search with every Durand-Kerner sweep and three Newton
    steps on q^(m-1) per cluster of size m at working precision, kept as a
    reference; roots hands it q as p has it, not made monic."""
    q = q.monic()
    d = q.degree
    if d == 1:
        return [(-q.coeff(0), 1)]
    base = mp.mpc("0.4", "0.9")
    zs = [base ** (k + 1) for k in range(d)]
    hard = mp.ldexp(1, -(mp.prec - 12))
    soft = mp.ldexp(1, -(mp.prec // 3))
    prev = mp.inf
    for _ in range(512):
        maxstep = mp.mpf(0)
        for k in range(d):
            denom = mp.mpc(1)
            for j in range(d):
                if j != k:
                    denom *= zs[k] - zs[j]
            if denom == 0:
                denom = mp.mpc(hard)
            step = q.eval(zs[k]) / denom
            zs[k] = zs[k] - step
            maxstep = max(maxstep, abs(step))
        if maxstep < hard or (maxstep < soft and maxstep > prev / 2):
            break
        prev = maxstep
    else:
        raise RootFindingError("root iteration did not settle in 512 steps")
    zs = sorted(zs, key=lambda z: (mp.re(z), mp.im(z)))
    derivs = [q]
    good = zero_eps() * max(mp.mpf(1), q.max_abs())
    radius = soft
    for _ in range(max(2, mp.prec // 8)):
        labels = list(range(d))
        for i in range(d):
            for j in range(i + 1, d):
                if abs(zs[i] - zs[j]) <= radius:
                    old = labels[j]
                    labels = [labels[i] if x == old else x for x in labels]
        clusters = {}
        for k in range(d):
            clusters.setdefault(labels[k], []).append(zs[k])
        pairs = []
        for members in clusters.values():
            mult = len(members)
            while len(derivs) <= mult:
                derivs.append(ResiduePoly([i * c for i, c in enumerate(derivs[-1].coeffs)][1:],
                                          trim=False))
            center = sum(members) / mult
            for _ in range(3):
                pd = derivs[mult].eval(center)
                if abs(pd) < hard:
                    break
                center = center - derivs[mult - 1].eval(center) / pd
            pairs.append((center, mult))
        pairs.sort(key=lambda rm: (mp.re(rm[0]), mp.im(rm[0])))
        if (ResiduePoly.from_roots(pairs) - q).max_abs() <= good:
            return pairs
        radius *= 4
    raise RootFindingError("no clustering radius re-expands the roots to q")


def _ref_roots(monkeypatch, p):
    """_outcome(p) with the reference search."""
    with monkeypatch.context() as m:
        m.setattr(residue_mod, "_nonzero_roots", ref_nonzero_roots)
        return _outcome(p)


def _outcome(p):
    """roots(p).pairs, or RootFindingError when the search raises it."""
    try:
        return roots(p).pairs
    except RootFindingError:
        return RootFindingError


def _poly(rts):
    """The monic polynomial with the given roots, untrimmed."""
    c = [mp.mpc(1)]
    for r in rts:
        c = [mp.mpc(0)] + c
        for i in range(len(c) - 1):
            c[i] -= r * c[i + 1]
    return ResiduePoly(c, trim=False)


def _draw(rnd, d):
    return [rand_coeff(rnd) for _ in range(d)]


@pytest.mark.parametrize("prec", [128, 256])
def test_two_phase_roots_match_the_single_phase_search(monkeypatch, prec):
    """Random simple roots of degree 2-6: the double-precision seeds change
    the path, not the answer, to 2^-(P-16)."""
    rnd = rng(prec + 29)
    with bits(prec):
        tol = mp.ldexp(1, -(prec - 16))
        for _ in range(30):
            p = _poly(_draw(rnd, rnd.randint(2, 6)))
            got, ref = roots(p).pairs, _ref_roots(monkeypatch, p)
            assert [m for _, m in got] == [m for _, m in ref]
            for (a, _), (b, _) in zip(got, ref):
                assert abs(a - b) <= tol * max(1, abs(b))


def _near(pairs, c, radius):
    """The (root, multiplicity) pairs within radius of c."""
    return [(a, m) for a, m in pairs if abs(a - c) <= radius]


@pytest.mark.parametrize("prec", [128, 160, 256])
def test_two_phase_roots_on_double_and_close_roots(monkeypatch, prec):
    """Double roots and pairs 2^-30, 2^-40 and 2^-50 apart keep the
    single-phase multiplicities; the 2^-50 pair is one double root at 128
    bits only.  A double root of the rounded input is known to about
    2^-(P-24)/2, a root of a resolved pair to 2^-(P-24)/gap; a pair within
    12 bits of the clustering radius 2^-(P/3) may stop before it is
    resolved and be polished only to about 2^-(P/2), in either search.

    Triple roots are left out: their iterates stall about 2^-(P/3) apart, at
    the clustering radius itself, and some of them do not settle (a
    RootFindingError); those that return one triple cluster are tested in
    test_triple_roots_return_one_near_cluster."""
    rnd = rng(prec + 31)
    with bits(prec):
        for c in _draw(rnd, 6):
            p = _poly([c, c] + _draw(rnd, rnd.randint(0, 4)))
            got, ref = roots(p).pairs, _ref_roots(monkeypatch, p)
            assert [k for _, k in got] == [k for _, k in ref]
            radius = mp.ldexp(1, -(prec - 24) // 2) * max(1, abs(c))
            assert sum(k for _, k in _near(got, c, radius)) == 2
        for gap in (30, 40, 50):
            for c in _draw(rnd, 4):
                w = rand_coeff(rnd)
                c2 = c + w / abs(w) * mp.ldexp(1, -gap)
                p = _poly([c, c2] + _draw(rnd, rnd.randint(0, 3)))
                got, ref = roots(p).pairs, _ref_roots(monkeypatch, p)
                assert [k for _, k in got] == [k for _, k in ref]
                assert (max(k for _, k in got) == 2) == (gap == 50 and prec == 128)
                if gap <= prec // 3 - 12:
                    tol = mp.ldexp(1, gap - (prec - 24))
                    for (a, _), (b, _) in zip(got, ref):
                        assert abs(a - b) <= tol * max(1, abs(b))


def test_split_pairs_polish_to_their_double_root():
    # a pair 2^-50 apart clusters as a double root at 128 bits; Newton on q'
    # lands near the pair, where multiplicity-weighted Newton on q (q' ~ 0)
    # moved the first center 2^-22.8 away
    with bits(128):
        for c, w in ((mp.mpc("-0.5", "0.375"), mp.mpc("0.25", "-0.75")),
                     (mp.mpc("0.75", "-1.25"), mp.mpc("0.5", "0.25"))):
            pairs = roots(ResiduePoly.from_roots([(c, 1), (c + w * mp.ldexp(1, -50), 1)])).pairs
            assert len(pairs) == 1 and pairs[0][1] == 2
            assert abs(pairs[0][0] - c) <= mp.ldexp(1, -50)


@pytest.mark.parametrize("prec", [128, 160, 256])
def test_triple_roots_return_one_near_cluster(prec):
    """A rounded triple root, alone or with up to three simple roots, comes
    back as one triple cluster within 2^-(P-24) max(1, |c|) of its planted
    root."""
    rnd = rng(prec + 43)
    with bits(prec):
        for _ in range(20):
            c = rand_coeff(rnd)
            p = _poly([c, c, c] + _draw(rnd, rnd.randint(0, 3)))
            got = roots(p).pairs
            radius = mp.ldexp(1, -(prec - 24)) * max(1, abs(c))
            assert [k for _, k in _near(got, c, radius)] == [3]
            assert sum(k for _, k in got) == p.degree


def test_roots_raise_when_the_clusters_do_not_reexpand(monkeypatch):
    # no clustering radius is accepted unless its clusters re-expand to q:
    # off centers raise, they are not returned as the best there was.  The
    # centers are Gaussian integers on the search's grid: each real part
    # moves by 2^-20 of itself
    real = residue_mod._cluster_polish
    monkeypatch.setattr(residue_mod, "_cluster_polish", lambda *a: [
        ((cr + (abs(cr) >> 20), ci), m) for (cr, ci), m in real(*a)])
    with bits(128):
        with pytest.raises(RootFindingError):
            roots(ResiduePoly.from_roots([(mp.mpc("0.5", "0.25"), 1), (mp.mpc(-1), 2)]))


@pytest.mark.parametrize("prec", [128, 256])
def test_two_phase_roots_out_of_double_range(monkeypatch, prec):
    """Roots scaled by 2^1100 or 2^-1100 give coefficients that over- or
    underflow double, and coefficients near DBL_MAX a first step whose
    modulus overflows it.  The search scales such a q to roots of O(1)
    (t = 2^s u) and keeps the single-phase answer.  The single-phase search
    cannot settle at roots near 2^1100 or 2^512, whose steps never fall
    below its floors in t, and raises RootFindingError there; the search
    then raises too (roots of both scales at once) or returns the roots
    mp.polyroots finds at 2P bits."""
    rnd = rng(prec + 37)
    with bits(prec):
        tol = mp.ldexp(1, -(prec - 16))
        polys = []
        for e in (1100, -1100):
            for d in (2, 3, 4):
                rts = _draw(rnd, d)
                for scaled in ([c * mp.ldexp(1, e) for c in rts], [rts[0] * mp.ldexp(1, e)] + rts[1:]):
                    polys.append(_poly(scaled))
        for big in (mp.mpc(1.5e308, 1.5e308), mp.mpc(-1.7e308, 1e308)):
            polys += [ResiduePoly([big, 0, 1], trim=False),
                      ResiduePoly([big, mp.mpc(1e308), 1], trim=False)]
        for p in polys:
            assert residue_mod._double_seeds(p.coeffs) is None
            got, ref = _outcome(p), _ref_roots(monkeypatch, p)
            if ref is RootFindingError and got is not RootFindingError:
                # mp.polyroots on p(2^k t) 2^(-kn), 2^k near the largest root
                k, n = int(mp.log(max(abs(a) for a, _ in got), 2)), p.degree
                with mp.workprec(2 * prec):
                    ref = [(c * mp.ldexp(1, k), 1) for c in mp.polyroots(
                        [c * mp.ldexp(1, -k * (n - i)) for i, c in enumerate(p.coeffs)][::-1])]
                ref.sort(key=lambda rm: (mp.re(rm[0]), mp.im(rm[0])))
            if ref is RootFindingError:
                assert got is RootFindingError
                continue
            assert [m for _, m in got] == [m for _, m in ref]
            for (a, _), (b, _) in zip(got, ref):
                assert abs(a - b) <= tol * max(1, abs(b))


@pytest.mark.parametrize("prec", [128, 160, 256])
def test_a_fourfold_root_settles(prec):
    # (t - 0.8)(t + 0.2)^4, the residue of a skew product at alpha 2: the
    # search on mpc numbers stalled near 2^-32 and did not settle
    with bits(prec):
        a, b = mp.mpf("-0.2"), mp.mpf("0.8")
        pairs = roots(ResiduePoly.from_roots([(b, 1), (a, 4)])).pairs
        assert [m for _, m in pairs] == [4, 1]
        for (c, _), r in zip(pairs, (a, b)):
            assert abs(c - r) <= mp.ldexp(1, -(prec - 24))


def _uniform(rnd):
    return mp.mpc(rnd.uniform(-2, 2), rnd.uniform(-2, 2))


@pytest.mark.parametrize("prec", [128, 256])
def test_seeded_triple_roots_all_settle(prec):
    """300 rounded triple roots c, uniform in [-2, 2]^2, each with 0-3 extra
    simple roots drawn the same way (random.Random(1000 + P)): none raises,
    and each gives one triple cluster within 2^-(P-24) max(1, |c|)."""
    rnd = random.Random(1000 + prec)
    with bits(prec):
        for _ in range(300):
            c = _uniform(rnd)
            p = _poly([c, c, c] + [_uniform(rnd) for _ in range(rnd.randint(0, 3))])
            got = roots(p).pairs
            radius = mp.ldexp(1, -(prec - 24)) * max(1, abs(c))
            assert [k for _, k in _near(got, c, radius)] == [3]
            assert sum(k for _, k in got) == p.degree


def _exact(c):
    """The exact value of a number from_roots reads, as a GaussianRational."""
    return GaussianRational(*((-1) ** sign * man * Fraction(2) ** exp
                              for sign, man, exp, _ in to_mpc(c)._mpc_))


@pytest.mark.parametrize("prec", [128, 256])
def test_from_roots_is_the_exact_product_rounded_once(prec):
    rnd = rng(prec + 47)
    with bits(prec):
        for _ in range(20):
            pairs = [(rand_coeff(rnd) / 3, rnd.randint(1, 3)) for _ in range(rnd.randint(1, 4))]
            pairs += rnd.choice([[], [(2, 1)], [(mp.mpf(-1) / 7, 2)], [(0, 1)]])
            ref = [GaussianRational(1)]
            for c, m in pairs:
                for _ in range(m):
                    c = _exact(c)
                    ref = [GaussianRational()] + ref
                    for i in range(len(ref) - 1):
                        ref[i] = ref[i] - c * ref[i + 1]
            got = ResiduePoly.from_roots(pairs).coeffs
            assert [x._mpc_ for x in got] == [to_mpc(x)._mpc_ for x in ref]


def test_quartic_roots_take_few_working_precision_evaluations(monkeypatch):
    # the double-precision phase leaves about three working-precision sweeps
    # of four evaluations, one Newton step (two) per root, and the residual
    # (one per root), all on the integer evaluator; every sweep at 160 bits
    # took about 66 before the double phase.  ResiduePoly.eval is not called
    calls = []
    real = residue_mod._horner

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(residue_mod, "_horner", counting)
    monkeypatch.setattr(ResiduePoly, "eval", None)
    rnd = rng(41)
    with bits(160):
        for _ in range(5):
            p = ResiduePoly.from_roots([(rand_coeff(rnd), 1) for _ in range(4)])
            del calls[:]
            assert len(roots(p)) == 4
            assert len(calls) <= 24


def test_zero_polynomial_edges():
    zero = ResiduePoly([])
    with pytest.raises(UsageError, match="no leading coefficient"):
        zero.lc
    assert zero.monic().is_zero
    with pytest.raises(ZeroDivisionError):
        ResiduePoly([1, 1]).divmod(zero)
    g, a, b = ext_gcd(zero, zero)
    assert g.is_zero
    assert residue_mod.substitute(zero, 2, 1).is_zero


def test_periodic_twist_check_passes_a_constant_residue():
    # a unit residue shares no factor with any twist
    twist = lambda p, n: p.conj_coeffs()
    assert twist_coprime_periodic(ResiduePoly([2]), ResiduePoly([1, 1]), twist, 2) is None
    assert twist_coprime_periodic(ResiduePoly([1, 1]), ResiduePoly([3]), twist, 2) is None


def _sweep_by_reduce(cs, zs):
    """The Durand-Kerner sweep as it evaluated each point, through
    functools.reduce over a lambda: the reference for residue._sweep."""
    from functools import reduce
    from math import prod
    ev = lambda w: reduce(lambda acc, c: acc * w + c, cs)  # noqa: E731
    maxstep = 0
    for k, z in enumerate(zs):
        step = ev(z) / prod(z - w for j, w in enumerate(zs) if j != k)
        zs[k] = z - step
        maxstep = max(maxstep, abs(step))
    return maxstep


def test_double_sweep_is_the_reduce_sweep_bit_for_bit(monkeypatch):
    """residue._sweep's Horner loop keeps the floating-point operations of
    the reduce form, so each sweep, and _double_seeds, give the same doubles
    on seeded polynomials of degree 1 to 8: simple, clustered and repeated
    roots, roots of very different sizes, and a zero denominator."""
    rnd = rng(83)
    polys = []
    for d in range(1, 9):
        for _ in range(6):
            rts = [complex(rnd.uniform(-3, 3), rnd.uniform(-3, 3)) * 10 ** rnd.randint(-3, 3)
                   for _ in range(d)]
            if d > 1 and rnd.random() < 0.3:
                rts[1] = rts[0] + complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) * 1e-9
            polys.append(_poly([mp.mpc(r) for r in rts]).coeffs)
    polys.append(ResiduePoly([mp.mpc(1), mp.mpc(-2), mp.mpc(1)]).coeffs)  # (t - 1)^2
    sweeps = 0
    for coeffs in polys:
        cs = [complex(c) for c in reversed(coeffs)]
        ours = [complex(0.4, 0.9) ** (k + 1) for k in range(len(cs) - 1)]
        theirs = list(ours)
        for _ in range(5):
            assert residue_mod._sweep(cs, ours) == _sweep_by_reduce(cs, theirs)
            assert ours == theirs
            sweeps += 1
        seeds = residue_mod._double_seeds(coeffs)
        monkeypatch.setattr(residue_mod, "_sweep", _sweep_by_reduce)
        assert residue_mod._double_seeds(coeffs) == seeds
        monkeypatch.undo()
    assert sweeps == 5 * len(polys)
    # two equal points make a zero denominator in both forms
    for sweep in (residue_mod._sweep, _sweep_by_reduce):
        with pytest.raises(ZeroDivisionError):
            sweep([1, 0, -1], [0.5, 0.5])
