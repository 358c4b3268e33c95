from fractions import Fraction

import pytest
from mpmath import mp

from skewpuiseux import (Alpha, ConjSeriesRing, PuiseuxSeries, ResiduePoly, SkewPoly,
                         TMap, bits, ext_gcd, hensel_lift, parse_poly,
                         puiseux_ring, shift_iso, twist_precheck, twist_residue)
from skewpuiseux import hensel as hensel_mod
from skewpuiseux import scalar
from skewpuiseux.errors import (PrecisionExhausted, SkewError, TwistCoprimeFailure,
                                UsageError)
from skewpuiseux.hensel import _divmod_monic, _fixed, _rounded, _solve_step
from skewpuiseux.scalar import INF, _fixed_add, carry_row as _to_prec

from conftest import rand_coeff, rng
from props import check_hensel_invariant, random_liftable

PS = PuiseuxSeries


def _example1(alpha):
    R = puiseux_ring(alpha)
    f = parse_poly("t^2 - (2+x)*t + (1+2*x)", R)
    g = parse_poly("t - 1", R)
    return f, g


def test_example1_lift_to_order_20():
    f, g = _example1(2)
    states = []
    gh, hh, achieved = hensel_lift(f, g, g, 20, on_state=states.append)
    assert achieved >= 20
    defect = (f - gh * hh).truncate(20)
    assert defect.max_abs() < mp.mpf(2) ** -96
    z = -hh.coeff(0)
    # hand recursion: g1 = (a1-b1)/(alpha-1) = -1, g2 = -1
    assert abs(mp.mpc(z.terms[0]) - 1) < mp.mpf(2) ** -100
    assert abs(mp.mpc(z.terms[1]) + 1) < mp.mpf(2) ** -100
    assert abs(mp.mpc(z.terms[2]) + 1) < mp.mpf(2) ** -100
    for st in states:
        assert st.defect.is_zero or st.defect.ord_k() >= st.n + 1


def test_lift_builds_one_tmap(monkeypatch):
    # the ring keeps its residue map T instead of building it for every
    # twist, twice per step
    f, g = _example1(2)
    built = []
    init = TMap.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TMap, "__init__", counting_init)
    states = []
    hensel_lift(f, g, g, 12, on_state=states.append)
    assert len(states) > 1
    assert len(built) <= 1


def test_example1_alpha_one_fails_at_1():
    f, g = _example1(1)
    with pytest.raises(TwistCoprimeFailure) as exc:
        hensel_lift(f, g, g, 8)
    assert exc.value.n == 1


def test_example2_fails_at_1_with_witness():
    CR = ConjSeriesRing()
    f = parse_poly("t^2 + (1+x)", CR)
    g = parse_poly("t + i", CR)
    h = parse_poly("t - i", CR)
    with pytest.raises(TwistCoprimeFailure) as exc:
        hensel_lift(f, g, h, 8)
    assert exc.value.n == 1
    w = exc.value.witness
    assert w.degree == 1
    assert abs(w.coeff(0) - mp.mpc(0, 1)) < mp.mpf(2) ** -40  # t + i


def test_classical_degeneration_at_alpha_one():
    # with alpha = 1 and a = 0 every twist is trivial, so the condition is
    # the classical coprimality of the residues
    R = puiseux_ring(1)
    g = parse_poly("t - 1", R)
    h = parse_poly("t - 2", R)
    twist_precheck(g, h)  # coprime: passes
    with pytest.raises(TwistCoprimeFailure):
        twist_precheck(g, g)


def test_lift_terminates_on_exact_factorization():
    R = puiseux_ring(2)
    u = parse_poly("t - (1+x)", R)
    v = parse_poly("t - 3", R)
    f = u * v
    gh, hh, achieved = hensel_lift(f, parse_poly("t - 1", R), parse_poly("t - 3", R), 30)
    assert achieved == INF or achieved >= 30
    assert (f - gh * hh).truncate(30).max_abs() < mp.mpf(2) ** -90


def test_monic_inputs_required():
    R = puiseux_ring(2)
    f = parse_poly("2*t^2 - 1", R)
    g = parse_poly("t - 1", R)
    with pytest.raises(UsageError):
        hensel_lift(f, g, g, 4)


def test_degree_mismatch_rejected():
    R = puiseux_ring(2)
    f = parse_poly("t^3 - 1", R)
    g = parse_poly("t - 1", R)
    with pytest.raises(UsageError):
        hensel_lift(f, g, g, 4)


def test_residue_mismatch_rejected():
    R = puiseux_ring(2)
    f = parse_poly("t^2 - 2*t + 1", R)
    g = parse_poly("t - 1", R)
    h = parse_poly("t - 3", R)
    with pytest.raises(UsageError):
        hensel_lift(f, g, h, 4)


def test_precision_exhausted():
    R = puiseux_ring(2)
    f = parse_poly("t^2 - (2+x)*t + (1+2*x+O(x^4))", R)
    g = parse_poly("t - 1", R)
    with pytest.raises(PrecisionExhausted):
        hensel_lift(f, g, g, 10)


def test_loop_invariant_on_random_liftable():
    assert check_hensel_invariant(10, seed=222, target=10) == 10


def test_correction_degrees_bounded():
    rnd = rng(99)
    f, g, h = random_liftable(rnd, Fraction(2), 5)
    states = []
    hensel_lift(f, g, h, 10, on_state=states.append)
    m, k = g.degree, h.degree
    for st in states:
        assert st.g_cur.degree == m and st.g_cur.is_monic
        assert st.h_cur.degree == k and st.h_cur.is_monic


def test_achieved_order_is_the_truncation_bound():
    # f is known only to O(x^10); its defect against (t-1)(t-3) is that
    # unknown tail, so the lift reaches the target and no further
    R = puiseux_ring(2)
    f = parse_poly("t^2 - (4+O(x^10))*t + (3+O(x^10))", R)
    _, _, achieved = hensel_lift(f, parse_poly("t - 1", R), parse_poly("t - 3", R), 8)
    assert achieved == 8
    rnd = rng(5)
    for _ in range(6):
        f, g, h = random_liftable(rnd, Fraction(2), rnd.randint(2, 4))
        _, _, achieved = hensel_lift(f, g, h, 12)
        assert achieved == 12


def _assert_lifted(f, gh, hh, target):
    assert gh.is_monic and hh.is_monic
    assert (f - gh * hh).ord_k() >= target


def test_lift_with_multi_term_derivation():
    # the factorizer lifts in the delta_(a-b) ring that shift_iso lands in,
    # where a - b has several terms
    R = puiseux_ring(Fraction(3, 2))
    zeros = [PS(1, {0: mp.mpc(1, 1), 1: 2, 3: mp.mpc(0, -1)}),
             PS(1, {0: mp.mpc(-2, 1), 2: mp.mpc(1, 3)}),
             PS(1, {0: mp.mpc(0.5, -1), 1: -1, 2: 1})]
    f = SkewPoly.one(R)
    for z in zeros:
        f = f * SkewPoly.t_minus(R, z)
    b = PS(1, {0: mp.mpc(0.25, 0.5), 1: 3, 2: mp.mpc(-1, 2)})
    F = shift_iso(f, b)
    assert len(F.ring.a.terms) == 3
    res = F.reduce_residue()
    shifted = [mp.mpc(z.terms[0]) + b.terms[0] for z in zeros]
    for m in (1, 2):
        gres = ResiduePoly.from_roots([(c, 1) for c in shifted[:m]])
        hres = ResiduePoly.from_roots([(c, 1) for c in shifted[m:]])
        assert (res - gres * hres).max_abs() < mp.mpf(2) ** -100
        g = SkewPoly(F.ring, [F.ring.from_scalar(c) for c in gres.coeffs])
        h = SkewPoly(F.ring, [F.ring.from_scalar(c) for c in hres.coeffs])
        gh, hh, achieved = hensel_lift(F, g, h, 12)
        assert achieved == 12
        _assert_lifted(F, gh, hh, 12)


def test_conj_series_lift_succeeds():
    CR = ConjSeriesRing()
    f = parse_poly("t^2 - (3+x+2*x^2)*t + (2+i*x)", CR)
    gh, hh, achieved = hensel_lift(f, parse_poly("t - 1", CR),
                                   parse_poly("t - 2", CR), 8)
    assert achieved == 8
    _assert_lifted(f, gh, hh, 8)
    assert gh.coeff(0).trunc == 8 and len(gh.coeff(0).terms) == 8


# -- the step in C[t]/(res g) -------------------------------------------------------


def bezout_step(gres, kn, fn, d):
    """The step as it was solved before: a full Bezout pair a res(g) + b kn
    = 1, then b fn = q res(g) + p and q_n = a fn + q kn, cut below degree
    d - deg res(g)."""
    floor = mp.mpf(2) ** -(mp.prec - 24)
    one, a, b = ext_gcd(gres, kn)
    assert one.degree == 0
    q, p = (b * fn).divmod(gres, tol=floor)
    qn = a * fn + q * kn
    return p, ResiduePoly(qn.coeffs[:d - gres.degree], trim=False)


def step(n, gres, kn, fn, inverses):
    """_solve_step on the exact rows of ResiduePolys, with no dust bound (an
    infinite scale); returns p, q and b as ResiduePolys."""
    g = _fixed(gres.coeffs[:-1]) or ([0] * gres.degree, [0] * gres.degree, 0)
    out = _solve_step(n, gres, g, _fixed(kn.coeffs), _fixed(fn.coeffs), inverses, INF)
    return [ResiduePoly(_rounded(x, len(x[0])) if x else [], trim=False) for x in out]


@pytest.mark.parametrize("prec", [128, 256])
def test_step_in_quotient_algebra_matches_bezout_route(prec):
    """p kn + res(g) q = fn to 2^-(P-16), and p, q as the Bezout route gives
    them, for m = deg g in {1, 2, 3} and n <= 40.  kn = phi^n(res h) spreads
    its coefficients over alpha^(n deg h); past P/8 bits of spread both
    routes lose accuracy in the Euclid on a tiny-led kn, so n stops there."""
    rnd = rng(prec + 11)
    with bits(prec):
        tol = mp.mpf(2) ** -(prec - 16)
        largest_n = 0
        for alpha in (Fraction(2), Fraction(3, 2), Fraction(1, 2)):
            for m in (1, 2, 3):
                for dh in (1, 2):
                    tm = TMap(alpha, 1, rand_coeff(rnd))
                    assert tm.a0 != 0
                    gres = ResiduePoly.from_roots([(rand_coeff(rnd), 1) for _ in range(m)])
                    hres = ResiduePoly.from_roots([(rand_coeff(rnd), 1) for _ in range(dh)])
                    inverses = {}
                    steps = 0
                    for n in range(1, 41):
                        if n * dh * abs(mp.log(alpha.numerator / alpha.denominator, 2)) > prec / 8:
                            break
                        largest_n = max(largest_n, n)
                        steps += 1
                        kn = twist_residue(hres, n, tm)
                        fn = ResiduePoly([rand_coeff(rnd) for _ in range(m + dh)])
                        p, q, b = step(n, gres, kn, fn, inverses)
                        assert p.degree < m and q.degree < dh
                        assert (b * kn).divmod(gres)[1].degree == 0
                        scale = max(1, fn.max_abs(), p.max_abs() * kn.max_abs(),
                                    q.max_abs() * gres.max_abs())
                        assert (p * kn + gres * q - fn).max_abs() <= tol * scale
                        p_ref, q_ref = bezout_step(gres, kn, fn, m + dh)
                        assert (p - p_ref).max_abs() <= tol * max(1, p.max_abs())
                        assert (q - q_ref).max_abs() <= tol * max(1, q.max_abs())
                    assert len(inverses) == steps  # one inverse per distinct kn
        assert largest_n == {128: 27, 256: 40}[prec]  # alpha 3/2, deg h 1


def test_step_raises_on_a_shared_twisted_root():
    # res(h) has the root T^3(c) for a root c of res(g), so phi^3(res h)
    # vanishes at c: the reduced kn collapses and the gcd is the witness
    tm = TMap(2, 1, mp.mpc("0.25", "0.5"))
    c = mp.mpc("0.75", "-1.25")
    for others in ([], [(mp.mpc(-1, 1), 1)]):
        gres = ResiduePoly.from_roots([(c, 1)] + others)
        hres = ResiduePoly.from_roots([(tm.apply(c, 3), 1), (mp.mpc(2, 3), 1)])
        kn = twist_residue(hres, 3, tm)
        fn = ResiduePoly([1, 2, 3][:gres.degree + 2])
        with pytest.raises(TwistCoprimeFailure) as exc:
            step(3, gres, kn, fn, {})
        assert exc.value.n == 3
        w = exc.value.witness
        assert w.degree == 1 and abs(w.coeff(0) + c) < mp.mpf(2) ** -(mp.prec // 3)
        # the twist at n = 2 shares no root: the same pair solves there
        step(2, gres, twist_residue(hres, 2, tm), fn, {})


@pytest.mark.parametrize("seed", range(4))
def test_monic_division_is_exact(seed):
    """quo (t^m + g) + rem == a in integers, deg rem < m, for monic divisors
    of degree 1..3, real and complex, whose coefficients spread over 2^-90
    .. 2^90, and a of degree <= 6."""
    rnd = rng(seed + 70)

    def scalar_(real):
        x = mp.ldexp(mp.mpf(rnd.uniform(-1, 1)), rnd.randint(-90, 90))
        return x if real else mp.mpc(x, mp.ldexp(rnd.uniform(-1, 1), rnd.randint(-90, 90)))

    for _ in range(40):
        m, real = rnd.randint(1, 3), rnd.random() < 0.5
        g = _fixed([scalar_(real) for _ in range(m)])
        a = _fixed([scalar_(rnd.random() < 0.5) for _ in range(rnd.randint(1, 7))])
        quo, rem = _divmod_monic(a, g)
        assert len(rem[0]) <= m and len(quo[0]) == max(0, len(a[0]) - m)
        monic = (g[0] + [1 << -g[2]], g[1] + [0], g[2]) if g[2] < 0 else \
            ([v << g[2] for v in g[0]] + [1], [v << g[2] for v in g[1]] + [0], 0)
        prod = hensel_mod._minus_product(quo, monic, None, False, len(a[0])) if quo[0] else None
        minus_rem = ([-v for v in rem[0]], [-v for v in rem[1]], rem[2])
        back = _fixed_add(_fixed_add(a, prod), minus_rem)
        assert not any(back[0]) and not any(back[1])


def ref_to_prec(x):
    """_to_prec as it was: each entry rounded through an mpc and read back."""
    with mp.workprec(mp.prec + scalar.GUARD_BITS):
        return x and _fixed(_rounded(x, len(x[0])))


@pytest.mark.parametrize("prec", [128, 160, 256])
def test_rows_round_on_mantissas_bit_for_bit(prec):
    """_to_prec gives the row the mpc route gives, over random parts, exact
    ties rounding down (even) and up (odd), all-ones carries that lengthen
    the mantissa, parts already short enough, zeros and negative parts."""
    rnd = rng(prec + 19)
    P = prec + scalar.GUARD_BITS

    def tie(odd):  # P kept bits, then exactly one half
        return ((rnd.getrandbits(P - 2) << 1 | 1 << (P - 1) | odd) << 1 | 1) << rnd.randint(0, 40)

    kinds = {"random": lambda: rnd.randrange(1, 1 << rnd.randint(1, 3 * P)),
             "tie down": lambda: tie(0), "tie up": lambda: tie(1),
             "carry": lambda: (1 << rnd.randint(P + 1, 2 * P)) - 1,
             "short": lambda: rnd.randrange(1, 1 << rnd.randint(1, P)), "zero": lambda: 0}
    with mp.workprec(prec):
        for kind, draw in kinds.items():
            for _ in range(60):
                # one part of this kind, alone or among parts of any kind
                d = rnd.randint(1, 4)
                parts = [rnd.choice(list(kinds.values()))() for _ in range(2 * d)]
                parts[0] = m = draw()
                if rnd.random() < 0.5:
                    parts = parts[:1] + [0] * (2 * d - 1)
                parts = [-v if rnd.random() < 0.5 else v for v in parts]
                x = (parts[:d], parts[d:], rnd.randint(-300, 300))
                got = _to_prec(x)
                assert got == ref_to_prec(x)
                if kind == "zero" and not any(parts):
                    assert got is None
                elif not any(parts[1:]):
                    rounded = abs(got[0][0]) << (got[2] - x[2])
                    assert {"tie down": rounded < m, "tie up": rounded > m,
                            "carry": rounded == m + 1,
                            "short": rounded == m}.get(kind, True)


def test_to_prec_forms_no_mpmath_number(monkeypatch):
    calls = []
    real = scalar.from_fixed_point

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(scalar, "from_fixed_point", counting)
    x = _fixed([mp.mpc(1, -3) / 7, mp.mpf(2) / 3, 0])
    x = hensel_mod._minus_product(x, x)
    got = _to_prec(x)
    assert not calls
    assert got == ref_to_prec(x) and calls  # the mpc route does call it


def test_one_inverse_per_distinct_twist(monkeypatch):
    calls = []
    real = hensel_mod.residue_mod.ext_gcd

    def counting(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(hensel_mod.residue_mod, "ext_gcd", counting)
    for alpha, per_lift in ((1, 1), (2, None)):
        R = puiseux_ring(alpha)
        f = parse_poly("t^2 - (4+x+x^3)*t + (3+2*x)", R)
        states = []
        del calls[:]
        hensel_lift(f, parse_poly("t - 1", R), parse_poly("t - 3", R), 12,
                    on_state=states.append)
        assert len(states) > 1
        assert len(calls) == (per_lift or len(states))


def test_truncated_factor_input_is_precision_exhausted():
    # a factor known only to O(x^5) cannot be lifted to O(x^10)
    R = puiseux_ring(2)
    f = parse_poly("t^2 - (2+x)*t + (1+2*x)", R)
    g = SkewPoly(R, [PS(1, {0: -1}, 5), PS.one()])
    with pytest.raises(PrecisionExhausted):
        hensel_lift(f, g, parse_poly("t - 1", R), 10)


@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(3, 2), Fraction(1, 2)])
@pytest.mark.parametrize("L", [1, 2])
def test_derived_lift_is_the_shifted_plain_lift(alpha, L):
    """A lift in the delta_a ring equals shift_iso of the lift of the
    unshifted polynomial in F[t, sigma], to 2^-(P-16) relative: the derived
    lift starts from residue factors, which its change of coordinates
    s = t + a turns into factors with higher x-slices."""
    rnd = rng(L * 10 + alpha.numerator)
    K = 10 * L
    tol = mp.mpf(2) ** -(mp.prec - 16)
    R = puiseux_ring(alpha, L)
    zeros = [PS(L, {0: c, 1: rand_coeff(rnd), L + 1: rand_coeff(rnd)})
             for c in (mp.mpc(1, 1), mp.mpc(-2, 1), mp.mpc("0.5", -1))]
    f = SkewPoly.one(R)
    for z in zeros:
        f = f * SkewPoly.t_minus(R, z)
    a = PS(L, {0: mp.mpc("0.25", "0.5"), 1: 3, 2 * L: mp.mpc(-1, 2)})
    F = shift_iso(f, -a)
    assert F.ring.a == a
    for m in (1, 2):
        plain, derived = [], []
        for ring, shift, out in ((R, 0, plain), (F.ring, a.terms[0], derived)):
            res = [(z.terms[0] - shift, 1) for z in zeros]
            out.extend(SkewPoly(ring, [ring.from_scalar(c) for c in ResiduePoly.from_roots(rs).coeffs])
                       for rs in (res[:m], res[m:]))
        gp, hp, _ = hensel_lift(f, *plain, K)
        gd, hd, achieved = hensel_lift(F, *derived, K)
        assert achieved == K
        _assert_lifted(F, gd, hd, K)
        for want, got in ((shift_iso(gp, -a), gd), (shift_iso(hp, -a), hd)):
            scale = max(1, want.max_abs())
            assert (want - got).max_abs() <= tol * scale


@pytest.mark.parametrize("m", [1, 2])
def test_conj_series_cubic_lift(m):
    # C[[x, rho]]: x c = conj(c) x, so the slice product conjugates H_b
    # for odd a
    CR = ConjSeriesRing()
    zeros = ["1 + i*x - x^2", "2 - x + 3*i*x^3", "3*i + 2*x^2"]
    f = SkewPoly.one(CR)
    for z in zeros:
        f = f * parse_poly(f"t - ({z})", CR)
    res = [(mp.mpc(1), 1), (mp.mpc(2), 1), (mp.mpc(0, 3), 1)]
    g, h = (SkewPoly(CR, [CR.from_scalar(c) for c in ResiduePoly.from_roots(rs).coeffs])
            for rs in (res[:m], res[m:]))
    gh, hh, achieved = hensel_lift(f, g, h, 10)
    assert achieved == 10
    _assert_lifted(f, gh, hh, 10)
    assert (f - gh * hh).truncate(10).max_abs() < mp.mpf(2) ** -100


def test_lift_with_complex_alpha():
    # diagnostic mode: the slice twist factors alpha^(ib) are complex
    R = puiseux_ring(Alpha(mp.mpc(0, 1), allow_complex=True))
    f = parse_poly("t^2 - (3+x)*t + (2+x^2)", R)
    gh, hh, achieved = hensel_lift(f, parse_poly("t - 1", R), parse_poly("t - 2", R), 8)
    assert achieved == 8
    assert (f - gh * hh).truncate(8).max_abs() < mp.mpf(2) ** -100


def test_residue_defect_between_the_zero_test_and_dust_is_a_skew_error():
    # res f - res g res h = 2^-40 lies in [zero_eps(), dust_tol()) at 128
    # bits: no usage error, but the order-0 invariant fails
    assert scalar.zero_eps() <= mp.mpf(2) ** -40 < scalar.dust_tol()
    R = puiseux_ring(2)
    f = SkewPoly(R, [PS.constant(3 + mp.mpf(2) ** -40), PS.constant(-4), PS.one()])
    with pytest.raises(SkewError, match="order 0"):
        hensel_lift(f, parse_poly("t - 1", R), parse_poly("t - 3", R), 4)
