from fractions import Fraction

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp, from_rational, round_nearest, to_rational

from skewpuiseux import (Alpha, ConjSeriesRing, GaussianRational, PuiseuxSeries, ResiduePoly,
                         SkewPoly, TMap, bits, ext_gcd, hensel_lift, parse_poly,
                         puiseux_ring, shift_iso, twist_precheck, twist_residue)
from skewpuiseux import hensel as hensel_mod
from skewpuiseux import scalar
from skewpuiseux.errors import (PrecisionExhausted, SkewError, TwistCoprimeFailure,
                                UsageError)
from skewpuiseux.hensel import _divmod_monic, _fixed, _rounded, _solve_step
from skewpuiseux.scalar import INF, _fixed_add, _fixed_twist, carry_row as _to_prec

import hensel_reference as reference
from conftest import rand_coeff, rand_series, rng
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


def test_lift_inputs_need_integral_finite_coefficients():
    R = puiseux_ring(2)
    g = parse_poly("t - 1", R)
    with pytest.raises(UsageError, match="integral coefficients"):
        hensel_lift(parse_poly("t^2 - (2+x^-1)*t + 1", R), g, g, 4)
    f = parse_poly("t^2 - 2*t + 1", R)
    for bad in (mp.inf, mp.nan):
        with pytest.raises(UsageError, match="finite coefficients"):
            h = SkewPoly(R, [PS(1, {0: bad}), PS.one()])
            hensel_lift(f, g, h, 4)


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


def _step_cases(prec):
    """The step cases, (m, deg h, res g, [(n, kn, fn), ...]), for alpha in
    {2, 3/2, 1/2}, m = deg g in {1, 2, 3}, deg h in {1, 2} and n <= 40.
    kn = phi^n(res h) spreads its coefficients over alpha^(n deg h); past
    P/8 bits of spread both routes lose accuracy in the Euclid on a
    tiny-led kn, so n stops there."""
    rnd = rng(prec + 11)
    for alpha in (Fraction(2), Fraction(3, 2), Fraction(1, 2)):
        for m in (1, 2, 3):
            for dh in (1, 2):
                tm = TMap(alpha)
                gres = ResiduePoly.from_roots([(rand_coeff(rnd), 1) for _ in range(m)])
                hres = ResiduePoly.from_roots([(rand_coeff(rnd), 1) for _ in range(dh)])
                steps = []
                for n in range(1, 41):
                    if n * dh * abs(mp.log(alpha.numerator / alpha.denominator, 2)) > prec / 8:
                        break
                    steps.append((n, twist_residue(hres, n, tm),
                                  ResiduePoly([rand_coeff(rnd) for _ in range(m + dh)])))
                yield m, dh, gres, steps


def _check_step(n, gres, kn, fn, inverses, tol):
    """p kn + res(g) q = fn to tol, and p, q as the Bezout route gives them."""
    m, dh = gres.degree, kn.degree
    p, q, b = step(n, gres, kn, fn, inverses)
    assert p.degree < m and q.degree < dh
    assert (b * kn).divmod(gres)[1].degree == 0
    scale = max(1, fn.max_abs(), p.max_abs() * kn.max_abs(), q.max_abs() * gres.max_abs())
    assert (p * kn + gres * q - fn).max_abs() <= tol * scale
    p_ref, q_ref = bezout_step(gres, kn, fn, m + dh)
    assert (p - p_ref).max_abs() <= tol * max(1, p.max_abs())
    assert (q - q_ref).max_abs() <= tol * max(1, q.max_abs())


@pytest.mark.parametrize("prec", [128, 256])
def test_step_in_quotient_algebra_matches_bezout_route(prec):
    """p kn + res(g) q = fn to 2^-(P-16), and p, q as the Bezout route gives
    them, over the step cases (_step_cases), through Euclid's inverse."""
    with bits(prec):
        tol = mp.mpf(2) ** -(prec - 16)
        largest_n = 0
        for m, dh, gres, steps in _step_cases(prec):
            inverses = {}
            for n, kn, fn in steps:
                _check_step(n, gres, kn, fn, inverses, tol)
                largest_n = max(largest_n, n)
            assert len(inverses) == len(steps)  # one inverse per distinct kn
        assert largest_n == {128: 27, 256: 40}[prec]  # alpha 3/2, deg h 1


@pytest.mark.parametrize("prec", [128, 256])
def test_twisted_step_at_a_linear_residue_matches_bezout_route(prec):
    # the m = 1 step cases through a twisted lift's route: no memo, and b
    # the reciprocal of the constant kn mod res g
    with bits(prec):
        tol = mp.mpf(2) ** -(prec - 16)
        steps = [(gres, s) for m, _, gres, s in _step_cases(prec) if m == 1]
        assert sum(len(s) for _, s in steps) == {128: 88, 256: 163}[prec]
        for gres, s in steps:
            for n, kn, fn in s:
                _check_step(n, gres, kn, fn, None, tol)


@pytest.mark.parametrize("prec", [128, 160, 256, 320])
def test_reciprocal_is_the_euclid_newton_inverse_bit_for_bit(prec):
    """The reciprocal of a constant r = (a + ic) 2^e is the b that ext_gcd
    and its Newton step carry, bit for bit: parts of equal and of unequal
    sizes, a zero real or imaginary part, and e from -400 to 100."""
    rnd = rng(prec + 3)
    with bits(prec):
        gres = ResiduePoly([mp.mpc("0.375", "-1.25"), 1], trim=False)
        g = _fixed(gres.coeffs[:-1])
        for i in range(400):
            la, lc = rnd.randint(1, prec + 64), rnd.randint(1, prec + 64)
            if i % 4 == 0:
                la = lc  # parts of one size
            a, c = (rnd.getrandbits(k) * rnd.choice((1, -1)) or 1 for k in (la, lc))
            if i % 10 == 1:
                a = 0
            elif i % 10 == 2:
                c = 0
            r = ([a], [c], rnd.randint(-400, 100))
            b = hensel_mod._reciprocal(r)
            assert b == hensel_mod._inverse(1, gres, g, r)
            # each part the exact one, rounded to nearest GUARD_BITS above P
            norm, e = a * a + c * c, r[2]
            for part, num in zip(b[:2], (a, -c)):
                want = from_rational(num << max(0, -e), norm << max(0, e),
                                     prec + scalar.GUARD_BITS, round_nearest)
                assert from_man_exp(part[0], b[2]) == want


def test_step_raises_on_a_shared_twisted_root():
    # res(h) has the root T^3(c) for a root c of res(g), so phi^3(res h)
    # vanishes at c: the reduced kn collapses and the gcd is the witness
    tm = TMap(2)
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


def test_twisted_step_raises_on_a_shared_twisted_root_with_euclids_witness():
    # at a linear res g the reciprocal route finds the collapsed kn mod res g
    # and reports the witness Euclid gives
    tm = TMap(2)
    c = mp.mpc("0.75", "-1.25")
    gres = ResiduePoly.from_roots([(c, 1)])
    hres = ResiduePoly.from_roots([(tm.apply(c, 3), 1), (mp.mpc(2, 3), 1)])
    kn, fn = twist_residue(hres, 3, tm), ResiduePoly([1, 2, 3])
    failures = []
    for inverses in ({}, None):
        with pytest.raises(TwistCoprimeFailure) as exc:
            step(3, gres, kn, fn, inverses)
        failures.append(exc.value)
    euclid, reciprocal = failures
    assert euclid.n == reciprocal.n == 3
    assert [w._mpc_ for w in reciprocal.witness.coeffs] == [
        w._mpc_ for w in euclid.witness.coeffs]
    step(2, gres, twist_residue(hres, 2, tm), fn, None)


@pytest.mark.parametrize("seed", range(4))
def test_monic_division_is_exact(seed, monkeypatch):
    """quo (t^m + g) + rem == a in integers, deg rem < m, for monic divisors
    of degree 1..3, real and complex, whose coefficients spread over 2^-90
    .. 2^90, and a of degree <= 6; at m = 1 the synthetic division gives
    the same values, with and without a collapse tolerance (_divmod routed
    to each)."""
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
        prod = hensel_mod._minus_product(quo, monic) if quo[0] else None
        minus_rem = ([-v for v in rem[0]], [-v for v in rem[1]], rem[2])
        back = _fixed_add(_fixed_add(a, prod), minus_rem)
        assert not any(back[0]) and not any(back[1])
        for tol in (None, scalar.zero_eps(), mp.mpf(2) ** 200) if m == 1 else ():
            got = hensel_mod._divmod(a, g, tol)
            with monkeypatch.context() as patch:
                patch.setattr(hensel_mod, "_divmod_linear", _divmod_monic)
                want = hensel_mod._divmod(a, g, tol)
            assert [_row_values(x) for x in got] == [_row_values(x) for x in want]


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
    # alpha 1 meets one k_n: one memoized Euclid call per lift.  At alpha 2
    # res g is linear: one reciprocal per step, no ext_gcd call and no memo
    calls, memos = [], []
    for mod, name in ((hensel_mod.residue_mod, "ext_gcd"), (hensel_mod, "_reciprocal")):
        def counting(*args, _real=getattr(mod, name), _name=name, **kw):
            calls.append(_name)
            return _real(*args, **kw)

        monkeypatch.setattr(mod, name, counting)
    solve = hensel_mod._solve_step
    monkeypatch.setattr(hensel_mod, "_solve_step",
                        lambda *args: memos.append(args[5]) or solve(*args))
    for alpha in (1, 2):
        R = puiseux_ring(alpha)
        f = parse_poly("t^2 - (4+x+x^3)*t + (3+2*x)", R)
        states = []
        del calls[:], memos[:]
        hensel_lift(f, parse_poly("t - 1", R), parse_poly("t - 3", R), 12,
                    on_state=states.append)
        assert len(states) > 1
        if alpha == 1:
            assert calls == ["ext_gcd"]
            assert len(memos[0]) == 1 and all(m is memos[0] for m in memos)
        else:
            assert calls == ["_reciprocal"] * len(states)
            assert memos == [None] * len(states)


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


def test_derived_lift_shifts_the_given_roots():
    """hensel_lift lifts in s = t + a, where res g and res h have the roots
    c + a0: its twist check runs in the caller's ring, which shifts the
    (root, multiplicity) lists a caller passes as ``roots`` to s, so it
    reads the same roots it would find itself, for a coprime pair and for
    a pair with T(c + a0) = c' + a0."""
    a = PS(1, {0: mp.mpc("0.5", "0.25"), 1: 1})
    R = puiseux_ring(2).with_a(a)
    a0 = a.terms[0]

    def linear(c):
        return SkewPoly.t_minus(R, PS.constant(c))

    rnd = rng(53)
    zeros = [PS(1, {0: c, 1: rand_coeff(rnd)}) for c in (mp.mpc(1, 1), mp.mpc(-2, 1))]
    F = SkewPoly.t_minus(R, zeros[0]) * SkewPoly.t_minus(R, zeros[1])
    g, h = linear(zeros[0].terms[0]), linear(zeros[1].terms[0])
    roots = ([(zeros[0].terms[0], 1)], [(zeros[1].terms[0], 1)])
    assert hensel_lift(F, g, h, 8, roots=roots) == hensel_lift(F, g, h, 8)
    # in s the residue map is T(w) = w / 2, so res h = s - (c + a0)/2 meets it at n = 1
    c = mp.mpc("0.75", "-1.25")
    cp = (c + a0) / 2 - a0
    g, h = linear(c), linear(cp)
    for given in (None, ([(c, 1)], [(cp, 1)])):
        with pytest.raises(TwistCoprimeFailure) as exc:
            hensel_lift(g * h, g, h, 4, roots=given)
        assert exc.value.n == 1
        # the witness t - c is in the caller's t, not in s
        w = exc.value.witness
        assert w.degree == 1 and abs(w.coeff(0) + c) < mp.mpf(2) ** -100


def test_derived_twist_failure_reads_alike_in_precheck_and_lift():
    # a = 1/2 + x: in s = t + a the roots 3/2 and 1/2 of res g and res h
    # move to 2 and 1 = T(2), so both checks fail at n = 1 with the witness
    # t - 3/2 in the caller's t
    R = puiseux_ring(2).with_a(PS(1, {0: Fraction(1, 2), 1: 1}))
    g, h = parse_poly("t - 3/2", R), parse_poly("t - 1/2", R)
    for check in (lambda: twist_precheck(g, h), lambda: hensel_lift(g * h, g, h, 6)):
        with pytest.raises(TwistCoprimeFailure) as exc:
            check()
        assert exc.value.n == 1
        assert str(exc.value.witness) == "t - 1.5"


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
    with pytest.raises(PrecisionExhausted, match="order 0"):
        hensel_lift(f, parse_poly("t - 1", R), parse_poly("t - 3", R), 4)


def _lift_cubic_inputs(seed: int, n: int):
    """The cubics of the benchmark's lift_cubic workload: three random
    linear factors at alpha 2 and 3/2 in turn, zeros of three terms of
    exponent in [-1, 2] with coefficients of modulus at least 1/4."""
    import random
    rnd = random.Random(seed)

    def coeff():
        while True:
            c = mp.mpc(rnd.uniform(-2, 2), rnd.uniform(-2, 2))
            if abs(c) >= 0.25:
                return c

    out = []
    for i in range(n):
        R = puiseux_ring((Fraction(2), Fraction(3, 2))[i % 2])
        zeros = [PS(1, {k: coeff() for k in rnd.sample(range(-1, 3), 3)}) for _ in range(3)]
        f = SkewPoly.one(R)
        for z in zeros:
            f = f * SkewPoly.t_minus(R, z)
        out.append(f)
    return out


def test_lift_reads_its_residues_once(monkeypatch):
    # hensel_lift hands its own res g and res h to the twist check, which
    # reduced both again: 270 residue reads on these 24 cases, 5 per lift
    from skewpuiseux import FactorConfig, factorizer, newton_puiseux_factor
    calls = {"residue": 0, "lift": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(SkewPoly, "reduce_residue", counting("residue", SkewPoly.reduce_residue))
    monkeypatch.setattr(factorizer, "hensel_lift", counting("lift", factorizer.hensel_lift))
    with bits(160):
        for f in _lift_cubic_inputs(7, 24):
            newton_puiseux_factor(f, FactorConfig(target_order=15, bits=160))
    assert calls == {"residue": 162, "lift": 54}


def _row_values(row):
    """An exact row's entries as exact complex values (re, im) * 2^e."""
    if row is None:
        return None
    scale = Fraction(2) ** row[2]
    return [(u * scale, v * scale) for u, v in zip(row[0], row[1])]


def test_slices_and_factors_pass_through_the_kernel():
    # a lift_cubic input is a product, so its coefficients hold the kernel's
    # exact form: the slices read it as the same series built from terms
    # read, and the factors are written rounded once and zero-tested, as
    # from_fixed_point and a normalized series would leave them
    for f in _lift_cubic_inputs(11, 4):
        with bits(160):
            copy = SkewPoly(f.ring, [PS(c.L, dict(c.terms), c.trunc) for c in f.coeffs])
            got = hensel_mod._slices(f.coeffs, 6)
            want = hensel_mod._slices(copy.coeffs, 6)
            assert [_row_values(r) for r in got] == [_row_values(r) for r in want]
            assert any(r is not None for r in got)
    # an exact rational value is read rounded to nearest, as mp_operand reads it
    R = puiseux_ring(2)
    f = SkewPoly(R, [PS(1, {0: Fraction(3, 2), 2: Fraction(1, 7)}),
                     PS(1, {0: -4, 1: GaussianRational(Fraction(1, 3), -1)}), PS.one()])
    near = [PS(1, {k: scalar.mp_operand(v) for k, v in c.terms.items()}) for c in f.coeffs]
    got, want = hensel_mod._slices(f.coeffs, 4), hensel_mod._slices(near, 4)
    assert [_row_values(r) for r in got] == [_row_values(r) for r in want]
    assert _row_values(got[2]) == [(Fraction(*to_rational(scalar.to_mpf(Fraction(1, 7))._mpf_)),
                                    0)]
    rnd = rng(12)
    for prec in (128, 160):
        with bits(prec):
            z = scalar.pow2_exp(scalar.zero_eps())
            for _ in range(30):
                rows = [None if rnd.random() < 0.2 else
                        ([rnd.choice([0, rnd.getrandbits(prec + 20)]) for _ in range(3)],
                         [rnd.getrandbits(prec + 20) * rnd.choice((-1, 1)) for _ in range(3)],
                         rnd.randint(z - 2 * prec - 22, -prec - 20))
                        for _ in range(6)]
                L = rnd.choice([1, 2])
                out = hensel_mod._poly(puiseux_ring(2, L), rows, 3, 5)
                for i, c in enumerate(out.coeffs):
                    want = PS(L, {k: scalar.from_fixed_point(r[0][i], r[1][i], r[2])
                                  for k, r in enumerate(rows) if r is not None}, 5)
                    assert c.trunc == 5 and c.ord_k() == want.ord_k()
                    assert {k: v._mpc_ for k, v in c.terms.items()} == {
                        k: v._mpc_ for k, v in want.terms.items()}


def test_twist_precheck_passes_a_constant_residue():
    R = puiseux_ring(2)
    t1 = parse_poly("t - 1", R)
    assert twist_precheck(SkewPoly.one(R), t1) is None
    assert twist_precheck(t1, SkewPoly.one(R)) is None


def test_a_wrong_step_inverse_overflows_the_correction(monkeypatch):
    # twice the inverse leaves fn mod res g in p kn: at alpha 2 the doubled
    # reciprocal, at alpha 1 a doubled ext_gcd, whose Newton step gives 0
    ext_gcd_, reciprocal = hensel_mod.residue_mod.ext_gcd, hensel_mod._reciprocal

    def doubled(p, q, tol=None):
        g, a, b = ext_gcd_(p, q, tol)
        return g, a, b * 2

    def doubled_reciprocal(r):
        re, im, e = reciprocal(r)
        return re, im, e + 1

    monkeypatch.setattr(hensel_mod.residue_mod, "ext_gcd", doubled)
    monkeypatch.setattr(hensel_mod, "_reciprocal", doubled_reciprocal)
    f, g = _example1(2)
    R = puiseux_ring(1)
    cases = [(f, g, g), (parse_poly("t^2 - (4+x+x^3)*t + (3+2*x)", R),
                         parse_poly("t - 1", R), parse_poly("t - 3", R))]
    for f, g, h in cases:
        with pytest.raises(PrecisionExhausted, match="correction degree overflow"):
            hensel_lift(f, g, h, 6)


def test_a_wrong_correction_leaves_the_defect_order(monkeypatch):
    solve = hensel_mod._solve_step

    def doubled_q(*args):
        p, (re, im, e), b = solve(*args)
        return p, ([2 * u for u in re], [2 * v for v in im], e), b

    monkeypatch.setattr(hensel_mod, "_solve_step", doubled_q)
    f, g = _example1(2)
    with pytest.raises(PrecisionExhausted, match="did not raise the defect order at n=1"):
        hensel_lift(f, g, g, 6)


# -- one exact sum per defect slice, and evaluation at c ------------------------------


@pytest.mark.parametrize("prec", [128, 256])
def test_one_sum_per_slice_is_the_per_pair_sum_bit_for_bit(prec):
    """_minus_sum equals the per-pair sum, value and length, over random
    exact rows: m in {1, 2, 3}, deg h in {1, 2}, alpha 2, 3/2, 1/2 and 1 at
    L 1 and 2, and C[[x, rho]]'s conj twist; a third of the slices empty,
    zero entries inside rows, and row exponents that jump by 100 to 300
    bits up and down from one slice to the next."""
    rnd = rng(prec + 29)
    rings = [puiseux_ring(alpha, L) for alpha in (Fraction(2), Fraction(3, 2),
                                                  Fraction(1, 2), 1) for L in (1, 2)]
    rings.append(ConjSeriesRing())
    jumps = skipped = 0

    def row(length):
        if rnd.random() < 0.3:
            return None
        parts = [[rnd.choice([0, rnd.getrandbits(prec + 20) * rnd.choice((1, -1))])
                  for _ in range(length)] for _ in (0, 1)]
        e = -prec - 20 + rnd.choice((-300, -150, 0, 100, 250))
        return (parts[0], parts[1], e) if any(parts[0] + parts[1]) else None

    with bits(prec):
        for ring in rings:
            for m in (1, 2, 3):
                for dh in (1, 2):
                    d, K = m + dh, 10
                    twists = [ring.slice_twist(k, d + 1) for k in range(K)]
                    G = [row(m + 1) or row(m + 1)] + [row(m) for _ in range(K - 1)]
                    H = [row(dh + 1) or row(dh + 1)] + [row(dh) for _ in range(K - 1)]
                    F = [row(d) for _ in range(K)]
                    for n in range(K):
                        for acc, pairs in ((F[n], [(a, n - a) for a in range(1, n)]),
                                           (F[n], [(a, n - a) for a in range(n + 1)]),
                                           (None, [(a, n - a) for a in range(n + 1)]),
                                           (row(d), {(n, 0), (0, n)})):
                            got = hensel_mod._minus_sum(acc, G, H, pairs, twists, d)
                            want = reference.per_pair_minus(acc, G, H, pairs, twists, d)
                            assert _row_values(got) == _row_values(want)
                            live = [G[a][2] + H[b][2] for a, b in pairs if G[a] and H[b]]
                            skipped += len(live) < len(pairs)
                            jumps += any(abs(x - y) > 100 for x, y in zip(live, live[1:]))
    assert skipped > 100 and jumps > 100


def _exact_factors(lift):
    """The factors of a hensel_lift result, every coefficient bit for bit."""
    gh, hh, k = lift
    return k, [(c.trunc, {e: getattr(v, "_mpc_", v) for e, v in c.terms.items()})
               for p in (gh, hh) for c in p.coeffs]


def _exact_poly(p):
    return [(c.trunc, {e: getattr(v, "_mpc_", v) for e, v in c.terms.items()}) for c in p.coeffs]


def _lift_outcome(lift, f, g, h, k, watch):
    """A lift's factors and, when watched, its states, every coefficient bit
    for bit; or its error's type, message, n and witness."""
    states = []
    try:
        out = lift(f, g, h, k, on_state=states.append if watch else None)
    except SkewError as e:
        w = getattr(e, "witness", None)
        return type(e), str(e), getattr(e, "n", None), w and [c._mpc_ for c in w.coeffs]
    return _exact_factors(out), [(st.n, *map(_exact_poly, (st.g_cur, st.h_cur, st.defect)))
                                 for st in states]


def _reference_cases(rnd):
    """(f, g, h, target_k) over m in {1, 2, 3}, alpha 2, 3/2, 1/2 and 1 at L
    1 and 2, a derived ring (a != 0) and C[[x, rho]]: f a product of monic
    factors with higher slices plus a tail, and g, h its residue factors
    or those factors cut below x^2.  At alpha 1 every other pair of
    factors is exact (f = g h), where the corrections of g vanish."""
    rings = [puiseux_ring(alpha, L) for alpha in (Fraction(2), Fraction(3, 2), Fraction(1, 2), 1)
             for L in (1, 2)]
    rings += [puiseux_ring(Fraction(3, 2)).with_a(PS(1, {0: mp.mpc("0.25", "0.5"), 1: 1})),
              ConjSeriesRing()]
    for ring in rings:
        L = getattr(ring, "L", 1)
        for m in (1, 2, 3):
            dh = rnd.randint(1, 2)

            def factor(deg):
                res = ResiduePoly.from_roots([(rand_coeff(rnd), 1) for _ in range(deg)]).coeffs
                return SkewPoly(ring, [ring.from_scalar(c) + rand_series(rnd, L, 1, 3, 2)
                                       for c in res[:-1]] + [ring.one()])

            gt, ht = factor(m), factor(dh)
            f = gt * ht
            if not (ring == puiseux_ring(1, L) and m % 2):
                f = f + SkewPoly(ring, [rand_series(rnd, L, 1, 4, 2) for _ in range(m + dh)])
            cut = [SkewPoly(ring, [PS(L, {e: v for e, v in c.terms.items() if e < 2 * L})
                                   for c in p.coeffs]) for p in (gt, ht)]
            res = [SkewPoly(ring, [ring.from_scalar(c) for c in p.reduce_residue().coeffs])
                   for p in (gt, ht)]
            for g, h in (res, cut):
                yield f, g, h, 8 * L


@pytest.mark.parametrize("prec", [128, 192])
def test_lift_is_the_per_pair_reference_bit_for_bit(prec):
    """hensel_lift and the lift it replaced (hensel_reference), which sums
    every defect slice pair by pair and solves each step by division, give
    the same factors, states and errors, bit for bit, with and without
    on_state, over the reference cases (_reference_cases) and inputs that
    fail: a twist that meets at n = 1, a truncated f and a residue
    mismatch."""
    rnd = rng(prec + 41)
    with bits(prec):
        cases = list(_reference_cases(rnd))
        R1, R2 = puiseux_ring(1), puiseux_ring(2)
        f, g = _example1(1)
        cases += [(f, g, g, 8),
                  (parse_poly("t^2 - (2+x)*t + (1+2*x+O(x^4))", R2), parse_poly("t - 1", R2),
                   parse_poly("t - 1", R2), 10),
                  (parse_poly("t^2 - 2*t + 1", R2), parse_poly("t - 1", R2),
                   parse_poly("t - 3", R2), 4),
                  (parse_poly("t^2 + (1+x)", ConjSeriesRing()), parse_poly("t + i", ConjSeriesRing()),
                   parse_poly("t - i", ConjSeriesRing()), 8),
                  (parse_poly("t^2 - (4+x+x^3)*t + (3+2*x)", R1), parse_poly("t - 1", R1),
                   parse_poly("t - 3", R1), 12)]
        kinds = set()
        for f, g, h, k in cases:
            for watch in (False, True):
                ours = _lift_outcome(hensel_lift, f, g, h, k, watch)
                assert ours == _lift_outcome(reference.hensel_lift, f, g, h, k, watch)
                kinds.add(ours[0] if isinstance(ours[0], type) else "lifted")
        assert {"lifted", TwistCoprimeFailure, PrecisionExhausted, UsageError} <= kinds


def test_a_wrong_inverse_errs_as_the_reference_does(monkeypatch):
    # a doubled reciprocal (alpha 2) and a doubled Euclid inverse, whose
    # Newton step cancels to b = None (alpha 1), leave f_n mod res g in the
    # step: both lifts stop with the same correction overflow
    ext_gcd_, reciprocal = hensel_mod.residue_mod.ext_gcd, hensel_mod._reciprocal

    def doubled(p, q, tol=None):
        g, a, b = ext_gcd_(p, q, tol)
        return g, a, b * 2

    def doubled_reciprocal(r):
        re, im, e = reciprocal(r)
        return re, im, e + 1

    monkeypatch.setattr(hensel_mod.residue_mod, "ext_gcd", doubled)
    for mod in (hensel_mod, reference):
        monkeypatch.setattr(mod, "_reciprocal", doubled_reciprocal)
    for alpha in (2, 1):
        R = puiseux_ring(alpha)
        f = parse_poly("t^2 - (4+x+x^3)*t + (3+2*x)", R)
        ours = _lift_outcome(hensel_lift, f, parse_poly("t - 1", R), parse_poly("t - 3", R), 6,
                             False)
        assert ours[0] is PrecisionExhausted and "correction degree overflow (" in ours[1]
        assert ours == _lift_outcome(reference.hensel_lift, f, parse_poly("t - 1", R),
                                     parse_poly("t - 3", R), 6, False)


def test_a_lift_reads_alike_with_and_without_on_state():
    # on_state forms every later defect slice for its snapshot; the lift
    # itself must not see that
    R, R2 = puiseux_ring(2), puiseux_ring(Fraction(3, 2), 2)
    cases = [(parse_poly("t^2 - (4+x+x^2-x^3)*t + (3+2*x)", R), "t - 1", "t - 3", R, 12),
             (parse_poly("t^2 - (4+x^(1/2)+x^2)*t + (3+2*x^(3/2))", R2), "t - 1", "t - 3", R2, 10),
             (parse_poly("t^2 - (3+x+2*x^2)*t + (2+i*x)", ConjSeriesRing()), "t - 1", "t - 2",
              ConjSeriesRing(), 8)]
    for f, g, h, ring, k in cases:
        g, h = parse_poly(g, ring), parse_poly(h, ring)
        states = []
        watched = hensel_lift(f, g, h, k, on_state=states.append)
        assert len(states) > 1
        assert _exact_factors(watched) == _exact_factors(hensel_lift(f, g, h, k))


def _routes(monkeypatch, n, gres, g, kn, fn, b, scale):
    """A step at a linear res g through the one pass (_solve_step) and
    through the division of the reference (hensel_reference.solve_step)
    by _divmod_monic: each route's exact (p, q, b), or its error's type,
    message, n and witness.  b is the memoized inverse of kn, "none" for no
    memo (a twisted step) and "empty" for an empty one; each route holds
    it in its own memo form."""
    out, evaluations = [], []
    linear = hensel_mod._divmod_linear

    def counting(*args):
        evaluations.append(1)
        return linear(*args)

    key = (tuple(kn[0]), tuple(kn[1]), kn[2])
    for solve, memo in ((_solve_step, {key: (b, linear(kn, g))}), (reference.solve_step, {key: b})):
        monkeypatch.setattr(hensel_mod, "_divmod_linear", counting)
        if solve is reference.solve_step:
            monkeypatch.setattr(hensel_mod, "_divmod_linear", _divmod_monic)
        memo = {"none": None, "empty": {}}.get(b, memo) if isinstance(b, str) else memo
        try:
            out.append(solve(n, gres, g, kn, fn, memo, scale))
        except SkewError as e:
            w = getattr(e, "witness", None)
            out.append((type(e), str(e), getattr(e, "n", None),
                        w and [c._mpc_ for c in w.coeffs]))
        monkeypatch.undo()
        if solve is _solve_step:
            assert evaluations
            del evaluations[:]
    assert not evaluations  # the reference divides by _divmod_monic alone
    return out


@pytest.mark.parametrize("prec", [128, 256])
def test_a_linear_residue_step_evaluates_at_c_bit_for_bit(prec, monkeypatch):
    """At deg res g = 1 the one pass gives p, q and b as the reference's
    division by _divmod_monic does, bit for bit, on both routes of b: the
    m = 1 step cases, and exact rows on both sides of each collapse and of
    the remainder check."""
    with bits(prec):
        count = 0
        for m, _, gres, steps in _step_cases(prec):
            if m == 1:
                g = _fixed(gres.coeffs[:-1])
                for n, kn, fn in steps:
                    for memo in ("none", "empty"):
                        ours, theirs = _routes(monkeypatch, n, gres, g, _fixed(kn.coeffs),
                                               _fixed(fn.coeffs), memo, INF)
                        assert ours == theirs
                        count += 1
        assert count == {128: 176, 256: 326}[prec]
        # res g = t - c, c = (3 - 5i)/8, and rows at exponent E
        gres = ResiduePoly([mp.mpc("-0.375", "0.625"), 1], trim=False)
        g = ([-3], [5], -3)
        z = scalar.pow2_exp(scalar.zero_eps())
        fl = scalar.pow2_exp(scalar.floor_tol(24))
        dust = scalar.pow2_exp(scalar.dust_tol())
        E = fl - 8

        def at_c_is(j):
            """t - c + 2^j, whose value at c is 2^j."""
            return [(1 << (j - E)) - (3 << (-3 - E)), 1 << -E], [5 << (-3 - E), 0], E

        one = at_c_is(0)
        outcomes = {}
        # k_n(c) = 2^j collapses below zero_eps() (max(1, |k_n|, |g|) = 1)
        for j in (z - 1, z, z + 1):
            for memo in ("none", "empty"):
                ours, theirs = _routes(monkeypatch, 3, gres, g, at_c_is(j), one, memo, INF)
                assert ours == theirs
                outcomes[j, memo] = ours[0] is TwistCoprimeFailure
        assert outcomes == {(z - 1, "none"): True, (z - 1, "empty"): True, (z, "none"): False,
                            (z, "empty"): False, (z + 1, "none"): False, (z + 1, "empty"): False}
        # b = 1 and f_n(c) = 2^j: b f_n(c) collapses below floor_tol(24), p = None
        for j in (fl - 1, fl, fl + 1):
            for memo in ("none", "empty"):
                ours, theirs = _routes(monkeypatch, 2, gres, g, one, at_c_is(j), memo, INF)
                assert ours == theirs
                assert (ours[0] is None) == (j == fl - 1) and ours[2] == ([1], [0], 0)
        # a memoized b = 1 + 2^j leaves f_n(c) - p k_n(c) = -2^j: the
        # correction overflows from 2^(max(0, top f_n - 1) + dust) up
        for j in (dust - 1, dust):
            ours, theirs = _routes(monkeypatch, 2, gres, g, one, one, ([1 << -j | 1], [0], j), 0)
            assert ours == theirs
            assert (ours[0] is PrecisionExhausted) == (j == dust)
            if j == dust:
                assert "correction degree overflow" in ours[1]
        # a memoized inverse whose Newton step cancelled to zero: b is None,
        # so p is too, and f_n(c) = 2^j overflows from the same bound
        for j in (dust - 1, dust):
            ours, theirs = _routes(monkeypatch, 2, gres, g, one, at_c_is(j), None, 0)
            assert ours == theirs
            assert (ours[0] is PrecisionExhausted) == (j == dust)
            if j == dust:
                assert ours[1] == ("hensel correction degree overflow "
                                   f"({scalar.max_abs([mp.ldexp(1, dust)])})")
            else:
                assert ours[0] is None and ours[2] is None


def test_a_step_makes_a_fixed_number_of_row_products(monkeypatch):
    # the defect slice D_n once took n - 1 products, one per pair; now step
    # n forms two sums (D_n, and D_n less its corrections' products) and,
    # at a linear res g, three products of a row by a constant (p, q and
    # the remainder), whatever n is
    calls, now = {}, [0]
    for name in ("_minus_product", "_minus_sum", "_axpy"):
        def counting(*args, _real=getattr(hensel_mod, name, None)):
            calls[now[0]] = calls.get(now[0], 0) + 1
            return _real(*args)

        monkeypatch.setattr(hensel_mod, name, counting, raising=False)
    solve = hensel_mod._solve_step

    def marking(n, *args):
        now[0] = n
        return solve(n, *args)

    monkeypatch.setattr(hensel_mod, "_solve_step", marking)
    R = puiseux_ring(2)
    f = parse_poly("t^2 - (4+x+x^2-x^3+2*x^5)*t + (3+2*x-x^2+x^4)", R)
    hensel_lift(f, parse_poly("t - 1", R), parse_poly("t - 3", R), 30)
    assert sorted(calls) == list(range(30))  # every step solved
    # between _solve_step(n) and _solve_step(n + 1): the step's three
    # products, its check, and the defect of step n + 1
    assert {calls[n] for n in range(1, 29)} == {5}


@pytest.mark.parametrize("prec", [128, 256])
def test_the_factor_writer_is_the_every_slice_writer_bit_for_bit(prec):
    """_poly writes each coefficient from the slices where its entry is
    nonzero, at their least exponent, and gives the factors that the writer
    reading every slice at the least exponent over all gave
    (hensel_reference.poly), held form for held form: empty slices, zero
    entries, rows longer than n, exponents far apart, entries about
    zero_eps() and target_k below, at and above the number of slices."""
    rnd = rng(prec + 29)
    with bits(prec):
        z = scalar.pow2_exp(scalar.zero_eps())

        def part(e):
            near = (1 << (z - e)) + rnd.randint(-2, 2) if z - e > 2 else 1
            return rnd.choice([0, near, rnd.getrandbits(rnd.randint(1, prec + 20))]) \
                * rnd.choice((1, -1))

        for _ in range(150):
            ring = puiseux_ring(rnd.choice([2, Fraction(3, 2)]), rnd.choice([1, 2]))
            K, n = rnd.randint(1, 10), rnd.randint(1, 4)
            rows = []
            for _ in range(K):
                e, w = rnd.randint(z - prec - 20, 20), rnd.randint(1, n + 1)
                rows.append(None if rnd.random() < 0.4 else
                            ([part(e) for _ in range(w)], [part(e) for _ in range(w)], e))
            target_k = max(0, K + rnd.choice([-2, 0, 3]))
            lead = rnd.choice([None, PuiseuxSeries.one(ring.L)])
            got = hensel_mod._poly(ring, rows, n, target_k, lead)
            want = reference.poly(ring, rows, n, target_k, lead)
            assert [(c.trunc, c._fx) for c in got.coeffs] == \
                [(c.trunc, c._fx) for c in want.coeffs]
