"""Randomized property checks shared by the module suites and the
acceptance gate (which runs them at full case counts)."""

from fractions import Fraction
from math import gcd

from mpmath import mp

from skewpuiseux import (Alpha, ConjSeriesRing, PuiseuxRing, PuiseuxSeries,
                         SkewPoly, hensel_lift, normalize_scaled, puiseux_ring,
                         scaling_exponent, shift_iso, trace_solve,
                         twist_precheck)
from skewpuiseux.errors import TwistCoprimeFailure, UsageError
from skewpuiseux.skewpoly import _horner_image

from conftest import rand_alpha, rand_coeff, rand_poly, rand_series, rng

LAW_TOL_BITS = 128 - 16  # 2^(-P+16) coefficient error budget


def _law_tol():
    return mp.mpf(2) ** -LAW_TOL_BITS


def trace_apply(b: PuiseuxSeries, d: int, alpha) -> PuiseuxSeries:
    """b + sigma(b) + ... + sigma^(d-1)(b): the reference for trace_solve."""
    if not isinstance(alpha, Alpha):
        alpha = Alpha(alpha)
    acc = b
    for j in range(1, d):
        acc = acc + b.sigma_pow(j, alpha)
    return acc


def evaluate_closed(f: SkewPoly, a):
    """Closed-form substitution for delta = 0, the reference for evaluate:
    f(a) = f_0 + f_1 a + f_2 a^sigma a + f_3 a^(sigma^2) a^sigma a + ..."""
    ring = f.ring.accommodate(a)
    a = ring.coerce(a)
    if f.is_zero:
        return ring.zero()
    val = f.coeffs[0]
    chain = ring.one()
    spow = a  # sigma^(i-1)(a) at iteration i
    for c in f.coeffs[1:]:
        chain = ring.mul(spow, chain)
        val = ring.add(val, ring.mul(c, chain))
        spow = ring.sigma(spow)
    return val


def uniformizer_pow(ring, j: int) -> PuiseuxSeries:
    """y^j for the uniformizer y = x^(1/L) of the ring (L = 1 in C[[x, rho]])."""
    return PuiseuxSeries(getattr(ring, "L", 1), {j: 1}, None, normalize=False)


def x_shift(f: SkewPoly, j: int) -> SkewPoly:
    """y^j * f, y the uniformizer, coefficient-wise: y^j c = phi^j(c) y^j,
    which is c in F and rho^j(c) in C[[x, rho]]."""
    ring = f.ring
    twist = isinstance(ring, ConjSeriesRing) and j % 2 == 1
    return SkewPoly(ring, [(c.conjugate() if twist else c).x_shift(j) for c in f.coeffs],
                    trim=False)


def conj_by_x(f: SkewPoly, n: int = 1) -> SkewPoly:
    """phi^n(f), phi the conjugation by the uniformizer y: phi(f) y = y f.

    In F[t, sigma, delta_a], phi fixes the coefficients and sends t to
    s t + a(s - 1), s = alpha^(-1/L); phi^n uses s^n.  In C[[x, rho]] it is
    rho on the coefficients and fixes the central t."""
    ring = f.ring
    if isinstance(ring, ConjSeriesRing):
        return SkewPoly(ring, [c if n % 2 == 0 else c.conjugate() for c in f.coeffs])
    s = ring.alpha.pow(Fraction(-n, ring.L))
    t_image = SkewPoly(ring, [ring.a.scale(s) - ring.a, ring.from_scalar(s)], trim=False)
    acc = SkewPoly.zero(ring)
    for c in reversed(f.coeffs):
        acc = acc * t_image + SkewPoly.constant(ring, c)
    return acc


def scale_iso(f: SkewPoly, r) -> SkewPoly:
    """Map sum g_i t^i to sum g_i (x^(-r) t)^i, landing in the delta_(a*x^r)
    ring, by substitute-and-expand: the reference for the closed-form
    scalings.  The ramification refines to make r representable."""
    ring = f.ring
    if not isinstance(ring, PuiseuxRing):
        raise UsageError("scale_iso needs Puiseux coefficients")
    r = Fraction(r)
    if r == 0:
        return f
    L = ring.L * (r.denominator // gcd(ring.L, r.denominator))
    xr = PuiseuxSeries.x_pow(r).at_ram(L)
    new_a = ring.a.at_ram(L) * xr if not ring.a.is_zero else PuiseuxSeries.zero(L)
    target = PuiseuxRing(ring.alpha, L, new_a)
    x_neg_r = PuiseuxSeries.x_pow(-r).at_ram(L)
    t_image = SkewPoly(target, [target.zero(), x_neg_r], trim=False)
    return _horner_image(target, [target.coerce(c) for c in f.coeffs], t_image)


def scaled_power_unit(alpha: Alpha, r, i: int):
    """The unit beta_i with (x^(-r) t)^i = beta_i x^(-ri) t^i when delta = 0.

    Certified by the expansion oracle (check_beta_law): beta_i = alpha^(-r*i*(i-1)/2).
    """
    r = Fraction(r)
    return alpha.pow(-r * Fraction(i * (i - 1), 2))


def rand_conj(rnd, hi=3, nterms=3) -> PuiseuxSeries:
    """An element of C[[x, rho]]: an L = 1 series with no negative powers."""
    ks = rnd.sample(range(hi + 1), min(nterms, hi + 1))
    return PuiseuxSeries(1, {k: rand_coeff(rnd) for k in ks})


def rand_conj_poly(ring, rnd, deg=2) -> SkewPoly:
    coeffs = [rand_conj(rnd) for _ in range(deg)]
    coeffs.append(ring.one())
    return SkewPoly(ring, coeffs)


def check_ring_laws(cases: int, seed: int = 101) -> int:
    """Associativity and distributivity of poly_mul on both instances."""
    rnd = rng(seed)
    tol = _law_tol()
    done = 0
    CR = ConjSeriesRing()
    while done < cases:
        if done % 2 == 0:
            ring = puiseux_ring(rand_alpha(rnd), 1,
                                rand_series(rnd, 1, 0, 2, 2) if rnd.random() < 0.4 else None)
            f, g, h = (rand_poly(ring, rnd, rnd.randint(1, 3)) for _ in range(3))
        else:
            f, g, h = (rand_conj_poly(CR, rnd, rnd.randint(1, 3)) for _ in range(3))
        scale = max(1, f.max_abs() * g.max_abs() * h.max_abs())
        assert ((f * g) * h).deviation(f * (g * h)) <= tol * scale
        assert (f * (g + h)).deviation(f * g + f * h) <= tol * scale
        assert ((f + g) * h).deviation(f * h + g * h) <= tol * scale
        done += 1
    return done


def check_division_identity(cases: int, seed: int = 202) -> int:
    rnd = rng(seed)
    tol = _law_tol()
    done = 0
    while done < cases:
        ring = puiseux_ring(rand_alpha(rnd), 1,
                            rand_series(rnd, 1, 0, 2, 2) if rnd.random() < 0.3 else None)
        f = rand_poly(ring, rnd, rnd.randint(1, 4))
        p = rand_poly(ring, rnd, rnd.randint(1, 2))
        q, r = f.left_divmod(p)
        assert r.degree < p.degree
        scale = max(1, f.max_abs(), q.max_abs() * p.max_abs())
        assert (q * p + r).deviation(f) <= tol * scale
        done += 1
    return done


def check_evaluate_paths(cases: int, seed: int = 303) -> int:
    """Remainder-based substitution vs the delta = 0 closed form; for
    delta != 0 the division identity at t - a is re-multiplied instead."""
    rnd = rng(seed)
    tol = _law_tol()
    done = 0
    while done < cases:
        delta_case = done % 2 == 1
        ring = puiseux_ring(rand_alpha(rnd), 1,
                            rand_series(rnd, 1, 0, 2, 2) if delta_case else None)
        f = rand_poly(ring, rnd, rnd.randint(1, 3))
        a = rand_series(rnd, 1, 0, 3, 2)
        val = f.evaluate(a)
        scale = max(1, f.max_abs() * (1 + a.max_abs()) ** max(1, f.degree))
        if not delta_case:
            assert (val - evaluate_closed(f, a)).max_abs() <= tol * scale
        q, r = f.left_divmod(SkewPoly.t_minus(ring, a))
        assert r.degree <= 0
        assert (val - r.coeff(0)).max_abs() <= tol * scale
        assert (q * SkewPoly.t_minus(ring, a) + r).deviation(f) <= tol * scale
        done += 1
    return done


def check_leibniz(cases: int, seed: int = 404) -> int:
    rnd = rng(seed)
    tol = _law_tol()
    done = 0
    while done < cases:
        ring = puiseux_ring(rand_alpha(rnd), 1, rand_series(rnd, 1, 0, 2, 2))
        f = rand_series(rnd, 1, 0, 3, 3)
        g = rand_series(rnd, 1, 0, 3, 3)
        lhs = ring.delta(f * g)
        rhs = ring.sigma(f) * ring.delta(g) + ring.delta(f) * g
        scale = max(1, f.max_abs() * g.max_abs() * (1 + ring.a.max_abs()))
        assert (lhs - rhs).max_abs() <= tol * scale
        done += 1
    return done


def check_phi_identities(cases: int, seed: int = 505) -> int:
    """phi(f)*x = x*f and x^n f = phi^n(f) x^n for n <= 4, both instances."""
    rnd = rng(seed)
    tol = _law_tol()
    done = 0
    CR = ConjSeriesRing()
    while done < cases:
        if done % 2 == 0:
            ring = puiseux_ring(rand_alpha(rnd), 1,
                                rand_series(rnd, 1, 0, 2, 2) if rnd.random() < 0.5 else None)
            f = rand_poly(ring, rnd, rnd.randint(1, 3))
        else:
            ring = CR
            f = rand_conj_poly(CR, rnd, rnd.randint(1, 3))
        x1 = SkewPoly.constant(ring, uniformizer_pow(ring, 1))
        scale = max(1, f.max_abs())
        assert (conj_by_x(f) * x1).deviation(x_shift(f, 1)) <= tol * scale
        n = 1 + done % 4
        xn = SkewPoly.constant(ring, uniformizer_pow(ring, n))
        assert (conj_by_x(f, n) * xn).deviation(x_shift(f, n)) <= 4 * tol * scale
        # phi is a ring homomorphism
        g = (rand_poly(ring, rnd, 1) if done % 2 == 0 else rand_conj_poly(CR, rnd, 1))
        lhs = conj_by_x(f * g)
        rhs = conj_by_x(f) * conj_by_x(g)
        assert lhs.deviation(rhs) <= 4 * tol * max(1, f.max_abs() * g.max_abs())
        done += 1
    return done


def check_dif_identity(cases: int, seed: int = 606) -> int:
    """Coefficient of t^(d-1) in (t-b)^d is -(b + b^sigma + ... + b^(sigma^(d-1)))."""
    rnd = rng(seed)
    tol = _law_tol()
    done = 0
    while done < cases:
        alpha = rand_alpha(rnd)
        ring = puiseux_ring(alpha, 1,
                            rand_series(rnd, 1, 0, 2, 2) if rnd.random() < 0.4 else None)
        b = rand_series(rnd, 1, 0, 3, 3)
        d = 1 + done % 5
        tb = SkewPoly.t_minus(ring, b)
        power = SkewPoly.one(ring)
        for _ in range(d):
            power = power * tb
        want = -trace_apply(b, d, ring.alpha)
        got = power.coeff(d - 1)
        scale = max(1, (1 + b.max_abs()) ** d)
        assert (got - want).max_abs() <= tol * scale
        done += 1
    return done


def check_trace_roundtrip(cases: int, seed: int = 707) -> int:
    rnd = rng(seed)
    tol = _law_tol()
    done = 0
    while done < cases:
        alpha = rand_alpha(rnd)
        L = rnd.choice([1, 2, 3])
        g = rand_series(rnd, L, -2, 4, 4)
        d = rnd.randint(1, 5)
        b = trace_solve(g, d, alpha)
        back = trace_apply(b, d, alpha)
        assert (back - g).max_abs() <= tol * max(1, g.max_abs()) * d
        done += 1
    return done


def check_iso_homomorphisms(cases: int, seed: int = 808) -> int:
    """shift_iso and scale_iso are multiplicative and invert correctly."""
    rnd = rng(seed)
    tol = _law_tol()
    done = 0
    while done < cases:
        alpha = rand_alpha(rnd)
        a = rand_series(rnd, 1, 0, 2, 2) if rnd.random() < 0.4 else None
        ring = puiseux_ring(alpha, 1, a)
        f = rand_poly(ring, rnd, rnd.randint(1, 2))
        g = rand_poly(ring, rnd, rnd.randint(1, 2))
        scale = max(1, f.max_abs() * g.max_abs())
        if done % 2 == 0:
            b = rand_series(rnd, 1, 0, 2, 2)
            sf, sg, sfg = shift_iso(f, b), shift_iso(g, b), shift_iso(f * g, b)
            bscale = (1 + b.max_abs()) ** (f.degree + g.degree)
            assert sfg.deviation(sf * sg) <= 16 * tol * scale * bscale
            back = shift_iso(sf, -b)
            assert back.deviation(f) <= 16 * tol * max(1, f.max_abs()) * bscale
            # phi(t - c) = (t - b) - c: linear factors shift by the map's b
            c = rand_series(rnd, 1, 0, 2, 2)
            lin = shift_iso(SkewPoly.t_minus(ring, c), b)
            want = SkewPoly.t_minus(lin.ring, c + b)
            assert lin.deviation(want) <= tol * max(1, c.max_abs() + b.max_abs())
        else:
            r = Fraction(rnd.choice([1, -1, 2, 3]), rnd.choice([1, 2, 3]))
            sf, sg, sfg = scale_iso(f, r), scale_iso(g, r), scale_iso(f * g, r)
            assert sfg.deviation(sf * sg) <= 16 * tol * scale * 8
            back = scale_iso(sf, -r)
            assert back.deviation(f) <= 16 * tol * max(1, f.max_abs()) * 8
        done += 1
    return done


def check_beta_law() -> int:
    """Certify (x^(-r) t)^i = beta_i x^(-ri) t^i against brute expansion for
    i <= 4; the verified closed form is beta_i = alpha^(-r i(i-1)/2)."""
    checked = 0
    mismatched_alt = 0
    for alpha_v in (Fraction(2), Fraction(3, 2)):
        alpha = Alpha(alpha_v)
        for r in (Fraction(1, 2), Fraction(1), Fraction(2, 3), Fraction(-1, 3)):
            ring = puiseux_ring(alpha_v)
            t = SkewPoly.t_pow(ring, 1)
            img = scale_iso(t, r)  # x^(-r) t in the target ring
            power = SkewPoly.one(img.ring)
            for i in range(1, 5):
                power = power * img
                beta = scaled_power_unit(alpha, r, i)
                want_coeff = PuiseuxSeries.x_pow(-r * i).scale(beta).at_ram(img.ring.L)
                want = SkewPoly(img.ring, [img.ring.zero()] * i + [want_coeff])
                assert power.deviation(want) <= mp.mpf(2) ** -100, (alpha_v, r, i)
                alt = alpha.pow(Fraction(-i * (i + 1), 2))
                from skewpuiseux.scalar import to_mpc
                if abs(to_mpc(alt) - to_mpc(beta)) > mp.mpf(2) ** -100:
                    mismatched_alt += 1
                checked += 1
    assert mismatched_alt > 0  # the i(i+1)/2 variant is not the expansion law
    return checked


def check_normalize_post(cases: int, seed: int = 909) -> int:
    """After r-scaling normalization all coefficient orders are >= 0 with
    equality for at least one index below the degree."""
    rnd = rng(seed)
    done = 0
    while done < cases:
        L = rnd.choice([1, 2])
        ring = puiseux_ring(rand_alpha(rnd), L)
        f = rand_poly(ring, rnd, rnd.randint(2, 4), L=L, lo=-2, hi=3)
        if all(c.is_zero for c in f.coeffs[:-1]):
            continue
        r = scaling_exponent(f)
        F1 = normalize_scaled(f, r)
        ords = [F1.ring.ord_k(c) for c in F1.coeffs[:-1]]
        assert all(o >= 0 for o in ords)
        assert min(ords) == 0
        assert F1.is_monic
        done += 1
    return done


def random_liftable(rnd, alpha, d):
    """A monic degree-d polynomial with a known twist-coprime residue split."""
    from skewpuiseux import ResiduePoly
    a_choice = rnd.choice([None, PuiseuxSeries.constant(1),
                           PuiseuxSeries.from_terms([(1, 1)])])
    ring = puiseux_ring(alpha, 1, a_choice)
    m = rnd.randint(1, d - 1)
    for _ in range(64):
        groots = [rand_coeff(rnd) for _ in range(m)]
        hroots = [rand_coeff(rnd) for _ in range(d - m)]
        g = SkewPoly(ring, [ring.from_scalar(c) for c in
                            ResiduePoly.from_roots([(c, 1) for c in groots]).coeffs])
        h = SkewPoly(ring, [ring.from_scalar(c) for c in
                            ResiduePoly.from_roots([(c, 1) for c in hroots]).coeffs])
        try:
            twist_precheck(g, h)
        except TwistCoprimeFailure:
            continue
        pert = [rand_series(rnd, 1, 1, 4, 2) for _ in range(d)]
        f = g * h + SkewPoly(ring, pert)
        return f, g, h
    raise AssertionError("could not draw a liftable instance")


def check_hensel_invariant(instances: int = 25, seed: int = 111, target: int = 12) -> int:
    """ord(f - g_n h_n) >= n+1 after every step; degrees and monicity are
    preserved; x^n h = phi^n(h) x^n holds along the way."""
    rnd = rng(seed)
    tol = _law_tol()
    done = 0
    while done < instances:
        alpha = rnd.choice([Fraction(2), Fraction(3, 2), Fraction(1, 2)])
        d = rnd.randint(2, 6)
        f, g, h = random_liftable(rnd, alpha, d)
        states = []
        gh, hh, achieved = hensel_lift(f, g, h, target, on_state=states.append)
        assert achieved >= target
        for st in states:
            assert st.defect.is_zero or st.defect.ord_k() >= st.n + 1
            assert st.g_cur.is_monic and st.g_cur.degree == g.degree
            assert st.h_cur.is_monic and st.h_cur.degree == h.degree
        if states:
            st = states[min(2, len(states) - 1)]
            ring = st.h_cur.ring
            xn = SkewPoly.constant(ring, uniformizer_pow(ring, st.n))
            lhs = x_shift(st.h_cur, st.n)
            rhs = conj_by_x(st.h_cur, st.n) * xn
            assert lhs.deviation(rhs) <= 64 * tol * max(1, st.h_cur.max_abs())
        done += 1
    return done


def end_to_end_input(rnd) -> SkewPoly:
    """One input of check_end_to_end: the product of three random linear
    factors, alpha 2 or 3/2, zeros with ramification L in {1, 2, 3}."""
    alpha = rnd.choice([Fraction(2), Fraction(3, 2)])
    ring = puiseux_ring(alpha)
    L = rnd.choice([1, 2, 3])
    zeros = [rand_series(rnd, L, -1, 2, 3) for _ in range(3)]
    f = SkewPoly.one(ring)
    for z in zeros:
        f = f * SkewPoly.t_minus(f.ring.accommodate(z), z)
    return f


def check_factors_to_order(f: SkewPoly, order: int, label=None):
    """f re-factors with residual below 2^-80, and its rightmost zero
    annihilates f to the target order."""
    from skewpuiseux import FactorConfig, newton_puiseux_factor
    fac = newton_puiseux_factor(f, FactorConfig(target_order=order))
    assert fac.residual < mp.mpf(2) ** -80, (label, fac.residual)
    ev = f.evaluate(fac.zeros[-1])
    ev_ord = ev.ord()
    if ev.trunc is not None:
        ev_ord = min(ev_ord, Fraction(ev.trunc, ev.L))
    assert ev_ord >= order, (label, ev_ord)


def check_end_to_end(cases: int = 50, seed: int = 1212, order: int = 15) -> int:
    """Random 3-linear-factor products re-factor with tiny residual."""
    rnd = rng(seed)
    done = 0
    while done < cases:
        check_factors_to_order(end_to_end_input(rnd), order, done)
        done += 1
    return done
