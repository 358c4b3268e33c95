from fractions import Fraction

import pytest
from mpmath import mp

from skewpuiseux import (Alpha, FactorConfig, Factorization, PuiseuxSeries,
                         SkewPoly, factor_step, newton_puiseux_factor,
                         parse_poly, puiseux_ring, sigma_zero,
                         sigma_zero_quadratic, verify_factorization)
from mpmath.libmp import from_man_exp

from skewpuiseux.errors import Obstruction, UsageError
from skewpuiseux.factorizer import _Engine
from skewpuiseux.residue import TMap
from skewpuiseux.scalar import INF

from conftest import rand_series, rng
from props import check_end_to_end, check_factors_to_order, end_to_end_input

PS = PuiseuxSeries


def test_roots_run_once_per_prop_split_lift(monkeypatch):
    # the orbit split hands its residue roots to the lift's twist check,
    # and the t-split knows its roots (all 0), so neither searches again
    from skewpuiseux import residue
    calls = {"roots": 0, "prop": 0, "t": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(residue, "roots", counting("roots", residue.roots))
    monkeypatch.setattr(_Engine, "prop_split", counting("prop", _Engine.prop_split))
    monkeypatch.setattr(_Engine, "t_split", counting("t", _Engine.t_split))
    cfg = FactorConfig(target_order=6)
    f = parse_poly("t^3 - (6+x)*t^2 + (11+3*x)*t - (6+2*x)", puiseux_ring(2))
    newton_puiseux_factor(f, cfg)
    assert calls == {"roots": 2, "prop": 2, "t": 0}
    calls.update(roots=0, prop=0)
    f = parse_poly("t^3 - 3*t^2 + (3+x)*t - (1+x^2)", puiseux_ring(Fraction(3, 2)))
    newton_puiseux_factor(f, cfg)
    assert calls["t"] > 0 and calls["prop"] == calls["roots"] == 0


def test_remark_final_factorization():
    R = puiseux_ring(2)
    f = parse_poly("t^2 - 2*t + 1", R)
    fac = newton_puiseux_factor(f, FactorConfig(target_order=40))
    assert len(fac.zeros) == 2
    for z in fac.zeros:
        assert abs(mp.mpc(z.terms.get(0, 0)) - 1) < mp.mpf(2) ** -100
        assert all(k == 0 for k in z.terms)
    assert fac.residual < mp.mpf(2) ** -112


def test_remark_final_unique_zero_via_oracle():
    R = puiseux_ring(2)
    f = parse_poly("t^2 - 2*t + 1", R)
    z = sigma_zero_quadratic(f, FactorConfig(target_order=40))
    assert abs(mp.mpc(z.terms.get(0, 0)) - 1) < mp.mpf(2) ** -100
    assert all(k == 0 for k in z.terms)


def test_example1_zero_expansion():
    R = puiseux_ring(2)
    f = parse_poly("t^2 - (2+x)*t + (1+2*x)", R)
    z = sigma_zero(f, FactorConfig(target_order=12))
    assert abs(mp.mpc(z.terms[0]) - 1) < mp.mpf(2) ** -96
    assert abs(mp.mpc(z.terms[1]) + 1) < mp.mpf(2) ** -96
    assert abs(mp.mpc(z.terms[2]) + 1) < mp.mpf(2) ** -96


def test_monomial_case():
    R = puiseux_ring(Fraction(3, 2))
    f = SkewPoly.t_pow(R, 2)
    fac = newton_puiseux_factor(f, FactorConfig(target_order=10))
    assert len(fac.zeros) == 2 and all(z.is_zero for z in fac.zeros)
    assert fac.residual == 0


def test_linear_input():
    R = puiseux_ring(2)
    z = PS.from_terms([(Fraction(1, 3), 1)])
    f = SkewPoly.t_minus(R.accommodate(z), z)
    assert (sigma_zero(f, FactorConfig(target_order=10)) - z).max_abs() == 0


def test_sigma_zero_quadratic_obstruction():
    Ri = puiseux_ring(Alpha(mp.mpc(0, 1), allow_complex=True))
    f = parse_poly("t^2 - (1+x^2)", Ri)
    with pytest.raises(Obstruction) as exc:
        sigma_zero_quadratic(f, FactorConfig(target_order=8))
    assert exc.value.q == 2


def test_cross_oracle_on_random_quadratics():
    rnd = rng(88)
    cfg = FactorConfig(target_order=12)
    for alpha in (Fraction(2), Fraction(1, 2), Fraction(3, 2)):
        for _ in range(8):
            R = puiseux_ring(alpha)
            # residue pinned to (t-1)^2, random integral tails
            f1 = PS.constant(-2) + rand_series(rnd, 1, 1, 4, 2)
            f0 = PS.one() + rand_series(rnd, 1, 1, 4, 2)
            f = SkewPoly(R, [f0, f1, PS.one()])
            z_drv = sigma_zero(f, cfg)
            z_orc = sigma_zero_quadratic(f, cfg)
            dev = (z_drv.truncate(12) - z_orc.truncate(12)).max_abs()
            assert dev < mp.mpf(2) ** -90, (alpha, dev)


def test_alpha_one_degenerates_to_classical():
    R = puiseux_ring(1)
    fac = newton_puiseux_factor(parse_poly("t^2 - (2+1i)", R),
                                FactorConfig(target_order=10))
    root = mp.sqrt(mp.mpc(2, 1))
    got = sorted((mp.mpc(z.terms.get(0, 0)) for z in fac.zeros),
                 key=lambda w: (mp.re(w), mp.im(w)))
    want = sorted((root, -root), key=lambda w: (mp.re(w), mp.im(w)))
    for a, b in zip(got, want):
        assert abs(a - b) < mp.mpf(2) ** -100

    fac2 = newton_puiseux_factor(parse_poly("t^2 - x", R), FactorConfig(target_order=10))
    assert fac2.ramification == 2
    vals = sorted(fac2.zeros, key=lambda z: mp.re(mp.mpc(z.terms.get(z.L, 0))))
    assert (vals[0] + PS.x_pow(Fraction(1, 2))).max_abs() < mp.mpf(2) ** -100
    assert (vals[1] - PS.x_pow(Fraction(1, 2))).max_abs() < mp.mpf(2) ** -100


def test_factor_step_orbit_split_shapes():
    # residue roots {1, 1/2, -3/2} sum to zero; at alpha = 2 the orbit of 1
    # captures 1/2 and leaves -3/2 outside: a 2 + 1 split
    R = puiseux_ring(2)
    f = SkewPoly.one(R)
    for c in (1, Fraction(1, 2), Fraction(-3, 2)):
        f = f * SkewPoly.t_minus(R, PS.constant(c))
    f = f + SkewPoly(R, [PS.x_pow(1)])  # keep it a nontrivial lift
    assert f.coeffs[2].is_zero  # shape (i): ord(f_(d-1)) > 0, min ord = 0
    kind, uh, vh = factor_step(f, FactorConfig(target_order=10), target_k=14)
    assert kind == "split"
    assert {uh.degree, vh.degree} == {1, 2}
    assert (f - uh * vh).truncate(14).max_abs() < mp.mpf(2) ** -90


def _nudge(x, ulps):
    """x moved by the given number of units in its last place."""
    sign, man, exp, _ = x._mpf_
    return mp.make_mpf(from_man_exp((-man if sign else man) + ulps, exp))


def test_candidate_order_ignores_last_bit_for_identity_twist():
    # alpha = 1: T is the identity and the branch pair +-v must come out
    # in the same order whatever the last bits of the computed roots
    engine = _Engine(Alpha(1), FactorConfig())
    tmap = TMap(Alpha(1), 2, 0)
    v = mp.mpc(1, 2) / 3
    orders = set()
    for dr in (-1, 0, 1):
        for di in (-1, 0, 1):
            plus = mp.mpc(_nudge(v.real, dr), _nudge(v.imag, di))
            minus = mp.mpc(_nudge(-v.real, -di), _nudge(-v.imag, dr))
            for rts in ([(plus, 1), (minus, 1)], [(minus, 1), (plus, 1)]):
                order = engine._candidates(rts, tmap)
                orders.add(tuple(mp.sign(c.real) for c, _ in order))
    assert orders == {(-1, 1)}


def test_factor_step_requires_shifted_input():
    R = puiseux_ring(2)
    f = parse_poly("t^2 - 2*t + 1", R)
    with pytest.raises(UsageError):
        factor_step(f, FactorConfig(), target_k=10)


def test_verify_detects_wrong_order():
    # skew products are order-sensitive: swapped factors deviate
    R = puiseux_ring(2)
    z1 = PS.from_terms([(0, 1), (1, 1)])
    z2 = PS.from_terms([(0, 3), (1, -1)])
    f = SkewPoly.t_minus(R, z1) * SkewPoly.t_minus(R, z2)
    good = verify_factorization(f, Factorization([z1, z2], None, None, None, 1))
    bad = verify_factorization(f, Factorization([z2, z1], None, None, None, 1))
    assert good["residual"] < mp.mpf(2) ** -100
    assert bad["residual"] > mp.mpf("0.1")


def test_non_monic_unit_extraction():
    R = puiseux_ring(2)
    z = PS.from_terms([(0, 1), (1, 1)])
    mono = SkewPoly.t_minus(R, z) * SkewPoly.t_minus(R, z)
    unit = PS.from_terms([(0, 2), (1, 1)])
    f = mono.lmul_base(unit)
    fac = newton_puiseux_factor(f, FactorConfig(target_order=10))
    assert fac.unit is not None
    assert (fac.unit - unit).max_abs() == 0
    assert fac.residual < mp.mpf(2) ** -90
    assert any(r.kind == "unit_extract" for r in fac.iso_trail)


def test_complex_alpha_rejected_by_factorizer():
    Ri = puiseux_ring(Alpha(mp.mpc(0, 1), allow_complex=True))
    f = parse_poly("t^2 - (1+x^2)", Ri)
    with pytest.raises(UsageError):
        newton_puiseux_factor(f, FactorConfig(target_order=8))


def test_budget_guard_emits_partial():
    # two zeros with the same constant term but different tails: one
    # classical round pins the shared prefix before the budget trips
    R = puiseux_ring(1)
    z1 = PS.from_terms([(0, 1), (1, 1)])
    z2 = PS.from_terms([(0, 1), (1, 2)])
    f = SkewPoly.t_minus(R, z1) * SkewPoly.t_minus(R, z2)
    cfg = FactorConfig(target_order=10, max_classical_iterations=0)
    fac = newton_puiseux_factor(f, cfg)
    assert fac.warnings
    for zz in fac.zeros:
        assert zz.trunc is not None
        t = zz.trunc
        assert t >= 1  # the shared constant term was recovered
        assert (zz.truncate(t) - z1.truncate(Fraction(t, zz.L) * z1.L)).max_abs() \
            < mp.mpf(2) ** -90


def test_end_to_end_small():
    assert check_end_to_end(6, seed=4321, order=12) == 6


@pytest.mark.parametrize("order", [25, 30])
def test_end_to_end_case_3_lifts_at_high_order(order):
    # seed 1212, case #3 (alpha 2, L 1): phi^30 scales the t^2 coefficient
    # of a twisted residue by 2^-60, which the leading-dust trim of the
    # twist used to drop, so the step at n = 30 did not raise the order
    rnd = rng(1212)
    for _ in range(4):
        f = end_to_end_input(rnd)
    assert f.ring.alpha.exact == 2 and f.ring.L == 1
    check_factors_to_order(f, order)
