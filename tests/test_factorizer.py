import contextlib
from fractions import Fraction

import pytest
from mpmath import mp

from skewpuiseux import (Alpha, ConjSeriesRing, FactorConfig, PuiseuxSeries, SkewPoly, bits,
                         newton_puiseux_factor, parse_poly, parse_series, poly_to_str,
                         puiseux_ring, sigma_zero, sigma_zero_quadratic,
                         verify_factorization)
from skewpuiseux.cli import main as cli_main
from mpmath.libmp import from_man_exp

from skewpuiseux import factorizer
from skewpuiseux import residue as residue_mod
from skewpuiseux.errors import Obstruction, PrecisionExhausted, UsageError
from skewpuiseux.factorizer import _Engine
from skewpuiseux.residue import TMap
from skewpuiseux import scalar
from skewpuiseux.scalar import INF, to_mpc

from conftest import rand_series, rng
from props import check_end_to_end, check_factors_to_order, end_to_end_input

PS = PuiseuxSeries


@pytest.mark.parametrize("bits_", [0, 1, -5, 48])
def test_factor_config_rejects_bits_below_the_least_precision(bits_):
    with pytest.raises(UsageError, match="at least 49"):
        FactorConfig(bits=bits_)


def test_roots_run_once_per_peeled_lift(monkeypatch):
    # a split with several residue roots hands them to the lift's twist
    # check and to the child levels that do not rescale, and a one-root
    # level knows its root (-b0), so none searches again; a split reads
    # residues only, so it forms no series shift
    from skewpuiseux import hensel, residue
    calls = {"roots": 0, "peel": 0, "trace": 0, "shift": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(residue, "roots", counting("roots", residue.roots))
    monkeypatch.setattr(factorizer, "_peel", counting("peel", factorizer._peel))
    monkeypatch.setattr(factorizer, "trace_solve", counting("trace", factorizer.trace_solve))
    for mod in (factorizer, hensel):
        monkeypatch.setattr(mod, "shift_iso", counting("shift", mod.shift_iso))
    cfg = FactorConfig(target_order=6)
    f = parse_poly("t^3 - (6+x)*t^2 + (11+3*x)*t - (6+2*x)", puiseux_ring(2))
    newton_puiseux_factor(f, cfg)
    assert calls == {"roots": 1, "peel": 2, "trace": 0, "shift": 0}
    calls.update(roots=0, peel=0)
    f = parse_poly("t^3 - 3*t^2 + (3+x)*t - (1+x^2)", puiseux_ring(Fraction(3, 2)))
    newton_puiseux_factor(f, cfg)
    assert calls["peel"] > 0 and calls["roots"] == 0
    assert calls["trace"] > 0


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


def test_peel_split_shapes():
    # residue roots {1, 1/2, -3/2} sum to zero; at alpha = 2 the root 1/2
    # of least modulus is peeled off as the left factor t - 1/2, and the
    # right factor takes 1 and -3/2
    R = puiseux_ring(2)
    f = SkewPoly.one(R)
    for c in (1, Fraction(1, 2), Fraction(-3, 2)):
        f = f * SkewPoly.t_minus(R, PS.constant(c))
    f = f + SkewPoly(R, [PS.x_pow(1)])  # keep it a nontrivial lift
    assert f.coeffs[2].is_zero  # shape (i): ord(f_(d-1)) > 0, min ord = 0
    engine = _Engine(R.alpha, FactorConfig(target_order=10), f)
    sides = factorizer._peel(residue_mod.roots(f.reduce_residue()).pairs, R.tmap())
    assert [(c, e) for c, e in sides[0]] == [(mp.mpf(1) / 2, 1)]
    (uh, _), (vh, _) = engine._lift_split(f, sides, target_k=14)
    assert (uh.degree, vh.degree) == (1, 2)
    assert abs(uh.reduce_residue().coeff(0) + mp.mpf(1) / 2) < mp.mpf(2) ** -90
    assert (f - uh * vh).truncate(14).max_abs() < mp.mpf(2) ** -90


@pytest.mark.parametrize("trunc", [None, 9], ids=["exact", "truncated"])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("alpha", [2, Fraction(3, 2), Fraction(1, 2), 1])
def test_t_power_split_reads_the_left_factor_without_division(alpha, d, trunc, monkeypatch):
    # an exact (t - z)^d shifts to t^d and gives d zeros z, read off the
    # shift and not divided out of f; a truncated one lifts at alpha != 1
    # to the target, and at alpha = 1 the classical round shares the
    # truncation of the t-power among the d zeros once
    R = puiseux_ring(alpha)
    z = PS.from_terms([(0, 1), (1, 1)] if trunc is None else [(0, 1), (1, 1), (3, 2)], trunc)
    f = SkewPoly.one(R)
    for _ in range(d):
        f = f * SkewPoly.t_minus(R, z)
    cfg = FactorConfig(target_order=8)
    divisions = []
    left_divmod = SkewPoly.left_divmod

    def counted(self, p):
        divisions.append(p.degree)
        return left_divmod(self, p)

    monkeypatch.setattr(SkewPoly, "left_divmod", counted)
    with bits(cfg.bits):
        zeros = _Engine(R.alpha, cfg, f).factor_monic(f, 0)
    assert divisions == []
    monkeypatch.undo()
    fac = newton_puiseux_factor(f, cfg)
    assert [len(zs) for zs in (zeros, fac.zeros)] == [d, d]
    with bits(cfg.bits):
        tol = mp.mpf(2) ** -(cfg.bits - 24)
        for c in zeros + fac.zeros:
            assert (c - z).max_abs() <= tol
            assert (c.trunc is None) == (trunc is None)
        assert verify_factorization(f, fac.zeros, order=8)["ok"]
    assert fac.achieved_order >= (8 if trunc is None or alpha != 1 else 3)


def _nudge(x, ulps):
    """x moved by the given number of units in its last place."""
    sign, man, exp, _ = x._mpf_
    return mp.make_mpf(from_man_exp((-man if sign else man) + ulps, exp))


def test_candidate_order_ignores_last_bit_for_identity_twist():
    # alpha = 1: T is the identity, and the peel ranks the candidate roots
    # by real, then imaginary, part; of the branch pair +-v it takes the
    # same root whatever the last bits of the computed roots
    tmap = TMap(Alpha(1), 2)
    v = mp.mpc(1, 2) / 3
    chosen = set()
    for dr in (-1, 0, 1):
        for di in (-1, 0, 1):
            plus = mp.mpc(_nudge(v.real, dr), _nudge(v.imag, di))
            minus = mp.mpc(_nudge(-v.real, -di), _nudge(-v.imag, dr))
            for rts in ([(plus, 1), (minus, 1)], [(minus, 1), (plus, 1)]):
                [(c, e)], _ = factorizer._peel(rts, tmap)
                chosen.add((mp.sign(c.real), e))
    assert chosen == {(-1, 1)}


@pytest.mark.parametrize("alpha", [2, Fraction(3, 2)], ids=["2-0", "3/2-0"])
def test_candidate_order_ignores_last_bit_for_a_twist(alpha):
    # the peel ranks the candidate roots by modulus first; a pair +-v has
    # one modulus, so that key ties, and the last bits of the roots must
    # not decide which one is peeled
    tmap = TMap(Alpha(alpha), 1)
    v = mp.mpc(1, 2) / 3
    chosen = set()
    for dr in (-1, 0, 1):
        for di in (-1, 0, 1):
            plus = mp.mpc(_nudge(v.real, dr), _nudge(v.imag, di))
            minus = mp.mpc(_nudge(-v.real, -di), _nudge(-v.imag, dr))
            for rts in ([(plus, 1), (minus, 1)], [(minus, 1), (plus, 1)]):
                [(c, e)], _ = factorizer._peel(rts, tmap)
                chosen.add((mp.sign(c.imag), e))
    assert chosen == {(-1, 1)}


@pytest.mark.parametrize("L", [1, 2])
@pytest.mark.parametrize("alpha", [2, Fraction(3, 2), Fraction(1, 2), 1],
                         ids=["2", "3/2", "1/2", "1"])
def test_the_peeled_root_keeps_its_twist_margin(alpha, L):
    # the split the peel picks lifts without a search: no twist
    # alpha_eff^n c' (n >= 1) of a right root c' meets the left root c, and
    # at alpha != 1 it misses c by at least |alpha_eff - 1| |c| (module
    # docstring), over simple, double and zero roots and modulus ties
    rnd = rng(27)
    tmap = TMap(Alpha(alpha), L)
    aeff = to_mpc(tmap.alpha_eff()).real
    tol = scalar.cluster_tol()
    seen = set()
    for _ in range(150):
        pairs = [(rnd.choice([mp.mpf(1) / 2, 1, 1, 2]) * mp.expjpi(mp.mpf(rnd.randrange(8)) / 4),
                  rnd.choice([1, 1, 2])) for _ in range(rnd.randint(1, 3))]
        if rnd.random() < 0.3:
            pairs.append((mp.mpc(0), rnd.choice([1, 2])))
        rnd.shuffle(pairs)
        if len({mp.nstr(c, 10) for c, _ in pairs}) < len(pairs):
            continue  # one root drawn twice
        if sum(m for _, m in pairs) < 2 or (tmap.is_identity and len(pairs) < 2):
            continue  # no level splits these
        left, right = factorizer._peel(pairs, tmap)
        [(c, e)] = left
        m = dict(pairs)[c]
        fixed = tmap.is_identity or c == 0
        seen.add((fixed, m))
        assert e == (m if fixed else 1)
        assert sum(k for _, k in right) == sum(k for _, k in pairs) - e
        assert residue_mod.twist_coprime_affine(left, right, tmap) is None
        if tmap.is_identity:
            assert all(abs(cp - c) > tol for cp, _ in right)
        elif c == 0:
            assert aeff > 1 and all(cp != 0 for cp, _ in right)
        else:
            margin = abs(aeff - 1) * abs(c) * (1 - mp.mpf(2) ** -30)
            for cp, _ in right:
                assert all(abs(aeff ** n * cp - c) >= margin for n in range(1, 65))
    # the draws reach double roots and, at alpha > 1, the zero cluster
    assert any(m == 2 for _, m in seen) and (aeff <= 1 or (True, 2) in seen)


# ROADMAP item 13, reproducer B: four zeros at alpha 1/2, L = 1
_REPRODUCER_B = [
    "(-1.63+0.2*i)*x^(-1) + (0.2-1.28*i)*x^(0) + (1.22+0.54*i)*x^(1)",
    "(-1.94+1.02*i)*x^(-1) + (-1.67-1.93*i)*x^(1) + (-1.0-1.56*i)*x^(2)",
    "(-1.72-1.36*i)*x^(0) + (-0.91+0.85*i)*x^(1) + (0.11-1.33*i)*x^(2)",
    "(1.18-0.97*i)*x^(0) + (-0.75-0.63*i)*x^(1) + (-0.01-1.54*i)*x^(2)",
]

# inputs of tools/fuzz_factor.py (seed, number), all at alpha 1/2, L = 2
_FUZZ = {
    "4-88": [
        "(-0.8447529886527803+0.16967060400952683*i)*x^(-1) + (0.006708058852670451-0.32292465211024846*i)*x^(1/2) + (-0.04072138113252333-0.13481400395162924*i)*x^(2)",
        "(-0.1264519384744225-1.8406264590498123*i)*x^(0) + (-0.32543167572560616+0.6777249163429144*i)*x^(1/2) + (-1.511599839301907+1.9585885849378522*i)*x^(1)",
        "(0.7156534982404783-0.3296375054170033*i)*x^(-1/2) + (-1.2703256105179679+0.3740922763536463*i)*x^(1) + (-0.6375407227333953-1.5191151542826238*i)*x^(3/2)",
        "(-0.6129008187941896-0.3222753396927245*i)*x^(-1/2) + (0.7804737503661898+0.9307934956028578*i)*x^(0) + (-0.8092423456504751-0.6809452168759904*i)*x^(1/2)",
    ],
    "6-61": [
        "(0.0918071910773765+0.09624975963061973*i)*x^(-1/2) + (0.00697117944428769+0.07636462370511102*i)*x^(1) + (-0.017536859771021478-0.002911345573784039*i)*x^(3/2)",
        "(0.3327343493700927+0.8258267347816064*i)*x^(0) + (0.014709422642816938+0.05432494344367718*i)*x^(1) + (0.013110371707687607+0.04409681896346305*i)*x^(3/2)",
        "(-0.00046839474423351126+0.0042620203511099675*i)*x^(-1) + (-0.16301980522802495-1.2279436125475174*i)*x^(-1/2) + (1.1132882376612194+1.8154014329848889*i)*x^(2)",
    ],
    "6-108": [
        "(-0.5110364972276544-0.4353467105526141*i)*x^(-1) + (1.1720982864039757-0.6591571409614789*i)*x^(0) + (-1.4016805190443233+0.6678120098317035*i)*x^(3/2)",
        "(1.7226864160795512-0.32901926521031477*i)*x^(0) + (0.6651373460013907-1.039691696649148*i)*x^(1) + (-0.2614370297246511-0.7228558576025281*i)*x^(3/2)",
        "(1.0430060222363942-1.9092928315229685*i)*x^(-1) + (-0.832956884048357+0.11853729272500324*i)*x^(3/2) + (-1.4574390368680983+0.13414082161287366*i)*x^(2)",
        "(-1.4281765476943344+0.337026794911798*i)*x^(1/2) + (-0.4521794182324954+0.38102618033573377*i)*x^(3/2) + (0.4617668781941169+0.7935785335653085*i)*x^(2)",
    ],
}


def _product(alpha, L, zeros, bits_):
    """(t - z_1) ... (t - z_d) in F[t, sigma], formed at bits_."""
    with bits(bits_):
        ring = puiseux_ring(alpha, L)
        f = SkewPoly.one(ring)
        for z in zeros:
            f = f * SkewPoly.t_minus(ring, parse_series(z))
    return f


def test_reproducer_b_reaches_its_target_order():
    # the orbit search put the root of least modulus on the left at alpha
    # 1/2, where the twists of the right roots shrink toward it, and
    # stated order 14; the peel takes the root of greatest modulus
    f = _product(Fraction(1, 2), 1, _REPRODUCER_B, 128)
    assert newton_puiseux_factor(f, FactorConfig(target_order=15, bits=128)).achieved_order == 15


# reproducer A: three zeros at alpha 3, L = 2, order 15; it factors from
# 384 bits
_REPRODUCER_A = [
    "(-0.72-0.95*i)*x^(-1/2) + (0.31-0.69*i)*x^(0) + (-0.29+1.29*i)*x^(2)",
    "(0.02-0.09*i)*x^(-1) + (-1.73+1.71*i)*x^(-1/2) + (0.08-0.03*i)*x^(2)",
    "(-1.0-0.94*i)*x^(-1/2) + (-0.0+0.01*i)*x^(1/2) + (-1.55+1.29*i)*x^(2)",
]


@pytest.mark.parametrize("bits_", [128, 192])
def test_reproducer_a_is_a_precision_failure(bits_):
    # a Hensel step whose correction leaves the defect order at this
    # precision is a numerical failure, not a bare SkewError
    f = _product(3, 2, _REPRODUCER_A, bits_)
    with pytest.raises(PrecisionExhausted, match="did not raise the defect order"):
        newton_puiseux_factor(f, FactorConfig(target_order=15, bits=bits_))


@pytest.mark.parametrize("case, order", [("4-88", 15), ("6-61", 12), ("6-108", 15)])
def test_fuzz_inputs_that_raised_a_twist_failure_factor(case, order, monkeypatch):
    # each raised TwistCoprimeFailure at 128 bits under the orbit search;
    # 6-61 states order 12 after its growth retry at 388 bits, where f(z)
    # keeps dust at x^12 (CHANGES.md, ROADMAP item 6)
    precs = []
    once = factorizer._factor_once
    monkeypatch.setattr(factorizer, "_factor_once",
                        lambda f, cfg: precs.append(mp.prec) or once(f, cfg))
    f = _product(Fraction(1, 2), 2, _FUZZ[case], 128)
    fac = newton_puiseux_factor(f, FactorConfig(target_order=15, bits=128))
    assert fac.achieved_order == order
    if case == "6-61":
        assert precs == [128, 388]


def test_verify_detects_wrong_order():
    # skew products are order-sensitive: swapped factors deviate
    R = puiseux_ring(2)
    z1 = PS.from_terms([(0, 1), (1, 1)])
    z2 = PS.from_terms([(0, 3), (1, -1)])
    f = SkewPoly.t_minus(R, z1) * SkewPoly.t_minus(R, z2)
    good = verify_factorization(f, [z1, z2])
    bad = verify_factorization(f, [z2, z1])
    assert good["residual"] < mp.mpf(2) ** -100
    assert bad["residual"] > mp.mpf("0.1")
    assert good["ok"] and not bad["ok"]


def test_verify_reads_the_first_zero_as_it_is():
    # the product starts at t - z_1: a zero of 256-bit coefficients checked
    # at 128 bits is not rounded by a product 1 * (t - z_1) first, which
    # left a residual of 5.8e-19 here, above the zero test
    R = puiseux_ring(2)
    with bits(256):
        z = PS(1, {0: mp.mpf(2) ** 70 / 3, 1: mp.mpc(2, 1) / 7})
    f = SkewPoly.t_minus(R, z)
    report = verify_factorization(f, [z])
    assert report["residual"] == 0 and report["ok"]
    assert report["achieved_order"] == report["eval_ord"] == INF


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
    assert verify_factorization(f, fac.zeros, fac.unit, order=10)["ok"]


@pytest.mark.parametrize("prec", [128, 256])
def test_int_led_quadratics_factor(prec):
    # 3t^2 - 1 and 3t^2 + x t + (2x - 1): the inverse of the int lead 3 stays
    # exact, where a float 1/3 left a residual of 2^-54 at any precision
    R = puiseux_ring(2)
    for f in (SkewPoly(R, [PuiseuxSeries(1, {0: -1}), 0, PuiseuxSeries(1, {0: 3})]),
              SkewPoly(R, [PuiseuxSeries(1, {0: -1, 1: 2}), PuiseuxSeries(1, {1: 1}),
                           PuiseuxSeries(1, {0: 3})])):
        fac = newton_puiseux_factor(f, FactorConfig(bits=prec))
        assert len(fac.zeros) == 2
        assert fac.residual < mp.mpf(2) ** -(prec - 16)


def test_factorizer_usage_errors():
    R = puiseux_ring(2)
    derived = puiseux_ring(2, 1, PS.one())
    for f, message in ((SkewPoly(R, []), "cannot factor the zero polynomial"),
                       (parse_poly("t^2 - 1", ConjSeriesRing()), "over Puiseux coefficients"),
                       (parse_poly("t^2 - 1", derived), "the underived ring")):
        with pytest.raises(UsageError, match=message):
            newton_puiseux_factor(f)
    for f, message in ((parse_poly("t^2 - 1", ConjSeriesRing()), "F\\[t, sigma\\] coefficients"),
                       (parse_poly("t^2 - 1", derived), "F\\[t, sigma\\] coefficients"),
                       (parse_poly("t^3 - 1", R), "a monic quadratic"),
                       (parse_poly("2*t^2 - 1", R), "a monic quadratic"),
                       (parse_poly("t^2 - x^-1", R), "integral coefficients")):
        with pytest.raises(UsageError, match=message):
            sigma_zero_quadratic(f)


def test_complex_alpha_rejected_by_factorizer():
    Ri = puiseux_ring(Alpha(mp.mpc(0, 1), allow_complex=True))
    f = parse_poly("t^2 - (1+x^2)", Ri)
    with pytest.raises(UsageError):
        newton_puiseux_factor(f, FactorConfig(target_order=8))


def test_budget_guard_raises_at_the_trip(monkeypatch):
    # two zeros with the same constant term but different tails: the
    # classical round that would separate them is past the budget
    monkeypatch.setattr(factorizer, "MAX_CLASSICAL_ITERATIONS", 0)
    R = puiseux_ring(1)
    z1 = PS.from_terms([(0, 1), (1, 1)])
    z2 = PS.from_terms([(0, 1), (1, 2)])
    f = SkewPoly.t_minus(R, z1) * SkewPoly.t_minus(R, z2)
    with pytest.raises(PrecisionExhausted, match="^classical iteration budget 0 exhausted$"):
        newton_puiseux_factor(f, FactorConfig(target_order=10))


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


@pytest.mark.parametrize("alpha, prec", [(Fraction(2), 128), (Fraction(2), 160),
                                         (Fraction(2), 192), (Fraction(3, 2), 128)])
def test_first_split_of_the_cubic_lifts_to_its_target(monkeypatch, alpha, prec):
    # residues 1, 2, 3 share an orbit; the lift of the first split used to
    # stall ("did not raise the defect order") at n = 13, 16, 18 and 17
    from skewpuiseux import factorizer
    real = factorizer.hensel_lift
    lifts = []

    def recording(f, g, h, target_k, **kwargs):
        out = real(f, g, h, target_k, **kwargs)
        lifts.append((out[2], target_k))
        return out

    monkeypatch.setattr(factorizer, "hensel_lift", recording)
    f = parse_poly("t^3 - (6+x)*t^2 + (11+3*x)*t - (6+2*x)", puiseux_ring(alpha))
    # at alpha 2 and 160 bits or less the whole factorization still
    # misses its residual bound
    with contextlib.suppress(PrecisionExhausted):
        newton_puiseux_factor(f, FactorConfig(target_order=15, bits=prec))
    # its zeros have order 0, so the budget is the target order itself
    assert lifts and lifts[0][0] == lifts[0][1] == 15


# the precisions at which each alpha misses the residual bound (ROADMAP,
# Baseline); every level of this cubic at alpha 2 is an orbit split, which
# forms no series shift
CUBIC_SWEEP = {Fraction(2): (128, 160), Fraction(3, 2): (), Fraction(1, 2): ()}


@pytest.mark.parametrize("prec", [128, 160, 192, 256])
@pytest.mark.parametrize("alpha", sorted(CUBIC_SWEEP))
def test_baseline_cubic_meets_its_order_or_raises_a_typed_error(alpha, prec):
    f = parse_poly("t^3 - (6+x)*t^2 + (11+3*x)*t - (6+2*x)", puiseux_ring(alpha))
    cfg = FactorConfig(target_order=15, bits=prec)
    if prec in CUBIC_SWEEP[alpha]:
        with pytest.raises(PrecisionExhausted, match="residual"):
            newton_puiseux_factor(f, cfg)
        return
    fac = newton_puiseux_factor(f, cfg)
    assert fac.achieved_order == 15
    with bits(prec):
        report = verify_factorization(f, fac.zeros, fac.unit, order=15)
    assert report["ok"] and report["achieved_order"] == 15


def _close_branch_quartic():
    """(t^2 - 2u_1 t + u_1^2 - v_1^2 x)(t^2 - 2u_2 t + u_2^2 - v_2^2 x) at
    alpha = 1, whose branch residues +-v_1, +-v_2 lie 0.016 apart."""
    c0 = mp.mpc("-1.162", "-1.138")
    us = [PS(1, {0: c0, 1: mp.mpc("1.93", "1.49"), 2: mp.mpc("-0.843", "1.846"),
                 3: mp.mpc("0.157", "0.711")}),
          PS(1, {0: c0, 1: mp.mpc("-1.181", "1.764"), 2: mp.mpc("0.763", "1.866"),
                 3: mp.mpc("1.575", "-0.805")})]
    vs = [mp.mpc("-0.78386", "-0.73492"), mp.mpc("-0.79938", "-0.73560")]
    R = puiseux_ring(1)
    f = SkewPoly.one(R)
    for u, v in zip(us, vs):
        f = f * SkewPoly(R, [u * u - PS(1, {1: v * v}), u.scale(-2), R.one()])
    return f


def test_a_tripped_budget_raises_before_any_verification(monkeypatch):
    # t^2 - x needs ramification 2; with a budget of 1 the top level
    # raises before any zero is formed or verified
    monkeypatch.setattr(factorizer, "MAX_RAMIFICATION", 1)
    calls = []
    verify = factorizer.verify_factorization
    monkeypatch.setattr(factorizer, "verify_factorization",
                        lambda *a, **k: calls.append(1) or verify(*a, **k))
    f = parse_poly("t^2 - x", puiseux_ring(2))
    with pytest.raises(PrecisionExhausted, match="^ramification budget 1 exhausted$"):
        newton_puiseux_factor(f, FactorConfig(target_order=6))
    assert calls == []


def test_a_residual_above_the_ok_bound_raises():
    # the Baseline cubic at alpha 3 misses its residual bound at 128 bits
    # (the precision wall); the library raises and the CLI exits 4
    f = parse_poly("t^3 - (6+x)*t^2 + (11+3*x)*t - (6+2*x)", puiseux_ring(3))
    with pytest.raises(PrecisionExhausted, match="^factorization residual 6.1246e-13 above "):
        newton_puiseux_factor(f, FactorConfig(target_order=12, bits=128))
    assert cli_main(["factor", "--alpha", "3", "--prec", "12", "--bits", "128",
                     "t^3 - (6+x)*t^2 + (11+3*x)*t - (6+2*x)"]) == 4


def test_the_close_branch_quartic_states_the_order_its_retry_reaches(monkeypatch):
    # this factorization used to come back with a residual of 1e219 at
    # order 3 and no error, then raised for its residual; lifted to its
    # order budget, its growth retry at 234 bits meets the bound and
    # states the order it reaches
    precs = []
    once = factorizer._factor_once
    monkeypatch.setattr(factorizer, "_factor_once",
                        lambda f, cfg: precs.append(mp.prec) or once(f, cfg))
    with bits(160):
        f = _close_branch_quartic()
        text = poly_to_str(f)
    fac = newton_puiseux_factor(f, FactorConfig(target_order=15, bits=160))
    assert precs == [160, 234]
    assert mp.nstr(fac.residual, 5) == "1.9059e-27"
    assert fac.achieved_order == Fraction(15, 2)
    monkeypatch.undo()
    assert cli_main(["factor", "--alpha", "1", "--prec", "15", "--bits", "160", text]) == 0


def _lifts(monkeypatch):
    """The target order of every hensel_lift the factorizer runs."""
    real = factorizer.hensel_lift
    targets = []

    def recording(f, g, h, target_k, **kwargs):
        targets.append(target_k)
        return real(f, g, h, target_k, **kwargs)

    monkeypatch.setattr(factorizer, "hensel_lift", recording)
    return targets


def test_zeros_above_the_target_lift_one_order_past_themselves(monkeypatch):
    # both zeros have order 20 and the target is 15: what the check reads
    # of them is nothing, and the lift still goes one order past them
    targets = _lifts(monkeypatch)
    f = parse_poly("t^2 - 3*x^20*t + 2*x^40", puiseux_ring(2))
    fac = newton_puiseux_factor(f, FactorConfig(target_order=15))
    assert targets == [1]
    assert fac.achieved_order == 15 and [z.trunc for z in fac.zeros] == [21, 21]
    assert cli_main(["factor", "--alpha", "2", "--prec", "15", "t^2 - 3*x^20*t + 2*x^40"]) == 0


def test_a_level_that_scales_its_zeros_apart_is_lifted_its_loss(monkeypatch):
    # zeros of order 20, 21 and 21 (F1's orders 0, 1 and 1): the level
    # lifts to 1 past the largest order plus the order its child, scaled
    # by x^-1, loses
    targets = _lifts(monkeypatch)
    R = puiseux_ring(2)
    f = SkewPoly.one(R)
    for c, k in ((1, 21), (2, 21), (1, 20)):
        f = f * SkewPoly.t_minus(R, PS.from_terms([(k, c)]))
    fac = newton_puiseux_factor(f, FactorConfig(target_order=15))
    assert targets[0] == 3
    assert fac.achieved_order == 15


@pytest.mark.parametrize("alpha, zeros", [
    (2, [[(0, 1), (1, 2)], [(-1, 2), (0, 1)], [(-1, 1), (2, 3)]]),
    (Fraction(3, 2), [[(-1, 1), (2, 1)], [(0, 2), (1, 1)], [(0, -1), (2, 1)]]),
    (2, [[(-1, 1), (1, 1)], [(-1, 2)], [(-1, 3), (0, 1)]]),
    (Fraction(3, 2), [[(0, 1)], [(1, 2)], [(2, 1), (3, 1)]]),
], ids=["0,-1,-1", "-1,0,0", "-1,-1,-1", "0,1,2"])
def test_each_zero_is_lifted_to_its_need_and_at_most_two_orders_more(alpha, zeros):
    # need_i = T - sum_(j != i) min(0, ord z_j) for the product, and the
    # rightmost zero also T - sum_(j != i) min(ord z_j, ord z_i) for f(z)
    R = puiseux_ring(alpha)
    f = SkewPoly.one(R)
    for terms in zeros:
        f = f * SkewPoly.t_minus(R, PS.from_terms(terms))
    fac = newton_puiseux_factor(f, FactorConfig(target_order=15, bits=160))
    assert fac.achieved_order == 15
    ords = [z.ord() for z in fac.zeros]
    for i, z in enumerate(fac.zeros):
        others = ords[:i] + ords[i + 1:]
        need = 15 - sum(min(0, o) for o in others)
        if i == len(ords) - 1:
            need = max(need, 15 - sum(min(o, ords[i]) for o in others))
        assert need <= Fraction(z.trunc, z.L) <= need + 2


def test_a_cluster_the_polygon_cannot_see_has_the_lift_go_further(monkeypatch):
    # alpha = 1: zeros 1 + x^3 and 1 + 2x^3 share the residue root 1 and
    # split only after a shift, which the first lift's budget cannot see;
    # their classical round finds its data short by 3 and the lift above
    # goes 3 orders further
    targets = _lifts(monkeypatch)
    R = puiseux_ring(1)
    f = SkewPoly.one(R)
    for terms in ([(0, 1), (3, 1)], [(0, 1), (3, 2)], [(0, 2)]):
        f = f * SkewPoly.t_minus(R, PS.from_terms(terms))
    fac = newton_puiseux_factor(f, FactorConfig(target_order=15))
    assert targets == [15, 18, 12]
    assert fac.achieved_order == 15


def test_an_exact_repeated_zero_has_the_lift_go_further(monkeypatch):
    # t^3 - t^2 = t^2 (t - 1): the lifted t^2 gives zeros O(x^ceil(K/2)),
    # so the lift goes to twice the target, less one
    targets = _lifts(monkeypatch)
    fac = newton_puiseux_factor(parse_poly("t^3 - t^2", puiseux_ring(2)),
                                FactorConfig(target_order=15))
    assert targets == [15, 29]
    assert fac.achieved_order == 15


def test_ramification_is_the_lcm_of_the_zeros_ramifications():
    # zeros of ramification 3, 3, 3 and 2, 2: x^(1/2) is not in C((x^(1/3)))
    ring = puiseux_ring(1)
    f = parse_poly("t^2 - 2*t + 1 - x", ring) * parse_poly("t^3 + 3*t^2 + 3*t + 1 - x", ring)
    fac = newton_puiseux_factor(f, FactorConfig(target_order=3))
    assert sorted(z.L for z in fac.zeros) == [2, 2, 3, 3, 3]
    assert fac.ramification == 6


def test_a_shift_that_does_not_cancel_raises(monkeypatch):
    # a trace solve that lost its terms leaves the t^(d-1) coefficient
    monkeypatch.setattr(factorizer, "trace_solve", lambda g, d, alpha: PS.zero(g.L))
    f = parse_poly("t^2 - 2*t + 1", puiseux_ring(2))
    with pytest.raises(PrecisionExhausted, match="shift failed to cancel"):
        newton_puiseux_factor(f, FactorConfig(target_order=4))


def _raw(v):
    """Every bit of a series, polynomial or number."""
    if isinstance(v, PuiseuxSeries):
        return v.L, v.trunc, sorted((k, _raw(c)) for k, c in v.terms.items())
    if isinstance(v, (SkewPoly, list, tuple)):
        return [_raw(c) for c in getattr(v, "coeffs", v)]
    return getattr(v, "_mpc_", None) or getattr(v, "_mpf_", v)


def _cubic(alpha):
    """The product of three linear factors with fixed zeros of L = 1."""
    f = SkewPoly.one(puiseux_ring(alpha))
    for terms in ({-1: mp.mpc(1, 0.5), 0: mp.mpc(-0.7, 0.3), 2: mp.mpf(0.9)},
                  {0: mp.mpc(0.4, -1.2), 1: mp.mpc(0.6, 0.6)},
                  {-1: mp.mpf(-0.8), 1: mp.mpc(0.3, 0.9), 2: mp.mpc(-1, 0.4)}):
        f = f * SkewPoly.t_minus(f.ring, PS(1, terms))
    return f


def _memo_cases(alpha=Fraction(3, 2), prec=160):
    """Every bit of a cubic's factorization at alpha and prec bits, and of
    a derived-ring product and left division at alpha, L = 2 and prec + 96
    bits."""
    with bits(prec):
        fac = newton_puiseux_factor(_cubic(alpha), FactorConfig(target_order=12, bits=prec))
    with bits(prec + 96):
        rnd = rng(31)
        R = puiseux_ring(alpha, 2, rand_series(rnd, 2, 0, 2, 4))
        f, g = (SkewPoly(R, [rand_series(rnd, 2, 0, 3, 5) for _ in range(d)] + [R.one()])
                for d in (4, 2))
        p = f * g
        q, r = p.left_divmod(g)
    return _raw([fac.zeros, fac.residual, p, q, r])


def test_results_do_not_depend_on_the_memo_of_alpha_powers():
    # emptied, warm, and warm from another alpha and precision only
    scalar._powers.cache_clear()
    cold = _memo_cases()
    assert cold == _memo_cases()
    scalar._powers.cache_clear()
    _memo_cases(Fraction(2), 192)
    assert scalar._powers.cache_info().currsize == 2  # L = 1 at 192, L = 2 at 288 bits
    assert cold == _memo_cases()


def test_a_repeated_factorization_builds_no_twist_row(monkeypatch):
    # the twist rows and their inverses are built once per alpha, L and
    # precision: a second factorization of the same input reads them all
    built, twists = [], []
    power_row, slice_twist = scalar._power_row, factorizer.PuiseuxRing.slice_twist
    monkeypatch.setattr(scalar, "_power_row",
                        lambda *args: built.append(args[-1]) or power_row(*args))
    monkeypatch.setattr(factorizer.PuiseuxRing, "slice_twist",
                        lambda *args: twists.append(args[1:]) or slice_twist(*args))
    scalar._powers.cache_clear()
    with bits(160):
        f = _cubic(Fraction(3, 2))
        first = newton_puiseux_factor(f, FactorConfig(target_order=12, bits=160))
        assert True in built and False in built
        built.clear(), twists.clear()
        second = newton_puiseux_factor(f, FactorConfig(target_order=12, bits=160))
    assert twists and built == []
    assert _raw(first.zeros) == _raw(second.zeros)
