from fractions import Fraction

import pytest
from mpmath import mp
from mpmath.libmp import to_rational

from skewpuiseux import (Alpha, ComplexConjRing, ConjSeriesRing,
                         GaussianRational, PuiseuxSeries, SkewPoly, bits,
                         parse_poly, puiseux_ring)
from skewpuiseux import scalar, skewpoly
from skewpuiseux.errors import ContextMismatch, NotMonicError, UsageError
from skewpuiseux.scalar import GUARD_BITS, INF, to_mpc, zero_eps
from skewpuiseux.skewpoly import _ops
from skewpuiseux.structure import shift_iso

from conftest import (count_shifts, near_coeffs, rand_coeff, rand_poly, rand_series, rng,
                      same_coeffs)
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


def test_plain_rings_compare_by_kind():
    # BaseRing gives both rings their equality, hashing, repr and unify
    conj, cplx = ConjSeriesRing(), ComplexConjRing()
    assert conj == ConjSeriesRing() and cplx == ComplexConjRing()
    assert conj != cplx and cplx != conj
    for ring in (conj, cplx):
        with pytest.raises(TypeError):
            hash(ring)
    assert (repr(conj), repr(cplx)) == ("ConjSeriesRing()", "ComplexConjRing()")
    assert conj.unify(ConjSeriesRing()) is conj
    for a, b in ((conj, cplx), (cplx, conj)):
        with pytest.raises(ContextMismatch):
            a.unify(b)


def test_conj_series_product_rule():
    # x a = rho(a) x inside C[[x, rho]]
    u = PuiseuxSeries(1, {1: 1})
    a = PuiseuxSeries(1, {0: mp.mpc(0, 1)})
    prod = ConjSeriesRing().mul(u, a)
    assert prod.terms[1] == mp.mpc(0, -1)


# -- the row table: references and shift counts -----------------------------------

DERIVED_RINGS = [(alpha, L) for alpha in (Fraction(2), Fraction(3, 2), Fraction(1, 2))
                 for L in (1, 2)]


def t_mul_in(ring, coeffs):
    """t * sum c_i t^i as one t-shift of the table arithmetic, each shifted
    coefficient rounded at the working precision."""
    ops, (row,) = _ops(ring, coeffs)
    return [ops.out(c) for c in ops.shifted(row)]


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
def test_table_arithmetic_matches_references(prec):
    # the references run 64 bits above the table arithmetic.  A quotient
    # coefficient carries the rounding of the earlier ones times the rows of
    # g, so the division is held to the size of its dividend: on fg / g a
    # bound on the size of each coefficient is missed by up to 2^4
    rnd = rng(91 + prec)
    with bits(prec):
        for alpha, L in DERIVED_RINGS:
            R, f, g, v = rand_derived_case(rnd, alpha, L)
            assert not R.a.is_zero
            fg = f * g
            gf = g * f
            top_unknown = SkewPoly(R, list(f.coeffs) + [PS.zero(L, 4 * L)])
            divs = [num.left_divmod(g) for num in (fg, f, top_unknown)]
            ev = f.evaluate(v)
            with bits(prec + 64):
                assert near_coeffs(fg.coeffs, ref_mul(f, g).coeffs, prec)
                assert near_coeffs(gf.coeffs, ref_mul(g, f).coeffs, prec)
                for num, (q, r) in zip((fg, f, top_unknown), divs):
                    q_ref, r_ref = ref_left_divmod(num, g)
                    size = max(1, num.max_abs())
                    assert near_coeffs(q.coeffs, q_ref.coeffs, prec, size)
                    assert near_coeffs(r.coeffs, r_ref.coeffs, prec, size)
                _, rem = ref_left_divmod(f, SkewPoly.t_minus(R, v))
                assert near_coeffs([ev], [rem.coeff(0)], prec)


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


def _bits_of(c):
    return getattr(c, "_mpc_", getattr(c, "_mpf_", c))


@pytest.mark.parametrize("alpha,L", [(2, 1), (Fraction(3, 2), 2), (Fraction(1, 2), 1)])
def test_kernel_results_are_not_written_out_and_read_back(monkeypatch, alpha, L):
    # p = f*g, p.left_divmod(g) and f.evaluate(v) in a derived ring: no value
    # is rounded to an mpmath number (from_fixed_point), and fixed_point
    # reads the inputs and the ring's twist factors, never a result
    rnd = rng(99 + L)
    with bits(256):
        R = puiseux_ring(alpha, L, rand_series(rnd, L, 0, 3, 8))
        f = SkewPoly(R, [rand_series(rnd, L, 0, 3, 8) for _ in range(5)])
        g = rand_poly(R, rnd, 2, nterms=8)
        v = rand_series(rnd, L, 0, 3, 8)
        inputs = {0}
        for c in [R.a, v, *f.coeffs, *g.coeffs]:
            for w in c.terms.values():
                inputs |= {_bits_of(w), _bits_of(-w)}
        inputs |= {_bits_of(R.alpha.numeric_pow(k, L)) for k in range(-40, 40)}
        written, read = [], []

        def counting(name, record):
            fn = getattr(scalar, name)

            def wrapper(*args):
                record.append(args)
                return fn(*args)
            monkeypatch.setattr(scalar, name, wrapper)

        counting("from_fixed_point", written)
        counting("fixed_point", read)
        p = f * g
        q, r = p.left_divmod(g)
        ev = f.evaluate(v)
        assert written == [] and read
        assert all(_bits_of(c) in inputs for (values,) in read for c in values)
        # the results are the product, the quotient f, and f(v)
        assert q.deviation(f) < mp.mpf(2) ** -200 and r.max_abs() < mp.mpf(2) ** -200
        assert not ev.is_zero


def test_t_shift_matches_its_definition():
    # Puiseux rows shift on the exact kernel; the reference runs 64 bits above
    rnd = rng(97)
    x1 = PS.x_pow(1)
    rings = [puiseux_ring(Fraction(3, 2), 2), puiseux_ring(2, 2, rand_series(rnd, 2, 0, 1, 2)),
             puiseux_ring(Fraction(1, 2), 1, x1)]
    prec = mp.prec
    for R in rings:
        for n in (1, 2, 4):
            coeffs = [rand_series(rnd, R.L, 0, 3, 4) for _ in range(n)]
            coeffs[0] = coeffs[0].truncate(3 * R.L)
            got = t_mul_in(R, coeffs)
            with bits(prec + 64):
                assert near_coeffs(got, ref_t_mul(R, coeffs), prec)
    CR = ConjSeriesRing()
    for n in (1, 3):
        coeffs = [PuiseuxSeries(1, {k: rand_coeff(rnd) for k in range(3)}, 5) for _ in range(n)]
        assert t_mul_in(CR, coeffs) == ref_t_mul(CR, coeffs)
    K = ComplexConjRing()
    for n in (1, 3):
        coeffs = [rand_coeff(rnd) for _ in range(n)]
        assert t_mul_in(K, coeffs) == ref_t_mul(K, coeffs)


def _kernel_operand(rnd, L):
    """A normalized series of 1 to 8 int, mpf or mpc terms over 2^-40..2^40,
    real or complex, exact or truncated."""
    kind = rnd.choice(["mpf", "mpc", "mixed"])
    terms = {}
    for k in rnd.sample(range(-2 * L, 6 * L), rnd.randint(1, 8)):
        scale = mp.mpf(2) ** rnd.randint(-40, 40)
        kk = rnd.choice(["int", "mpf", "mpc"]) if kind == "mixed" else kind
        if kk == "int":
            terms[k] = rnd.randint(-10 ** 6, 10 ** 6)
        elif kk == "mpf":
            terms[k] = mp.mpf(rnd.uniform(-1, 1)) * scale
        else:
            terms[k] = mp.mpc(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) * scale
    return PS(L, terms, rnd.choice([None, 3 * L, 5 * L, 9 * L]))


@pytest.mark.parametrize("prec", [128, 256])
def test_series_and_table_products_share_one_kernel(prec):
    # a * b and the table product of the constants a and b read, convolve,
    # round and zero-test through one kernel; only the truncation rule
    # differs, and on normalized operands both read the same orders
    rnd = rng(131 + prec)
    with bits(prec):
        for _ in range(150):
            L = rnd.randint(1, 3)
            R = puiseux_ring(rnd.choice([2, Fraction(3, 2), Fraction(1, 2)]), L)
            a, b = _kernel_operand(rnd, L), _kernel_operand(rnd, L)
            got = (SkewPoly.constant(R, a) * SkewPoly.constant(R, b)).coeff(0)
            want = a * b
            assert (got.L, got.trunc, set(got.terms)) == (want.L, want.trunc, set(want.terms))
            for k, c in want.terms.items():
                # a term no product reaches may leave the table's value an
                # mpc with imaginary part 0 where a * b gives an mpf
                x, y = mp.mpc(got.terms[k]), mp.mpc(c)
                assert (x.real._mpf_, x.imag._mpf_) == (y.real._mpf_, y.imag._mpf_)


# -- the rounding contract of the exact kernel -------------------------------------
#
# On dyadic operands with exponents >= 0 and L = 1 the twist factors alpha^k
# are exact, so the term loop on GaussianRational copies gives the exact
# value of every output.  Each output coefficient may then differ from it by
# half an ulp (its one rounding) plus 2^-(P+GUARD_BITS-8) times M, the sum of
# the moduli of the products that enter it, which bounds what the rows lose
# when they are rounded GUARD_BITS above P after each shift.  M comes from
# the same recurrences on moduli, with delta_a(u) bounded by |a| (sigma(u) + u).


def _fraction(x):
    """An mpf as an exact Fraction."""
    return Fraction(*to_rational(x._mpf_))


def _exact(c):
    """A series as the same values in exact GaussianRationals."""
    def gauss(v):
        if isinstance(v, (int, Fraction, GaussianRational)):
            return GaussianRational(0) + v
        return GaussianRational(_fraction(mp.mpc(v).real), _fraction(mp.mpc(v).imag))
    return PS(c.L, {k: gauss(v) for k, v in c.terms.items()}, c.trunc)


def _moduli(c):
    """Bounds |re| + |im| >= |c_k| of an exact series' terms."""
    return {k: abs(v.re) + abs(v.im) for k, v in _exact(c).terms.items()}


def _m_add(*xs):
    out = {}
    for x in xs:
        for k, v in x.items():
            out[k] = out.get(k, 0) + v
    return out


def _m_mul(x, y):
    return _m_add(*({i + j: u * v for j, v in y.items()} for i, u in x.items()))


def _m_rows(row, alpha, a, n):
    """Moduli of the rows t^i b, i < n, from the moduli of b."""
    rows = [row]
    for _ in range(n - 1):
        sig = [{k: v * alpha ** k for k, v in c.items()} for c in rows[-1]] + [{}]
        rows.append([_m_add(sig[j - 1] if j else {}, _m_mul(a, _m_add(sig[j], c)))
                     for j, c in enumerate(rows[-1] + [{}])])
    return rows


def _m_lmul(cs, rows):
    out = [{} for _ in range(len(rows[0]) + len(cs) - 1)]
    for i, c in enumerate(cs):
        for j, s in enumerate(rows[i]):
            out[j] = _m_add(out[j], _m_mul(c, s))
    return out


def _within(got, want, m, prec):
    """got, rounded once and zero-tested, against the exact want with
    product moduli m."""
    kept = {k for k, w in want.terms.items() if abs(to_mpc(w)) >= zero_eps()}
    assert (got.L, got.trunc, set(got.terms)) == (want.L, want.trunc, kept)
    for k, c in got.terms.items():
        c, w = mp.mpc(c), want.terms[k]
        slack = m.get(k, 0) * Fraction(2) ** -(prec + GUARD_BITS - 8)
        for part, exact in ((c.real, w.re), (c.imag, w.im)):
            _, man, exp, bc = part._mpf_
            half_ulp = Fraction(2) ** (exp + bc - prec - 1) if man else 0
            assert abs(_fraction(part) - exact) <= half_ulp + slack, (k, part, exact)


def _in_exact(f, ring):
    return SkewPoly(ring, [_exact(c) for c in f.coeffs])


def _check_divmod(f, p, exact_ring, alpha, a, prec):
    """left_divmod against the exact division; each quotient coefficient
    that leaves the remainder multiplies the rows of p."""
    q, r = f.left_divmod(p)
    qe, re = _in_exact(f, exact_ring).left_divmod(_in_exact(p, exact_ring))
    m_rows = _m_rows([_moduli(c) for c in p.coeffs], alpha, a, len(f.coeffs))
    m_r = [_moduli(c) for c in f.coeffs]
    assert len(q.coeffs) == len(qe.coeffs)
    for k in reversed(range(len(qe.coeffs))):
        _within(q.coeff(k), qe.coeff(k), m_r.pop(), prec)
        qk = _moduli(qe.coeff(k))
        m_r = [_m_add(x, _m_mul(qk, s)) for x, s in zip(m_r, m_rows[k])]
    # a remainder coefficient that is zero but for rounding may be trimmed
    assert len(r.coeffs) <= len(re.coeffs)
    for j, (want, m) in enumerate(zip(re.coeffs, m_r)):
        _within(r.coeff(j), want, m, prec)
    return r


@pytest.mark.parametrize("prec", [128, 256])
def test_each_output_coefficient_is_rounded_once(prec):
    rnd = rng(41 + prec)
    with bits(prec):
        def dyadic():
            return mp.mpc(*(mp.ldexp(rnd.getrandbits(prec - 8) * rnd.choice((-1, 1)),
                                     -(prec - 8) + rnd.randint(-2, 2)) for _ in range(2)))

        def series(n=4, trunc=None):
            return PS(1, {k: dyadic() for k in rnd.sample(range(5), n)}, trunc)

        for alpha in (Fraction(2), Fraction(3, 2), Fraction(1, 2)):
            for derived in (False, True):
                a_num = series(3) if derived else PS.zero()
                R = puiseux_ring(alpha, 1, a_num)
                RE = puiseux_ring(alpha, 1, _exact(a_num))
                m_a = _moduli(a_num)
                f = SkewPoly(R, [series(), series(3, 6), series(), series()])
                g = SkewPoly(R, [series(), series(), R.one()])
                fe, ge = _in_exact(f, RE), _in_exact(g, RE)
                # the product
                m_rows = _m_rows([_moduli(c) for c in g.coeffs], alpha, m_a, len(f.coeffs))
                m_out = _m_lmul([_moduli(c) for c in f.coeffs], m_rows)
                p, pe = f * g, fe * ge
                assert len(p.coeffs) == len(pe.coeffs)
                for got, want, m in zip(p.coeffs, pe.coeffs, m_out):
                    _within(got, want, m, prec)
                # division, and evaluation as the remainder by t - v
                _check_divmod(p, g, RE, alpha, m_a, prec)
                _check_divmod(f, g, RE, alpha, m_a, prec)
                v = series(3)
                r = _check_divmod(f, SkewPoly.t_minus(R, v), RE, alpha, m_a, prec)
                assert same_coeffs([f.evaluate(v)], [r.coeff(0)])
                # the shift isomorphism, by Horner's rule on t - b
                b = series(3)
                out, oute = shift_iso(f, b), shift_iso(fe, _exact(b))
                m_img = _m_rows([_moduli(-b), {0: 1}], alpha,
                                _m_add(m_a, _moduli(b)), len(f.coeffs))
                m_acc = [_moduli(f.coeffs[-1])]
                for c in reversed(f.coeffs[:-1]):
                    m_acc = _m_lmul(m_acc, m_img)
                    m_acc[0] = _m_add(m_acc[0], _moduli(c))
                assert len(out.coeffs) == len(oute.coeffs)
                for got, want, m in zip(out.coeffs, oute.coeffs, m_acc):
                    _within(got, want, m, prec)


def test_poly_ord_agrees_with_series_ord():
    # a truncated zero coefficient counts with its truncation
    for s in (PS.zero(1, 5), PS(2, {}, 7)):
        assert SkewPoly(puiseux_ring(2, s.L), [s]).ord() == s.ord()
    assert SkewPoly(puiseux_ring(2, 2), [PS(2, {}, 7), PS(2, {3: 1})]).ord() == Fraction(3, 2)


def test_zero_polynomial_edges():
    R = puiseux_ring(2)
    zero = SkewPoly.zero(R)
    with pytest.raises(UsageError, match="no leading coefficient"):
        zero.lc
    # the value of the zero polynomial lives in the ring that holds the point
    value = zero.evaluate(PS.x_pow(Fraction(1, 2)))
    assert value.is_zero and value.L == 2


def test_rings_and_polynomials_of_different_kinds_do_not_mix():
    R = puiseux_ring(2)
    with pytest.raises(ContextMismatch, match="non-Puiseux"):
        R.unify(ConjSeriesRing())
    with pytest.raises(ContextMismatch, match="derivation parameter"):
        R.unify(puiseux_ring(2, a=PS.x_pow(1)))
    assert R != ConjSeriesRing() and ConjSeriesRing() != R
    assert SkewPoly.one(R) != SkewPoly.one(puiseux_ring(3))
    assert SkewPoly.one(R) != SkewPoly.one(ConjSeriesRing())


def test_conj_rings_read_and_print_scalars():
    assert ConjSeriesRing().coerce(3).terms == {0: 3}
    C = ComplexConjRing()
    assert str(SkewPoly(C, [mp.mpc(1, 2), 1])) == "t + (1+2i)"
    assert str(SkewPoly(C, [mp.mpc(0, -1), 3, 1])) == "t^2 + 3*t - 1i"


# -- the memo of skew tables ------------------------------------------------------

def _raw_coeffs(cs):
    """Every bit of a list of series: L, trunc and each term's raw mpmath
    tuple, mpf and mpc apart."""
    return [(c.L, c.trunc, sorted((k, _bits_of(v)) for k, v in c.terms.items())) for c in cs]


def _table_ops(f, g, v, b):
    """A product, the division of it by its right factor, an evaluation and
    a shift image, every output as raw bits."""
    p = f * g
    q, r = p.left_divmod(g)
    return [_raw_coeffs(x.coeffs) for x in (p, q, r, shift_iso(f, b))] + [
        _raw_coeffs([f.evaluate(v)])]


@pytest.mark.parametrize("prec", [128, 256])
def test_tables_from_an_empty_and_a_warm_memo_agree_bit_for_bit(prec):
    # each case three ways: every operation from an empty memo, the set from
    # one empty memo (the division reads the product's table), and again warm
    rnd = rng(61 + prec)
    tables = skewpoly._tables
    with bits(prec):
        for alpha in (2, Fraction(3, 2), Fraction(1, 2), 1, mp.mpf(1.5)):
            for L in (1, 2):
                for a in (None, rand_series(rnd, L, 0, 2, 3)):
                    R = puiseux_ring(alpha, L, a)
                    f = SkewPoly(R, [rand_series(rnd, L, 0, 3, 4) for _ in range(5)])
                    g = rand_poly(R, rnd, 2, nterms=4)
                    v, b = (rand_series(rnd, L, 0, 2, 3) for _ in range(2))
                    cold = []
                    for op in (lambda: f * g, lambda: (f * g).left_divmod(g),
                               lambda: f.evaluate(v), lambda: shift_iso(f, b)):
                        tables.cache_clear()
                        cold.append(op())
                    p, (q, r), ev, img = cold
                    want = [_raw_coeffs(x.coeffs) for x in (p, q, r, img)] + [_raw_coeffs([ev])]
                    tables.cache_clear()
                    assert _table_ops(f, g, v, b) == want
                    hits = tables.cache_info().hits
                    assert _table_ops(f, g, v, b) == want
                    assert tables.cache_info().hits > hits


def test_a_division_by_the_last_multiplier_makes_no_shift(monkeypatch):
    # p.left_divmod(g) reads the rows t^i g that p = f * g built, and
    # f.evaluate(v) those of the product by t - v, though both build the
    # divisor afresh: the memo is keyed by value
    rnd = rng(67)
    with bits(256):
        R = puiseux_ring(Fraction(3, 2), 2, rand_series(rnd, 2, 0, 2, 3))
        f = SkewPoly(R, [rand_series(rnd, 2, 0, 3, 4) for _ in range(5)])
        g = rand_poly(R, rnd, 2, nterms=4)
        v = rand_series(rnd, 2, 0, 2, 3)
        calls = count_shifts(monkeypatch)
        p = f * g
        assert len(calls) == 4
        del calls[:]
        q, r = p.left_divmod(SkewPoly(R, list(g.coeffs)))
        assert calls == [] and q.deviation(f) < mp.mpf(2) ** -200
        f * SkewPoly.t_minus(R, v)
        del calls[:]
        f.evaluate(v)
        assert calls == []


def test_a_table_is_keyed_by_precision_ring_a_and_alpha_kind():
    # the same b at two precisions, in two rings that differ only in a, and
    # under Alpha(2) and Alpha(mpf(2)), which compare equal: a table each,
    # and each one's rows those of an empty memo
    rnd = rng(71)
    tables = skewpoly._tables
    a = rand_series(rnd, 1, 0, 2, 3)
    f = [rand_series(rnd, 1, 0, 3, 4) for _ in range(3)]
    g = rand_poly(puiseux_ring(2, 1, a), rnd, 2, nterms=4).coeffs
    cases = [(128, puiseux_ring(2, 1, a)), (256, puiseux_ring(2, 1, a)),
             (256, puiseux_ring(2, 1, a + PS.x_pow(1))), (256, puiseux_ring(mp.mpf(2), 1, a))]
    tables.cache_clear()
    warm = []
    for n, (prec, R) in enumerate(cases, 1):
        with bits(prec):
            warm.append(_raw_coeffs((SkewPoly(R, f) * SkewPoly(R, g)).coeffs))
        assert tables.cache_info().currsize == n
    for (prec, R), got in zip(cases, warm):
        tables.cache_clear()
        with bits(prec):
            assert _raw_coeffs((SkewPoly(R, f) * SkewPoly(R, g)).coeffs) == got


def test_the_memo_holds_at_most_four_tables_and_drops_the_least_recent(monkeypatch):
    rnd = rng(73)
    tables = skewpoly._tables
    R = puiseux_ring(2, 1, rand_series(rnd, 1, 0, 2, 3))
    f = rand_poly(R, rnd, 2)
    gs = [rand_poly(R, rnd, 1) for _ in range(6)]
    calls = count_shifts(monkeypatch)
    tables.cache_clear()
    for g in gs[:4]:
        f * g
    assert tables.cache_info().currsize == 4
    # g0 is read again, so g1 is the least recently used when g4 comes in
    del calls[:]
    f * gs[0]
    assert calls == []
    f * gs[4]
    f * gs[5]
    assert tables.cache_info().currsize == 4 == tables.cache_info().maxsize
    del calls[:]
    f * gs[0]
    assert calls == []
    f * gs[1]
    assert len(calls) == 2


def test_a_held_lead_is_tested_for_one_without_forming_terms(monkeypatch):
    # monic products hold their lead 1 in exact form; is_monic decides on
    # the mantissas, as the terms would decide
    rnd = rng(79)
    R = puiseux_ring(Fraction(3, 2), 1, rand_series(rnd, 1, 0, 2, 3))
    p = rand_poly(R, rnd, 2) * rand_poly(R, rnd, 1)
    eps = scalar.pow2_exp(zero_eps())
    forms = [(0, [1], [0], 0), (0, [4], [0], -2), (0, [1], [0], 1), (0, [1], [1], 0),
             (1, [1], [0], 0), (0, [1, 0, 3], [0, 0, 0], 0), (-1, [3, 0], [0, 0], -1),
             (0, [-1], [0], 0), (0, [1], [0], -1)]
    leads = [p.lc] + [PS._held(1, (k0, re, im, e, INF, k0), not any(im), eps)
                      for k0, re, im, e in forms]
    assert leads[0]._fx is not None
    formed = []
    getattr_ = PS.__getattr__

    def counting(self, name):
        formed.append(name)
        return getattr_(self, name)

    monkeypatch.setattr(PS, "__getattr__", counting)
    got = [R.is_one_value(c) for c in leads]
    assert p.is_monic and formed == []
    monkeypatch.undo()
    assert got == [set(c.terms) == {0} and to_mpc(c.terms[0]) == 1 for c in leads]
    assert got == [True, True, True, False, False, False, False, False, False, False]
