import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from maasslab import modforms
from maasslab.context import PrecisionContext
from maasslab.exact import chi12_sqrt
from maasslab.matrices import IDENTITY, S_MAT, T_power, atkin_lehner
from maasslab.modforms import (E4_eval, E6_eval, F_expansion, eta_eval,
                               f_eval, f_qexp, gd_construct, hd_construct,
                               zminus_expansion)
from maasslab.qseries import (QSeries, eisenstein_E4, eta_series,
                              euler_product, j_series)
from support import dense_inverse, j_eval, qseries_eval, qseries_from_json, reduce_plus

CTX = PrecisionContext(digits=60)


class TestQSeries:
    def test_mul_tracks_truncation(self):
        a = QSeries(1, -1, [1, 2, 3], 1)       # q^-1 + 2 + 3q + O(q^2)
        b = QSeries(1, 0, [1, 1, 1, 1], 3)     # 1 + q + q^2 + q^3 + O(q^4)
        c = a * b
        assert c.lo == -1
        assert c.trunc == min(a.lo + b.trunc, b.lo + a.trunc)

    def test_inverse_roundtrip(self):
        e = euler_product(40)
        prod = e * e.inverse()
        assert prod.coeff(0) == 1
        assert all(prod.coeff(k) == 0 for k in range(1, prod.trunc + 1))

    @pytest.mark.parametrize("series", [
        *(eta_series(24 * k) for k in range(13, 20)),       # stride 24
        eisenstein_E4(60),                                   # dense
        QSeries(1, 0, [1, 0, 0, -2, 0, 0, 5, 0, 0, 7, 0], 10),   # stride 3
        QSeries(24, -1, [2] + [0] * 23 + [3] + [0] * 23 + [-5], 47),  # 1/2: Fractions
        QSeries(1, 2, [-1, 0, 0, 0], 5),                     # one term
    ], ids=[*(f"eta{24 * k}" for k in range(13, 20)), "E4", "stride3",
            "lead2", "one_term"])
    def test_strided_inverse_matches_dense(self, series):
        """The strided recursion against the O(n^2) loop over every slot:
        equal coefficient for coefficient, and int wherever the loop's is."""
        got, want = series.inverse(), dense_inverse(series)
        assert (got.denom, got.lo, got.trunc) == (want.denom, want.lo, want.trunc)
        for a, b in zip(got.coeffs, want.coeffs, strict=True):
            assert a == b
            assert type(b) is not int or type(a) is int

    def test_theta_op(self):
        s = QSeries(24, -1, [5, 0, 7], 1)
        t = s.theta_op()
        assert t.coeff(-1) == Fraction(-5, 24)
        assert t.coeff(1) == Fraction(7, 24)
        const = QSeries(1, 0, [3, 0], 1)
        assert all(c == 0 for _, c in const.theta_op().support())
        # integral exponents give integer factors, not Fractions
        t = QSeries(24, -24, [2] + [0] * 47 + [3], 24).theta_op()
        assert (t.coeff(-24), t.coeff(24)) == (-2, 3)
        assert type(t.coeff(-24)) is int and type(t.coeff(24)) is int

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_scale_arg_multiplicative(self, m1, m2):
        e = euler_product(12)
        a = e.scale_arg(m1).scale_arg(m2)
        b = e.scale_arg(m1 * m2)
        hi = min(a.trunc, b.trunc)
        assert all(a.coeff(k) == b.coeff(k) for k in range(0, hi + 1))

    def test_json_roundtrip(self):
        f = f_qexp(12)
        g = qseries_from_json(f.to_json())
        assert g.denom == f.denom and g.support() == f.support()

    def test_eta_pentagonal_vs_product(self):
        lhs = eta_series(24 * 15)
        rhs = euler_product(14).with_denom(24).shift(1)
        hi = min(lhs.trunc, rhs.trunc)
        assert all(lhs.coeff(k) == rhs.coeff(k) for k in range(1, hi + 1))


class TestClassicalSeries:
    def test_j_coefficients(self):
        j = j_series(4)
        assert [j.coeff(k) for k in (-1, 0, 1, 2)] == [1, 744, 196884, 21493760]

    def test_E4_leading(self):
        assert eisenstein_E4(5).coeff(0) == 1

    def test_f_printed_coefficients(self):
        f = f_qexp(10)
        assert (f.coeff(-1), f.coeff(0), f.coeff(1)) == (1, 12, 77)


class TestEvaluators:
    def test_eta_at_i(self):
        v = eta_eval(mp.mpc(0, 1), CTX)
        assert abs(v - mp.mpf("0.76822542232605665900259417957618")) < mp.mpf("1e-30")
        assert abs(v - mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** mp.mpf("0.75"))) \
            < mp.mpf("1e-55")

    def test_eta_shift(self):
        tau = mp.mpc(0, 2)
        lhs = eta_eval(tau + 1, CTX)
        rhs = mp.expjpi(mp.mpf(2) / 24) * eta_eval(tau, CTX)
        assert abs(lhs - rhs) < mp.mpf("1e-52")

    def test_eta_inversion(self):
        tau = mp.mpc(0.5, 2)
        lhs = eta_eval(-1 / tau, CTX)
        rhs = mp.sqrt(-1j * tau) * eta_eval(tau, CTX)
        assert abs(lhs - rhs) < mp.mpf("1e-52")

    def test_eisenstein_transformation_laws(self):
        # E_k(g tau) = (c tau + d)^k E_k(tau) for k = 4, 6, down to Im tau =
        # 1e-3, where the reduction takes many S-steps
        rng = random.Random(17)
        with mp.workdps(70):
            for _ in range(30):
                g = IDENTITY
                for _ in range(rng.randint(1, 6)):
                    g = g @ T_power(rng.randint(-3, 3)) @ S_MAT
                tau = mp.mpc(rng.uniform(-0.5, 0.5), 10 ** rng.uniform(-3, 0))
                for k, fn in ((4, E4_eval), (6, E6_eval)):
                    rhs = (g.c * tau + g.d) ** k * fn(tau, CTX)
                    assert abs(fn(g.apply(tau), CTX) - rhs) < mp.mpf("1e-55") * abs(rhs)

    def test_j_at_i_two_paths(self):
        assert abs(j_eval(mp.mpc(0, 1), CTX) - 1728) < mp.mpf("1e-50")
        assert abs(j_eval(mp.mpc(0, 1), CTX, method="e6") - 1728) < mp.mpf("1e-45")

    def test_f_atkin_lehner_signs(self):
        cases = ((6, 1, mp.mpc("0.1", "0.8")), (2, -1, mp.mpc("0.07", "1.1")),
                 (3, -1, mp.mpc("0.21", "0.9")))
        for r, sign, tau in cases:
            W = atkin_lehner(r)
            assert abs(f_eval(W.apply(tau), CTX) - sign * f_eval(tau, CTX)) \
                < mp.mpf("1e-45")

    def test_f_qexp_matches_oracle_high_up(self, f_oracle):
        f = f_qexp(40)
        for tau in (mp.mpc("0.3", "3.0"), mp.mpc("-0.2", "4.0")):
            assert abs(f_oracle(tau, CTX) - qseries_eval(f, tau)) < mp.mpf("1e-48")

    def test_evaluators_reject_lower_half_plane(self):
        evaluators = (eta_eval, E4_eval, E6_eval, f_eval,
                      lambda t, c: j_eval(t, c, method="e6"))
        for fn in evaluators:
            for tau in (mp.mpc("0.1", "-0.5"), mp.mpc("0.3", "0")):
                with pytest.raises(ValueError):
                    fn(tau, CTX)

    def test_reduction_step_cap_raises(self, monkeypatch):
        # 0.3 + 0.01i needs more than one step in either reduction
        monkeypatch.setattr(modforms, "_MAX_STEPS", 1)
        for fn in (eta_eval, E4_eval, f_eval):
            with pytest.raises(ArithmeticError):
                fn(mp.mpc("0.3", "0.01"), CTX)


def _seeded_points(count, seed):
    rng = random.Random(seed)
    return [mp.mpc(rng.uniform(-1, 1), 10 ** rng.uniform(-6, math.log10(2)))
            for _ in range(count)]


class TestGamma0SixPlusKernel:
    """f_eval reduces into the Gamma0(6)+ domain and sums one q-series; the
    eta/E4 block quotient (the oracle) knows nothing of either step."""

    @pytest.mark.parametrize("digits", [30, 60])
    def test_f_eval_matches_block_oracle(self, digits, f_oracle):
        ctx = PrecisionContext(digits=digits)
        tol = mp.mpf(10) ** (-digits)
        for tau in _seeded_points(200, digits):
            ref = f_oracle(tau, ctx)
            assert abs(f_eval(tau, ctx) - ref) <= tol * max(1, abs(ref)), tau

    @pytest.mark.parametrize("digits", [30, 60, 100])
    def test_series_error_at_lowest_points(self, digits, f_oracle):
        # points of the domain at and near its lowest point 1/3 + i y_min,
        # where the truncated series is worst and the blocked sum's rounding
        # is largest: f_eval keeps 8 of its 10 guard digits against the
        # oracle at 20 more digits (without the _GUARD bits it keeps about 5)
        ctx = PrecisionContext(digits=digits)
        fine = PrecisionContext(digits=digits + 20)
        y_min = mp.sqrt(2) / 6
        tol = mp.mpf(10) ** (-digits - 8)
        for x, y in ((mp.mpf(1) / 3, y_min * (1 + mp.mpf("1e-9"))), (-mp.mpf(1) / 3, y_min),
                     (mp.mpf("0.4"), mp.mpf("0.275")), (mp.mpf("0.5"), mp.mpf("0.29")),
                     (mp.mpf("0.1"), mp.mpf("0.4"))):
            tau = mp.mpc(x, y)
            ref = f_oracle(tau, fine)
            assert abs(f_eval(tau, ctx) - ref) <= tol * max(1, abs(ref)), tau

    def test_deep_points_at_cycle_digits(self, f_oracle):
        # Im tau in [1e-14, 1e-6], with the lost + 5 extra digits that
        # traces.cycle_integral passes for points that low: the reduction
        # magnifies the input's rounding by up to 1/Im tau, which the extra
        # digits absorb
        digits = 30
        rng = random.Random(14)
        for _ in range(12):
            k = rng.uniform(6, 14)
            lost = math.ceil(k)
            with mp.workdps(digits + lost + 40):
                tau = mp.mpc(rng.uniform(-1, 1), mp.mpf(10) ** -k)
            inner = PrecisionContext(digits=digits + lost + 5)
            ref = f_oracle(tau, PrecisionContext(digits=inner.digits + 20))
            assert abs(f_eval(tau, inner) - ref) <= \
                mp.mpf(10) ** (-digits - 5) * max(1, abs(ref)), tau

    @pytest.mark.parametrize("digits", [30, 60])
    def test_points_where_q_inverse_dominates(self, digits, f_oracle):
        # at Im tau = 10, 20 and 40, |q^{-1}| = e^{2 pi y} reaches 1e109 while
        # the series is 12 + O(e^{-2 pi y}): the relative error stays at the
        # working precision
        ctx = PrecisionContext(digits=digits)
        fine = PrecisionContext(digits=digits + 20)
        tol = mp.mpf(10) ** (-digits - 8)
        for y in (10, 20, 40):
            for x in ("0.1", "-0.37", "0.5"):
                tau = mp.mpc(x, y)
                ref = f_oracle(tau, fine)
                assert abs(f_eval(tau, ctx) - ref) <= tol * abs(ref), tau

    def test_atkin_lehner_laws_on_oracle(self, f_oracle):
        # f|W_r = mu(r) f, the law the reduction relies on, checked on the
        # oracle so that it does not rest on the kernel
        rng = random.Random(6)
        for r, mu in ((2, -1), (3, -1), (6, 1)):
            W = atkin_lehner(r)
            for _ in range(5):
                tau = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 1.5))
                lhs = f_oracle(W.apply(tau), CTX)
                rhs = mu * f_oracle(tau, CTX)
                assert abs(lhs - rhs) <= mp.mpf("1e-55") * max(1, abs(rhs))

    def test_reduced_points_in_domain(self, f_oracle):
        # points just below and above the domain's lowest point 1/3 + i y_min
        # and their translates, besides the seeded sample
        y_min = mp.sqrt(2) / 6
        corner = [mp.mpc(x + k, y_min * s) for x in (mp.mpf(1) / 3, -mp.mpf(1) / 3)
                  for k in (-1, 0, 2) for s in (1 - mp.mpf("1e-9"), 1, 1 + mp.mpf("1e-9"))]
        with mp.workdps(40):
            for tau in _seeded_points(200, 3) + corner:
                z, sign, _ = reduce_plus(tau)
                assert z.imag >= modforms._Y_MIN * (1 - 1e-12), tau
                assert abs(z.real) <= 0.5
        # the reduced point lies in the orbit, with the recorded sign
        for tau in _seeded_points(10, 4) + corner[:3]:
            with mp.workdps(CTX.digits + 10):
                z, sign, _ = reduce_plus(tau)
            ref = f_oracle(tau, CTX)
            assert abs(sign * f_oracle(z, CTX) - ref) <= mp.mpf("1e-50") * max(1, abs(ref))

    @pytest.mark.parametrize("digits", [30, 60])
    def test_points_high_in_domain(self, digits, f_oracle):
        # Im tau >= 1/2 is never moved by the reduction, so these points sum
        # only the terms their own height needs
        ctx = PrecisionContext(digits=digits)
        fine = PrecisionContext(digits=digits + 20)
        tol = mp.mpf(10) ** (-digits - 8)
        rng = random.Random(digits + 1)
        for _ in range(100):
            tau = mp.mpc(rng.uniform(-1, 1), rng.uniform(0.5, 6))
            ref = f_oracle(tau, fine)
            assert abs(f_eval(tau, ctx) - ref) <= tol * max(1, abs(ref)), tau

    def test_term_count_meets_bound(self):
        # e^{g(N)} <= 2^{-prec-2} with g(n) = 4 pi sqrt(n/6) - 2 pi y n, N at
        # most one term past the least such count, and never past the count
        # of the domain's lowest point (the length of the cached terms)
        for prec in (100, 133, 233, 333):
            bound = -(prec + 2) * math.log(2)
            n_low = modforms._f_term_count(modforms._Y_MIN, prec)
            for k in range(400):
                y = modforms._Y_MIN + (8 - modforms._Y_MIN) * k / 399
                N = modforms._f_term_count(y, prec)

                def g(n):
                    return 4 * math.pi * math.sqrt(n / 6) - 2 * math.pi * y * n

                assert 6 <= N <= n_low, (prec, y)
                assert g(N) <= bound, (prec, y)
                assert N == 6 or g(N - 1) > bound - 1e-6, (prec, y)

    def test_coefficient_growth_bound(self):
        # the bound the term count rests on; c(0) = 12 is not covered by it
        f = f_qexp(400)
        for n in range(1, 401):
            assert math.log(abs(f.coeff(n))) <= 4 * math.pi * math.sqrt(n / 6), n


class TestHdFamily:
    def test_h25(self):
        h = hd_construct(25, 24 * 4 + 23)
        assert h.coeff(-25) == 1 and h.coeff(-1) == 1
        assert h.coeff(23) == -196882

    def test_h49(self):
        h = hd_construct(49, 24 * 4 + 23)
        assert h.coeff(-1) == 1 and h.coeff(23) == -21296875

    def test_h73(self):
        h = hd_construct(73, 24 * 4 + 23)
        assert h.coeff(-1) == 0 and h.coeff(23) == -842609326

    def test_residue_constraint(self):
        # constant term of h_d * eta vanishes, forcing A(d,-1) = -chi12(sqrt d)
        for d in (25, 49, 73, 97, 121):
            h = hd_construct(d, trunc24=24 * 3 + 23)
            prod = h * eta_series(24 * (d // 24 + 6))
            assert prod.coeff(0) == 0
            assert h.coeff(-1) == -chi12_sqrt(d)

    def test_integer_coefficients(self):
        """The h_d build runs in integers: Theta(j) at exponents 24k/24 stays
        integral, so no coefficient is a Fraction."""
        for d in (25, 49, 73, 97):
            h = hd_construct(d, 24 * 4 + 23)
            assert all(type(c) is int for c in h.coeffs), d

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            hd_construct(24, 24 * 4 + 23)
        with pytest.raises(ValueError):
            hd_construct(1, 24 * 4 + 23)


class TestGdFamily:
    def test_g1(self):
        g = gd_construct(1, 60)
        assert g.coeff(-1) == 1 and g.coeff(0) == -2
        assert (g.coeff(3), g.coeff(4), g.coeff(7)) == (248, -492, 4119)

    def test_g4(self):
        g = gd_construct(4, 60)
        assert g.coeff(0) == -2
        assert (g.coeff(3), g.coeff(4)) == (-26752, -143376)
        assert g.coeff(7) == -8288256

    def test_g5(self):
        g = gd_construct(5, 60)
        assert g.coeff(0) == 0
        assert (g.coeff(3), g.coeff(4), g.coeff(7)) == (85995, -565760, 52756480)

    def test_plus_support_and_integrality(self):
        for d in (1, 4, 5, 8, 12):
            g = gd_construct(d, trunc=40)
            for k, c in g.support():
                assert k % 4 in (0, 3), (d, k)
                assert isinstance(c, int)

    def test_integer_coefficients(self):
        """The seeds and every g_d are built in integers (the span of g_4 from
        24 times the Serre derivative), so no coefficient is a Fraction."""
        for seed in modforms._gd_seeds(60 + 40):
            assert all(type(c) is int for c in seed.coeffs)
        for d in range(1, 41):
            if d % 4 in (0, 1):
                g = gd_construct(d, trunc=60)
                assert all(type(c) is int for c in g.coeffs), d

    def test_exact_truncation_and_prefix(self):
        """Every g_d carries exactly the requested truncation, and a shorter
        request is a prefix of a longer one."""
        for d in range(1, 61):
            if d % 4 not in (0, 1):
                continue
            short, long_ = gd_construct(d, trunc=24), gd_construct(d, trunc=60)
            assert (short.trunc, long_.trunc) == (24, 60), d
            assert short.lo == long_.lo == -d
            assert [short.coeff(k) for k in range(-d, 25)] == \
                [long_.coeff(k) for k in range(-d, 25)], d

    def test_short_seeds_raise(self, monkeypatch):
        """Seeds known through fewer terms than the chain needs raise rather
        than return a short series."""
        seeds = modforms._gd_seeds
        monkeypatch.setattr(modforms, "_gd_seeds", lambda t: seeds(t - 12))
        modforms.gd_construct.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="known only through"):
                modforms.gd_construct(13, trunc=30)
        finally:
            modforms.gd_construct.cache_clear()

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            gd_construct(7, 60)
        with pytest.raises(ValueError):
            gd_construct(-4, 60)


class TestHarmonicExpansions:
    def test_F_principal_term(self):
        F = F_expansion(24 * 4)
        assert F.terms[-1].hol == Fraction(-1, 12)
        assert F.terms[23].hol == Fraction(35, 12)

    def test_zminus_special_term(self):
        Z = zminus_expansion(20)
        assert ("inv_sqrt_y_over_pi", Fraction(1, 8)) in Z.specials
        assert Z.terms[0].hol == Fraction(-1, 12)
        assert Z.terms[-1].beta32 == [(Fraction(-1, 2), Fraction(4))]

    def test_xi_F_is_eta(self):
        # xi_{3/2} F = -(sqrt 6/(4 pi)) eta via finite differences
        from maasslab.spectral import xi_op
        ctx = PrecisionContext(digits=30)
        F = F_expansion(24 * 8)
        tau = mp.mpc("0.13", "1.2")
        resid = abs(xi_op(lambda t: F.eval(t, ctx), mp.mpf(3) / 2, tau, ctx=ctx)
                    + mp.sqrt(6) / (4 * mp.pi) * eta_eval(tau, ctx))
        assert resid < mp.mpf("1e-6")

    def test_expansion_json(self):
        Z = zminus_expansion(12)
        doc = json.loads(Z.to_json())
        assert doc["denom"] == 1
        assert any(t["exponent_num"] == 0 for t in doc["terms"])
