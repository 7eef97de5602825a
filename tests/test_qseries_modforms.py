import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from maasslab.context import PrecisionContext
from maasslab.exact import chi12_sqrt
from maasslab.matrices import IDENTITY, S_MAT, T_power, atkin_lehner
from maasslab.modforms import (E4_eval, E6_eval, F_expansion, eta_eval,
                               eta_qexp, f_eval, f_qexp, gd_construct,
                               hd_construct, j_eval, zminus_expansion)
from maasslab.qseries import (QSeries, eisenstein_E4, eta_series,
                              euler_product, j_series)

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

    def test_theta_op(self):
        s = QSeries(24, -1, [5, 0, 7], 1)
        t = s.theta_op()
        assert t.coeff(-1) == Fraction(-5, 24)
        assert t.coeff(1) == Fraction(7, 24)
        const = QSeries(1, 0, [3, 0], 1)
        assert all(c == 0 for _, c in const.theta_op().support())

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
        g = QSeries.from_json(f.to_json())
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

    def test_f_eval_matches_series_high_up(self):
        f = f_qexp(40)
        for tau in (mp.mpc("0.3", "3.0"), mp.mpc("-0.2", "4.0")):
            assert abs(f_eval(tau, CTX) - f.eval(tau)) < mp.mpf("1e-48")


class TestHdFamily:
    def test_h25(self):
        h = hd_construct(25)
        assert h.coeff(-25) == 1 and h.coeff(-1) == 1
        assert h.coeff(23) == -196882

    def test_h49(self):
        h = hd_construct(49)
        assert h.coeff(-1) == 1 and h.coeff(23) == -21296875

    def test_h73(self):
        h = hd_construct(73)
        assert h.coeff(-1) == 0 and h.coeff(23) == -842609326

    def test_residue_constraint(self):
        # constant term of h_d * eta vanishes, forcing A(d,-1) = -chi12(sqrt d)
        for d in (25, 49, 73, 97, 121):
            h = hd_construct(d, trunc24=24 * 3 + 23)
            prod = h * eta_qexp(24 * (d // 24 + 6))
            assert prod.coeff(0) == 0
            assert h.coeff(-1) == -chi12_sqrt(d)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            hd_construct(24)
        with pytest.raises(ValueError):
            hd_construct(1)


class TestGdFamily:
    def test_g1(self):
        g = gd_construct(1)
        assert g.coeff(-1) == 1 and g.coeff(0) == -2
        assert (g.coeff(3), g.coeff(4), g.coeff(7)) == (248, -492, 4119)

    def test_g4(self):
        g = gd_construct(4)
        assert g.coeff(0) == -2
        assert (g.coeff(3), g.coeff(4)) == (-26752, -143376)
        assert g.coeff(7) == -8288256

    def test_g5(self):
        g = gd_construct(5)
        assert g.coeff(0) == 0
        assert (g.coeff(3), g.coeff(4), g.coeff(7)) == (85995, -565760, 52756480)

    def test_plus_support_and_integrality(self):
        for d in (1, 4, 5, 8, 12):
            g = gd_construct(d, trunc=40)
            for k, c in g.support():
                assert k % 4 in (0, 3), (d, k)
                assert isinstance(c, int)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            gd_construct(7)
        with pytest.raises(ValueError):
            gd_construct(-4)


class TestHarmonicExpansions:
    def test_F_principal_term(self):
        F = F_expansion(24 * 4, CTX)
        assert F.terms[-1].hol == Fraction(-1, 12)
        assert F.terms[23].hol == Fraction(35, 12)

    def test_zminus_special_term(self):
        Z = zminus_expansion(20, CTX)
        assert ("inv_sqrt_y_over_pi", Fraction(1, 8)) in Z.specials
        assert Z.terms[0].hol == Fraction(-1, 12)
        assert Z.terms[-1].beta32 == [(Fraction(-1, 2), Fraction(4))]

    def test_xi_F_is_eta(self):
        # xi_{3/2} F = -(sqrt 6/(4 pi)) eta via finite differences
        from maasslab.spectral import xi_op
        ctx = PrecisionContext(digits=30)
        F = F_expansion(24 * 8, ctx)
        tau = mp.mpc("0.13", "1.2")
        resid = abs(xi_op(lambda t: F.eval(t, ctx), mp.mpf(3) / 2, tau, ctx=ctx)
                    + mp.sqrt(6) / (4 * mp.pi) * eta_eval(tau, ctx))
        assert resid < mp.mpf("1e-6")

    def test_expansion_json(self):
        Z = zminus_expansion(12, CTX)
        doc = json.loads(Z.to_json())
        assert doc["denom"] == 1
        assert any(t["exponent_num"] == 0 for t in doc["terms"])
