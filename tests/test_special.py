import random

import pytest
from mpmath import mp

from maasslab.context import PrecisionContext
from maasslab.special import (ALPHA_CLOSED_MAX, _alpha_closed, _alpha_trapezoid,
                              alpha, bessel, beta_k, c_factor, cprime_factor,
                              erfc_quadrature, whittaker_M, whittaker_Wn,
                              whittaker_Wn_ds)
from support import beta_gammainc, gamma_star

CTX = PrecisionContext(digits=60)


class TestBeta:
    def test_small_argument_limit(self):
        assert abs(beta_k(0.5, mp.mpf("1e-15"), CTX) - 1) < mp.mpf("1e-6")

    def test_beta_half_is_erfc(self):
        for y in ("0.1", "1", "5", "20"):
            b = beta_k(0.5, mp.mpf(y), CTX)
            e = erfc_quadrature(mp.sqrt(mp.mpf(y)), CTX)
            assert abs(b - e) < mp.mpf("1e-52")

    def test_printed_value(self):
        assert abs(beta_k(0.5, 1, CTX) - mp.mpf("0.15729920705028513")) < mp.mpf("1e-16")

    def test_beta32_decay_scale(self):
        # beta_{3/2}(y) y^{3/2} e^y stays bounded (tends to 1/Gamma(-1/2))
        vals = [beta_k(1.5, y, CTX) * mp.mpf(y) ** mp.mpf("1.5") * mp.e ** y
                for y in (5, 20, 80, 200)]
        assert all(abs(v) < 1 for v in vals)
        assert abs(vals[-1] - 1 / mp.gamma(-mp.mpf(1) / 2)) < mp.mpf("0.01")

    def test_integer_k_rejected(self):
        # so is every k other than 1/2 and 3/2
        for k in (1, 1 / 4):
            with pytest.raises(ValueError):
                beta_k(k, 2.0, CTX)

    @pytest.mark.parametrize("digits", [30, 60])
    def test_closed_forms_match_gammainc(self, digits):
        """erfc(sqrt y) and erfc(sqrt y) - e^{-y}/sqrt(pi y) against mpmath's
        general incomplete gamma, y = 10^-6 .. 10^3 on a grid of 0.25 in
        log10 y (beta_{3/2} cancels about log10(2y) digits at large y)."""
        ctx = PrecisionContext(digits=digits)
        for e in range(-24, 13):
            y = mp.mpf(10) ** (mp.mpf(e) / 4)
            for k in (mp.mpf(1) / 2, mp.mpf(3) / 2):
                with mp.workdps(digits + 20):
                    b, ref = beta_k(k, y, ctx), beta_gammainc(k, y, ctx)
                    assert abs(b - ref) <= mp.mpf(10) ** -(digits + 3) * abs(ref), (k, y)

    def test_negative_argument_continuation(self):
        # beta_{1/2}(-y) = 1 - i erfi(sqrt y) against 1 - i sqrt(y) gamma*(1/2, -y)
        for digits in (30, 60):
            ctx = PrecisionContext(digits=digits)
            for y in ("1e-6", "0.01", "0.5236", "3", "12.5", "40"):
                y = mp.mpf(y)
                with mp.workdps(digits + 20):
                    v = beta_k(0.5, -y, ctx)
                    ref = 1 - mp.mpc(0, 1) * mp.sqrt(y) * gamma_star(mp.mpf(1) / 2, -y, ctx)
                    assert abs(v - ref) <= mp.mpf(10) ** -(digits + 3) * abs(ref), y
        with pytest.raises(ValueError):
            beta_k(1.5, -1.0, CTX)

    def test_betarel_identity(self):
        # beta(-pi Y/6) - 1 = beta(-pi/6) - 1 - (i/sqrt 6) int_1^Y y^{-1/2} e^{pi y/6}
        a = mp.pi / 6
        for Y in (4, 8):
            I = mp.sqrt(mp.pi / a) * (mp.erfi(mp.sqrt(a * Y)) - mp.erfi(mp.sqrt(a)))
            lhs = beta_k(0.5, -mp.pi * Y / 6, CTX) - 1
            rhs = beta_k(0.5, -mp.pi / 6, CTX) - 1 - mp.mpc(0, 1) / mp.sqrt(6) * I
            assert abs(lhs - rhs) < mp.mpf("1e-8")


class TestAlpha:
    def test_monotone(self):
        assert alpha(100, CTX) < alpha(1, CTX)

    def test_decay(self):
        assert alpha(10_000, CTX) < mp.mpf("1e-3")

    def test_positive(self):
        for y in ("0.3", "1", "7", "50"):
            assert alpha(mp.mpf(y), CTX) > 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            alpha(0, CTX)

    def test_whittaker_derivative_relation(self):
        # 4 pi alpha(ny/6) e^{-pi n y/12} = d/ds W-package at s = 3/4
        for n, y in ((1, 2), (1, 3)):
            lhs = 4 * mp.pi * alpha(mp.mpf(n) * y / 6, CTX) * mp.e ** (-mp.pi * n * y / 12)
            rhs = whittaker_Wn_ds(n, y, ctx=CTX, method="analytic")
            assert abs(lhs - rhs) < mp.mpf("1e-50")

    @pytest.mark.parametrize("digits", [30, 60])
    def test_matches_whittaker_oracle(self, digits):
        # 4 pi alpha(y) e^{-pi y/2} = d/ds W-package (n = 1) at 6y, s = 3/4
        ctx = PrecisionContext(digits=digits)
        for y in ("0.01", "0.12", "1", "8", "20", "128", "500"):
            y = mp.mpf(y)
            with mp.workdps(digits + 20):
                lhs = 4 * mp.pi * alpha(y, ctx) * mp.e ** (-mp.pi * y / 2)
                rhs = whittaker_Wn_ds(1, 6 * y, ctx=ctx, method="analytic")
                assert abs(lhs - rhs) <= mp.mpf(10) ** -digits * abs(rhs), y

    @pytest.mark.parametrize("digits", [30, 60])
    def test_against_more_digits(self, digits):
        """Against a run at 20 more digits, across both step limits: the
        singularity step applies below pi y ~ (digits + 10) log 10 (y ~ 31 at
        30 digits, ~ 53 at 60) and the Gaussian-width step above it."""
        ctx, hi = PrecisionContext(digits=digits), PrecisionContext(digits=digits + 20)
        ys = ("0.01", "0.3", "2", "8", "8.5", "25", "30", "31", "31.5", "33",
              "50", "52", "53", "55", "128", "500", "10000")
        for y in ys:
            y = mp.mpf(y)
            with mp.workdps(digits + 40):
                a, ref = alpha(y, ctx), alpha(y, hi)
                assert abs(a - ref) <= mp.mpf(10) ** -(digits + 5) * ref, y

    @pytest.mark.parametrize("digits", [30, 60])
    def test_closed_form_matches_trapezoid(self, digits):
        """The erfi/2F2 closed form against the trapezoid rule for pi y in
        [15, 45], on both sides of the hand-off at pi y = ALPHA_CLOSED_MAX,
        where the closed form's e^{pi y} cancellation is largest."""
        assert ALPHA_CLOSED_MAX == 30
        ctx = PrecisionContext(digits=digits)
        for p in (15, 20, 25, 29, 30, 31, 35, 40, 45):
            y = mp.mpf(p) / mp.pi
            with mp.workdps(digits + 20):
                a, ref = _alpha_closed(y, ctx), _alpha_trapezoid(y, ctx)
                assert abs(a - ref) <= mp.mpf(10) ** -(digits + 3) * ref, p

    def test_d25_gap_value(self):
        """The alpha gap quoted by test_criterion7_level1_square_d25,
        sqrt(24) |alpha(100/3) - alpha(4/3)|, recorded from the tanh-sinh
        quadrature at 50 digits."""
        ctx = PrecisionContext(digits=30)
        with mp.workdps(40):
            gap = mp.sqrt(24) * abs(alpha(mp.mpf(200) / 6, ctx)
                                    - alpha(mp.mpf(8) / 6, ctx))
            ref = mp.mpf("0.038492235372185808499871003434119250842163")
            assert abs(gap - ref) < mp.mpf("1e-30")


class TestBessel:
    def test_half_integer_closed_forms(self):
        x = mp.pi
        assert abs(bessel("J", 0.5, x)) < mp.mpf("1e-55")
        assert abs(bessel("I", 0.5, 1)
                   - mp.sqrt(2 / mp.pi) * mp.sinh(1)) < mp.mpf("1e-55")
        assert abs(bessel("K", 0.5, 2)
                   - mp.sqrt(mp.pi / 4) * mp.e ** -2) < mp.mpf("1e-55")

    def test_monotonicity(self):
        ks = [bessel("K", 0.75, x) for x in (1, 2, 4, 8)]
        assert all(a > b > 0 for a, b in zip(ks, ks[1:]))
        is_ = [bessel("I", 0.75, x) for x in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(is_, is_[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bessel("J", 0.5, 0)


class TestWhittaker:
    def test_closed_form_positive_index(self):
        v = whittaker_Wn(25, 1, mp.mpf(3) / 4, CTX)
        assert abs(v - mp.e ** (-mp.pi * 25 / 12)) < mp.mpf("1e-50")

    def test_closed_form_negative_index(self):
        v = whittaker_Wn(-23, 1, mp.mpf(3) / 4, CTX)
        target = (mp.sqrt(mp.pi) * beta_k(0.5, mp.pi * 23 / 6, CTX)
                  * mp.e ** (mp.pi * 23 / 12))
        assert abs(v - target) < mp.mpf("1e-50")

    def test_integral_vs_series_paths(self):
        random.seed(7)
        for _ in range(10):
            n = random.choice([25, -23, 49, -47, 73, 97])
            y = mp.mpf(random.uniform(0.5, 3.0))
            s = mp.mpf(random.uniform(0.7, 1.0))
            wi = whittaker_Wn(n, y, s, CTX, method="integral")
            ws = whittaker_Wn(n, y, s, CTX, method="series")
            assert abs(wi - ws) < mp.mpf("1e-50")

    def test_ds_analytic_vs_fd(self):
        for n, y in ((1, 3), (25, 1)):
            a = whittaker_Wn_ds(n, y, ctx=CTX, method="analytic")
            f = whittaker_Wn_ds(n, y, ctx=CTX, method="fd")
            assert abs(a - f) < mp.mpf("1e-8")

    def test_M_closed_form(self):
        v = whittaker_M(1, mp.mpf(3) / 4, CTX)
        closed = (-mp.mpc(0, 1) * mp.sqrt(mp.pi) / 2
                  * (1 - beta_k(0.5, -mp.pi / 6, CTX)) * mp.e ** (-mp.pi / 12))
        assert abs(v - closed) < mp.mpf("1e-52")

    def test_M_small_argument_finite(self):
        assert mp.isfinite(whittaker_M(mp.mpf("1e-3"), mp.mpf(3) / 4, CTX))

    def test_M_kummer_oracle(self):
        a = whittaker_M(2, mp.mpf("0.9"), CTX, method="series")
        b = whittaker_M(2, mp.mpf("0.9"), CTX, method="kummer")
        assert abs(a - b) < mp.mpf("1e-50")


class TestNormalizingFactors:
    def test_c34(self):
        assert abs(c_factor(mp.mpf(3) / 4, CTX) - mp.sqrt(mp.pi) / 3) < mp.mpf("1e-50")

    def test_cprime34(self):
        assert abs(cprime_factor(mp.mpf(3) / 4, CTX) - 4 * mp.pi / 3) < mp.mpf("1e-50")

    def test_c_continuity(self):
        c0 = c_factor(mp.mpf(3) / 4, CTX)
        for eps in (mp.mpf("1e-8"), -mp.mpf("1e-8")):
            assert abs(c_factor(mp.mpf(3) / 4 + eps, CTX) - c0) < mp.mpf("1e-6")
