import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from maasslab import special
from maasslab.classnum import hstar, hurwitz_H
from maasslab.exact import chi12_sqrt
from maasslab.harmonic import pair_on_horizontal
from maasslab.innerprod import (NEG_DEPTH, counterterm_integral, ip_level1,
                                ip_level1_closed, ip_level1_numeric, ip_level4,
                                ip_level4_closed, ip_level4_numeric,
                                ip_level4_quad2d_value, plain_reg_closed,
                                vec_pairing_level4)
from maasslab.modforms import gd_construct, hd_construct
from maasslab.special import alpha, beta_k
from maasslab.spectral import assemble_H, assemble_Z


class TestLevel1Closed:
    def test_nonsquare_is_minus_trace(self, ctx30, trace_table):
        closed = ip_level1_closed(73, ctx30, traces=trace_table)
        assert abs(mp.sqrt(24) * closed + trace_table[73][0]) < mp.mpf("1e-20")

    def test_square_instantiation(self, ctx30, trace_table):
        closed = ip_level1_closed(25, ctx30, traces=trace_table)
        # sqrt(24) <h_25,F> = -Tr_25 - (Tr_1 - (48 log 5)/(5 pi) - i)
        expect = (-trace_table[25][0]
                  - (trace_table[1][0] - 48 * mp.log(5) / (5 * mp.pi)
                     - mp.mpc(0, 1))) / mp.sqrt(24)
        assert abs(closed - expect) < mp.mpf("1e-18")

    def test_imaginary_part_bookkeeping(self, ctx30, trace_table):
        for d in (25, 49, 73):
            closed = ip_level1_closed(d, ctx30, traces=trace_table)
            expect_im = chi12_sqrt(d) * mp.mpf(-1) / mp.sqrt(24)
            assert abs(mp.im(closed) - expect_im) < mp.mpf("1e-18")


class TestLevel1Numeric:
    def test_d73_matches_closed(self, ctx30, trace_table, H_full):
        closed = ip_level1_closed(73, ctx30, traces=trace_table)
        numeric = ip_level1_numeric(73, 10, ctx30, hexp=H_full)
        assert abs(closed - numeric) < mp.mpf("1e-6")

    def test_d97_matches_closed(self, ctx30, trace_table, H_full):
        closed = ip_level1_closed(97, ctx30, traces=trace_table)
        numeric = ip_level1_numeric(97, 10, ctx30, hexp=H_full)
        assert abs(closed - numeric) < mp.mpf("1e-6")

    def test_plain_integral_converges_for_nonsquare(self, ctx30, trace_table,
                                                    H_full):
        # chi12(sqrt 73) = 0: no counterterms needed at all
        a = ip_level1_numeric(73, 9, ctx30, hexp=H_full)
        b = ip_level1_numeric(73, 12, ctx30, hexp=H_full)
        closed = ip_level1_closed(73, ctx30, traces=trace_table)
        assert abs(a - b) < mp.mpf("1e-6")
        assert abs(a - closed) < mp.mpf("1e-6")

    @pytest.mark.parametrize("d", [73, 97])
    @pytest.mark.parametrize("Y", [9, 12])
    def test_nonsquare_is_the_plain_pairing(self, ctx30, H_full, d, Y):
        """For non-square d the counterterm and the beta residual vanish, so
        the value is the truncated integral -pairing/sqrt(24), bit for bit."""
        numeric = ip_level1_numeric(d, Y, ctx30, hexp=H_full)
        with mp.workdps(ctx30.digits + 10):
            pairing = pair_on_horizontal(hd_construct(d, trunc24=NEG_DEPTH), H_full,
                                         mp.mpf(Y), ctx30)
            plain = +(-pairing / mp.sqrt(24))
        assert numeric._mpc_ == plain._mpc_

    def test_missing_traces_raise(self, ctx30, trace_table):
        # Tr_d for every d, Tr_1 for square d only; the message names the index
        for d, gap in ((73, 73), (25, 1)):
            table = {n: v for n, v in trace_table.items() if n != gap}
            with pytest.raises(ValueError, match=rf"\[{gap}\]"):
                ip_level1_closed(d, ctx30, traces=table)
            with pytest.raises(ValueError, match=rf"\[{gap}\]"):
                ip_level1(d, 10, ctx30, traces=table)
        ip_level1_closed(73, ctx30, traces={73: trace_table[73]})
        short = assemble_H(49, traces=trace_table, ctx=ctx30, neg_max=NEG_DEPTH)
        with pytest.raises(ValueError, match=r"\[73\]"):
            ip_level1_numeric(73, 10, ctx30, hexp=short)

    def test_d25_gap_is_alpha_terms(self, ctx30, trace_table, H_full):
        """At finite Y the truncated integral differs from the closed value by
        the decaying alpha terms of the boundary expansion; check the gap IS
        that (the Y = 8 discrepancy is 3.8e-2, far above the 1e-3 target of
        the acceptance suite, which is unattainable at this height -- see
        the acceptance suite and the project notes)."""
        closed = ip_level1_closed(25, ctx30, traces=trace_table)
        numeric = ip_level1_numeric(25, 8, ctx30, hexp=H_full)
        gap_alpha = mp.sqrt(24) * (alpha(mp.mpf(25 * 8) / 6, ctx30)
                                   - alpha(mp.mpf(8) / 6, ctx30))
        assert abs(abs(closed - numeric) - abs(gap_alpha)) < mp.mpf("1e-5")

    def test_y_dependence_matches_alpha_rate(self, ctx30, trace_table, H_full):
        """|numeric(8) - numeric(10)| tracks the alpha-term difference (about
        7e-3; a 1e-3 band would need exponentially fast decay, which the
        alpha terms do not have)."""
        n8 = ip_level1_numeric(25, 8, ctx30, hexp=H_full)
        n10 = ip_level1_numeric(25, 10, ctx30, hexp=H_full)
        pred = mp.sqrt(24) * ((alpha(mp.mpf(200) / 6, ctx30)
                               - alpha(mp.mpf(8) / 6, ctx30))
                              - (alpha(mp.mpf(250) / 6, ctx30)
                                 - alpha(mp.mpf(10) / 6, ctx30)))
        assert abs(abs(n8 - n10) - abs(pred)) < mp.mpf("1e-5")
        assert abs(n8 - n10) < mp.mpf("2e-2")

    def test_counterterm_closed_form(self, ctx30):
        # erfi closed form against direct quadrature
        val = counterterm_integral(6, ctx30)
        quad = mp.quad(lambda y: mp.e ** (mp.pi * y / 6) / mp.sqrt(y), [1, 6])
        assert abs(val - quad) < mp.mpf("1e-25")

    def test_rejects_low_height(self, ctx30, H_full):
        with pytest.raises(ValueError):
            ip_level1_numeric(73, 1.5, ctx30, hexp=H_full)


class TestLevel4:
    def test_closed_values(self, ctx30):
        gold = (1 + mp.sqrt(5)) / 2
        expect5 = -mp.log(gold) / (mp.pi * mp.sqrt(5))
        assert abs(ip_level4_closed(5, ctx30) - expect5) < mp.mpf("1e-25")
        expect1 = (mp.euler - mp.log(4 * mp.pi)) / (2 * mp.pi)
        assert abs(ip_level4_closed(1, ctx30) - expect1) < mp.mpf("1e-25")
        assert abs(expect1 - mp.mpf("-0.3110")) < mp.mpf("5e-5")

    def test_fast_path_nonsquare(self, ctx30):
        for d in (5, 8, 12):
            r = ip_level4(d, Y=8, ctx=ctx30)
            assert r.discrepancy < mp.mpf("1e-3")

    def test_fast_path_square(self, ctx30):
        for d, tol in ((1, "1e-2"), (4, "1e-2")):
            r = ip_level4(d, Y=8, ctx=ctx30)
            assert r.discrepancy < mp.mpf(tol)

    def test_both_routes_every_d_up_to_60(self, ctx30):
        """Closed form against the boundary pairing for every discriminant
        0 < d <= 60: non-square d within 1e-12; square d keep the 1e-2 of
        test_fast_path_square, since their boundary value still carries
        alpha terms that decay only slowly in Y."""
        for d in range(1, 61):
            if d % 4 not in (0, 1):
                continue
            tol = "1e-2" if math.isqrt(d) ** 2 == d else "1e-12"
            assert ip_level4(d, Y=8, ctx=ctx30).discrepancy < mp.mpf(tol), d

    def test_four_thirds_relation(self, ctx30):
        numeric = ip_level4_numeric(5, 8, ctx30)
        reg = plain_reg_closed(5, ctx30)
        assert abs(numeric - mp.mpf(4) / 3 * reg) < mp.mpf("1e-3")

    def test_up_to_Y_structure(self, ctx30):
        """The Y-dependent boundary terms decay/cancel individually: compare
        the raw pairing at two heights against the alpha/beta corrections."""
        d = 1
        closed_hstar = -hstar(d, ctx30) / mp.sqrt(d)

        def predicted(Y):
            Y = mp.mpf(Y)
            val = closed_hstar + mp.sqrt(Y) / 3 \
                + (mp.euler - mp.log(4 * mp.pi * Y)) / (2 * mp.pi) \
                - 2 * alpha(d * Y, ctx30)
            gd = gd_construct(d, trunc=24)
            for n in range(1, 25):
                if n % 4 in (1, 2):
                    continue
                B = gd.coeff(n)
                H = hurwitz_H(n)
                if B and H:
                    val -= (B * mp.mpf(H.numerator) / H.denominator
                            * beta_k(0.5, mp.pi * n * Y, ctx30) / mp.sqrt(n))
            return val

        for Y in (6, 8):
            pairing = vec_pairing_level4(d, Y, ctx30)
            assert abs(pairing - predicted(Y)) < mp.mpf("1e-12")

    def test_2d_oracle_d5(self, ctx30):
        val = ip_level4_quad2d_value(5, 4.0, ctx30)
        assert abs(val - ip_level4_closed(5, ctx30)) < mp.mpf("1e-2")

    def test_2d_oracle_d1(self, ctx30):
        val = ip_level4_quad2d_value(1, 8.0, ctx30)
        assert abs(val - ip_level4_closed(1, ctx30)) < mp.mpf("1e-2")

    def test_rejects_bad_discriminant(self, ctx30):
        with pytest.raises(ValueError):
            ip_level4_closed(7, ctx30)
        with pytest.raises(ValueError):
            ip_level4_numeric(6, 8, ctx30)


def _mpnum(c):
    return mp.mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else c


def _mode_with_decay(hx, num, y, ctx):
    """The e(nu x) coefficient of hx on Im tau = y, decay included:
    (hol + sum c beta_k(s pi y) + sum c alpha(s y)) e^{-2 pi nu y}, with
    beta_k uncached."""
    t = hx.terms[num]
    beta = special.beta_k.__wrapped__
    part = _mpnum(t.hol)
    for k, pairs in ((mp.mpf(1) / 2, t.beta12), (mp.mpf(3) / 2, t.beta32)):
        part += sum(_mpnum(c) * beta(k, _mpnum(s) * mp.pi * y, ctx) for c, s in pairs)
    part += sum(_mpnum(c) * alpha(_mpnum(s) * y, ctx) for c, s in t.alph)
    return part * mp.exp(-2 * mp.pi * mp.mpf(num) / hx.denom * y)


class TestPairingWithoutDecays:
    """The pairing and eval drop e^{-2 pi nu y} from the modes; the formula
    with both exponentials written out is their oracle."""

    @staticmethod
    def _two_exponentials(qs, hx, y, ctx):
        with mp.workdps(ctx.digits + 20):
            y = mp.mpf(y)
            total = mp.mpc(0)
            for k, c in qs.support():
                if -k in hx.terms:
                    total += (_mpnum(c) * mp.exp(-2 * mp.pi * mp.mpf(k) / qs.denom * y)
                              * _mode_with_decay(hx, -k, y, ctx))
                if k == 0:
                    total += _mpnum(c) * hx.specials_value(y, ctx)
            return total

    def _check(self, qs, hx, y, ctx):
        got = pair_on_horizontal(qs, hx, y, ctx)
        want = self._two_exponentials(qs, hx, y, ctx)
        assert abs(got - want) <= mp.mpf(10) ** -(ctx.digits + 5) * max(1, abs(want))

    def test_g5_with_Z_at_height_2(self, ctx30):
        self._check(gd_construct(5, trunc=24), assemble_Z(24, ctx30), 2, ctx30)

    def test_h73_with_H_at_Y_10(self, ctx30, H_full):
        self._check(hd_construct(73, trunc24=NEG_DEPTH), H_full, 10, ctx30)

    def test_eval_is_phase_times_decay(self, ctx30):
        Z = assemble_Z(24, ctx30)
        rng = random.Random(5)
        for _ in range(3):
            tau = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.5))
            got = Z.eval(tau, ctx30)
            with mp.workdps(ctx30.digits + 20):
                want = Z.specials_value(tau.imag, ctx30) + sum(
                    _mode_with_decay(Z, num, tau.imag, ctx30)
                    * mp.expjpi(2 * mp.mpf(num) / Z.denom * tau.real)
                    for num in Z.terms)
            assert abs(got - want) <= mp.mpf(10) ** -(ctx30.digits + 5) * max(1, abs(want)), tau
