import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

import maasslab
from maasslab import spectral
from maasslab.context import PrecisionContext
from maasslab.exact import chi12_sqrt, eta_multiplier, kloosterman_table, trace_cm_exact
from maasslab.matrices import S_MAT, T_power
from maasslab.modforms import F_expansion, eta_eval
from maasslab.special import c_factor
from maasslab.spectral import (assemble_H, assemble_Z, coeff_a, delta_op,
                               finite_part_prediction, modularity_residual,
                               pole_finite_part, pole_residue, xi_op)
from support import (bessel_weights_scipy, kloosterman_k, neville_at_zero,
                     pole_finite_part_neville)


class TestCoeffA:
    def test_negative_index_value(self, ctx30, ktable):
        res = coeff_a(-23, mp.mpf(3) / 4, 10_000, ctx30, ktable)
        target = 35 / (2 * mp.sqrt(23))
        assert abs(res.value - target) < mp.mpf("1e-2")
        assert abs(res.value - target) < 5 * res.err_est + mp.mpf("1e-3")

    def test_cm_relation(self, ctx30, ktable):
        # a(n, 3/4) = Tr_n / (2 sqrt|n|) for n < 0
        for n in (-23, -47):
            res = coeff_a(n, mp.mpf(3) / 4, 10_000, ctx30, ktable)
            tr = int(trace_cm_exact(n))
            assert abs(res.value - tr / (2 * mp.sqrt(abs(n)))) < mp.mpf("1e-2")

    def test_pole_guard(self, ctx30, ktable):
        with pytest.raises(ArithmeticError):
            coeff_a(25, mp.mpf(3) / 4, 2000, ctx30, ktable)

    def test_cycle_relation_more_indices(self, ktable):
        # Tr_n(f) two ways (geodesic vs Kloosterman) for n = 97 and 145
        from maasslab.traces import trace_cycle
        ctx = PrecisionContext(digits=25)
        for n in (97, 145):
            tv = trace_cycle(n, ctx)
            a = coeff_a(n, mp.mpf(3) / 4, 10_000, ctx, ktable)
            combined = 4 * a.err_est / mp.sqrt(mp.pi) + tv.err_est + mp.mpf("1e-2")
            assert abs(2 / mp.sqrt(mp.pi) * a.value - tv.value) < combined

    def test_pole_subtracted_finite(self, ctx30, ktable):
        res = coeff_a(25, mp.mpf(3) / 4 + mp.mpf("1e-4"), 2000, ctx30, ktable,
                      pole_subtracted=True)
        assert res.pole_subtracted
        assert abs(res.value) < 1e4

    @pytest.mark.parametrize("n", [1, 25])
    def test_pole_subtracted_at_three_quarters(self, ctx30, ktable, n):
        # the constant term a0 at s = 3/4 is the h -> 0 limit of the
        # pole-subtracted value at s = 3/4 + h, which is a0 + O(h): one
        # Richardson step from h = 1e-6 and 1e-7
        s = mp.mpf(3) / 4
        a0 = coeff_a(n, s, 2000, ctx30, ktable, pole_subtracted=True)
        assert a0.pole_subtracted and a0.s == s
        with mp.workdps(40):
            v1, v2 = (coeff_a(n, s + h, 2000, ctx30, ktable, pole_subtracted=True).value
                      for h in (mp.mpf("1e-6"), mp.mpf("1e-7")))
            assert abs(v2 + (v2 - v1) / 9 - a0.value) < mp.mpf("1e-11")

    def test_neville(self):
        hs = [mp.mpf(2) ** -k for k in range(6)]
        vs = [3 + 2 * h - h ** 2 for h in hs]
        val, spread = neville_at_zero(hs, vs)
        assert abs(val - 3) < mp.mpf("1e-20")


class TestPoleStructure:
    def test_residue_n1(self, ctx30, ktable):
        res, spread = pole_residue(1, 10_000, ctx30, ktable)
        assert abs(res - 1) < mp.mpf("1e-3")
        assert abs(res - 1) <= spread

    def test_residue_n25(self, ctx30, ktable):
        res, spread = pole_residue(25, 10_000, ctx30, ktable)
        assert abs(res - (-1)) < mp.mpf("1e-3")
        assert abs(res - (-1)) <= spread

    @pytest.mark.parametrize("n", [1, 25, 49, 121])
    def test_residue_to_the_digits(self, ctx30, n):
        # c(3/4) r with no c-sum in it: chi12(sqrt n) to 10^-digits at any c_max
        for c_max in (100, 10_000):
            res, err = pole_residue(n, c_max, ctx30)
            assert abs(res - chi12_sqrt(n)) <= min(err, mp.mpf("1e-30")), (n, c_max)

    def test_pole_functions_reject_nonsquare_index(self, ctx30):
        for fn in (pole_residue, pole_finite_part):
            for n in (73, -23, 4):
                with pytest.raises(ValueError):
                    fn(n, 100, ctx30)

    @pytest.mark.parametrize("c_max", [2000, 5000])
    @pytest.mark.parametrize("n", [1, 25, 49])
    def test_finite_part_matches_neville_oracle(self, ctx30, ktable, n, c_max):
        fp, _ = pole_finite_part(n, c_max, ctx30, ktable)
        oracle = pole_finite_part_neville(n, c_max, ctx30, ktable)
        assert abs(fp - oracle) < mp.mpf("1e-11"), (n, c_max)

    def test_c_slope_matches_central_difference(self):
        # c_factor rounds s to ctx.digits + 10, so the difference is taken by
        # hand (mp.diff would see a constant)
        ctx = PrecisionContext(digits=60)
        with mp.workdps(70):
            s, h = mp.mpf(3) / 4, mp.mpf("1e-15")
            diff = (c_factor(s + h, ctx) - c_factor(s - h, ctx)) / (2 * h)
            slope = c_factor(s, ctx) * spectral._c_log_slope()
            assert abs(diff - slope) < mp.mpf("1e-25")

    @pytest.mark.parametrize("n", [1, 25, 49, 121])
    def test_finite_part_err_covers_prediction(self, ctx30, ktable, n):
        # the truncation envelope covers the distance to the square-trace
        # prediction (by a factor of 2.3 or more in each of these cases)
        pred = finite_part_prediction(n, ctx30)
        for c_max in (1000, 2000, 5000, 10_000):
            fp, err = pole_finite_part(n, c_max, ctx30, ktable)
            assert abs(fp - pred) <= err, (n, c_max)

    def test_residue_independent_of_ambient_precision(self, ctx30, ktable):
        # the pole-carrying tail term follows ctx, not mp.dps
        for n in (1, 25):
            values = []
            for ambient in (15, 60):
                with mp.workdps(ambient):
                    values.append(pole_residue(n, 5000, ctx30, ktable)[0])
            assert abs(values[0] - values[1]) < mp.mpf("1e-14"), n
            for v in values:
                assert isinstance(v, mp.mpf)
                assert abs(v - chi12_sqrt(n)) < mp.mpf("1e-14"), n


class TestGridCaches:
    """A second call of a pole function returns the bits of the first,
    with the Kloosterman table cold or warm."""

    @pytest.mark.parametrize("with_table", [True, False])
    def test_warm_poles_are_bit_identical(self, ctx30, ktable, with_table):
        table = ktable if with_table else None
        for fn in (pole_residue, pole_finite_part):
            for n in (1, 25):
                kloosterman_table.cache_clear()
                cold = fn(n, 5000, ctx30, table)
                warm = fn(n, 5000, ctx30, table)
                assert [v._mpf_ for v in warm] == [v._mpf_ for v in cold], (fn, n)


class TestBesselWeights:
    """_bessel_weights (power series, mpmath for J above X0) against scipy."""

    @pytest.mark.parametrize("n", [-9601, -479, -71, -23, 1, 25, 73, 145, 361,
                                   601, 9601])
    def test_rows_match_scipy(self, n):
        # n >= 59 take c < pi sqrt n / 24 from mpmath, the rest the series
        for s in (0.76, 0.755, 0.7525, 0.75125, 0.750625, 0.7503125, 0.75015625,
                  0.75, 1.0, 1.1, 2.0):
            w = spectral._bessel_weights(n, s, 10_000)
            ref = bessel_weights_scipy(n, s, 10_000)
            assert w.shape == ref.shape
            assert np.all(np.abs(w - ref) <= 1e-12 * np.abs(ref) + 1e-15), (n, s)

    def test_mpmath_takes_the_j_entries_above_x0(self, monkeypatch):
        args = []
        for name in ("besselj", "besseli"):
            monkeypatch.setattr(mp, name, lambda nu, x, fn=getattr(mp, name):
                                args.append(x) or fn(nu, x))
        for n, big in ((-23, 0), (25, 0), (73, 1), (145, 1), (-479, 0), (361, 2),
                       (-9601, 0), (9601, 12)):
            args.clear()
            spectral._bessel_weights(n, 0.76, 100)
            assert len(args) == big, n
            assert all(x > spectral._BESSEL_X0 for x in args), n

    def test_series_cut(self):
        # K is the least index >= 2 whose next term at the row's largest
        # argument is below 2^-60 of the kept sum and whose next ratio is at
        # most 1/2; at zmax = 8e4 the ratio is what decides
        for nu in (-0.5, 0.5, 0.52, 1.0, 3.0):
            for zmax in (0.07, 1.0, 4.0, 658.0, 8e4):
                coeffs = spectral._bessel_series(nu, zmax)
                K = len(coeffs) - 1
                terms = [coeffs[0]]
                for k in range(1, K + 2):
                    terms.append(terms[-1] * zmax / (k * (nu + k)))

                def small(k):
                    return terms[k + 1] < 2.0 ** -60 * sum(terms[:k + 1])

                def shrinks(k):
                    return 2 * zmax <= (k + 2) * (nu + k + 2)

                assert K >= 2 and small(K) and shrinks(K)
                assert K == 2 or not (small(K - 1) and shrinks(K - 1))
                assert small(K - 1) == (zmax == 8e4)
                assert coeffs[0] == 1 / math.gamma(nu + 1)

    def test_order_must_exceed_minus_one(self):
        with pytest.raises(ValueError):
            spectral._bessel_weights(25, 0.0, 10)


class TestConstantTermSimplification:
    def test_kloosterman_simplification(self, ctx30):
        # sum over c = 0 mod 6/r, (c,r)=1 of k(-rbar,0;c)/(c sqrt r)^{2s}
        # collapses to mu(6/r) r^s/6^{2s} sum_{(c,6)=1} mu(c) c^{-2s}
        s = mp.mpf("1.1")
        mu = {1: 1, 2: -1, 3: -1, 6: 1}
        with mp.workdps(40):
            lhs = mp.mpf(0)
            for r in (1, 2, 3, 6):
                inner = mp.mpf(0)
                step = 6 // r
                for c in range(step, 3000, step):
                    if math.gcd(c, r) != 1:
                        continue
                    rbar = pow(r, -1, c) if c > 1 else 0
                    inner += kloosterman_k(-rbar, 0, c, ctx30).real \
                        / (c * mp.sqrt(r)) ** (2 * s)
                lhs += mu[r] * inner
            rhs = 1 / ((2 ** s - 1) * (3 ** s - 1) * mp.zeta(2 * s))
            assert abs(lhs - rhs) < mp.mpf("1e-3")


class TestAssembly:
    def test_H_requires_traces(self, ctx30):
        with pytest.raises(ValueError, match="25"):
            assemble_H(30, traces={}, ctx=ctx30)

    def test_H_q124_structure(self, ctx30, trace_table, H_full):
        # the q^{1/24} mode: hol = -i + Tr_1, beta12 carries i at scale -1/6
        t = H_full.terms[1]
        assert abs(t.hol - (mp.mpc(0, -1) + trace_table[1][0])) < mp.mpf("1e-18")
        (coeff, scale), = t.beta12
        assert abs(coeff - mp.mpc(0, 1)) == 0 and scale == -Fraction(1, 6)

    def test_H_square_coefficient_25(self, ctx30, trace_table, H_full):
        # 12 chi12(5)/5 h*(25) = -(48 log 5)/(5 pi) on top of Tr_25
        t = H_full.terms[25]
        extra = t.hol - trace_table[25][0]
        assert abs(extra - (-48 * mp.log(5) / (5 * mp.pi))) < mp.mpf("1e-18")

    def test_H_negative_mode(self, H_full):
        (coeff, scale), = H_full.terms[-23].beta12
        assert abs(coeff - 35 / mp.sqrt(23)) < mp.mpf("1e-18")
        assert scale == Fraction(23, 6)

    def test_H_shift_phase(self, ctx30, H_full):
        # H(tau + 1) = e(1/24) H(tau) exactly (all exponents are 1 mod 24)
        tau = mp.mpc("0.31", "1.4")
        lhs = H_full.eval(tau + 1, ctx30)
        rhs = mp.expjpi(mp.mpf(2) / 24) * H_full.eval(tau, ctx30)
        assert abs(lhs - rhs) < mp.mpf("1e-22")

    def test_H_truncation_consistency(self, ctx30, trace_table, H_full):
        tau = mp.mpc("0.3", "1.5")
        half = assemble_H(169, traces=trace_table, ctx=ctx30, neg_max=169)
        assert abs(H_full.eval(tau, ctx30) - half.eval(tau, ctx30)) \
            < mp.mpf("1e-6")

    def test_Z_special_terms(self, ctx30):
        Z = assemble_Z(20, ctx30)
        y = mp.mpf(1)
        sp = Z.specials_value(y, ctx30)
        expect = mp.sqrt(y) / 3 + (mp.euler - mp.log(16 * mp.pi)) / (4 * mp.pi)
        assert abs(sp - expect) < mp.mpf("1e-25")

    def test_Z_truncation_consistency(self, ctx30):
        tau = mp.mpc("0.3", "1.5")
        a = assemble_Z(24, ctx30).eval(tau, ctx30)
        b = assemble_Z(48, ctx30).eval(tau, ctx30)
        assert abs(a - b) < mp.mpf("1e-6")


class TestOperators:
    def test_xi_kills_holomorphic(self, ctx30):
        v = xi_op(lambda t: t ** 3 - 2 * t, mp.mpf(1) / 2, mp.mpc("0.2", "1.1"),
                  ctx=ctx30)
        assert abs(v) < mp.mpf("1e-8")

    def test_xi_H_is_F(self, ctx30, H_full):
        F = F_expansion(24 * 9)
        tau = mp.mpc("0.2", "1.3")
        resid = abs(xi_op(lambda t: H_full.eval(t, ctx30), mp.mpf(1) / 2,
                          tau, ctx=ctx30)
                    + 2 * mp.sqrt(6) * F.eval(tau, ctx30))
        assert resid < mp.mpf("1e-4")

    def test_delta_H_is_eta(self, ctx30, H_full):
        tau = mp.mpc("0.2", "1.6")
        resid = abs(delta_op(lambda t: H_full.eval(t, ctx30), mp.mpf(1) / 2,
                             tau, ctx=ctx30)
                    + 3 / mp.pi * eta_eval(tau, ctx30))
        assert resid < mp.mpf("1e-4")


class TestModularity:
    def test_eta_under_S(self, ctx30):
        tau = mp.mpf(1) / 3 + mp.mpc(0, "1.2")
        r = modularity_residual(lambda t: eta_eval(t, ctx30), S_MAT,
                                mp.mpf(1) / 2, eta_multiplier(S_MAT), tau, ctx30)
        assert r < mp.mpf("1e-32")

    def test_H_under_T(self, ctx30, H_full):
        tau = mp.mpc("0.05", "1.02")
        r = modularity_residual(lambda t: H_full.eval(t, ctx30), T_power(1),
                                mp.mpf(1) / 2, eta_multiplier(T_power(1)),
                                tau, ctx30)
        assert r < mp.mpf("1e-20")

    def test_H_under_S(self, ctx30, H_full):
        # with every trace a geodesic or ray integral at 30 digits the S-law
        # holds to 3e-34 or better at these points
        for x, y in (("0.05", "1.02"), ("-0.31", "1.1"), ("0.13", "1.2"),
                     ("0.41", "0.95")):
            r = modularity_residual(lambda t: H_full.eval(t, ctx30), S_MAT,
                                    mp.mpf(1) / 2, eta_multiplier(S_MAT),
                                    mp.mpc(x, y), ctx30)
            assert r < mp.mpf("1e-30"), (x, y)


def test_package_loads_without_scipy():
    # scipy is a test-only oracle: the package imports it nowhere, also not
    # while it builds Bessel weight rows (series and mpmath branches alike)
    code = ("import sys\n"
            "from mpmath import mp\n"
            "from maasslab import innerprod, traces\n"
            "from maasslab.cli import main\n"
            "from maasslab.spectral import coeff_a, pole_finite_part, pole_residue\n"
            "coeff_a(-23, mp.mpf(3) / 4, 2000)\n"
            "coeff_a(73, mp.mpf(3) / 4, 2000)\n"
            "pole_residue(1, 2000)\n"
            "pole_finite_part(25, 2000)\n"
            "assert main(['--no-timing', 'coeff', '--n', '-23']) == 0\n"
            "print('scipy' in sys.modules)\n")
    src = str(Path(maasslab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    *cli, loaded = proc.stdout.splitlines()
    assert '"command": "coeff"' in cli[-1]
    assert loaded == "False"
