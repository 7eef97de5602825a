import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

import maasslab
from maasslab.context import PrecisionContext
from maasslab.exact import chi12_sqrt, eta_multiplier, trace_cm_exact
from maasslab.matrices import S_MAT, T_power
from maasslab.modforms import F_expansion, eta_eval
from maasslab.spectral import (assemble_H, assemble_Z, coeff_a, delta_op,
                               modularity_residual, neville_at_zero,
                               pole_finite_part, pole_residue, xi_op)
from support import kloosterman_k


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

    def test_residue_independent_of_ambient_precision(self, ctx30, ktable):
        # the s grid and the pole-carrying tail term follow ctx, not mp.dps
        for n in (1, 25):
            values = []
            for ambient in (15, 60):
                with mp.workdps(ambient):
                    values.append(pole_residue(n, 5000, ctx30, ktable)[0])
            assert abs(values[0] - values[1]) < mp.mpf("1e-14"), n
            for v in values:
                assert isinstance(v, mp.mpf)
                assert abs(v - chi12_sqrt(n)) < mp.mpf("1e-14"), n


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
        tau = mp.mpc("0.05", "1.02")
        r = modularity_residual(lambda t: H_full.eval(t, ctx30), S_MAT,
                                mp.mpf(1) / 2, eta_multiplier(S_MAT), tau, ctx30)
        assert r < mp.mpf("1e-4")


def test_package_loads_without_scipy():
    # only coeff_a's float Bessel weights need scipy, and coeff_a imports it
    code = ("import sys, maasslab.traces, maasslab.innerprod, maasslab.spectral, "
            "maasslab.cli; sys.exit('scipy' in sys.modules)")
    src = str(Path(maasslab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
