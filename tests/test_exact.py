import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from maasslab.exact import (_eta_phase, _spt_list, _units, chi12, chi12_sqrt,
                            dedekind_sum, eta_multiplier, kloosterman_A,
                            kloosterman_table, kronecker_symbol, lehmer_ratios,
                            omega0, partial_sum_S, partition_p, s_coeff, spt,
                            trace_cm_exact)
from maasslab.context import PrecisionContext
from maasslab.matrices import IDENTITY, S_MAT, T_power
from support import (dedekind_sum_direct, kloosterman_A_direct, kloosterman_K_eta,
                     kloosterman_k, partition_p_enum, spt_enum)

CTX = PrecisionContext(digits=40)


class TestDedekind:
    def test_defining_examples(self):
        assert dedekind_sum(1, 1) == 0
        assert dedekind_sum(1, 2) == 0
        assert dedekind_sum(1, 3) == Fraction(1, 18)

    def test_fast_path_matches_direct(self):
        for d, c in [(5, 7), (3, 11), (23, 24), (17, 60), (41, 97)]:
            assert dedekind_sum(d, c) == dedekind_sum_direct(d, c)

    def test_gcd_violation(self):
        with pytest.raises(ValueError):
            dedekind_sum(2, 4)

    def test_reciprocity_exhaustive(self):
        # s(d,c) + s(c,d) = -1/4 + (c/d + d/c + 1/(cd))/12 for coprime pairs
        for c in range(1, 51):
            for d in range(1, 51):
                if math.gcd(c, d) != 1:
                    continue
                lhs = dedekind_sum(d, c) + dedekind_sum(c, d)
                rhs = Fraction(-1, 4) + (Fraction(c, d) + Fraction(d, c)
                                         + Fraction(1, c * d)) / 12
                assert lhs == rhs


class TestEtaMultiplier:
    def test_generators(self):
        assert eta_multiplier(IDENTITY).exponent == 0
        assert eta_multiplier(T_power(1)).exponent == 1
        assert eta_multiplier(S_MAT).exponent == (-3) % 24

    def test_against_defining_ratio(self, ctx60):
        from maasslab.modforms import eta_eval
        random.seed(11)
        with mp.workdps(70):
            for _ in range(25):
                g = _random_sl2(random)
                tau = mp.mpc(random.uniform(-1, 1), random.uniform(0.4, 2.0))
                lhs = eta_eval(g.apply(tau), ctx60)
                rhs = (eta_multiplier(g).value()
                       * mp.sqrt(g.c * tau + g.d) * eta_eval(tau, ctx60))
                assert abs(lhs - rhs) < mp.mpf("1e-55")

    def test_cocycle_numeric(self, ctx60):
        # chi(g1 g2) sqrt(c3 tau + d3) = chi(g1) sqrt(c1 g2tau + d1)
        #                                * chi(g2) sqrt(c2 tau + d2)
        random.seed(5)
        with mp.workdps(70):
            for _ in range(100):
                g1, g2 = _random_sl2(random), _random_sl2(random)
                g3 = g1 @ g2
                tau = mp.mpc(random.uniform(-1, 1), random.uniform(0.3, 2.5))
                t2 = g2.apply(tau)
                lhs = eta_multiplier(g3).value() * mp.sqrt(g3.c * tau + g3.d)
                rhs = (eta_multiplier(g1).value() * mp.sqrt(g1.c * t2 + g1.d)
                       * eta_multiplier(g2).value() * mp.sqrt(g2.c * tau + g2.d))
                assert abs(lhs - rhs) < mp.mpf("1e-55")


def _random_sl2(rng):
    g = IDENTITY
    for _ in range(rng.randint(1, 6)):
        g = g @ T_power(rng.randint(-3, 3))
        if rng.random() < 0.7:
            g = g @ S_MAT
    if rng.random() < 0.5:
        g = -g
    return g


def _all_residue_scan(c_max, ms):
    """The Selberg-Whiteman scan over every residue: for each c, 2c cosines
    and one bincount over all c residues, of which only the wanted columns
    are kept.  kloosterman_table must match it bit for bit."""
    out = {m: np.zeros(c_max + 1) for m in ms}
    for m in ms:
        out[m][1] = 1.0
    for c in range(2, c_max + 1):
        ls = np.arange(2 * c, dtype=np.int64)
        terms = np.cos(np.pi * (6 * ls + 1) / (6 * c))
        terms[1::2] *= -1.0
        sums = np.bincount((ls * (3 * ls + 1) // 2) % c, weights=terms, minlength=c)
        scale = math.sqrt(c / 3)
        for m in ms:
            out[m][c] = scale * sums[(-m) % c]
    return out


def _loop_root_sum(numerators, N, ctx):
    """sum_k e(k/N), one expjpi per numerator in the given order: the oracle
    for _root_sum."""
    with ctx.workprec() as w:
        total = w.mpc(0)
        for k in numerators:
            total += w.expjpi(2 * w.mpf(k % N) / N)
        return total


class TestKloosterman:
    def test_trivial_modulus(self):
        assert abs(kloosterman_A(1, 7, CTX) - 1) < mp.mpf("1e-35")

    def test_c2(self):
        assert abs(kloosterman_A(2, -1, CTX) + 1) < mp.mpf("1e-35")

    def test_direct_equals_fast(self):
        for c, m in [(7, 1), (12, -1), (24, 2), (35, 0)]:
            a = kloosterman_A(c, m, CTX)
            b = kloosterman_A_direct(c, m, CTX)
            assert abs(a - b) < mp.mpf("1e-35")

    def test_K_eta_relation(self):
        # A_c(n) = K(0, -n, c)
        for c, n in [(5, 1), (11, -2), (24, 3)]:
            assert abs(kloosterman_A(c, n, CTX)
                       - kloosterman_K_eta(0, -n, c, CTX)) < mp.mpf("1e-35")

    def test_ordinary(self):
        assert abs(kloosterman_k(0, 0, 1, CTX) - 1) < mp.mpf("1e-35")
        for c in (5, 12, 30):
            phi = sum(1 for d in range(1, c + 1) if math.gcd(d, c) == 1)
            assert abs(kloosterman_k(0, 0, c, CTX) - phi) < mp.mpf("1e-35")
        assert abs(kloosterman_k(1, 1, 2, CTX) - 1) < mp.mpf("1e-35")

    def test_lehmer_bound_small(self):
        ratios = lehmer_ratios(500, (0, 1, -1, 2, -2))
        assert float(ratios.max()) <= 1 + 1e-9

    def test_scan_matches_all_residue_scan(self):
        # +-5 share a residue at c = 2, 5 and 10; c_max = 1 and 2 are the edges
        ms = (-14, -5, 0, 5, 13)
        for c_max in (1, 2, 1000):
            table, oracle = kloosterman_table(c_max, ms), _all_residue_scan(c_max, ms)
            for m in ms:
                assert np.array_equal(table[m], oracle[m]), (c_max, m)

    def test_scan_matches_all_residue_scan_when_p_divides_n(self):
        # n = 1 - 24m = 1225 = 5^2 7^2 and 625 = 5^4 give moduli divisible by
        # p^2 with p | n; m = +-1000 exceed every small modulus
        ms = (-51, -26, 1000, -1000)
        table, oracle = kloosterman_table(1500, ms), _all_residue_scan(1500, ms)
        for m in ms:
            assert np.array_equal(table[m], oracle[m]), m

    def test_table_rejects_c_max_below_one(self):
        for c_max in (0, -3):
            with pytest.raises(ValueError):
                kloosterman_table(c_max, (0, 1))

    def test_table_of_no_m_is_empty(self):
        assert kloosterman_table(50, ()) == {}

    def test_full_table_matches_all_residue_scan(self, ktable):
        ms = tuple(ktable)
        oracle = _all_residue_scan(len(ktable[ms[0]]) - 1, ms)
        for m in ms:
            assert np.array_equal(ktable[m], oracle[m]), m

    @pytest.mark.parametrize("digits", [30, 60])
    def test_root_sum_matches_loop(self, digits):
        ctx = PrecisionContext(digits=digits)
        tol = mp.mpf(10) ** (-digits - 5)
        for c in (1, 2, 24, 997, 2994, 2999):
            units = _units(c)
            phases = [_eta_phase(d, c) for d in units]
            inv = [pow(d, -1, c) for d in units]
            cases = [
                (kloosterman_A(c, -5, ctx),
                 (p + 12 * 5 * d for p, d in zip(phases, units)), 12 * c),
                (kloosterman_K_eta(1, -2, c, ctx),
                 (p + 12 * (di - 2 * d) for p, d, di in zip(phases, units, inv)), 12 * c),
                (kloosterman_k(3, 7, c, ctx),
                 (3 * di + 7 * d for d, di in zip(units, inv)), c),
                (kloosterman_k(-1, 0, c, ctx), (-di for di in inv), c),
            ]
            for i, (value, numerators, N) in enumerate(cases):
                assert abs(value - _loop_root_sum(numerators, N, ctx)) <= tol, (c, i)

    def test_scan_matches_exact(self, ktable):
        # Selberg-Whiteman scan against exact Dedekind phases, including
        # prime powers of 2 and 3 and the largest moduli of the table
        for c in (1, 2, 3, 4, 7, 8, 9, 16, 24, 27, 48, 60, 72, 101, 144, 997,
                  1024, 4374, 9216, 10000):
            for m in (0, 1, -5, -14):
                exact = kloosterman_A(c, m, CTX)
                assert abs(exact.imag) < mp.mpf("1e-30")
                assert abs(ktable[m][c] - float(exact.real)) < 1e-11

    def test_scan_matches_exact_when_p_divides_n(self, ktable):
        # moduli divisible by p^2 with p | 1 - 24m: n = 25, 49 and 121
        cases = {-1: (25, 50, 75, 125, 625, 3125), -2: (49, 98, 343, 2401),
                 -5: (11, 121, 242, 1331)}
        for m, cs in cases.items():
            for c in cs:
                exact = kloosterman_A(c, m, CTX)
                assert abs(exact.imag) < mp.mpf("1e-30")
                assert abs(ktable[m][c] - float(exact.real)) < 1e-11, (m, c)


class TestPartialSumS:
    def test_only_c1(self):
        assert partial_sum_S(25, 1) == 1.0
        assert partial_sum_S(-23, 1) == 1.0

    def test_bad_index(self):
        with pytest.raises(ValueError):
            partial_sum_S(2, 10)

    def test_nonsquare_fluctuation_bounded(self):
        # chi12(sqrt 73) = 0: no main term, S(73,x) = O(x^{1/4})
        val = partial_sum_S(73, 10_000)
        assert abs(val) < 2.0 * 10_000 ** 0.25


class TestChi12:
    def test_values(self):
        assert chi12(1) == 1 and chi12(11) == 1 and chi12(13) == 1
        assert chi12(5) == -1 and chi12(7) == -1
        assert chi12(6) == 0 and chi12(2) == 0 and chi12(3) == 0
        assert chi12(Fraction(1, 2)) == 0 and chi12(2.5) == 0
        assert chi12(mp.mpf("5.5")) == 0 and chi12(mp.mpf(5)) == -1

    def test_mod12_periodicity(self):
        for n in range(1, 200):
            expect = {1: 1, 11: 1, 5: -1, 7: -1}.get(n % 12, 0)
            assert chi12(n) == expect

    @given(st.integers(-300, 300), st.integers(-300, 300))
    @settings(max_examples=80, deadline=None)
    def test_kronecker_multiplicative(self, a, b):
        n = 35
        assert (kronecker_symbol(a * b, n)
                == kronecker_symbol(a, n) * kronecker_symbol(b, n))

    def test_sqrt_variant(self):
        assert chi12_sqrt(25) == -1
        assert chi12_sqrt(49) == -1
        assert chi12_sqrt(1) == 1
        assert chi12_sqrt(121) == 1
        assert chi12_sqrt(73) == 0


class TestPartitions:
    def test_p_values(self):
        assert partition_p(0) == 1
        assert partition_p(4) == 5
        assert partition_p(5) == 7

    def test_p_against_enumeration(self):
        for n in range(31):
            assert partition_p(n) == partition_p_enum(n)

    def test_spt_examples(self):
        assert spt(1) == 1
        assert spt(4) == 10
        assert spt(5) == 14

    def test_spt_against_enumeration(self):
        for n in range(1, 41):
            assert spt(n) == spt_enum(n)

    def test_spt_table_independent_of_length(self):
        short, long_ = _spt_list(64), _spt_list(400)
        assert long_[:65] == short
        for n in range(1, 41):
            assert long_[n] == spt_enum(n)

    def test_spt_congruence_mod5(self):
        for n in range(0, 8):
            if 5 * n + 4 <= 40:
                assert spt(5 * n + 4) % 5 == 0

    def test_s_values(self):
        assert s_coeff(0) == Fraction(-1, 12)
        assert s_coeff(1) == Fraction(35, 12)
        assert s_coeff(2) == Fraction(65, 6)
        assert s_coeff(Fraction(48, 24)) == Fraction(65, 6)

    def test_s_rejects(self):
        with pytest.raises(ValueError):
            s_coeff(Fraction(1, 2))
        with pytest.raises(ValueError):
            s_coeff(-1)

    def test_exact_cm_traces(self):
        assert trace_cm_exact(-23) == 35
        assert trace_cm_exact(-47) == 130
        assert trace_cm_exact(-71) == 273
        assert trace_cm_exact(-95) == 595
        assert trace_cm_exact(-119) == 1001


def test_omega0():
    assert omega0(1) == 0
    assert omega0(8) == 0
    assert omega0(15) == 2
    assert omega0(2 * 3 * 5 * 7) == 3
