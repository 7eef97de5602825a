from fractions import Fraction

import pytest
from mpmath import mp

from maasslab import classnum
from maasslab.bqf import class_number, fundamental_unit
from maasslab.classnum import hstar, hstar_square_direct, hurwitz_H, regulator
from maasslab.context import PrecisionContext

CTX = PrecisionContext(digits=45)


class TestHurwitz:
    def test_special_values(self):
        assert hurwitz_H(0) == Fraction(-1, 12)
        assert hurwitz_H(1) == 0
        assert hurwitz_H(2) == 0
        assert hurwitz_H(3) == Fraction(1, 3)
        assert hurwitz_H(4) == Fraction(1, 2)
        assert hurwitz_H(12) == Fraction(4, 3)
        assert hurwitz_H(23) == 3

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            hurwitz_H(-4)


class TestClassNumber:
    def test_definite(self):
        assert class_number(-23) == 3
        assert class_number(-47) == 5
        assert class_number(-4) == 1

    def test_indefinite_cycles(self):
        assert class_number(5) == 1
        assert class_number(73) == 1
        assert class_number(97) == 1
        assert class_number(145) == 4

    def test_square_is_totient(self):
        assert class_number(25) == 4
        assert class_number(49) == 6
        assert class_number(1) == 1

    def test_bad_discriminant(self):
        with pytest.raises(ValueError):
            class_number(7)


class TestRegulator:
    def test_values(self):
        assert abs(regulator(-4, CTX) - mp.pi) < mp.mpf("1e-40")
        assert abs(regulator(-3, CTX) - 2 * mp.pi / 3) < mp.mpf("1e-40")
        assert abs(regulator(9, CTX) - 2 * mp.log(3)) < mp.mpf("1e-40")
        gold = (1 + mp.sqrt(5)) / 2
        assert abs(regulator(5, CTX) - 2 * mp.log(gold)) < mp.mpf("1e-40")

    def test_rejects_non_discriminant(self):
        with pytest.raises(ValueError):
            regulator(7, CTX)

    def test_pell_exact(self):
        for D in (5, 8, 12, 13, 73, 97, 145, 337):
            t, u, norm = fundamental_unit(D)
            assert t * t - D * u * u == norm
            assert norm in (4, -4) and t > 0 and u > 0

    def test_regulator_positive(self):
        for d in (-8, -3, 5, 8, 73, 9, 25):
            assert regulator(d, CTX) > 0
        assert abs(regulator(1, CTX)) == 0


class TestHstar:
    def test_matches_hurwitz_on_negatives(self):
        for d in range(-200, 0):
            if d % 4 not in (0, 1):
                continue
            H = hurwitz_H(-d)
            got = hstar(d, CTX)
            assert abs(got - mp.mpf(H.numerator) / H.denominator) < mp.mpf("1e-38")

    def test_printed_values(self):
        assert abs(hstar(-23, CTX) - 3) < mp.mpf("1e-38")
        assert abs(hstar(25, CTX) - 4 * mp.log(5) / mp.pi) < mp.mpf("1e-38")
        gold = (1 + mp.sqrt(5)) / 2
        assert abs(hstar(5, CTX) - mp.log(gold) / mp.pi) < mp.mpf("1e-38")

    def test_square_case_two_routes(self):
        for d in (1, 25, 49, 121, 169):
            assert abs(hstar(d, CTX) - hstar_square_direct(d, CTX)) < mp.mpf("1e-38")
        assert abs(hstar(1, CTX)) < mp.mpf("1e-38")

    def test_cached_values_are_bit_identical(self):
        for d in range(-100, 101):
            if d == 0 or d % 4 not in (0, 1):
                continue
            fresh = hstar.__wrapped__(d, CTX)
            with mp.workdps(15):
                hstar(d, CTX)
                cached = hstar(d, CTX)
            assert cached._mpf_ == fresh._mpf_, d

    def test_cache_is_a_module_functools_cache(self):
        # the scan a benchmark uses to clear every package cache between rounds
        found = [v for v in vars(classnum).values()
                 if hasattr(v, "cache_clear") and hasattr(v, "cache_info")]
        assert any(v is hstar for v in found)
