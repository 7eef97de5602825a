import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from maasslab import bqf
from maasslab.bqf import (BQF, act, automorph, class_number, cm_point,
                          enumerate_classes, geodesic_data,
                          reduced_definite_forms, sl2_class_key,
                          square_class_reps, w6_reflection, w6_sigma)
from maasslab.context import PrecisionContext
from maasslab.matrices import IDENTITY, atkin_lehner
from support import gamma06_equivalent, projectively_equal

CTX = PrecisionContext(digits=40)

# indices with imprimitive classes (square factors 25, 49, 49 and 25), where
# counting only primitive classes falls short
IMPRIMITIVE_COUNTS = {-575: 21, -1127: 27, -1175: 35, 1825: 7}
IMPRIMITIVE_CM = tuple(n for n in IMPRIMITIVE_COUNTS if n < 0)


class TestAtkinLehner:
    def test_printed_matrices(self):
        assert atkin_lehner(2).as_tuple() == (2, -1, 6, -2)
        assert atkin_lehner(3).as_tuple() == (3, 1, 6, 3)
        assert atkin_lehner(6).as_tuple() == (0, -1, 6, 0)

    def test_composition_law(self):
        W2, W3, W6 = atkin_lehner(2), atkin_lehner(3), atkin_lehner(6)
        assert projectively_equal(W6 @ W6, IDENTITY)
        assert projectively_equal(W2 @ W3, W6)
        assert projectively_equal(W2 @ W2, IDENTITY)

    def test_measure_invariance(self):
        # d(g tau)/(gQ)(g tau, 1) = d tau/Q(tau,1), checked by finite difference
        random.seed(2)
        W6 = atkin_lehner(6)
        Q = BQF(6, 1, -3)
        gQ = act(W6, Q)
        with mp.workdps(50):
            for _ in range(5):
                tau = mp.mpc(random.uniform(-1, 1), random.uniform(0.5, 2))
                h = mp.mpf("1e-12")
                dg = (W6.apply(tau + h) - W6.apply(tau - h)) / (2 * h)
                lhs = dg / gQ.value(W6.apply(tau), 1)
                rhs = 1 / Q.value(tau, 1)
                assert abs(lhs - rhs) < mp.mpf("1e-20")

    def test_form_action_preserves_disc(self):
        Q = BQF(6, 1, 1)
        for r in (1, 2, 3, 6):
            assert act(atkin_lehner(r), Q).disc() == Q.disc()


class TestClassSets:
    def test_negative_counts(self):
        cs = enumerate_classes(-23)
        assert len(cs.reps) == 3 and cs.regime == "negative"
        assert len(enumerate_classes(-47).reps) == 5
        assert len(enumerate_classes(-71).reps) == 7

    def test_counts_match_reduced_form_oracle(self):
        # one class per reduced form of any content
        for n in (-23, -47, -71) + IMPRIMITIVE_CM:
            assert len(enumerate_classes(n).reps) == len(reduced_definite_forms(n))

    def test_imprimitive_counts(self):
        # h(n) = sum of h(n/g^2) over the contents g of forms of disc n
        for n, count in IMPRIMITIVE_COUNTS.items():
            reps = enumerate_classes(n).reps
            assert len(reps) == count, n
            assert len({sl2_class_key(Q) for Q in reps}) == count
            by_content = sum(class_number(n // (g * g))
                             for g in range(1, math.isqrt(abs(n)) + 1)
                             if n % (g * g) == 0 and (n // (g * g)) % 4 in (0, 1))
            assert by_content == count, n
            assert any(Q.content() > 1 for Q in reps)

    def test_membership_conditions(self):
        for n in (-23, -95, 73):
            for Q in enumerate_classes(n).reps:
                assert Q.a % 6 == 0 and Q.b % 12 == 1
                assert Q.disc() == n
                if n < 0:
                    assert Q.a > 0

    def test_positive_nonsquare(self):
        assert len(enumerate_classes(73).reps) == 1
        assert len(enumerate_classes(97).reps) == 1
        assert len(enumerate_classes(145).reps) == 4

    def test_square_representatives(self):
        cs = enumerate_classes(25)
        assert cs.regime == "square" and len(cs.reps) == 5
        r, base = square_class_reps(25)
        assert r == 3                       # b = 5 = 5 mod 12
        W = atkin_lehner(r)
        for Q, B in zip(cs.reps, base):
            assert Q == act(W, B)
            assert Q.disc() == 25 and Q.b % 12 == 1 and Q.a % 6 == 0

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            enumerate_classes(3)


class TestCMPoints:
    def test_printed_point(self):
        with mp.workdps(50):
            tau = cm_point(BQF(6, 1, 1))
            assert abs(tau - (-1 + mp.mpc(0, 1) * mp.sqrt(23)) / 12) < mp.mpf("1e-45")

    def test_root_property_random(self):
        random.seed(9)
        with mp.workdps(50):
            count = 0
            while count < 20:
                a, b = random.randint(1, 8), random.randint(-15, 15)
                c = random.randint(1, 9)
                Q = BQF(a, b, c)
                if Q.disc() >= 0:
                    continue
                count += 1
                tau = cm_point(Q)
                assert tau.imag > 0
                assert abs(Q.value(tau, 1)) < mp.mpf("1e-40")
                assert abs(tau.imag - mp.sqrt(abs(Q.disc())) / (2 * a)) < mp.mpf("1e-40")


class TestAutomorph:
    def test_fixes_form(self):
        Q = enumerate_classes(73).reps[0]
        M = automorph(Q)
        assert act(M, Q) == Q
        assert M.a * M.d - M.b * M.c == 1
        assert M.c % 6 == 0

    def test_fixes_roots(self):
        Q = enumerate_classes(73).reps[0]
        M = automorph(Q)
        with mp.workdps(65):
            disc = mp.sqrt(73)
            for sgn in (1, -1):
                w = (-Q.b + sgn * disc) / (2 * Q.a)
                assert abs(M.apply(w) - w) < mp.mpf("1e-40")

    def test_rejects_wrong_regimes(self):
        with pytest.raises(ValueError):
            automorph(BQF(6, 1, 1))


class TestGeodesics:
    def test_square_n1(self):
        geo = geodesic_data(BQF(0, 1, 0))
        assert set(geo.cusps) == {"oo", Fraction(0)}
        (r1, g1), (r2, g2) = geo.cusp_normalizers
        assert r1 == 1 and r2 == 6
        # W6 sends 0 to oo directly
        assert atkin_lehner(6).apply_cusp(Fraction(0)) == "oo"

    def test_square_normalizer_exact_identity(self):
        # gamma_i W_{r_i} a_i = oo as an exact identity for the n = 25 forms
        for Q in enumerate_classes(25).reps:
            geo = geodesic_data(Q)
            for (r, g), cusp in zip(geo.cusp_normalizers, geo.cusps):
                assert g.scale == 1 and g.c % 6 == 0
                sigma = g @ atkin_lehner(r)
                assert sigma.apply_cusp(cusp) == "oo"

    def test_rejects_definite(self):
        with pytest.raises(ValueError):
            geodesic_data(BQF(6, 1, 1))

    def test_rejects_nonsquare(self):
        # cycle integrals take their centre and radius from the form itself
        with pytest.raises(ValueError):
            geodesic_data(enumerate_classes(73).reps[0])


def test_pairwise_inequivalence():
    reps = enumerate_classes(-95).reps
    for i, Q1 in enumerate(reps):
        for Q2 in reps[i + 1:]:
            assert not gamma06_equivalent(Q1, Q2)
    reps = enumerate_classes(145).reps
    for i, Q1 in enumerate(reps):
        for Q2 in reps[i + 1:]:
            assert not gamma06_equivalent(Q1, Q2)


# the non-square n = 1 mod 24 up to 19^2
NONSQUARE = (73, 97, 145, 193, 217, 241, 265, 313, 337)
CM_INDICES = tuple(range(-23, -480, -24))


def test_keyed_dedupe_matches_pairwise():
    # keeping the first candidate of each SL2(Z) class must keep the same
    # representatives, in the same order, as comparing each candidate with
    # every kept one under Gamma0(6)
    assert len(CM_INDICES) == 20
    for n in CM_INDICES + NONSQUARE + tuple(IMPRIMITIVE_COUNTS):
        reps = enumerate_classes(n).reps
        pairwise = []
        for Q in bqf._qn_candidates(n, max(R.a for R in reps)):
            if not any(gamma06_equivalent(Q, R) for R in pairwise):
                pairwise.append(Q)
        assert tuple(pairwise) == reps, n


class TestW6Reflection:
    """sigma Q = -W_6 Q permutes Gamma0(6)\\Q_n; on a fixed class the
    reflection h = gamma W_6 is a half-turn about a point of C_Q."""

    @staticmethod
    def _sigma_image(reps):
        image = []
        for Q in reps:
            sQ = w6_sigma(Q)
            assert sQ.a % 6 == 0 and sQ.b % 12 == 1 and sQ.disc() == Q.disc()
            hits = [j for j, R in enumerate(reps) if gamma06_equivalent(sQ, R)]
            assert len(hits) == 1, Q
            image.append(hits[0])
        return image

    def test_involution_on_classes(self):
        for n in NONSQUARE:
            reps = enumerate_classes(n).reps
            image = self._sigma_image(reps)
            for i, Q in enumerate(reps):
                assert w6_sigma(w6_sigma(Q)) == Q
                assert image[image[i]] == i, (n, Q)

    def test_fixed_classes_have_half_turns(self):
        for n in NONSQUARE:
            reps = enumerate_classes(n).reps
            for i, j in enumerate(self._sigma_image(reps)):
                Q = reps[i]
                h = w6_reflection(Q)
                if i != j:
                    assert h is None, (n, Q)
                    continue
                assert h is not None, (n, Q)
                assert h.c % 6 == 0 and h.scale == 6 and h.a + h.d == 0
                assert act(h, Q) == BQF(-Q.a, -Q.b, -Q.c)
                # z0 = (h.a - h.d)/(2 h.c) + i sqrt(6)/|h.c| on |z - centre| = R
                u = Fraction(-Q.b, 2 * Q.a) - Fraction(h.a - h.d, 2 * h.c)
                assert u * u + Fraction(6, h.c * h.c) == Fraction(n, 4 * Q.a * Q.a)

    def test_no_reflection_without_six_dividing_a(self):
        # sigma is defined only for 6 | a; such a form keeps the full period
        assert w6_reflection(BQF(1, 1, -18)) is None
        with pytest.raises(ValueError):
            w6_sigma(BQF(1, 1, -18))

    def test_paired_classes_exist(self):
        # 145 is the one n <= 361 with a pair; 505 has three
        for n, pairs in ((145, 1), (505, 3)):
            reps = enumerate_classes(n).reps
            image = self._sigma_image(reps)
            assert sum(i < j for i, j in enumerate(image)) == pairs
