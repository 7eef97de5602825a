import itertools
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from maasslab import modforms, traces
from maasslab.bqf import (BQF, act, automorph, enumerate_classes, fundamental_unit,
                          w6_reflection, w6_sigma)
from maasslab.context import PrecisionContext
from maasslab.exact import trace_cm_exact
from maasslab.matrices import GroupElement
from maasslab.modforms import MU, f_eval
from maasslab.traces import (cycle_integral, damped_ray_integral,
                             trace, trace_cm, trace_cycle, trace_square,
                             _damp_sigmas, _ray_seed, _square_bookkeeping)
from support import damp_fQ, gamma06_equivalent, projectively_equal, reduce_plus

CTX = PrecisionContext(digits=30)

# the non-square n = 1 mod 24 up to 19^2
NONSQUARE = (73, 97, 145, 193, 217, 241, 265, 313, 337)
# Tr_n from bench/refs/cycle.json: a separate f (mpmath Jacobi theta and
# q-Pochhammer) integrated over the Pell period at 55 digits
CYCLE_REFS = {
    73: "-0.47850317810637678058681489864079534500365789605493",
    97: "-0.38753994252724597620375321415682961667242162373257",
    145: "-0.0035161941589880594506432298937402668599029376542453",
    193: "0.21322687479480189137441832980913192317402586280390",
}
# Tr_n from bench/refs/square.json: tanh-sinh on the dampened integrand up to
# y = 14.5, at 42 digits plus the cancellation depth
SQUARE_REFS = {
    1: "-1.6486959807509787080365510234372692911885949445079",
    25: "6.5910786950506249566650475947117700348186463843314",
}


@pytest.fixture(scope="module")
def cycle_runs():
    """trace_cycle(n) at 20 and at 35 digits for each non-square n."""
    return {n: (trace_cycle(n, PrecisionContext(digits=20)),
                trace_cycle(n, PrecisionContext(digits=35)))
            for n in NONSQUARE}


class TestCMTraces:
    def test_spt_identity(self, ctx30):
        for n in (-23, -47, -71):
            tv = trace_cm(n, ctx30)
            target = trace_cm_exact(n)
            assert abs(tv.value - int(target)) < mp.mpf("1e-8")
            assert abs(tv.value - mp.nint(tv.value)) <= tv.err_est * 10 + mp.mpf("1e-20")

    def test_imprimitive_classes_counted(self, ctx30):
        # 21, 27 and 35 classes, some of content 5 or 7: the exact value needs
        # every one of them
        for n in (-575, -1127, -1175):
            tv = trace_cm(n, ctx30)
            assert abs(tv.value - int(trace_cm_exact(n))) <= tv.err_est, n

    def test_rejects_positive(self):
        with pytest.raises(ValueError):
            trace_cm(25, CTX)


class TestCycleTraces:
    def test_base_point_independence(self, ctx30):
        # moving the representative by a Gamma0(6) element shifts the base
        # point along the geodesic; the trace must not move
        t1 = trace_cycle(73, ctx30)
        shift = GroupElement(1, 1, 0, 1)   # T: acts on forms, moving tau0
        reps = enumerate_classes(73).reps
        shifted = tuple(act(shift, Q) for Q in reps)
        assert shifted != reps
        t2 = sum(cycle_integral(Q, ctx30)[0] for Q in shifted) / (2 * mp.pi)
        assert abs(t1.value - t2) < mp.mpf("1e-10")

    def test_integrand_invariance(self, ctx30):
        # f(g tau)/(gQ)(g tau,1) d(g tau) = f(tau)/Q(tau,1) d tau on samples
        Q = enumerate_classes(73).reps[0]
        g = GroupElement(1, 0, 6, 1)
        gQ = act(g, Q)
        with mp.workdps(40):
            for tau in (mp.mpc("0.2", "0.9"), mp.mpc("-0.4", "1.7")):
                h = mp.mpf("1e-12")
                dg = (g.apply(tau + h) - g.apply(tau - h)) / (2 * h)
                lhs = f_eval(g.apply(tau), ctx30) / gQ.value(g.apply(tau), 1) * dg
                rhs = f_eval(tau, ctx30) / Q.value(tau, 1)
                assert abs(lhs - rhs) < mp.mpf("1e-15")

    def test_rejects_square(self):
        with pytest.raises(ValueError):
            trace_cycle(25, CTX)

    def test_err_est_bounds_change_with_digits(self, cycle_runs):
        # the long periods (2 log eps up to 85.7 at n = 337) put the ends of
        # the geodesics as low as 7e-19 above the real axis
        for n, (lo, hi) in cycle_runs.items():
            assert abs(lo.value - hi.value) <= lo.err_est, n

    def test_pinned_values(self, cycle_runs):
        for n, ref in CYCLE_REFS.items():
            assert abs(cycle_runs[n][1].value - mp.mpf(ref)) < mp.mpf("1e-25"), n

    def test_trace_table_matches_refs(self, trace_table):
        # the fixture's non-square entries are geodesic traces at 30 digits
        for n, ref in CYCLE_REFS.items():
            value, err_est = trace_table[n]
            assert abs(value - mp.mpf(ref)) < mp.mpf("1e-25"), n
            assert abs(value - mp.mpf(ref)) <= err_est, n

    def test_err_est_carries_the_rounding_floor(self):
        # at 20 digits the last doubling differences (5.9e-37 for 73) lie far
        # below the rounding of f at the ends of the geodesic, so err_est is
        # a bound only through its floor 10^-(digits+5) max(1, |I|)
        ctx = PrecisionContext(digits=20)
        for n in (73, 193):
            for Q in enumerate_classes(n).reps:
                value, err = cycle_integral(Q, ctx)
                assert err >= mp.mpf(10) ** (-ctx.digits - 5) * max(1, abs(value)), (n, Q)


def _full_period_integral(Q, ctx):
    """The plain periodic trapezoid rule over [-P/2, P/2), every node
    evaluated, doubling under the same stopping rule, with its error
    estimate (last difference plus the rounding floor of f): the oracle for
    the folded sums of cycle_integral."""
    n = Q.disc()
    M = automorph(Q)
    lost = int(math.log10(abs(M.a + M.d))) + 1
    inner = PrecisionContext(digits=ctx.digits + lost + 5)
    with mp.workdps(ctx.digits + lost + 20):
        tol = mp.mpf(10) ** (-ctx.digits - 2)
        period = 2 * mp.acosh(mp.mpf(abs(M.a + M.d)) / 2)
        sq = mp.sqrt(n)
        centre = mp.mpf(-Q.b) / (2 * Q.a)
        R = sq / (2 * abs(Q.a))

        def value(ell):
            tau = mp.mpc(centre - R * mp.tanh(ell), R / mp.cosh(ell))
            return f_eval(tau, inner).real

        nodes = 32
        h = period / nodes
        total = mp.fsum(value(-period / 2 + k * h) for k in range(nodes))
        prev = total * h / sq
        while True:
            total += mp.fsum(value(-period / 2 + (k + mp.mpf(1) / 2) * h)
                             for k in range(nodes))
            nodes *= 2
            h = period / nodes
            cur = total * h / sq
            if abs(cur - prev) <= tol * max(1, abs(cur)):
                return cur, abs(cur - prev) + mp.mpf(10) ** (lost - inner.digits) * max(1, abs(cur))
            prev = cur


class TestW6Symmetry:
    """f | W_6 = f: sigma-paired classes share their cycle integral, and on a
    sigma-fixed class f(tau(l)) is even about the centre l0 of the half-turn."""

    def test_integrand_even_about_half_turn_centre(self):
        rng = random.Random(6)
        ctx = PrecisionContext(digits=30)
        for n in (73, 193):
            Q = enumerate_classes(n).reps[0]
            h = w6_reflection(Q)
            M = automorph(Q)
            lost = int(math.log10(abs(M.a + M.d))) + 1
            inner = PrecisionContext(digits=ctx.digits + lost + 5)
            with mp.workdps(ctx.digits + lost + 20):
                period = 2 * mp.acosh(mp.mpf(abs(M.a + M.d)) / 2)
                centre = mp.mpf(-Q.b) / (2 * Q.a)
                R = mp.sqrt(n) / (2 * abs(Q.a))
                ell0 = mp.atanh((centre - mp.mpf(h.a - h.d) / (2 * h.c)) / R)

                def f_at(ell):
                    ell -= period * mp.floor(ell / period + mp.mpf(1) / 2)
                    tau = mp.mpc(centre - R * mp.tanh(ell), R / mp.cosh(ell))
                    return f_eval(tau, inner)

                for _ in range(20):
                    t = mp.mpf(rng.uniform(0, float(period) / 2))
                    plus, minus = f_at(ell0 + t), f_at(ell0 - t)
                    assert abs(plus - minus) <= mp.mpf("1e-28") * max(1, abs(plus)), (n, t)

    def test_folded_sum_matches_full_period(self):
        # every class within the sum of the two err_ests, including those where
        # both sums settle far below the stopping tolerance and differ by the
        # rounding of f (73, (6, 1, -6) of 145, (18, 1, -3) of 217 and 337
        # differ by 6.8e-37, 7.2e-36, 1.2e-36 and 6.0e-35, more than the last
        # doubling differences alone)
        ctx = PrecisionContext(digits=20)
        for n in (73, 145, 217, 337):
            for Q in enumerate_classes(n).reps:
                value, err = cycle_integral(Q, ctx)
                oracle, oracle_err = _full_period_integral(Q, ctx)
                assert abs(value - oracle) <= err + oracle_err, (n, Q)

    def test_paired_classes_share_the_integral(self):
        ctx = PrecisionContext(digits=20)
        for n in (145, 505):
            reps = list(enumerate_classes(n).reps)
            pairs = 0
            for Q in reps:
                partner = [R for R in reps if R != Q and gamma06_equivalent(w6_sigma(Q), R)]
                if not partner or partner[0].as_tuple() < Q.as_tuple():
                    continue
                v1, e1 = cycle_integral(Q, ctx)
                v2, e2 = cycle_integral(partner[0], ctx)
                assert abs(v1 - v2) <= e1 + e2, (n, Q)
                pairs += 1
            assert pairs >= 1, n

    def test_half_the_evaluations(self, count_f_evals):
        # 73 and 193 are single sigma-fixed classes: 1024 and 2048 nodes over
        # the full period, 512 and 1024 over the half-period window of the
        # glide (their units have norm -1), folded to 257 and 513
        # evaluations, every one of them through traces.f_eval; 145 has two
        # fixed classes (129 each) and one pair whose partner is not
        # integrated (256).  217 has no unit of norm -1, so only the sigma
        # fold applies: two fixed classes (257 each) and one pair (512)
        for n, count in ((73, 257), (193, 513), (145, 514), (217, 1026)):
            count_f_evals[0] = 0
            trace_cycle(n, PrecisionContext(digits=30))
            assert count_f_evals[0] == count, n


class TestGlide:
    """A unit of norm -1, eps = (t + u sqrt n)/2, gives the glide reflection
    tau -> N conj(tau) of C_Q by P/2, N = [[(t - bu)/2, -cu], [au, (t + bu)/2]],
    under which Re f is invariant."""

    def test_glide_matrix(self):
        for n in (73, 97, 145, 193, 241, 337):
            t, u, norm = fundamental_unit(n)
            assert norm == -4, n
            for Q in enumerate_classes(n).reps:
                a, b, c, d = N = ((t - Q.b * u) // 2, -Q.c * u,
                                  Q.a * u, (t + Q.b * u) // 2)
                assert _det(N) == -1 and c % 6 == 0, Q
                # N fixes x iff c x^2 + (d - a) x - b = 0, i.e. iff Q(x, 1) = 0
                assert (c, d - a, -b) == (u * Q.a, u * Q.b, u * Q.c), Q
                # N^2 is the automorph up to sign: the glide by P/2 twice
                M = automorph(Q).as_tuple()
                square = (a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d)
                assert square in (M, tuple(-x for x in M)), Q

    @staticmethod
    def _shift_gaps(Q, ctx, count):
        """|Re f(tau(l + P/2)) - Re f(tau(l))| / max(1, |Re f(tau(l))|) at
        count seeded arc lengths l in [-P/2, 0), with f at the digits it
        needs at the ends of the full period."""
        rng = random.Random(4)
        n = Q.disc()
        M = automorph(Q)
        lost = int(math.log10(abs(M.a + M.d))) + 1
        inner = PrecisionContext(digits=ctx.digits + lost + 5)
        with mp.workdps(ctx.digits + lost + 20):
            period = 2 * mp.acosh(mp.mpf(abs(M.a + M.d)) / 2)
            centre = mp.mpf(-Q.b) / (2 * Q.a)
            R = mp.sqrt(n) / (2 * abs(Q.a))

            def f_at(ell):
                tau = mp.mpc(centre - R * mp.tanh(ell), R / mp.cosh(ell))
                return f_eval(tau, inner).real

            gaps = []
            for _ in range(count):
                ell = -period / 2 * mp.mpf(rng.random())
                here = f_at(ell)
                gaps.append(abs(f_at(ell + period / 2) - here) / max(1, abs(here)))
            return gaps

    def test_real_part_is_half_period_periodic(self):
        ctx = PrecisionContext(digits=30)
        for n in (73, 97, 145, 193, 241, 337):
            for Q in enumerate_classes(n).reps:
                gaps = self._shift_gaps(Q, ctx, 20)
                assert max(gaps) <= mp.mpf(10) ** (-ctx.digits - 5), (n, Q)

    def test_no_glide_without_a_unit_of_norm_minus_one(self):
        # 217 = 7 * 31: t^2 - 217 u^2 = -4 has no solution, and on each class
        # the shift by P/2 moves Re f by more than 1 at some of the 20 points
        assert fundamental_unit(217)[2] == 4
        for Q in enumerate_classes(217).reps:
            gaps = self._shift_gaps(Q, PrecisionContext(digits=30), 20)
            assert max(gaps) > 1, Q


def _geodesic_points(Q, digits, ells):
    """The points of C_Q at arc lengths ells (fractions of the half period
    P/2, from the apex), rounded to the working precision that f_eval needs
    at digits at the ends of the full period (cycle_integral without the
    glide), which is returned with them."""
    n = Q.disc()
    M = automorph(Q)
    lost = int(math.log10(abs(M.a + M.d))) + 1
    work = digits + lost + 15
    with mp.workdps(work + 10):
        half = mp.acosh(mp.mpf(abs(M.a + M.d)) / 2)
        centre = mp.mpf(-Q.b) / (2 * Q.a)
        R = mp.sqrt(n) / (2 * abs(Q.a))
        taus = [mp.mpc(centre - R * mp.tanh(t * half), R / mp.cosh(t * half))
                for t in ells]
    with mp.workdps(work):
        return [+tau for tau in taus], work


def _det(g):
    a, b, c, d = g
    return a * d - b * c


class TestWarmStart:
    """_reduce_plus warm-started from the matrix of a nearby point gives the
    cold reduction; from a far point it falls back to the cold start."""

    DIGITS = 30

    def _nodes(self, n):
        rng = random.Random(n)
        ells = sorted(rng.uniform(-1, 1) for _ in range(200))
        return _geodesic_points(enumerate_classes(n).reps[0], self.DIGITS, ells)

    def test_warm_matches_cold_along_geodesics(self):
        tol = mp.mpf(10) ** (-self.DIGITS - 5)
        for n in (73, 193, 337):
            taus, work = self._nodes(n)
            inner = PrecisionContext(digits=work - 10)
            hint, prev = [None], None
            with mp.workdps(work):
                for tau in taus:
                    z, sign, g = reduce_plus(tau)
                    wz, wsign, wg = reduce_plus(tau, prev)
                    assert wsign == sign and abs(wz - z) <= tol, (n, tau)
                    prev = (wg, wsign)
                    ref = f_eval(tau, inner)
                    assert abs(f_eval(tau, inner, hint) - ref) <= tol * max(1, abs(ref)), (n, tau)
                    assert hint[0] == prev, (n, tau)

    def test_warm_chain_matches_oracle(self, f_oracle):
        # every tenth node of the warm chain against the eta/E4 quotient at
        # 20 more digits, which shares no step with the kernel
        tol = mp.mpf(10) ** (-self.DIGITS - 5)
        for n in (73, 193, 337):
            taus, work = self._nodes(n)
            inner = PrecisionContext(digits=work - 10)
            hint = [None]
            with mp.workdps(work):
                for i, tau in enumerate(taus):
                    value = f_eval(tau, inner, hint)
                    if i % 10 == 0:
                        ref = f_oracle(tau, PrecisionContext(digits=inner.digits + 20))
                        assert abs(value - ref) <= tol * max(1, abs(ref)), (n, tau)

    def test_matrix_maps_tau_to_reduced_point(self):
        tol = mp.mpf(10) ** (-self.DIGITS - 5)
        for n in (73, 193, 337):
            taus, work = self._nodes(n)
            prev = None
            with mp.workdps(work):
                for tau in taus:
                    for start in (None, prev):
                        z, sign, g = reduce_plus(tau, start)
                        a, b, c, d = g
                        assert abs((a * tau + b) / (c * tau + d) - z) <= tol, (n, tau)
                        assert _det(g) in (1, 2, 3, 6) and math.gcd(*g) == 1, g
                        assert sign == MU[_det(g)], g
                    prev = (g, sign)

    def test_far_start_takes_the_cold_path(self):
        # the matrix of one end of the geodesic sends the other end far below
        # the domain, where the working precision no longer resolves it
        tol = mp.mpf(10) ** (-self.DIGITS - 5)
        for Q in (enumerate_classes(193).reps[0], BQF(6, 1, -10),
                  enumerate_classes(337).reps[0]):
            (lo, hi), work = _geodesic_points(Q, self.DIGITS, (-0.98, 0.98))
            with mp.workdps(work):
                _, sign, g = reduce_plus(lo)
                a, b, c, d = g
                assert ((a * hi + b) / (c * hi + d)).imag < modforms._Y_MIN / 2
                z, csign, cg = reduce_plus(hi)
                wz, wsign, wg = reduce_plus(hi, (g, sign))
                assert (wg, wsign) == (cg, csign), Q
                assert abs(wz - z) <= tol, Q

    def test_no_step_inside_one_arc(self, monkeypatch):
        # consecutive nodes reduced by the same element: with the loop capped
        # at one pass (which a cold start below the domain cannot finish),
        # the warm start from the last node's matrix takes no step and
        # returns that matrix
        for n in (73, 193, 337):
            taus, work = self._nodes(n)
            with mp.workdps(work):
                cold = [reduce_plus(tau) for tau in taus]
                monkeypatch.setattr(modforms, "_MAX_STEPS", 1)
                with pytest.raises(ArithmeticError):
                    reduce_plus(min(taus, key=lambda t: t.imag))
                same = 0
                for tau, (_, sign, g), (_, _, g_next) in zip(taus[1:], cold, cold[1:]):
                    if projectively_equal(GroupElement(*g, _det(g)),
                                          GroupElement(*g_next, _det(g_next))):
                        same += 1
                        assert reduce_plus(tau, (g, sign))[1:] == (sign, g), n
                monkeypatch.undo()
            assert same >= 100, n


class TestDampened:
    def test_poincare_seed_identity(self, ctx30):
        # phi(y) = 2 pi sqrt(y) I_{1/2}(2 pi y) equals e^{2 pi y} - e^{-2 pi y},
        # so the subtracted cusp term is e(-sigma tau) - e(-conj sigma tau)
        with mp.workdps(40):
            for y in (mp.mpf("0.3"), mp.mpf(1), mp.mpf(2)):
                phi = 2 * mp.pi * mp.sqrt(y) * mp.besseli(mp.mpf(1) / 2, 2 * mp.pi * y)
                assert abs(phi - (mp.e ** (2 * mp.pi * y) - mp.e ** (-2 * mp.pi * y))) \
                    < mp.mpf("1e-30")
            # direct two-term difference at one point for Q = [0,1,0]
            Q = BQF(0, 1, 0)
            tau = mp.mpc(0, 1)
            val = damp_fQ(tau, Q, ctx30)
            manual = (f_eval(tau, ctx30) - 12
                      - (mp.expjpi(-2 * tau) - mp.expjpi(-2 * mp.conj(tau)))
                      - (mp.expjpi(2 / (6 * tau)) - mp.expjpi(mp.conj(2 / (6 * tau)))))
            assert abs(val - manual) < mp.mpf("1e-25")

    def test_dampening_structure_at_i(self, ctx30):
        # |f_Q - (f - 12)| equals the magnitude of the two subtracted terms
        Q = BQF(0, 1, 0)
        tau = mp.mpc(0, 1)
        diff = f_eval(tau, ctx30) - 12 - damp_fQ(tau, Q, ctx30)
        total = mp.mpc(0)
        for mu, sigma in _damp_sigmas(Q):
            st = sigma.apply(tau)
            total += mu * (mp.expjpi(-2 * st) - mp.expjpi(-2 * mp.conj(st)))
        assert abs(diff - total) < mp.mpf("1e-25")

    def test_decay_along_ray(self, ctx30):
        # f_Q decays like 1/y along the vertical ray (the uniform s-bound
        # y^{1/2-2s} evaluated at the spectral point in use, s = 3/4);
        # the envelope constant fitted on [5, 50] must be stable
        Q = BQF(0, 5, 2)     # from the n = 25 family, cusps oo and -2/5
        g, bp, cp = 1, 5, 2
        x0 = mp.mpf(-2) / 5
        consts = []
        for y in (5, 10, 25, 50):
            v = damp_fQ(mp.mpc(x0, y), Q, ctx30)
            consts.append(abs(v) * y)
        consts = [float(c) for c in consts]
        assert max(consts) < 10
        assert max(consts) / max(min(consts), 1e-30) < 1.5

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            damp_fQ(mp.mpc(0, 1), BQF(6, 1, -3), CTX)


def _ray_forms(b: int):
    """The distinct forms (0, b', c') whose rays trace_square(b^2) integrates."""
    forms = set()
    for c in range(b):
        _, bp, cp, _, v = _square_bookkeeping(b, c)
        forms |= {(0, bp, cp), (0, bp, -v)}
    return sorted(forms)


def _seed_general(sigma, tau):
    st = sigma.apply(tau)
    return mp.expjpi(-2 * st) - mp.expjpi(-2 * mp.conj(st))


class TestRaySeeds:
    """On the ray over the cusp x0, each subtracted seed is a constant phase
    times a real sinh; checked against the Moebius-map definition."""

    def test_closed_form_matches_definition(self):
        digits = 30
        rng = random.Random(2549)
        for n in (25, 49):
            forms = _ray_forms(math.isqrt(n))
            for _ in range(20):
                Q = BQF(*rng.choice(forms))
                with mp.workdps(digits + 10):
                    x0 = mp.mpf(-Q.c) / Q.b
                    y = mp.mpf(rng.uniform(1 / (Q.b * math.sqrt(6)), 4))
                    for mu, sigma in _damp_sigmas(Q):
                        phase, kappa, at_oo = _ray_seed(sigma, x0, Fraction(-Q.c, Q.b))
                        arg = 2 * mp.pi * kappa * (y if at_oo else 1 / y)
                        closed = mu * phase * 2 * mp.sinh(arg)
                        general = mu * _seed_general(sigma, mp.mpc(x0, y))
                        assert abs(closed - general) \
                            <= mp.mpf(10) ** -digits * mp.exp(2 * mp.pi * y), (Q, y)

    def test_shi_tail_matches_quadrature(self):
        # int_Y^oo seed dy/y for the cusp-x0 seed, by mp.quad after y = Y/t,
        # from Y = 4 and from the top of the panels, Y = 1/2
        with mp.workdps(40):
            for Y, form in itertools.product((mp.mpf(4), mp.mpf(1) / 2),
                                             _ray_forms(5) + _ray_forms(7)):
                Q = BQF(*form)
                x0 = mp.mpf(-Q.c) / Q.b
                for _, sigma in _damp_sigmas(Q):
                    if sigma.c == 0:
                        continue
                    phase, kappa, _ = _ray_seed(sigma, x0, Fraction(-Q.c, Q.b))

                    def g(t):
                        return _seed_general(sigma, mp.mpc(x0, Y / t)) / t if t else mp.mpc(0)

                    quad = mp.quad(g, [0, mp.mpf(1) / 2, 1])
                    shi = phase * 2 * mp.shi(2 * mp.pi * kappa / Y)
                    assert abs(shi - quad) < mp.mpf("1e-30"), (Y, form)

    def test_guard_digits_cover_every_seed(self):
        # the largest exponent on the rays of every b' < 60: f's e(-tau) and
        # the cusp-oo seeds at the top y = 1/2, the cusp-x0 seed at y0; the
        # guard budgets e^{2 pi max(y, 1/sqrt 6)}, e^{pi} at y = 1/2
        Y = mp.mpf(traces._Y1.numerator) / traces._Y1.denominator
        with mp.workdps(30):
            top, low = 2 * mp.pi * Y, mp.zero
            for b in (b for b in range(1, 60) if math.gcd(b, 6) == 1):
                for form in _ray_forms(b):
                    Q = BQF(*form)
                    cusp = Fraction(-Q.c, Q.b)
                    x0 = mp.mpf(cusp.numerator) / cusp.denominator
                    y0 = 1 / (Q.b * mp.sqrt(6))
                    for _, sigma in _damp_sigmas(Q):
                        _, kappa, at_oo = _ray_seed(sigma, x0, cusp)
                        if at_oo:
                            top = max(top, 2 * mp.pi * kappa * Y)
                        else:
                            low = max(low, 2 * mp.pi * kappa / y0)
            eps = mp.mpf(10) ** -25
            assert top <= 2 * mp.pi * Y + eps
            assert low <= 2 * mp.pi / mp.sqrt(6) + eps
            guard = traces._damp_guard_digits(traces._Y1)
            assert guard == int(max(top, low) / mp.log(10)) + 10 == 11

    def test_rejects_sigma_off_the_cusp(self):
        # c x0 + d = 6 (-2/5) + 1 != 0: sigma does not send x0 to oo
        with pytest.raises(ValueError):
            _ray_seed(GroupElement(1, 0, 6, 1), mp.mpf(-2) / 5, Fraction(-2, 5))


class TestSquareTraces:
    def test_n1_value_stability(self):
        tv = trace_square(1, PrecisionContext(digits=25))
        assert abs(tv.value - mp.mpf("-1.64869598075097870847")) < mp.mpf("1e-15")

    def test_u_choice_invariance(self, monkeypatch):
        ctx = PrecisionContext(digits=22)
        a = trace_square(25, ctx)
        rays = []
        integrate = traces.damped_ray_integral

        def counted(Q, *args, **kwargs):
            rays.append(Q.as_tuple())
            return integrate(Q, *args, **kwargs)

        monkeypatch.setattr(traces, "damped_ray_integral", counted)
        traces._ray_value.cache_clear()
        b = trace_square(25, ctx, u_offset=1)
        assert abs(a.value - b.value) <= a.err_est + b.err_est
        # (0,1,0), (0,5,1), (0,5,2) and the shifted (0,5,9), (0,5,7), (0,5,8),
        # (0,5,6): only (0,5,3) and (0,5,4) are mirrors of rays already done.
        # With x0 reduced mod 1 the shifted rays would be folded, leaving 3.
        assert len(rays) == 7, rays

    def test_pinned_values(self):
        for n, ref in SQUARE_REFS.items():
            tv = trace_square(n, PrecisionContext(digits=25))
            assert abs(tv.value - mp.mpf(ref)) <= mp.mpf("1e-39"), n

    def test_err_est_bounds_the_distance_to_80_digits(self):
        for n in (1, 25):
            lo = trace_square(n, PrecisionContext(digits=60))
            hi = trace_square(n, PrecisionContext(digits=80))
            assert abs(lo.value - hi.value) <= lo.err_est, n

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            trace_square(73, CTX)

    def test_dispatch(self, ctx30):
        tv = trace(-23, ctx30)
        assert tv.regime == "cm"


class TestMirrorRays:
    """tau -> -1 - conj(tau) maps the ray of (0, b, c) onto that of
    (0, b, b - c) and its integrand onto the conjugate one."""

    def test_mirror_rays_agree(self):
        ctx = PrecisionContext(digits=25)
        for b in (5, 7, 11):
            for c in range(1, (b + 1) // 2):
                (v1, e1), (v2, e2) = (damped_ray_integral(BQF(0, b, cc), ctx)
                                      for cc in (c, b - c))
                assert abs(v1 - v2) <= e1 + e2, (b, c)
                assert abs(v1 - v2) <= mp.mpf("1e-30"), (b, c)


class TestFixedPointRays:
    """The damped rays run in fixed point at the integrand's precision."""

    def test_integrand_matches_damp_fQ(self, monkeypatch):
        # every node of the panels below 1/2 of two rays, against the
        # pointwise oracle damp_fQ(x0 + i y, Q) / y: one panel for b = 1,
        # two for b = 5
        ctx = PrecisionContext(digits=25)
        panel = traces._gl_panel
        samples = []

        def recorded(fun, a, b, degree):
            def sample(y):
                v = fun(y)
                samples.append((mp.prec, y, v))
                return v
            return panel(sample, a, b, degree)

        monkeypatch.setattr(traces, "_gl_panel", recorded)
        tol = mp.mpf(10) ** -(ctx.digits + 10)
        for form, nodes in (((0, 1, 0), 48), ((0, 5, 2), 2 * 48)):
            Q = BQF(*form)
            samples.clear()
            damped_ray_integral(Q, ctx)
            assert len(samples) == nodes, form
            for wp, y, v in samples:
                with mp.workprec(wp):
                    y = mp.ldexp(y, -wp)
                    ref = damp_fQ(mp.mpc(mp.mpf(-Q.c) / Q.b, y), Q, ctx).real / y
                    assert abs(mp.ldexp(v, -wp) - ref) <= tol * max(1, abs(ref)), \
                        (form, y)

    def test_digits_beyond_the_rounding(self):
        # the rays and their sum keep the integrand's precision, so traces
        # at 25 digits match those at 40 far below 10^-35
        for n in (1, 25, 49):
            lo = trace_square(n, PrecisionContext(digits=25))
            hi = trace_square(n, PrecisionContext(digits=40))
            assert abs(lo.value - hi.value) <= mp.mpf("1e-38"), n


def _ray_tail(Q: BQF, Y: Fraction, wp: int):
    """The analytic part of a damped ray above Y at wp bits: f's q-series
    tail minus the Shi tail of the cusp-x0 seed."""
    cusp = Fraction(-Q.c, Q.b)
    with mp.workprec(wp):
        x0 = mp.mpf(cusp.numerator) / cusp.denominator
        tail = traces._fmin_series_tail(cusp, Y, wp)
        for mu, sigma in _damp_sigmas(Q):
            phase, kappa, at_oo = _ray_seed(sigma, x0, cusp)
            if not at_oo:
                tail -= 2 * mu * phase.real * mp.shi(2 * mp.pi * kappa / Y.numerator
                                                     * Y.denominator)
        return tail


class TestRayTail:
    """Above y = 1/2 a damped ray is f's q-series in closed form, summed at
    the ray's own precision."""

    def test_tail_from_half_matches_quadrature(self):
        # tail(1/2) - tail(4) is the integral over [1/2, 4], which mp.quad
        # takes from the pointwise oracle at 42 digits
        wp = traces._ray_prec(PrecisionContext(digits=25))
        oracle = PrecisionContext(digits=42)
        forms = sorted(set(_ray_forms(1) + _ray_forms(5) + _ray_forms(7)))
        for form in forms:
            Q = BQF(*form)
            diff = _ray_tail(Q, Fraction(1, 2), wp) - _ray_tail(Q, Fraction(4), wp)
            with mp.workdps(45):
                x0 = mp.mpf(-Q.c) / Q.b
                quad = mp.quad(lambda y: damp_fQ(mp.mpc(x0, y), Q, oracle).real / y,
                               [mp.mpf(1) / 2, 1, 2, 4])
            assert abs(diff - quad) <= mp.mpf("1e-40"), form

    @pytest.mark.parametrize("digits", [25, 60])
    def test_e1_row_precision_and_length(self, digits):
        # the per-term precisions cost at most 2^-wp in the sum, and the
        # first term the row omits is below 2^-wp
        wp = traces._ray_prec(PrecisionContext(digits=digits))
        Y = Fraction(1, 2)
        row = traces._e1_row(Y, wp)
        fq = modforms.f_qexp(len(row) + 1)
        with mp.workprec(wp):
            full = [mp.e1(mp.pi * m) for m in range(1, len(row) + 2)]
        spent = mp.fsum(abs(fq.coeff(m)) * abs(e - full[m - 1])
                        for m, e in enumerate(row, 1))
        assert spent <= mp.ldexp(1, -wp), digits
        omitted = abs(fq.coeff(len(row) + 1)) * full[-1]
        assert omitted < mp.ldexp(1, -wp), digits


class TestSquarePanels:
    """Each Gauss-Legendre panel of a square trace reports an error estimate
    read from its own samples, and takes no sample beyond them."""

    def test_estimate_bounds_the_degree7_distance(self, monkeypatch):
        panel = traces._gl_panel
        seen = []

        def checked(fun, a, b, degree):
            val, est = panel(fun, a, b, degree)
            ref, _ = panel(fun, a, b, 7)
            seen.append((a, b, abs(val - ref), est))
            return val, est

        monkeypatch.setattr(traces, "_gl_panel", checked)
        # one panel for the ray of (0,1,0), two for each other ray integrated
        for n, panels in ((1, 1), (25, 5), (49, 7)):
            seen.clear()
            traces._ray_value.cache_clear()
            trace_square(n, PrecisionContext(digits=25))
            assert len(seen) == panels, n
            for a, b, diff, est in seen:
                assert diff <= est, (n, a, b, diff, est)

    def test_evaluations_per_trace(self, count_f_evals):
        # the rays of (0,1,0), (0,5,1) and (0,5,2), the last two standing
        # for their mirrors; panels of 48 nodes: [y0, 1/2] for the first,
        # [y0, 2 y0] and [2 y0, 1/2] for the other two
        traces._ray_value.cache_clear()
        trace_square(25, PrecisionContext(digits=25))
        assert count_f_evals[0] == 5 * 48

    def test_shared_ray_across_traces(self, count_f_evals):
        # the ray of (0,1,0) is kept across calls: Tr_25 after Tr_1 integrates
        # only (0,5,1) and (0,5,2)
        ctx = PrecisionContext(digits=25)
        traces._ray_value.cache_clear()
        first = trace_square(1, ctx)
        assert count_f_evals[0] == 48
        count_f_evals[0] = 0
        warm = trace_square(25, ctx)
        assert count_f_evals[0] == 4 * 48
        traces._ray_value.cache_clear()
        assert trace_square(25, ctx).value == warm.value
        assert trace_square(1, ctx).value == first.value

    def test_mirror_pairs_shared_across_traces(self, count_f_evals):
        # u_offset = -1 uses the mirrors of the rays that u_offset = 1 used,
        # which the ray cache keys under the same (b', min(c, b' - c))
        ctx = PrecisionContext(digits=25)
        traces._ray_value.cache_clear()
        trace_square(25, ctx, u_offset=1)
        count_f_evals[0] = 0
        warm = trace_square(25, ctx, u_offset=-1)
        assert count_f_evals[0] == 0
        traces._ray_value.cache_clear()
        assert trace_square(25, ctx, u_offset=-1).value == warm.value
