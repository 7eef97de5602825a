"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 7's square-index level-1 clause at Y = 8 is kept at its
nominal 1e-3 tolerance and fails by the decaying-alpha-term gap (3.8e-2 at
that height); the companion test demonstrates the identity in the large-Y
limit.
"""

import time

from mpmath import mp

from maasslab.context import PrecisionContext
from maasslab.exact import (chi12_sqrt, eta_multiplier, lehmer_ratios,
                            partial_sum_S, trace_cm_exact)
from maasslab.innerprod import (ip_level1_closed, ip_level1_numeric,
                                ip_level4_closed, ip_level4_numeric,
                                ip_level4_quad2d_value, plain_reg_closed)
from maasslab.matrices import S_MAT
from maasslab.modforms import (F_expansion, eta_eval, f_qexp, gd_construct,
                               hd_construct)
from maasslab.spectral import (assemble_H, coeff_a, delta_op,
                               finite_part_prediction, modularity_residual,
                               pole_finite_part, pole_residue, xi_op)
from maasslab.special import alpha, beta_k, c_factor, cprime_factor, whittaker_Wn
from maasslab.traces import trace_cm, trace_cycle
from support import erfc_quadrature, whittaker_Wn_ds_fd

CTX60 = PrecisionContext(digits=60)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion1_qexpansion_exactness():
    t0 = time.time()
    f = f_qexp(8)
    ok = (f.coeff(-1), f.coeff(0), f.coeff(1)) == (1, 12, 77)
    h25 = hd_construct(25)
    ok &= (h25.coeff(-25), h25.coeff(-1), h25.coeff(23)) == (1, 1, -196882)
    ok &= hd_construct(49).coeff(23) == -21296875
    ok &= hd_construct(73).coeff(23) == -842609326
    g1, g4, g5 = gd_construct(1), gd_construct(4), gd_construct(5)
    ok &= (g1.coeff(3), g1.coeff(4), g1.coeff(7)) == (248, -492, 4119)
    ok &= (g4.coeff(3), g4.coeff(4)) == (-26752, -143376)
    ok &= (g5.coeff(3), g5.coeff(4)) == (85995, -565760)
    elapsed = time.time() - t0
    ok &= elapsed < 10
    assert report(1, ok, f"printed f/h_d/g_d coefficients exact, {elapsed:.1f}s (< 10s)")


def test_criterion2_spt_trace_identity():
    t0 = time.time()
    worst = mp.mpf(0)
    for n in (-23, -47, -71, -95, -119):
        tv = trace_cm(n, CTX60)
        exact = trace_cm_exact(n)
        err = abs(tv.value - mp.mpf(exact.numerator) / exact.denominator)
        worst = max(worst, err)
    elapsed = time.time() - t0
    ok = worst < mp.mpf("1e-8") and elapsed < 120
    assert report(2, ok, f"max |Tr_n - 12 s((1-n)/24)| = {mp.nstr(worst, 3)} "
                         f"(< 1e-8), {elapsed:.0f}s (< 120s)")


def test_criterion3_kloosterman_geometry(ctx30, ktable):
    t0 = time.time()
    a_neg = coeff_a(-23, mp.mpf(3) / 4, 10_000, ctx30, ktable)
    err_neg = abs(a_neg.value - 35 / (2 * mp.sqrt(23)))
    tr73 = trace_cycle(73, ctx30)
    a_pos = coeff_a(73, mp.mpf(3) / 4, 10_000, ctx30, ktable)
    # the defining formulas give 4 sqrt(pi) a(n,3/4) = 2 pi Tr_n: the trace
    # carries a 1/(2 pi) normalization the raw coefficient sum does not
    err_pos = abs(4 * mp.sqrt(mp.pi) * a_pos.value - 2 * mp.pi * tr73.value)
    elapsed = time.time() - t0
    ok = err_neg < mp.mpf("1e-2") and err_pos < mp.mpf("1e-2") and elapsed < 300
    assert report(3, ok,
                  f"|a(-23,3/4) - 35/(2 sqrt 23)| = {mp.nstr(err_neg, 3)}, "
                  f"|4 sqrt(pi) a(73,3/4) - 2 pi Tr_73| = {mp.nstr(err_pos, 3)} "
                  f"(both < 1e-2), {elapsed:.0f}s (< 300s)")


def test_criterion4_square_pole_structure(ctx30, ktable):
    lines = []
    ok = True
    for n in (1, 25):
        res, spread = pole_residue(n, 10_000, ctx30, ktable)
        ok &= abs(res - chi12_sqrt(n)) < mp.mpf("1e-3")
        fp, fp_spread = pole_finite_part(n, 10_000, ctx30, ktable)
        pred = finite_part_prediction(n, ctx30)
        ok &= abs(fp - pred) < mp.mpf("1e-2")
        lines.append(f"n={n}: residue err {mp.nstr(abs(res - chi12_sqrt(n)), 2)} "
                     f"(spread {mp.nstr(spread, 2)}), finite-part err "
                     f"{mp.nstr(abs(fp - pred), 2)} (spread {mp.nstr(fp_spread, 2)})")
    assert report(4, ok, "; ".join(lines) + " [tol 1e-3 / 1e-2]")


SAMPLE_POINTS = [mp.mpc("0.13", "1.2"), mp.mpc("0.2", "1.3"),
                 mp.mpc("-0.37", "1.45"), mp.mpc("0.41", "1.8"),
                 mp.mpc("-0.05", "2.2")]


def test_criterion5_operator_identities(ctx30, H_full):
    F = F_expansion(24 * 9)
    worst_xi32 = worst_xi12 = worst_delta = mp.mpf(0)
    for tau in SAMPLE_POINTS:
        r = abs(xi_op(lambda t: F.eval(t, ctx30), mp.mpf(3) / 2, tau, ctx=ctx30)
                + mp.sqrt(6) / (4 * mp.pi) * eta_eval(tau, ctx30))
        worst_xi32 = max(worst_xi32, r)
        r = abs(xi_op(lambda t: H_full.eval(t, ctx30), mp.mpf(1) / 2, tau, ctx=ctx30)
                + 2 * mp.sqrt(6) * F.eval(tau, ctx30))
        worst_xi12 = max(worst_xi12, r)
        r = abs(delta_op(lambda t: H_full.eval(t, ctx30), mp.mpf(1) / 2, tau,
                         ctx=ctx30)
                + 3 / mp.pi * eta_eval(tau, ctx30))
        worst_delta = max(worst_delta, r)
    ok = (worst_xi32 < mp.mpf("1e-6") and worst_xi12 < mp.mpf("1e-4")
          and worst_delta < mp.mpf("1e-4"))
    assert report(5, ok,
                  f"max residuals over 5 points: xi_3/2 F {mp.nstr(worst_xi32, 2)} "
                  f"(< 1e-6), xi_1/2 H {mp.nstr(worst_xi12, 2)} (< 1e-4), "
                  f"Delta_1/2 H {mp.nstr(worst_delta, 2)} (< 1e-4); "
                  f"n_max = 361 terms")


def test_criterion6_modularity(ctx30, H_full):
    worst = mp.mpf(0)
    for tau in (mp.mpc("0.05", "1.02"), mp.mpc("-0.31", "1.1")):
        r = modularity_residual(lambda t: H_full.eval(t, ctx30), S_MAT,
                                mp.mpf(1) / 2, eta_multiplier(S_MAT), tau, ctx30)
        worst = max(worst, r)
    ok = worst < mp.mpf("1e-4")
    assert report(6, ok, f"max S-modularity residual {mp.nstr(worst, 3)} (< 1e-4)")


def test_criterion7_level1_nonsquare(ctx30, trace_table, H_full):
    closed = ip_level1_closed(73, ctx30, traces=trace_table)
    numeric = ip_level1_numeric(73, 10, ctx30, hexp=H_full)
    err = abs(closed - numeric)
    ok = err < mp.mpf("1e-6")
    assert report(7, ok, f"level 1 d=73: |closed - numeric| = {mp.nstr(err, 3)} "
                         f"(< 1e-6) at Y=10")


def test_criterion7_level1_square_d25(ctx30, trace_table, H_full):
    """As stated: |closed - numeric| < 1e-3 for d = 25 at Y = 8.

    The finite-height boundary integral provably differs from the closed
    value by sqrt(24)(alpha(dY/6) - alpha(Y/6)) plus exponentially small
    terms; at Y = 8 that is 3.8e-2, so the stated tolerance cannot be met at
    this height (alpha(Y/6) decays only like 1/Y).  Kept at the nominal tolerance
    on purpose -- see the companion limit test below."""
    closed = ip_level1_closed(25, ctx30, traces=trace_table)
    numeric = ip_level1_numeric(25, 8, ctx30, hexp=H_full)
    err = abs(closed - numeric)
    gap = mp.sqrt(24) * abs(alpha(mp.mpf(200) / 6, ctx30)
                            - alpha(mp.mpf(8) / 6, ctx30))
    ok = err < mp.mpf("1e-3")
    report(7, ok, f"level 1 d=25 at Y=8: |closed - numeric| = {mp.nstr(err, 3)} "
                  f"vs required 1e-3; the gap equals the decaying alpha terms "
                  f"sqrt(24)|alpha(100/3) - alpha(4/3)| = {mp.nstr(gap, 3)} "
                  f"(identity confirmed in the limit test)")
    assert ok, (
        "this tolerance cannot be met at Y=8: the truncated integral "
        f"provably differs from the limit by the alpha terms ({mp.nstr(err, 3)}); "
        "see the companion limit test")


def test_criterion7_level1_square_d25_limit(trace_table):
    """Companion: the same identity holds within 1e-3 once Y is large enough
    for the alpha terms to decay (Y = 480 at 200 working digits)."""
    traces = {25: trace_table[25], 1: trace_table[1]}
    ctx_hi = PrecisionContext(digits=200)
    H = assemble_H(25, traces=traces, ctx=ctx_hi, neg_max=24 * 8 - 1)
    closed = ip_level1_closed(25, ctx_hi, traces=traces)
    numeric = ip_level1_numeric(25, 480, ctx_hi, hexp=H)
    err = abs(closed - numeric)
    ok = err < mp.mpf("1e-3")
    assert report(7, ok, f"level 1 d=25 in the limit (Y=480): "
                         f"|closed - numeric| = {mp.nstr(err, 3)} (< 1e-3)")


def test_criterion7_level4(ctx30):
    err5 = abs(ip_level4_closed(5, ctx30) - ip_level4_numeric(5, 8, ctx30))
    err1 = abs(ip_level4_closed(1, ctx30) - ip_level4_numeric(1, 8, ctx30))
    rel = abs(ip_level4_numeric(5, 8, ctx30)
              - mp.mpf(4) / 3 * plain_reg_closed(5, ctx30))
    ok = (err5 < mp.mpf("1e-3") and err1 < mp.mpf("1e-2")
          and rel < mp.mpf("1e-3"))
    assert report(7, ok,
                  f"level 4: d=5 fast-path err {mp.nstr(err5, 3)} (< 1e-3), "
                  f"d=1 err {mp.nstr(err1, 3)} (< 1e-2), "
                  f"(4/3)-regularized relation err {mp.nstr(rel, 3)} (< 1e-3)")


def test_criterion7_level4_2d_oracle(ctx30):
    err = abs(ip_level4_quad2d_value(5, 4.0, ctx30) - ip_level4_closed(5, ctx30))
    ok = err < mp.mpf("1e-2")
    assert report(7, ok, f"level 4 d=5 two-dimensional oracle err "
                         f"{mp.nstr(err, 3)} (< 1e-2)")


def test_criterion8_special_functions():
    ok = True
    for y in ("0.1", "1", "5", "20"):
        ok &= abs(beta_k(0.5, mp.mpf(y), CTX60)
                  - erfc_quadrature(mp.sqrt(mp.mpf(y)), CTX60)) < mp.mpf("1e-50")
    w = whittaker_Wn(25, 1, mp.mpf(3) / 4, CTX60)
    ok &= abs(w - mp.e ** (-25 * mp.pi / 12)) < mp.mpf("1e-50")
    w = whittaker_Wn(-23, 1, mp.mpf(3) / 4, CTX60)
    target = (mp.sqrt(mp.pi) * beta_k(0.5, 23 * mp.pi / 6, CTX60)
              * mp.e ** (23 * mp.pi / 12))
    ok &= abs(w - target) < mp.mpf("1e-50")
    ok &= abs(c_factor(mp.mpf(3) / 4, CTX60) - mp.sqrt(mp.pi) / 3) < mp.mpf("1e-50")
    ok &= abs(cprime_factor(mp.mpf(3) / 4, CTX60) - 4 * mp.pi / 3) < mp.mpf("1e-50")
    worst = mp.mpf(0)
    for n, y in ((1, 2), (1, 3), (25, 1)):
        fd = whittaker_Wn_ds_fd(n, y, ctx=CTX60)
        target = 4 * mp.pi * mp.e ** (-mp.pi * n * y / 12) \
            * alpha(mp.mpf(n) * y / 6, CTX60)
        worst = max(worst, abs(fd - target))
    ok &= worst < mp.mpf("1e-8")
    assert report(8, ok, f"beta=erfc, W closed forms, c(3/4), c'(3/4) at 1e-50; "
                         f"dW/ds finite-difference err {mp.nstr(worst, 2)} (< 1e-8)")


def test_criterion9_exponential_sums():
    t0 = time.time()
    ms = tuple(range(-5, 6))
    worst = float(lehmer_ratios(2000, ms).max())
    ok = worst <= 1 + 1e-9
    S = partial_sum_S(25, 10_000)
    # chi12(sqrt 25) = -1: the main term of S(n,x) carries that sign
    main = chi12_sqrt(25) * 12 * mp.sqrt(3) / mp.pi ** 2 * 100
    ratio = S / main
    ok &= mp.mpf("0.8") <= ratio <= mp.mpf("1.2")
    elapsed = time.time() - t0
    ok &= elapsed < 600
    assert report(9, ok, f"Lehmer max ratio {worst:.6f} (<= 1) for c <= 2000, "
                         f"m in -5..5; S(25,1e4)/main = {mp.nstr(ratio, 6)} "
                         f"in [0.8, 1.2]; {elapsed:.0f}s (< 600s)")
