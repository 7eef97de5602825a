"""Kloosterman-series coefficients a(n,s), their pole structure at s = 3/4
for square n, assembly and pointwise evaluation of the two depth-3/2
expansions (level 1 in q^{1/24}, level 4 in q), and finite-difference
xi / Laplacian / modularity verification operators.

The c-sums run in float64 (deterministic, fixed order), with Bessel weights
from their power series, and the divergent main term of the square-index
case resummed analytically; the pole at s = 3/4 comes from the Laurent
expansion of that resummed tail.  Prefactors and everything downstream
stay in mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from .classnum import hstar
from .context import DEFAULT_CTX, PrecisionContext
from .exact import (UnitRoot24, chi12, chi12_sqrt, is_square,
                    kloosterman_table, trace_cm_exact)
from .harmonic import HarmonicExpansion, ModeTerm
from .matrices import GroupElement
from .special import c_factor, richardson
from .traces import trace, trace_square


@dataclass(frozen=True)
class CoeffResult:
    n: int
    s: object
    value: object
    pole_subtracted: bool
    err_est: object


def _cesaro_value(terms: np.ndarray) -> float:
    """Three-fold Cesaro smoothing of the partial sums, evaluated as the
    mean of the last half of the doubly averaged sequence."""
    X = len(terms)
    P = np.cumsum(terms)
    idx = np.arange(1, X + 1, dtype=np.float64)
    R1 = np.cumsum(P) / idx
    R2 = np.cumsum(R1) / idx
    return float(R2[X // 2:].mean())


def _cesaro_pair(terms: np.ndarray):
    return _cesaro_value(terms), _cesaro_value(terms[:len(terms) // 2])


def _tail_lead(n: int, nu, X):
    """lead = main (a/2)^nu X^{1/2-nu}/Gamma(nu+1), a = pi sqrt n/6, with
    main = chi12(sqrt n) 6 sqrt 3/pi^2 half the constant of S(n,x) ~ 2 main
    sqrt x: the main-term tail of square n is main int_X^oo t^{-1/2}
    J_nu(a/t) dt = lead (1/(nu - 1/2) + rest) by the Bessel series (a/X
    small).  1/(nu - 1/2) is the pole at s = 3/4, so lead takes the exact
    nu = 2s - 1 in mpmath; at nu = 1/2 it has no X in it."""
    main = chi12_sqrt(n) * 6 * mp.sqrt(3) / mp.pi ** 2
    a = mp.pi * mp.sqrt(n) / 6
    return main * (a / 2) ** nu * X ** (mp.mpf(1) / 2 - nu) / mp.gamma(nu + 1)


def _tail_rest(n: int, nu: float, x):
    """rest = sum_{k>=1} (-(a/2x)^2)^k / (k! (nu+1)_k (nu + 2k - 1/2)), the
    terms k >= 1 of _tail_lead's series, each smaller by (a/2x)^2, summed in
    float64 at one x or at every x of an array."""
    ratio = -(math.pi * math.sqrt(n) / 12 / np.asarray(x, dtype=np.float64)) ** 2
    rest = np.zeros_like(ratio)
    coeff = np.ones_like(ratio)
    for k in range(1, 61):
        coeff *= ratio / (k * (nu + k))
        term = coeff / (nu + 2 * k - 0.5)
        rest += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(rest)):
            break
    return rest


_BESSEL_X0 = 4.0     # J weights at larger arguments come from mpmath


def _bessel_series(nu: float, zmax: float) -> list:
    """c_k = 1/(k! Gamma(nu + k + 1)), k = 0, ..., K, of the power series
    J_nu(x) = h^nu sum_k c_k (-h^2)^k, h = x/2 (I_nu with +h^2), with K the
    least index >= 2 whose next term c_{K+1} zmax^{K+1} is below 2^-60 of
    sum_{k<=K} c_k zmax^k and whose next term ratio zmax/((K+2)(nu+K+2)) is
    at most 1/2; zmax is the row's largest h^2."""
    coeffs = [1 / math.gamma(nu + 1)]
    total = term = coeffs[0]
    k = 1
    while True:
        ck = coeffs[-1] / (k * (nu + k))
        term *= zmax / (k * (nu + k))
        if k > 2 and term < 2.0 ** -60 * total and 2 * zmax <= (k + 1) * (nu + k + 1):
            return coeffs
        coeffs.append(ck)
        total += term
        k += 1


def _bessel_weights(n: int, s: float, c_max: int) -> np.ndarray:
    """J_{2s-1}(pi sqrt n / 6c) for c = 1, ..., c_max (I-Bessel for n < 0) in
    float64: the weights of coeff_a's c-sum, built afresh on each call.

    With nu = 2s - 1 > -1, x = pi sqrt|n| / 6c and h = x/2, an entry is
    h^nu P(+h^2) for I and h^nu P(-h^2) for J with x <= X0 = 4, where
    P(z) = sum_{k<=K} c_k z^k is summed by Horner over the row in float64;
    _bessel_series gives c_k and K.  Every c_k is positive and past K the
    terms at zmax shrink by at least 1/2 each, so the omitted tail is below
    2^-59 of sum_k c_k |z|^k = h^-nu I_nu(x), at zmax and (the tail having
    the higher powers) at every smaller h^2 of the row.  That sum also
    bounds the Horner rounding: an I row has no cancellation and keeps a
    relative error below 2K 2^-53 (K <= 16 at x = 4, 63 at n = -9601); a J
    row's alternating sum cancels, so it keeps an absolute error of about
    I_nu(X0) 2^-52 (I_{1/2}(4) = 11), which is why J entries with x > X0,
    i.e. c < pi sqrt n / 24 (c = 1 for 59 <= n <= 233, c <= 2 up to 525),
    come from mpmath besselj at 20 digits instead."""
    nu = 2 * s - 1
    if nu <= -1:
        raise ValueError("the Bessel order 2s - 1 must exceed -1")
    cs = np.arange(1, c_max + 1, dtype=np.float64)
    x = math.pi * math.sqrt(abs(n)) / 6.0 / cs
    big = int(np.count_nonzero(x > _BESSEL_X0)) if n > 0 else 0
    w = np.empty(c_max)
    with mp.workdps(20):
        w[:big] = [float(mp.besselj(nu, xc)) for xc in x[:big]]
    h = x[big:] / 2
    z = h * h
    coeffs = _bessel_series(nu, float(z[0]) if len(z) else 0.0)
    if n > 0:
        z = -z
    p = np.full_like(h, coeffs[-1])
    for ck in reversed(coeffs[:-1]):
        p *= z
        p += ck
    w[big:] = h ** nu * p
    return w


def _c_terms(n: int, s: float, c_max: int, table) -> np.ndarray:
    """The terms A_c((1-n)/24)/c * J_{2s-1}(pi sqrt n/6c), c <= c_max, of
    coeff_a's c-sum; A_c from table if it reaches c_max, else a fresh scan."""
    m = (1 - n) // 24
    if table is None or m not in table or len(table[m]) <= c_max:
        table = kloosterman_table(c_max, (m,))
    cs = np.arange(1, c_max + 1, dtype=np.float64)
    return table[m][1:c_max + 1] / cs * _bessel_weights(n, s, c_max)


def _prefactor(n: int, s):
    """2 pi Gamma(2s)/(|n|^{1/4} Gamma(s + sgn(n)/4)), a(n,s) over its c-sum."""
    sgn = mp.mpf(1) / 4 if n > 0 else -mp.mpf(1) / 4
    return 2 * mp.pi * mp.gamma(2 * s) / (mp.mpf(abs(n)) ** mp.mpf("0.25")
                                          * mp.gamma(s + sgn))


def coeff_a(n: int, s, c_max: int,
            ctx: PrecisionContext = DEFAULT_CTX,
            table: dict | None = None,
            pole_subtracted: bool = False) -> CoeffResult:
    """a(n,s) = 2 pi Gamma(2s)/(|n|^{1/4} Gamma(s + sgn(n)/4)) *
    sum_c A_c((1-n)/24)/c * J_{2s-1}(pi sqrt n/6c)   (I-Bessel for n < 0).

    For square n the sum carries the divergent main term
    chi12(sqrt n) (12 sqrt 3/pi^2) sqrt(t); its tail beyond c_max is resummed
    analytically (_tail_lead, _tail_rest), which reproduces the
    3 chi12(sqrt n)/(sqrt pi (s-3/4)) pole as s -> 3/4.  pole_subtracted
    (square n only) subtracts that pole; at s = 3/4 itself the value is then
    the constant term a0 of _pole_laurent, with its err."""
    if n % 24 != 1 or n == 0:
        raise ValueError("index must be nonzero and 1 mod 24")
    sf = float(s)
    square = n > 0 and is_square(n)
    if pole_subtracted and not square:
        raise ValueError("pole subtraction only applies to square n")
    if square and sf <= 0.75 and not pole_subtracted:
        raise ArithmeticError("pole: a(n,s) diverges at s = 3/4 for square n")
    if not square and sf < 0.75:
        raise ValueError("s below 3/4")
    with mp.workdps(ctx.digits + 10):
        s = mp.mpf(s)
        if s == mp.mpf(3) / 4 and pole_subtracted:
            _, a0, err = _pole_laurent(n, c_max, table)
            return CoeffResult(n, +s, +a0, True, +err)
        terms = _c_terms(n, sf, c_max, table)
        tail = tail_half = mp.mpf(0)
        if square:
            # plain truncation plus the analytic resummation of the S(n,x)
            # main-term tail (this carries the s -> 3/4 pole)
            full, half = float(terms.sum()), float(terms[:c_max // 2].sum())
            nu = 2 * s - 1
            tail, tail_half = (_tail_lead(n, nu, X) * (1 / (nu - mp.mpf(1) / 2)
                                                       + float(_tail_rest(n, float(nu), X)))
                               for X in (mp.mpf(c_max), mp.mpf(c_max) / 2))
        else:
            # no main term: iterated Cesaro averaging of the partial sums kills
            # the oscillatory truncation error far better than plain truncation
            full, half = _cesaro_pair(terms)
        pref = _prefactor(n, s)
        value = pref * (mp.mpf(full) + tail)
        err = abs(pref) * abs((full + tail) - (half + tail_half))
        if pole_subtracted:
            value -= chi12_sqrt(n) * (3 / mp.sqrt(mp.pi)) / (s - mp.mpf(3) / 4)
        return CoeffResult(n, +s, +value, pole_subtracted, +err)


# ---------------------------------------------------------------------------
# The pole at s = 3/4
# ---------------------------------------------------------------------------

def _a_residue(n: int):
    """r = pref lead/2 at s = 3/4 (_prefactor, _tail_lead at nu = 1/2), the
    residue of a(n,s) at s = 3/4 for square n; it equals
    3 chi12(sqrt n)/sqrt pi and has no c_max in it."""
    if n % 24 != 1 or not is_square(n):
        raise ValueError("a(n,s) has a pole at s = 3/4 for square n = 1 mod 24 only")
    return _prefactor(n, mp.mpf(3) / 4) * _tail_lead(n, mp.mpf(1) / 2, 1) / 2


def _pole_laurent(n: int, c_max: int, table):
    """(r, a0, err): a(n,s) = r/(s - 3/4) + a0 + O(s - 3/4) for square n.

    With h = s - 3/4 and X = c_max, coeff_a is pref (S_X(s) + lead (1/2h +
    rest)), and d/ds log(pref lead) = gamma + ln(pi^2 n/(144 X^2)) at h = 0;
    so with r = pref lead/2 (_a_residue), S_X = sum_{c<=X} A_c/c J_{1/2}(pi
    sqrt n/6c) and all else at s = 3/4, a0 = pref S_X + r (2 rest + gamma +
    ln(pi^2 n/(144 X^2))).  err is the largest distance from a0(X) of the
    running constant term a0(x), X/2 <= x <= X (sum and tail cut at x),
    plus c_max 2^-53 |pref| sum|terms| for the rounding of the float sum."""
    r = _a_residue(n)
    pref = _prefactor(n, mp.mpf(3) / 4)
    terms = _c_terms(n, 0.75, c_max, table)
    log0 = mp.euler + mp.log(mp.pi ** 2 * n / 144)    # gamma + ln(...) = log0 - 2 ln X
    a0 = pref * mp.mpf(float(terms.sum())) + r * (
        2 * float(_tail_rest(n, 0.5, c_max)) + log0 - 2 * mp.log(c_max))
    xs = np.arange(max(c_max // 2, 1), c_max + 1)
    running = float(pref) * np.cumsum(terms)[xs - 1] + float(r) * (
        2 * _tail_rest(n, 0.5, xs) + float(log0) - 2 * np.log(xs))
    err = (np.abs(running - running[-1]).max()
           + c_max * 2.0 ** -53 * abs(float(pref)) * np.abs(terms).sum())
    return r, a0, mp.mpf(float(err))


def _c_log_slope():
    """c'(3/4)/c(3/4) = ln(288/pi^2) - gamma + 4 zeta'(2)/zeta(2): the sum of
    the log-derivatives of special.c_factor's factors at s = 3/4."""
    return mp.log(288 / mp.pi ** 2) - mp.euler + 4 * mp.zeta(2, 1, 1) / mp.zeta(2)


def pole_residue(n: int, c_max: int,
                 ctx: PrecisionContext = DEFAULT_CTX, table: dict | None = None):
    """lim (s-3/4) c(s) a(n,s) = c(3/4) r (_a_residue) for square n; should
    equal chi12(sqrt n).  It comes from the resummed tail alone, so c_max and
    table, kept to match pole_finite_part, do not change it.  Returns (value,
    err_est), err_est the rounding floor 10^-ctx.digits."""
    with mp.workdps(ctx.digits + 10):
        return (+(c_factor(mp.mpf(3) / 4, ctx) * _a_residue(n)),
                +mp.mpf(10) ** -ctx.digits)


def pole_finite_part(n: int, c_max: int,
                     ctx: PrecisionContext = DEFAULT_CTX, table: dict | None = None):
    """Constant term of c(s) a(n,s) at s = 3/4 for square n, the pole
    chi12(sqrt n)/(s - 3/4) removed: c(3/4) a0 + c'(3/4) r from _pole_laurent
    and _c_log_slope.  Returns (value, err_est), err_est c(3/4) times
    _pole_laurent's err (the truncation envelope) plus 10^-ctx.digits."""
    with mp.workdps(ctx.digits + 10):
        r, a0, err = _pole_laurent(n, c_max, table)
        c = c_factor(mp.mpf(3) / 4, ctx)
        return (+(c * (a0 + _c_log_slope() * r)),
                +(c * err + mp.mpf(10) ** -ctx.digits))


def finite_part_prediction(n: int, ctx: PrecisionContext = DEFAULT_CTX):
    """(2 pi/sqrt n) chi12(sqrt n) h*(n) + (pi/6) Tr_n(f) for square n."""
    with mp.workdps(ctx.digits + 10):
        chi = chi12_sqrt(n)
        return +(2 * mp.pi / mp.sqrt(n) * chi * hstar(n, ctx)
                 + mp.pi / 6 * trace_square(n, ctx).value)


# ---------------------------------------------------------------------------
# Assembly of the two depth-3/2 expansions
# ---------------------------------------------------------------------------

def build_trace_table(n_max: int, ctx: PrecisionContext):
    """Tr_n(f) for 0 < n <= n_max, n = 1 mod 24, as {n: (value, err_est)},
    each from traces.trace at ctx: cycle integrals over the closed geodesics
    for non-square n, regularized ray integrals for squares."""
    table = {}
    for n in range(1, n_max + 1, 24):
        tv = trace(n, ctx)
        table[n] = (tv.value, tv.err_est)
    return table


def assemble_H(n_max: int, traces: dict,
               ctx: PrecisionContext = DEFAULT_CTX,
               neg_max: int | None = None) -> HarmonicExpansion:
    """The depth-3/2 expansion on the q^{1/24} grid:

      -i q^{1/24} + sum Tr_n(f) q^{n/24} + 12 sum chi12(m)/m h*(m^2) q^{m^2/24}
      + i beta_{1/2}(-pi y/6) q^{1/24}
      + sum_{n<0} Tr_n(f)/sqrt|n| beta_{1/2}(pi|n|y/6) q^{n/24}
      + 24 sum chi12(m) alpha(m^2 y/6) q^{m^2/24}.

    traces must cover every 0 < n <= n_max with n = 1 mod 24 (missing
    entries raise, listing the gaps); negative-index traces are exact."""
    need = [n for n in range(1, n_max + 1) if n % 24 == 1 and n not in traces]
    if need:
        raise ValueError(f"missing precomputed traces for n in {need}")
    neg = neg_max if neg_max is not None else n_max
    with mp.workdps(ctx.digits + 10):
        terms = {}
        for n in range(1, n_max + 1):
            if n % 24 != 1:
                continue
            t = ModeTerm(hol=mp.mpc(traces[n][0]))
            if n == 1:
                t.hol += mp.mpc(0, -1)
                t.beta12.append((mp.mpc(0, 1), Fraction(-1, 6)))
            if is_square(n):
                m = math.isqrt(n)
                ch = chi12(m)
                t.hol += 12 * ch * hstar(n, ctx) / m
                t.alph.append((24 * ch, Fraction(n, 6)))
            terms[n] = t
        for n in range(-23, -neg - 1, -24):
            tr = trace_cm_exact(n)
            coeff = mp.mpf(tr.numerator) / tr.denominator / mp.sqrt(abs(n))
            terms[n] = ModeTerm(beta12=[(coeff, Fraction(abs(n), 6))])
        return HarmonicExpansion(24, terms, [], label="H")


def assemble_Z(n_max: int, ctx: PrecisionContext = DEFAULT_CTX) -> HarmonicExpansion:
    """The level-4 depth-3/2 expansion on the integer q grid:

      sum_{d>0} h*(d)/sqrt d q^d + sqrt y/3
      + sum_{d<0} h*(d)/sqrt|d| beta_{1/2}(4 pi |d| y) q^d
      + (gamma - log 16 pi y)/(4 pi) + 2 sum_{m>=1} alpha(4 m^2 y) q^{m^2}."""
    from .classnum import hurwitz_H
    with mp.workdps(ctx.digits + 10):
        terms = {}
        for d in range(3, n_max + 1):
            if d % 4 not in (0, 1):
                continue
            hs = hstar(d, ctx)
            if hs:
                terms[d] = ModeTerm(hol=hs / mp.sqrt(d))
        m = 1
        while m * m <= n_max:
            t = terms.setdefault(m * m, ModeTerm())
            t.alph.append((2, Fraction(4 * m * m)))
            m += 1
        for n in range(3, n_max + 1):
            if n % 4 in (1, 2):
                continue
            H = hurwitz_H(n)
            if H:
                coeff = mp.mpf(H.numerator) / H.denominator / mp.sqrt(n)
                terms[-n] = ModeTerm(beta12=[(coeff, Fraction(4 * n))])
        specials = [("sqrt_y", Fraction(1, 3)),
                    ("gamma_log_16piy_over_pi", Fraction(1, 4))]
        return HarmonicExpansion(1, terms, specials, label="Z")


# ---------------------------------------------------------------------------
# Verification operators
# ---------------------------------------------------------------------------

FD_STEP = "1e-5"     # step of the finite differences in xi_op and delta_op


def _dx(fn, tau, h):
    return (fn(tau + h) - fn(tau - h)) / (2 * h)


def _dy(fn, tau, h):
    return (fn(tau + 1j * h) - fn(tau - 1j * h)) / (2 * h)


def xi_op(fn, k, tau, ctx: PrecisionContext = DEFAULT_CTX):
    """xi_k f = 2 i y^k conj(d f / d tau-bar), central differences in x, y
    with step FD_STEP and one Richardson level."""
    with mp.workdps(ctx.digits + 10):
        tau = mp.mpc(tau)

        def dbar(h):
            return ((_dx(fn, tau, h) + 1j * _dy(fn, tau, h)) / 2,)

        d, = richardson(dbar, mp.mpf(FD_STEP))
        return +(2j * tau.imag ** mp.mpf(k) * mp.conj(d))


def delta_op(fn, k, tau, ctx: PrecisionContext = DEFAULT_CTX):
    """Delta_k = -y^2 (dxx + dyy) + i k y (dx + i dy), central differences
    with step FD_STEP and one Richardson level."""
    with mp.workdps(ctx.digits + 10):
        tau = mp.mpc(tau)
        y = tau.imag
        f0 = fn(tau)

        def diffs(h):
            fxx = (fn(tau + h) - 2 * f0 + fn(tau - h)) / h ** 2
            fyy = (fn(tau + 1j * h) - 2 * f0 + fn(tau - 1j * h)) / h ** 2
            return fxx, fyy, _dx(fn, tau, h), _dy(fn, tau, h)

        xx, yy, dx, dy = richardson(diffs, mp.mpf(FD_STEP))
        return +(-y ** 2 * (xx + yy) + 1j * mp.mpf(k) * y * (dx + 1j * dy))


def modularity_residual(fn, gamma: GroupElement, k, multiplier: UnitRoot24, tau,
                        ctx: PrecisionContext = DEFAULT_CTX):
    """|f(g tau) - nu(g) (c tau + d)^k f(tau)| with the principal branch, nu
    the multiplier's value."""
    with mp.workdps(ctx.digits + 10):
        tau = mp.mpc(tau)
        auto = multiplier.value() * (gamma.c * tau + gamma.d) ** mp.mpf(k)
        return +abs(fn(gamma.apply(tau)) - auto * fn(tau))
