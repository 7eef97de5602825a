"""Kloosterman-series coefficients a(n,s), their pole structure at s = 3/4
for square n, assembly and pointwise evaluation of the two depth-3/2
expansions (level 1 in q^{1/24}, level 4 in q), and finite-difference
xi / Laplacian / modularity verification operators.

The c-sums run in float64 (deterministic, fixed order), with Bessel weights
from their power series, and the divergent main term of the square-index
case resummed analytically; prefactors, extrapolation, and everything
downstream stay in mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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


def _tail_integral(a, nu, X):
    """int_X^oo t^{-1/2} J_nu(a/t) dt via the Bessel power series (a/X small):
    lead sum_k (-(a/2X)^2)^k / (k! (nu+1)_k (nu + 2k - 1/2)).  The k = 0 term
    carries the pole 1/(nu - 1/2) at s = 3/4, so it and the common factor are
    evaluated in mpmath at the exact nu = 2s - 1 of the prefactor; the terms
    k >= 1, smaller by (a/2X)^2 each, are summed in float."""
    lead = (a / 2) ** nu * X ** (mp.mpf(1) / 2 - nu) / mp.gamma(nu + 1)
    nuf = float(nu)
    ratio = -(float(a) / (2 * float(X))) ** 2
    rest = 0.0
    coeff = 1.0
    for k in range(1, 61):
        coeff *= ratio / (k * (nuf + k))
        term = coeff / (nuf + 2 * k - 0.5)
        rest += term
        if abs(term) <= 1e-17 * abs(rest):
            break
    return lead * (1 / (nu - mp.mpf(1) / 2) + rest)


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


@lru_cache(maxsize=32)
def _bessel_weights(n: int, s: float, c_max: int) -> np.ndarray:
    """J_{2s-1}(pi sqrt n / 6c) for c = 1, ..., c_max (I-Bessel for n < 0) in
    float64: the weights of coeff_a's c-sum, as one read-only array.

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
    come from mpmath besselj at 20 digits instead.

    Cached by (n, float(s), c_max), so that pole_residue and pole_finite_part,
    which read the same s-grid, build each row once (a kloosterman-series
    round takes 20 rows)."""
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
    w.flags.writeable = False
    return w


def coeff_a(n: int, s, c_max: int,
            ctx: PrecisionContext = DEFAULT_CTX,
            table: dict | None = None,
            pole_subtracted: bool = False) -> CoeffResult:
    """a(n,s) = 2 pi Gamma(2s)/(|n|^{1/4} Gamma(s + sgn(n)/4)) *
    sum_c A_c((1-n)/24)/c * J_{2s-1}(pi sqrt n/6c)   (I-Bessel for n < 0).

    For square n the sum carries the divergent main term
    chi12(sqrt n) (12 sqrt 3/pi^2) sqrt(t); its tail beyond c_max is resummed
    analytically, which reproduces the 3/(sqrt pi (s-3/4)) pole as s -> 3/4.

    The float Bessel weights come from _bessel_weights, cached by
    (n, float(s), c_max); the terms A_c/c * w_c are formed afresh on each
    call, so a cached row gives the same value and err_est as a new one."""
    if n % 24 != 1 or n == 0:
        raise ValueError("index must be nonzero and 1 mod 24")
    sf = float(s)
    square = n > 0 and is_square(n)
    if square and sf <= 0.75 and not pole_subtracted:
        raise ArithmeticError("pole: a(n,s) diverges at s = 3/4 for square n")
    if not square and sf < 0.75:
        raise ValueError("s below 3/4")
    m = (1 - n) // 24
    if table is None or m not in table or len(table[m]) <= c_max:
        table = kloosterman_table(c_max, (m,))
    A = table[m][1:c_max + 1]
    cs = np.arange(1, c_max + 1, dtype=np.float64)
    w = _bessel_weights(n, sf, c_max)
    terms = A / cs * w
    chi = chi12_sqrt(n)
    if chi:
        # square index: plain truncation plus the analytic resummation of the
        # S(n,x) main-term tail (this carries the s -> 3/4 pole)
        full = float(terms.sum())
        half = float(terms[:c_max // 2].sum())
    else:
        # no main term: iterated Cesaro averaging of the partial sums kills
        # the oscillatory truncation error far better than plain truncation
        full, half = _cesaro_pair(terms)
    with mp.workdps(ctx.digits + 10):
        s = mp.mpf(s)
        tail = tail_half = mp.mpf(0)
        if chi:
            # half the main-term constant: S(n,x) ~ chi (12 sqrt 3/pi^2) sqrt(x)
            main = chi * 6 * mp.sqrt(3) / mp.pi ** 2
            a_bes = mp.pi * mp.sqrt(n) / 6
            tail = main * _tail_integral(a_bes, 2 * s - 1, mp.mpf(c_max))
            tail_half = main * _tail_integral(a_bes, 2 * s - 1, mp.mpf(c_max) / 2)
        sgn = mp.mpf(1) / 4 if n > 0 else -mp.mpf(1) / 4
        pref = 2 * mp.pi * mp.gamma(2 * s) / (mp.mpf(abs(n)) ** mp.mpf("0.25")
                                              * mp.gamma(s + sgn))
        value = pref * (mp.mpf(full) + tail)
        err = abs(pref) * abs((full + tail) - (half + tail_half))
        if pole_subtracted:
            if not square:
                raise ValueError("pole subtraction only applies to square n")
            value -= chi * (3 / mp.sqrt(mp.pi)) / (s - mp.mpf(3) / 4)
        return CoeffResult(n, +s, +value, pole_subtracted, +err)


# ---------------------------------------------------------------------------
# s -> 3/4 extrapolation
# ---------------------------------------------------------------------------

def neville_at_zero(hs, vs):
    """Polynomial extrapolation of (h_k, v_k) to h = 0; returns (value, spread)."""
    n = len(hs)
    tab = [mp.mpmathify(v) for v in vs]
    hs = [mp.mpf(h) for h in hs]
    last = tab[-1]
    for level in range(1, n):
        new = []
        for i in range(n - level):
            num = hs[i] * tab[i + 1] - hs[i + level] * tab[i]
            new.append(num / (hs[i] - hs[i + level]))
        tab = new
        prev, last = last, tab[-1]
    return last, abs(last - prev)


def s_grid():
    """s = 3/4 + 0.01 2^-k for k = 0, ..., 6."""
    return [mp.mpf(3) / 4 + mp.mpf("0.01") * mp.mpf(2) ** (-k) for k in range(7)]


def _extrapolate(hs, vals, errs):
    """neville_at_zero plus the propagated coefficient error: the value at
    h = 0 is sum_k L_k(0) v_k with the Lagrange weights L_k, so errors e_k
    in the v_k move it by at most sum_k |L_k(0)| e_k."""
    value, spread = neville_at_zero(hs, vals)
    for k, hk in enumerate(hs):
        weight = mp.mpf(1)
        for j, hj in enumerate(hs):
            if j != k:
                weight *= hj / (hj - hk)
        spread += abs(weight) * errs[k]
    return value, spread


def _pole_grid(n: int, c_max: int, ctx: PrecisionContext, table, residue: bool):
    """c(s) a(n,s) on s_grid, extrapolated to h = s - 3/4 = 0: times h for
    the residue, minus chi12(sqrt n)/h for the finite part."""
    chi = chi12_sqrt(n)
    with mp.workdps(ctx.digits + 10):
        grid = s_grid()
        hs = [s - mp.mpf(3) / 4 for s in grid]
        vals, errs = [], []
        for s, h in zip(grid, hs):
            a = coeff_a(n, s, c_max, ctx, table)
            if residue:
                factor = h * c_factor(s, ctx)
                vals.append(factor * a.value)
            else:
                factor = c_factor(s, ctx)
                vals.append(factor * a.value - chi / h)
            errs.append(abs(factor) * a.err_est)
        return _extrapolate(hs, vals, errs)


def pole_residue(n: int, c_max: int,
                 ctx: PrecisionContext = DEFAULT_CTX, table: dict | None = None):
    """lim (s-3/4) c(s) a(n,s), extrapolated; should equal chi12(sqrt n).

    Returns (value, spread): the Neville spread plus the propagated c_max
    truncation error of the coefficients."""
    return _pole_grid(n, c_max, ctx, table, residue=True)


def pole_finite_part(n: int, c_max: int,
                     ctx: PrecisionContext = DEFAULT_CTX, table: dict | None = None):
    """Constant term of c(s) a(n,s) at s = 3/4 for square n, extrapolated;
    the spread is formed as in pole_residue."""
    return _pole_grid(n, c_max, ctx, table, residue=False)


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
