"""Classical modular objects and the two weakly holomorphic families.

q-expansion side: eta, E4/E6, j, the level-6 modular function

    f = (1/24) (E4(t) - 4 E4(2t) - 9 E4(3t) + 36 E4(6t)) / (eta(t)eta(2t)eta(3t)eta(6t))^2
      = q^{-1} + 12 + 77 q + ...,

the weight 3/2 level-1 family h_d = P_d(j) * (-Theta(j)/eta) with exponents
in (1/24)Z, and the weight 3/2 level-4 plus-space family g_d with integer
exponents supported on n = 0,3 mod 4.

Evaluation side: one helper reduces the argument to the SL2(Z) fundamental
domain and records the total T-shift and the points of the S-steps; eta and
the Eisenstein series build their automorphy factors from that record and sum
one rapidly convergent q-series at the reduced point (the pentagonal series
for eta, Horner on the integer coefficients for E4/E6).  f is assembled from
the level-1 blocks at tau, 2tau, 3tau, 6tau, each reduced once for both eta
and E4.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .context import DEFAULT_CTX, PrecisionContext
from .exact import chi12, chi12_sqrt, s_coeff
from .harmonic import HarmonicExpansion, ModeTerm
from .qseries import (QSeries, eisenstein_E4, eisenstein_E6, eta_series,
                      euler_product, j_series, theta_series)


# ---------------------------------------------------------------------------
# Point evaluation with fundamental-domain reduction
# ---------------------------------------------------------------------------

def _reduce(tau):
    """Reduce tau into the SL2(Z) fundamental domain by T- and S-steps.

    Returns (z, shift, s_points): the reduced point, the total T-shift, and
    the points p at which each S-step p -> -1/p was taken.  The automorphy
    factors follow from these alone:

        eta(tau) = e(shift/24) prod_p (-i p)^{-1/2} eta(z),
        E_k(tau) = prod_p p^{-k} E_k(z)."""
    shift = 0
    s_points = []
    cur = tau
    for _ in range(10_000):
        k = int(mp.nint(cur.real))
        if k:
            shift += k
            cur = cur - k
        if abs(cur) < 1 - mp.mpf(10) ** (-mp.dps + 2):
            s_points.append(cur)
            cur = -1 / cur
        else:
            break
    return cur, shift, s_points


def _fd_terms_needed(extra_digits: int = 10) -> int:
    # |q| <= e^{-pi sqrt(3)} in the fundamental domain
    return int((mp.dps + extra_digits) * mp.log(10) / (mp.pi * mp.sqrt(3))) + 4


@lru_cache(maxsize=8)
def _pentagonal(gmax: int) -> tuple:
    """(g, sign) for the generalized pentagonal numbers 0 < g <= gmax in
    increasing order: prod (1 - q^n) = 1 + sum sign q^g (Euler)."""
    pents = []
    k = 1
    while k * (3 * k - 1) // 2 <= gmax:
        sign = -1 if k % 2 else 1
        pents += [(g, sign) for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
                  if g <= gmax]
        k += 1
    return tuple(sorted(pents))


@lru_cache(maxsize=8)
def _eis_coeffs(weight: int, nterms: int) -> tuple:
    series = eisenstein_E4(nterms) if weight == 4 else eisenstein_E6(nterms)
    return tuple(series.coeffs)


def _eta_reduced(red):
    """(eta(tau), q) from the reduction red = (z, shift, s_points) of tau,
    with q = e(z): the pentagonal series at z times the automorphy factor."""
    z, shift, s_points = red
    w = mp.expjpi(z / 12)
    q = w ** 24
    total = mp.mpc(1)
    qpow = mp.mpc(1)
    cur_exp = 0
    for g, sign in _pentagonal(_fd_terms_needed()):
        while cur_exp < g:
            qpow *= q
            cur_exp += 1
        total += sign * qpow
    factor = mp.expjpi(mp.mpf(shift % 24) / 12)
    for p in s_points:
        factor /= mp.sqrt(-1j * p)
    return factor * w * total, q


def _eis_reduced(red, weight: int, q):
    """E_weight(tau) from the reduction red of tau, with q = e(z): Horner on
    the integer q-series at z times the automorphy factor."""
    n = _fd_terms_needed()
    coeffs = _eis_coeffs(weight, n + 1)
    total = mp.mpc(coeffs[n])
    for c in reversed(coeffs[:n]):
        total = total * q + c
    for p in red[2]:
        total *= p ** (-weight)
    return total


def eta_eval(tau, ctx: PrecisionContext = DEFAULT_CTX):
    """Dedekind eta via reduction; each S-step contributes 1/sqrt(-i tau)."""
    with mp.workdps(ctx.digits + 10):
        tau = mp.mpc(tau)
        if tau.imag <= 0:
            raise ValueError("point must be in the upper half plane")
        return +_eta_reduced(_reduce(tau))[0]


def _eis_eval(tau, weight: int, ctx: PrecisionContext):
    with mp.workdps(ctx.digits + 10):
        red = _reduce(mp.mpc(tau))
        return +_eis_reduced(red, weight, mp.expjpi(2 * red[0]))


def E4_eval(tau, ctx: PrecisionContext = DEFAULT_CTX):
    return _eis_eval(tau, 4, ctx)


def E6_eval(tau, ctx: PrecisionContext = DEFAULT_CTX):
    return _eis_eval(tau, 6, ctx)


def j_eval(tau, ctx: PrecisionContext = DEFAULT_CTX, method: str = "delta"):
    """Klein j; 'delta' uses E4^3/eta^24, 'e6' uses 1728 E4^3/(E4^3 - E6^2)."""
    with mp.workdps(ctx.digits + 10):
        e4 = E4_eval(tau, ctx)
        if method == "delta":
            return +(e4 ** 3 / eta_eval(tau, ctx) ** 24)
        if method == "e6":
            e6 = E6_eval(tau, ctx)
            return +(1728 * e4 ** 3 / (e4 ** 3 - e6 ** 2))
    raise ValueError("method must be 'delta' or 'e6'")


def _eta_e4_at(tau):
    """(eta(tau), E4(tau)) from a single fundamental-domain reduction."""
    red = _reduce(tau)
    eta, q = _eta_reduced(red)
    return eta, _eis_reduced(red, 4, q)


def f_eval(tau, ctx: PrecisionContext = DEFAULT_CTX):
    """The level-6 modular function f = q^{-1} + 12 + 77q + ... evaluated from
    level-1 blocks at tau, 2tau, 3tau, 6tau (each reduced independently)."""
    with mp.workdps(ctx.digits + 10):
        tau = mp.mpc(tau)
        if tau.imag <= 0:
            raise ValueError("point must be in the upper half plane")
        vals = [_eta_e4_at(k * tau) for k in (1, 2, 3, 6)]
        den = (vals[0][0] * vals[1][0] * vals[2][0] * vals[3][0]) ** 2
        if den == 0:
            raise ArithmeticError("eta-product denominator numerically degenerate")
        num = vals[0][1] - 4 * vals[1][1] - 9 * vals[2][1] + 36 * vals[3][1]
        return +(num / (24 * den))


# ---------------------------------------------------------------------------
# q-expansions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def eta_qexp(trunc24: int = 24 * 20) -> QSeries:
    return eta_series(trunc24)


@lru_cache(maxsize=8)
def E4_qexp(trunc: int = 40) -> QSeries:
    return eisenstein_E4(trunc)


@lru_cache(maxsize=8)
def f_qexp(trunc: int = 60) -> QSeries:
    """E:f quotient, exponent denominator 1, integer coefficients."""
    t = trunc + 4
    e4 = eisenstein_E4(t)
    num = (e4 + (-4) * e4.scale_arg(2) + (-9) * e4.scale_arg(3)
           + 36 * e4.scale_arg(6))
    etaprod = (euler_product(t) * euler_product(t // 2 + 1).scale_arg(2)
               * euler_product(t // 3 + 1).scale_arg(3)
               * euler_product(t // 6 + 1).scale_arg(6))
    den = (etaprod * etaprod).shift(1)
    f = Fraction(1, 24) * (num * den.inverse())
    hi = min(f.trunc, trunc)
    coeffs = [int(f.coeff(k)) for k in range(f.lo, hi + 1)]
    return QSeries(1, f.lo, coeffs, hi)


# ---------------------------------------------------------------------------
# h_d family (level 1, weight 3/2, conjugate eta multiplier)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def hd_construct(d: int, trunc24: int = 24 * 4 + 23) -> QSeries:
    """h_d = q^{-d/24} + A(d,-1) q^{-1/24} + O(q^{23/24}) built as
    P_d(j) * h_25 with h_25 = -Theta(j)/eta; exact integer coefficients.

    trunc24 is the last retained exponent numerator (in 1/24 units)."""
    if d <= 1 or d % 24 != 1:
        raise ValueError("index must be 1 mod 24 and > 1")
    npow = (d - 25) // 24
    jtr = (trunc24 + d) // 24 + 2
    j = j_series(jtr + npow + 2).with_denom(24)
    h25 = -1 * (j.theta_op() * eta_series(24 * (jtr + npow + 2)).inverse())
    jpows = [j ** 0]
    for _ in range(npow):
        jpows.append(jpows[-1] * j)
    cur = jpows[npow] * h25
    for step in range(npow - 1, -1, -1):
        a = cur.coeff(-25 - 24 * step)
        if a:
            cur = cur + (-a) * (jpows[step] * h25)
    out = cur
    for k, c in out.support():
        if k > trunc24:
            break
        if k not in (-d, -1) and k < 23 and c:
            raise ArithmeticError(f"h_{d} construction left exponent {k}/24")
    expect = -chi12_sqrt(d)
    if out.coeff(-1) != expect:
        raise ArithmeticError(f"A({d},-1) != -chi12(sqrt {d})")
    lo = out.lo
    hi = min(out.trunc, trunc24)
    return QSeries(24, lo, [out.coeff(k) for k in range(lo, hi + 1)], hi)


# ---------------------------------------------------------------------------
# g_d family (level 4 plus space, weight 3/2)
# ---------------------------------------------------------------------------

def _sigma_twist(s: QSeries) -> QSeries:
    """Coefficient surgery q -> -q on integer exponents: f(tau + 1/2)."""
    return QSeries(s.denom, s.lo,
                   [c if k % 2 == 0 else -c
                    for k, c in zip(range(s.lo, s.trunc + 1), s.coeffs)],
                   s.trunc)


def _solve_exact(A, b):
    """Gaussian elimination over Fraction; returns None when inconsistent."""
    n = len(A[0])
    M = [row[:] + [bb] for row, bb in zip(A, b)]
    m = len(M)
    piv = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                M[i] = [x - M[i][c] * y for x, y in zip(M[i], M[r])]
        piv.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if M[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(piv):
        x[c] = M[i][n]
    return x


# ---------------------------------------------------------------------------
# Harmonic expansions of F and the level-4 Zagier form
# ---------------------------------------------------------------------------

def F_expansion(trunc24: int = 24 * 16, ctx: PrecisionContext = DEFAULT_CTX,
                neg_trunc: int | None = None) -> HarmonicExpansion:
    """The weight-3/2 harmonic form built from the smallest-parts counts:
    hol part sum s((n+1)/24) q^{n/24} starting at s(0) q^{-1/24}, nonhol part
    -(1/2) sum chi12(m) m beta_{3/2}(pi m^2 y/6) q^{-m^2/24}."""
    neg = neg_trunc if neg_trunc is not None else trunc24
    terms = {-1: ModeTerm(hol=Fraction(-1, 12))}
    N = 1
    while 24 * N - 1 <= trunc24:
        terms[24 * N - 1] = ModeTerm(hol=s_coeff(N))
        N += 1
    m = 1
    while m * m <= neg:
        ch = chi12(m)
        if ch:
            key = -m * m
            t = terms.setdefault(key, ModeTerm())
            t.beta32.append((Fraction(-ch * m, 2), Fraction(m * m, 6)))
        m += 1
    return HarmonicExpansion(24, terms, [], label="F")


def F_eval(tau, ctx: PrecisionContext = DEFAULT_CTX,
           trunc24: int = 24 * 16):
    return F_expansion(trunc24, ctx).eval(tau, ctx)


def zminus_expansion(trunc: int = 60,
                     ctx: PrecisionContext = DEFAULT_CTX) -> HarmonicExpansion:
    """Zagier's weight-3/2 Eisenstein-type form: Hurwitz class numbers,
    the 1/(8 pi sqrt y) term, and beta_{3/2}(4 pi n^2 y) corrections."""
    from .classnum import hurwitz_H
    terms = {}
    for n in range(0, trunc + 1):
        if n % 4 in (1, 2) and n != 0:
            continue
        H = hurwitz_H(n)
        if H:
            terms[n] = ModeTerm(hol=H)
    m = 1
    while m * m <= trunc:
        t = terms.setdefault(-m * m, ModeTerm())
        t.beta32.append((Fraction(-m, 2), Fraction(4 * m * m)))
        m += 1
    return HarmonicExpansion(1, terms,
                             [("inv_sqrt_y_over_pi", Fraction(1, 8))],
                             label="Zminus")


@lru_cache(maxsize=4)
def _gd_seeds(trunc: int):
    """The two seeds g_1 and g_4 of the plus-space family, plus j(4 tau).

    g_1 is the half-period twist of theta E4(4t)/eta(4t)^6.  g_4 is solved
    for inside the span generated from g_1 by the plus-support-preserving
    Serre derivative D = (1/4)Theta - (w/12)E2(4t), Eisenstein multipliers
    E4(4t)/E6(4t), and 1/Delta(4t); both are validated downstream against
    printed coefficients."""
    t4 = trunc // 4 + 4
    theta = theta_series(trunc + 8)
    E4_4 = eisenstein_E4(t4).scale_arg(4)
    E6_4 = eisenstein_E6(t4).scale_arg(4)
    eta4_6 = (euler_product(t4) ** 6).scale_arg(4).shift(1)
    g1 = -1 * _sigma_twist(theta * E4_4 * eta4_6.inverse())

    sig1 = [0] * t4
    for dd in range(1, t4):
        for mmul in range(dd, t4, dd):
            sig1[mmul] += dd
    E2_4 = QSeries(1, 0, [1] + [-24 * s for s in sig1[1:]], t4 - 1).scale_arg(4)
    D4inv = ((euler_product(t4) ** 24).scale_arg(4).shift(4)).inverse()
    j4 = j_series(t4 - 1).scale_arg(4)

    def dop(g, w):
        return Fraction(1, 4) * g.theta_op() + Fraction(-w, 12) * (E2_4 * g)

    ds = [g1]
    w = Fraction(3, 2)
    for _ in range(6):
        ds.append(dop(ds[-1], w))
        w += 2
    pool = [g1, g1 * j4,
            ds[6] * D4inv, ds[4] * E4_4 * D4inv, ds[3] * E6_4 * D4inv,
            ds[2] * (E4_4 ** 2) * D4inv, ds[1] * E4_4 * E6_4 * D4inv,
            (g1 * (E6_4 ** 2)) * D4inv]
    conds = [(-5, 0), (-4, 1), (-1, 0), (0, -2)]
    A = [[Fraction(p.coeff(k)) for p in pool] for k, _ in conds]
    b = [Fraction(v) for _, v in conds]
    x = _solve_exact(A, b)
    if x is None:
        raise ArithmeticError("g_4 seed system inconsistent")
    g4 = None
    for xv, p in zip(x, pool):
        if xv:
            term = xv * p
            g4 = term if g4 is None else g4 + term
    return g1, g4, j4


@lru_cache(maxsize=64)
def gd_construct(d: int, trunc: int = 60) -> QSeries:
    """g_d = q^{-d} + sum_{0 <= n = 0,3 (4)} B(d,n) q^n with B(d,0) = -2 iff
    d is a square; positive discriminants d = 0,1 mod 4."""
    if d <= 0 or d % 4 not in (0, 1):
        raise ValueError("index must be a positive discriminant (0,1 mod 4)")
    g1, g4, j4 = _gd_seeds(trunc + d + 8)
    if d == 1:
        base = g1
    elif d == 4:
        base = g4
    else:
        base = gd_construct(d - 4, trunc + d + 8) * j4
        for m in range(d - 1, 0, -1):
            if m % 4 not in (0, 1):
                continue
            c = base.coeff(-m)
            if c:
                base = base + (-c) * gd_construct(m, trunc + d + 8)
    sq = math.isqrt(d) ** 2 == d
    expect0 = -2 if sq else 0
    if base.coeff(0) != expect0:
        raise ArithmeticError(f"g_{d}: constant term {base.coeff(0)} != {expect0}")
    bad = [(k, c) for k, c in base.support() if k % 4 in (1, 2) and c]
    if bad:
        raise ArithmeticError(f"g_{d}: plus-space support violated at {bad[:3]}")
    nonint = [(k, c) for k, c in base.support()
              if isinstance(c, Fraction) and c.denominator != 1]
    if nonint:
        raise ArithmeticError(f"g_{d}: non-integral coefficients {nonint[:3]}")
    lo = base.lo
    hi = min(base.trunc, trunc)
    return QSeries(1, lo, [int(base.coeff(k)) for k in range(lo, hi + 1)], hi)
