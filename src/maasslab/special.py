"""Arbitrary-precision special functions: the normalized incomplete gamma
ratio beta_k, the alpha kernel, Whittaker W from an integral representation
with its s-derivative at s = 3/4, Whittaker M, and the normalizing factors
c(s), c'(s).

beta_k exists for k = 1/2 and k = 3/2 only, both in closed form:
beta_{1/2}(y) = erfc(sqrt y), beta_{3/2}(y) = erfc(sqrt y) - e^{-y}/sqrt(pi y),
and beta_{1/2}(-y) = 1 - i erfi(sqrt y) for y > 0.  alpha has two regimes:
for pi y <= ALPHA_CLOSED_MAX (30) the closed form
(psi(1/2) - log p + pi erfi(sqrt p) - 2 p 2F2(1,1; 3/2,2; p)) / 4 pi at
p = pi y, above it an exponentially convergent trapezoid rule.

All routines take an optional PrecisionContext and evaluate with guard
digits on top of ctx.digits.
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath import mp

from .context import DEFAULT_CTX, PrecisionContext


def _as_mpf(x):
    return mp.mpf(x) if not isinstance(x, (mp.mpf, mp.mpc)) else x


# ---------------------------------------------------------------------------
# The incomplete gamma ratio
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def beta_k(k, y, ctx: PrecisionContext = DEFAULT_CTX):
    """beta_k(y) = Gamma(1-k, y) / Gamma(1-k) for k = 1/2 and k = 3/2.

    Both have closed forms in the error function: beta_{1/2}(y) = erfc(sqrt y)
    and, from Gamma(-1/2, y) = 2 e^{-y}/sqrt(y) - 2 Gamma(1/2, y),
    beta_{3/2}(y) = erfc(sqrt y) - e^{-y}/sqrt(pi y).  The two terms of
    beta_{3/2} agree to about log10(2y) digits at large y, so that many guard
    digits are added.  Negative y is allowed only for k = 1/2, where
    beta_{1/2}(-y) = 1 - erf(i sqrt y) = 1 - i erfi(sqrt y) is complex.
    Any other k raises ValueError.

    Values are cached, keyed by the argument values and ctx: the result is
    rounded at ctx.digits + 15 whatever the caller's precision, so it
    depends on nothing else.  An expansion's modes ask for the same (k, y)
    at every point of one height."""
    half = mp.mpf(1) / 2
    k = mp.mpf(k)
    if k != half and k != 3 * half:
        raise ValueError("beta_k is implemented for k = 1/2 and k = 3/2 only")
    with mp.workdps(ctx.digits + 15):
        y = _as_mpf(y)
        if y == 0:
            return mp.mpf(1)
        if y < 0:
            if k != half:
                raise ValueError("negative argument only supported at k = 1/2")
            return +mp.mpc(1, -mp.erfi(mp.sqrt(-y)))
        if k == half:
            return +mp.erfc(mp.sqrt(y))
        with mp.extradps(math.ceil(math.log10(2 + 2 * float(y)))):
            root = mp.sqrt(y)
            val = mp.erfc(root) - mp.exp(-y) / (mp.sqrt(mp.pi) * root)
        return +val


# ---------------------------------------------------------------------------
# The alpha kernel
# ---------------------------------------------------------------------------

# alpha(y) comes from its closed form for pi y <= ALPHA_CLOSED_MAX and from
# the trapezoid rule above it
ALPHA_CLOSED_MAX = 30


def alpha(y, ctx: PrecisionContext = DEFAULT_CTX):
    """alpha(y) = (sqrt y / 4 pi) int_0^oo e^{-pi y t} t^{-1/2} log(1+t) dt.

    Two regimes, split at pi y = ALPHA_CLOSED_MAX: the closed form in erfi
    and 2F2 at or below it (_alpha_closed), the trapezoid rule above it
    (_alpha_trapezoid)."""
    if y <= 0:
        raise ValueError("argument must be positive")
    if math.pi * float(y) <= ALPHA_CLOSED_MAX:
        return _alpha_closed(y, ctx)
    return _alpha_trapezoid(y, ctx)


def _alpha_closed(y, ctx: PrecisionContext):
    """alpha(y) = K(p) / 4 pi at p = pi y, with

        K(p) = psi(1/2) - log p + pi erfi(sqrt p) - 2 p 2F2(1,1; 3/2,2; p).

    Derivation: Frullani's log(1+t) = int_0^oo (e^{-s} - e^{-s(1+t)}) ds/s
    and int_0^oo e^{-pt} t^{-1/2} (1 - e^{-st}) dt = sqrt(pi) (p^{-1/2} -
    (p+s)^{-1/2}) give, after s = p u,

        K(p) = int_0^oo e^{-pu} (1 - (1+u)^{-1/2}) du/u,

    so K'(p) = -1/p + int_0^oo e^{-pu} (1+u)^{-1/2} du
             = -1/p + sqrt(pi/p) e^p erfc(sqrt p).
    The derivative of pi erfi(sqrt p) is sqrt(pi/p) e^p, and that of
    2 p 2F2(1,1; 3/2,2; p) = 2 sum_n 2^n p^{n+1} / ((n+1) (2n+1)!!) is
    sqrt(pi/p) e^p erf(sqrt p), so the right side has derivative K'(p).  The
    constant is fixed by the limit K(p) + log p -> psi(1/2) as p -> 0:
    K(p) = int_0^oo e^{-pu} ((1 - (1+u)^{-1/2})/u - 1/(1+u)) du + e^p E1(p),
    the integral tends to -2 log 2 = psi(1/2) + gamma and e^p E1(p) + log p
    to -gamma.  The erfi and 2F2 terms grow like e^p while K falls like
    1/(2p), so ceil(p / ln 10) guard digits absorb the cancellation.  The 2F2 term is
    summed in fixed point from the ratio of consecutive terms,
    2p (n+1) / ((n+2)(2n+3)); all terms are positive."""
    with mp.workdps(ctx.digits + 15):
        y = _as_mpf(y)
        with mp.extradps(math.ceil(math.pi * float(y) / math.log(10))):
            p = mp.pi * y
            wp = mp.prec + 20
            pf = mp.to_fixed(p, wp)
            term, f22, n = pf, 0, 0
            while term:
                f22 += term
                term = (term * pf >> wp) * (2 * n + 2) // ((n + 2) * (2 * n + 3))
                n += 1
            psi_half = -mp.euler - 2 * mp.ln2
            K = (psi_half - mp.log(p) + mp.pi * mp.erfi(mp.sqrt(p))
                 - mp.ldexp(2 * f22, -wp))
            val = K / (4 * mp.pi)
        return +val


def _alpha_trapezoid(y, ctx: PrecisionContext):
    """alpha(y) by the trapezoid rule.

    With t = u^2 the integral is int_R e^{-pi y u^2} log(1+u^2) du, whose
    integrand is even and analytic in the strip |Im u| < 1 (log singularities
    at u = +-i), so the trapezoid rule converges exponentially
    (Trefethen-Weideman, SIAM Rev. 56, 2014).  Shifting the line to Im u = c
    bounds the error of step h by about e^{pi y c^2 - 2 pi c / h}: c = 1 gives
    e^{pi y - 2 pi/h} (the singularities), and c = 1/(y h), allowed when
    y h >= 1, gives e^{-pi/(y h^2)} (the Gaussian's width).  h is the larger
    step that meets the target by its bound.  The sum is taken on the grid
    h/2, which holds the nodes of h; the two sums must agree to
    10^-(digits+5) relative, and the finer one is returned.  The Gaussian
    factors come from the ratio recursion e^{-p(k+1)^2} = e^{-pk^2} r_k,
    r_{k+1} = r_k e^{-2p} in fixed point, so a node costs one logarithm
    (of 1 + u^2 formed exactly) and three integer products."""
    with mp.workdps(ctx.digits + 15):
        y = _as_mpf(y)
        yf = float(y)
        # log of 1/error wanted from the step-h sum: 10 digits past
        # ctx.digits, and log(2 + y) for the bound's prefactor against alpha
        target = (ctx.digits + 10) * math.log(10) + math.log(2 + yf)
        h = 2 * math.pi / (target + math.pi * yf)
        h_width = math.sqrt(math.pi / (yf * target))
        if yf * h_width >= 1:
            h = max(h, h_width)
        step = mp.mpf(h) / 2
        step2 = step * step
        p = mp.pi * y * step2
        # the summand e^{-pi y u^2} log(1+u^2) decreases once
        # pi y (1+u^2) log(1+u^2) >= 1, which u^2 pi y log 2 >= 1 ensures
        k_dec = math.ceil(2 / (h * math.sqrt(math.pi * yf * math.log(2))))
        # fixed point with wp bits; 30 guard bits absorb the rounding of the
        # ratio recursion, about k^2 units in the last place at node k
        wp = mp.prec + 30
        gauss = 1 << wp
        ratio = mp.to_fixed(mp.exp(-p), wp)
        ratio_step = mp.to_fixed(mp.exp(-2 * p), wp)
        fine = coarse = 0
        k = 0
        while True:
            k += 1
            gauss = gauss * ratio >> wp
            ratio = ratio * ratio_step >> wp
            log_term = mp.log(mp.fadd(1, k * k * step2, exact=True))
            term = gauss * mp.to_fixed(log_term, wp) >> wp
            fine += term
            if k % 2 == 0:
                coarse += term
            if term << mp.prec <= fine and k >= k_dec:
                break
        fine = mp.ldexp(fine, -wp) * step
        coarse = mp.ldexp(coarse, -wp) * 2 * step
        if abs(fine - coarse) > mp.mpf(10) ** (-(ctx.digits + 5)) * fine:
            raise ArithmeticError(f"alpha({mp.nstr(y, 8)}): trapezoid sums at "
                                  f"steps h and h/2 disagree")
        return +(mp.sqrt(y) / (2 * mp.pi) * fine)


# ---------------------------------------------------------------------------
# Whittaker functions
# ---------------------------------------------------------------------------

def _whittaker_W_integral(kappa, s, y, log_weight: bool = False):
    """W_{kappa, s-1/2}(y) from

        y^s e^{-y/2} / Gamma(s - kappa) *
            int_0^oo e^{-yt} t^{s-kappa-1} (1+t)^{s+kappa-1} dt,

    with t = u^2.  With log_weight, the integrand carries the extra factor
    log t + log(1+t) (the s-derivative of the integrand)."""
    kappa = mp.mpf(kappa)
    s = _as_mpf(s)
    y = _as_mpf(y)
    p = 2 * (s - kappa) - 1      # u-exponent after t = u^2

    def f(u):
        t = u * u
        w = mp.e ** (-y * t) * u ** p * (1 + t) ** (s + kappa - 1)
        if log_weight:
            w *= (2 * mp.log(u) if u > 0 else mp.ninf) + mp.log(1 + t)
        return 2 * w

    cut = mp.sqrt(max(mp.mpf(4), (mp.dps * mp.log(10) + 20) / y))
    val = mp.quad(f, [0, mp.mpf(1) / 2, 1, cut, mp.inf])
    return y ** s * mp.e ** (-y / 2) / mp.gamma(s - kappa) * val


def whittaker_Wn(n: int, y, s, ctx: PrecisionContext = DEFAULT_CTX):
    """W-Whittaker package (pi |n| y / 6)^{-1/4} W_{sgn(n)/4, s-1/2}(pi|n|y/6)
    for indices n = 1 mod 24, from the integral representation."""
    if y <= 0:
        raise ValueError("argument must be positive")
    if n == 0:
        raise ValueError("index must be nonzero")
    with mp.workdps(ctx.digits + 15):
        s = _as_mpf(s)
        u = mp.pi * abs(n) * _as_mpf(y) / 6
        kappa = mp.mpf(1) / 4 if n > 0 else -mp.mpf(1) / 4
        w = _whittaker_W_integral(kappa, s, u)
        return +(u ** (-mp.mpf(1) / 4) * w)


def richardson(diffs, h):
    """One Richardson level on central differences: (4 D(h/2) - D(h))/3 for
    each entry D of the tuple diffs(h), with diffs(h) taken first."""
    coarse = diffs(h)
    fine = diffs(h / 2)
    return [(4 * b - a) / 3 for a, b in zip(coarse, fine)]


def whittaker_Wn_ds(n: int, y, ctx: PrecisionContext = DEFAULT_CTX):
    """d/ds of whittaker_Wn at s = 3/4, differentiating the integral
    representation under the integral sign."""
    with mp.workdps(ctx.digits + 15):
        s = mp.mpf(3) / 4
        u = mp.pi * abs(n) * _as_mpf(y) / 6
        kappa = mp.mpf(1) / 4 if n > 0 else -mp.mpf(1) / 4
        w = _whittaker_W_integral(kappa, s, u)
        wlog = _whittaker_W_integral(kappa, s, u, log_weight=True)
        dW = w * (mp.log(u) - mp.digamma(s - kappa)) + wlog
        return +(u ** (-mp.mpf(1) / 4) * dW)


def whittaker_M(y, s, ctx: PrecisionContext = DEFAULT_CTX):
    """M-Whittaker package (pi y/6)^{-1/4} M_{1/4, s-1/2}(pi y / 6).

    At s = 3/4 this equals -(i sqrt(pi)/2)(1 - beta_{1/2}(-pi y/6)) e^{-pi y/12}."""
    if y <= 0:
        raise ValueError("argument must be positive")
    with mp.workdps(ctx.digits + 15):
        s = _as_mpf(s)
        u = mp.pi * _as_mpf(y) / 6
        w = mp.whitm(mp.mpf(1) / 4, s - mp.mpf(1) / 2, u)
        return +(u ** (-mp.mpf(1) / 4) * w)


# ---------------------------------------------------------------------------
# Normalizing factors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def c_factor(s, ctx: PrecisionContext = DEFAULT_CTX):
    """c(s) = (2s-1) Gamma(s-1/4) Gamma(2s-1/2) (2^{2s-1/2}-1)(3^{2s-1/2}-1)
    zeta(4s-1) / (6^{s-3/4} pi^{2s} Gamma(2s)).

    Cached by the value of s and ctx, as beta_k is: the result is rounded
    at ctx.digits + 10 whatever the caller's precision.  pole_residue and
    pole_finite_part take it at the same seven points of one s-grid."""
    with mp.workdps(ctx.digits + 10):
        s = _as_mpf(s)
        num = ((2 * s - 1) * mp.gamma(s - mp.mpf(1) / 4)
               * mp.gamma(2 * s - mp.mpf(1) / 2)
               * (mp.mpf(2) ** (2 * s - mp.mpf(1) / 2) - 1)
               * (mp.mpf(3) ** (2 * s - mp.mpf(1) / 2) - 1)
               * mp.zeta(4 * s - 1))
        den = mp.mpf(6) ** (s - mp.mpf(3) / 4) * mp.pi ** (2 * s) * mp.gamma(2 * s)
        return +(num / den)


def cprime_factor(s, ctx: PrecisionContext = DEFAULT_CTX):
    """c'(s) = 2^{4s-1} Gamma(s+1/4) Gamma(s-1/4)^2 zeta(2s-1/2) zeta(4s-1)
    / (pi^{s+3/4} Gamma(2s-1) zeta(4s-2)).

    At s = 3/4 both zeta(2s-1/2) and zeta(4s-2) sit at the pole of zeta; the
    ratio tends to 2 and the value is 4 pi / 3."""
    with mp.workdps(ctx.digits + 10):
        s = _as_mpf(s)
        base = (mp.mpf(2) ** (4 * s - 1) * mp.gamma(s + mp.mpf(1) / 4)
                * mp.gamma(s - mp.mpf(1) / 4) ** 2 * mp.zeta(4 * s - 1)
                / (mp.pi ** (s + mp.mpf(3) / 4) * mp.gamma(2 * s - 1)))
        if s == mp.mpf(3) / 4:
            ratio = mp.mpf(2)
        else:
            ratio = mp.zeta(2 * s - mp.mpf(1) / 2) / mp.zeta(4 * s - 2)
        return +(base * ratio)
