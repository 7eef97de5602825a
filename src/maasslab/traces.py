"""Traces of the level-6 function f over the discriminant-n class sets:

  n < 0   : sums of CM values f(tau_Q)                       (regime 'cm')
  n > 0   : closed-geodesic cycle integrals, non-square n     (regime 'cycle')
  n = b^2 : regularized vertical-line integrals of dampened f (regime 'square')

All integrals carry the 1/(2 pi) normalization of the uniform trace
definition, so for n < 0 the value is the bare CM sum (no 1/(2 pi)).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from mpmath import mp
from mpmath.calculus.quadrature import GaussLegendre

from .bqf import (BQF, ClassSet, automorph, enumerate_classes,
                  geodesic_data)
from .context import DEFAULT_CTX, PrecisionContext
from .exact import chi12_sqrt, is_square
from .matrices import GroupElement, atkin_lehner
from .modforms import MU, f_eval, f_qexp


@dataclass(frozen=True)
class TraceValue:
    n: int
    value: object        # mpf
    regime: str
    err_est: object


# ---------------------------------------------------------------------------
# CM regime
# ---------------------------------------------------------------------------

def trace_cm(n: int, ctx: PrecisionContext = DEFAULT_CTX,
             classes: ClassSet | None = None) -> TraceValue:
    """Tr_n(f) = sum of f over the CM points of Gamma0(6)\\Q_n, n < 0."""
    if n >= 0 or n % 24 != 1:
        raise ValueError("CM trace needs n < 0, n = 1 mod 24")
    cs = classes if classes is not None else enumerate_classes(n)
    with mp.workdps(ctx.digits + 10):
        total = mp.mpf(0)
        for Q in cs.reps:
            tau = mp.mpc(-Q.b, mp.sqrt(abs(n))) / (2 * Q.a)
            total += f_eval(tau, ctx).real
        err = mp.mpf(10) ** (-ctx.digits + 6) * (1 + abs(total))
        return TraceValue(n, +total, "cm", +err)


# ---------------------------------------------------------------------------
# Cycle regime
# ---------------------------------------------------------------------------

# one rule for the whole module: GaussLegendre caches its nodes by degree and
# precision, so panels at a repeated (degree, precision) reuse them
_GL_RULE = GaussLegendre(mp)


def _gl_panel_sum(fun, a, b, npanels: int, degree: int):
    """Fixed Gauss-Legendre panels over [a, b] (b may be below a)."""
    total = mp.mpf(0)
    width = (b - a) / npanels
    for i in range(npanels):
        lo = a + i * width
        nodes = _GL_RULE.get_nodes(lo, lo + width, degree, mp.prec)
        for x, w in nodes:
            total += w * fun(x)
    return total


def cycle_integral(Q: BQF, ctx: PrecisionContext = DEFAULT_CTX,
                   degree: int = 4):
    """int_{C_Q} f(tau) dtau / Q(tau,1) over one automorph period.

    Parametrized by hyperbolic arc length l (tan(theta/2) = e^l), where the
    measure is dl / sqrt(n); the period has length 2 log eps."""
    n = Q.disc()
    if n <= 0 or is_square(n) or Q.a == 0:
        raise ValueError("cycle integral needs a non-square positive discriminant")
    with mp.workdps(ctx.digits + 10):
        sq = mp.sqrt(n)
        center = mp.mpf(-Q.b) / (2 * Q.a)
        R = sq / (2 * abs(Q.a))
        M = automorph(Q)

        def point(ell):
            return mp.mpc(center - R * mp.tanh(ell), R / mp.cosh(ell))

        tau0 = point(0)
        tau1 = M.apply(tau0)
        # recover l(M tau0) from cos(theta) = -tanh(l); the automorph flows
        # toward the attracting root (negative l).  The trace orientation is
        # the opposite one: integrating over [0, 2 log eps] (f is l-periodic
        # with that period) reproduces the sign of the Kloosterman-series
        # coefficient a(n, 3/4).
        ct = (tau1.real - center) / R
        ell1 = abs(mp.atanh(ct))
        npan = max(4, int(mp.ceil(abs(ell1) / mp.mpf("0.5"))))

        def integrand(ell):
            return f_eval(point(ell), ctx) / sq

        val = _gl_panel_sum(integrand, mp.mpf(0), ell1, npan, degree)
        val2 = _gl_panel_sum(integrand, mp.mpf(0), ell1, 2 * npan, degree)
        return +val2, +abs(val2 - val)


def trace_cycle(n: int, ctx: PrecisionContext = DEFAULT_CTX,
                classes: ClassSet | None = None,
                base_shift=None) -> TraceValue:
    """(1/2pi) sum over classes of the cycle integral, n > 0 non-square."""
    if n <= 0 or n % 24 != 1:
        raise ValueError("cycle trace needs n > 0, n = 1 mod 24")
    if is_square(n):
        raise ValueError("square index: use trace_square")
    cs = classes if classes is not None else enumerate_classes(n)
    with mp.workdps(ctx.digits + 10):
        total = mp.mpf(0)
        err = mp.mpf(0)
        for Q in sorted(cs.reps, key=lambda q: q.as_tuple()):
            if base_shift is not None:
                Q = BQF(*base_shift.apply_form(Q.as_tuple()))
            v, e = cycle_integral(Q, ctx)
            total += v.real
            err += e
        total /= 2 * mp.pi
        err = err / (2 * mp.pi) + mp.mpf(10) ** (-ctx.digits + 8) * (1 + abs(total))
        return TraceValue(n, +total, "cycle", +err)


# ---------------------------------------------------------------------------
# Square regime: dampened functions
# ---------------------------------------------------------------------------

def _damp_sigmas(Q: BQF):
    """The two scaled matrices gamma_i W_{r_i} sending the cusps of Q to oo,
    with their Moebius signs mu(r_i)."""
    geo = geodesic_data(Q)
    out = []
    for (r, g), cusp in zip(geo.cusp_normalizers, geo.cusps):
        sigma = g @ atkin_lehner(r)
        out.append((MU[r], sigma))
    return out


def _damp_guard_digits(y) -> int:
    """Extra digits absorbing the e^{2 pi y} cancellation between the
    exponentially growing cusp terms of f and the subtracted seeds."""
    return int(2 * mp.pi / mp.log(10) * max(float(y), 1.0)) + 10


def damp_fQ(tau, Q: BQF, ctx: PrecisionContext = DEFAULT_CTX):
    """f_Q(tau) = f(tau) - 12 - sum_i mu(r_i) [e(-sigma_i tau) - e(-conj)].

    The subtracted exponentials are the two Poincare-series terms indexed by
    the cusps of Q; at the spectral point the seed is phi(y) = 2 sinh(2 pi y)
    so each term is e(-w) e^{2 pi v} - e(-w) e^{-2 pi v} at w + iv = sigma tau."""
    if not is_square(Q.disc()):
        raise ValueError("dampening is defined for square discriminants")
    guard = _damp_guard_digits(mp.mpc(tau).imag)
    inner = PrecisionContext(digits=ctx.digits + guard)
    with mp.workdps(inner.digits + 10):
        tau = mp.mpc(tau)
        val = f_eval(tau, inner) - 12
        for mu, sigma in _damp_sigmas(Q):
            st = sigma.apply(tau)
            val -= mu * (mp.expjpi(-2 * st) - mp.expjpi(-2 * mp.conj(st)))
        return +val


def _damp_term_tail(sigma: GroupElement, x0, Y, ctx: PrecisionContext):
    """int_Y^oo [e(-sigma tau) - e(-conj sigma tau)] dy/y on the ray x = x0.

    sigma oo is finite, so the integrand decays like 1/y; substitute y = Y/t
    to get an analytic integrand on [0, 1]."""
    def g(t):
        if t == 0:
            return mp.mpc(0)
        st = sigma.apply(mp.mpc(x0, Y / t))
        return (mp.expjpi(-2 * st) - mp.expjpi(-2 * mp.conj(st))) / t

    return mp.quad(g, [0, mp.mpf(1) / 2, 1])


def _fmin_series_tail(x0, Y, ctx: PrecisionContext):
    """int_Y^oo [f - 12 - (e(-tau) - e(-conj tau))] dy/y on the ray x = x0,
    term by term: e(-conj tau) + sum c_f(n) e(n tau) integrates to
    exponential integrals E1(2 pi n Y)."""
    two_pi = 2 * mp.pi
    total = mp.expjpi(-2 * x0) * mp.e1(two_pi * Y)
    nmax = max(3, int((mp.dps * mp.log(10)) / (two_pi * Y)) + 3)
    fq = f_qexp(max(40, nmax + 2))
    for m in range(1, nmax + 1):
        c = fq.coeff(m)
        if c:
            total += c * mp.expjpi(2 * m * x0) * mp.e1(two_pi * m * Y)
    return total


def damped_ray_integral(Q: BQF, x0, y0, ctx: PrecisionContext = DEFAULT_CTX,
                        Y1=None):
    """int_{y0}^oo f_Q(x0 + i y) dy/y for a square-discriminant form Q whose
    cusps are oo and x0; fixed Gauss-Legendre panels up to Y1, analytic
    tails beyond."""
    with mp.workdps(ctx.digits + 10):
        x0 = mp.mpf(x0)
        y0 = mp.mpf(y0)
        Y1 = mp.mpf(4) if Y1 is None else mp.mpf(Y1)
        sigmas = _damp_sigmas(Q)
        inner = PrecisionContext(digits=ctx.digits + _damp_guard_digits(Y1))

        def integrand(y):
            with mp.extradps(_damp_guard_digits(Y1)):
                tau = mp.mpc(x0, y)
                val = f_eval(tau, inner) - 12
                for mu, sigma in sigmas:
                    st = sigma.apply(tau)
                    val -= mu * (mp.expjpi(-2 * st) - mp.expjpi(-2 * mp.conj(st)))
            return val / y

        pts = [y0]
        for p in (2 * y0, mp.mpf(1) / 2, 1, 2):
            if y0 < p < Y1:
                pts.append(p)
        pts.append(Y1)
        head = mp.mpf(0)
        head_lo = mp.mpf(0)
        for a, b in zip(pts, pts[1:]):
            head += _gl_panel_sum(integrand, a, b, 1, 5).real
            head_lo += _gl_panel_sum(integrand, a, b, 1, 4).real
        head_err = abs(head - head_lo)

        tail = _fmin_series_tail(x0, Y1, ctx)
        for mu, sigma in sigmas:
            if sigma.c != 0:     # the cusp-x0 dampening term, decays like 1/y
                tail -= mu * _damp_term_tail(sigma, x0, Y1, ctx)
        return +(head + tail), +head_err


def _square_bookkeeping(b: int, c: int):
    """(g, b', c', u, v) with gamma_c = [[u, -c'], [6v, b']] in Gamma0(6)."""
    g = math.gcd(b, c) if c else b
    bp, cp = b // g, c // g
    if cp == 0:
        return g, bp, cp, 1, 0
    m = 6 * abs(cp)
    u = pow(bp % m, -1, m)
    v = (1 - u * bp) // (6 * cp)
    return g, bp, cp, u, v


def trace_square(n: int, ctx: PrecisionContext = DEFAULT_CTX,
                 u_offset: int = 0) -> TraceValue:
    """(1/2pi) sum of regularized cycle integrals of the dampened f over the
    square-discriminant representatives W_r [0,b,c], c mod b.

    u_offset shifts the choice of u in the gamma_c bookkeeping by a multiple
    of 6c' (the result must not depend on it)."""
    if n <= 0 or n % 24 != 1 or not is_square(n):
        raise ValueError("square trace needs a positive square n = 1 mod 24")
    b = math.isqrt(n)
    chi = chi12_sqrt(n)
    with mp.workdps(ctx.digits + 10):
        sqrt6 = mp.sqrt(6)
        total = mp.mpf(0)
        err = mp.mpf(0)
        for c in range(b):
            g, bp, cp, u, v = _square_bookkeeping(b, c)
            if cp != 0 and u_offset:
                u += 6 * cp * u_offset
                v = (1 - u * bp) // (6 * cp)
            y0 = 1 / (bp * sqrt6)
            v1, e1 = damped_ray_integral(BQF(0, bp, cp), mp.mpf(-cp) / bp, y0, ctx)
            v2, e2 = damped_ray_integral(BQF(0, bp, -v), mp.mpf(v) / bp, y0, ctx)
            total += (v1.real + v2.real) / b
            err += (e1 + e2) / b
        total = chi * total / (2 * mp.pi)
        err = err / (2 * mp.pi) + mp.mpf(10) ** (-ctx.digits + 8) * (1 + abs(total))
        return TraceValue(n, +total, "square-regularized", +err)


# ---------------------------------------------------------------------------
# Dispatch and export
# ---------------------------------------------------------------------------

def trace(n: int, ctx: PrecisionContext = DEFAULT_CTX) -> TraceValue:
    if n % 24 != 1:
        raise ValueError("index must be 1 mod 24")
    if n < 0:
        return trace_cm(n, ctx)
    if is_square(n):
        return trace_square(n, ctx)
    return trace_cycle(n, ctx)


def traces_to_csv(values) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["n", "regime", "value", "err_est"])
    for t in values:
        w.writerow([t.n, t.regime, mp.nstr(t.value, 30), mp.nstr(t.err_est, 5)])
    return buf.getvalue()
