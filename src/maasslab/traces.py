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
from fractions import Fraction

from mpmath import mp
from mpmath.calculus.quadrature import GaussLegendre
from mpmath.libmp import from_man_exp, mpf_exp, to_fixed

from .bqf import (BQF, ClassSet, automorph, cm_point, enumerate_classes,
                  geodesic_data, sl2_class_key, w6_reflection, w6_sigma)
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
            total += f_eval(cm_point(Q), ctx).real
        err = mp.mpf(10) ** (-ctx.digits + 6) * (1 + abs(total))
        return TraceValue(n, +total, "cm", +err)


# ---------------------------------------------------------------------------
# Cycle regime
# ---------------------------------------------------------------------------

def cycle_integral(Q: BQF, ctx: PrecisionContext = DEFAULT_CTX):
    """int_{C_Q} f(tau) dtau / Q(tau,1) over one automorph period, with its
    error estimate.

    Parametrized by hyperbolic arc length l from the apex (tan(theta/2) =
    e^l), where the measure is dl / sqrt(n).  The automorph M moves the
    geodesic by P = 2 acosh(|tr M|/2) = 2 log eps, so l -> f(tau(l)) is
    analytic and P-periodic and the trapezoid rule converges geometrically
    (Trefethen-Weideman, SIAM Rev. 56, 2014).  The nodes double from 32,
    each sum reusing the nodes of the last, until two sums agree to
    10^-(digits+2) max(1, |I|).  The error estimate is the last difference
    plus the rounding floor 10^-(digits+5) max(1, |I|) of f, which keeps
    digits + 5 of its digits at the ends of the geodesic (below): once both
    sums have settled, their difference falls below the rounding of f.
    Only the real part is summed: the traces take nothing else.  With the
    positive measure dl / sqrt(n) over a full period the value does not
    depend on the orientation of C_Q, so Q and -Q give the same integral.

    When the class of Q is fixed by sigma = -W_6 (bqf.w6_reflection returns
    h = gamma W_6, gamma in Gamma0(6), with act(h, Q) = -Q), h maps C_Q onto
    itself reversing its orientation.  An orientation-reversing isometry of
    a geodesic onto itself that preserves the upper half plane is the
    half-turn about a point z0 of it, here the fixed point of h, at arc
    length l0 with tanh l0 = (center - Re z0)/R.  Since f | W_6 = f
    (mu(6) = +1) and f is Gamma0(6)-invariant, f(h tau) = f(tau), so
    l -> f(tau(l)) is even about l0.  The nodes are then l0 + k P/N, reduced
    into [-P/2, P/2), and only k = 0 .. N/2 are evaluated, the interior ones
    weighted 2: half the f evaluations for the same sums.  Otherwise the
    nodes are -P/2 + k P/N, k = 0 .. N-1.

    Points at |l| near P/2 lie about e^{-P/2} above the real axis, so the
    geometry carries P/(2 ln 10) + 10 digits beyond the working precision
    and f_eval P/(2 ln 10) + 5 beyond ctx.digits.  The nodes are built in
    fixed point at the geometry's wp bits: start, P, center and R become
    integers once per integral, l = start + j P / m is reduced into
    [-P/2, P/2) by one floor division, e^l is one raw libmp exponential, and
    tanh l = (e^{2l} - 1)/(e^{2l} + 1) and 1/cosh l = 2 e^l/(e^{2l} + 1) are
    integer quotients.  Fixed point is absolute: both parts of tau are off
    by a few units of 2^-wp, which against Im tau >= R e^{-P/2} is still
    10^-(digits + 20)/R relative, and is the error that the floating-point
    Re tau of the same precision carries too.  Each node reaches f_eval as
    an mpc, so every evaluation passes through traces.f_eval.

    The nodes of a pass run along the geodesic in order, so the integral
    keeps one f_eval hint: each reduction into the Gamma0(6)+ domain starts
    from the matrix of the last node, which usually reduces the new node
    with no step.  Where consecutive nodes lie far apart (where a pass wraps
    from one end of the geodesic to the other, and at the start of a pass),
    that matrix can send the new node far below the domain, and then the
    reduction starts cold (modforms._reduce_plus).  The warm
    start changes only the path to the reduced point, not the precisions,
    the nodes or the stopping rule, so the sums and err_est are those of
    cold reductions up to the rounding of f."""
    n = Q.disc()
    if n <= 0 or is_square(n) or Q.a == 0:
        raise ValueError("cycle integral needs a non-square positive discriminant")
    M = automorph(Q)
    trace_m = abs(M.a + M.d)
    lost = int(math.log10(trace_m)) + 1      # >= P/(2 ln 10)
    inner = PrecisionContext(digits=ctx.digits + lost + 5)
    h6 = w6_reflection(Q)
    fold = 1 if h6 is None else 2
    with mp.workdps(ctx.digits + 10 + lost + 10):
        tol = mp.mpf(10) ** (-ctx.digits - 2)
        period = 2 * mp.acosh(mp.mpf(trace_m) / 2)
        sq = mp.sqrt(n)
        center = mp.mpf(-Q.b) / (2 * Q.a)
        R = sq / (2 * abs(Q.a))
        if h6 is None:
            start = -period / 2
        else:
            # e^{|l0|} = (R + |u|) / Im z0 with u = center - Re z0 = R tanh l0,
            # free of the cancellation in atanh(u / R) near |u| = R
            u = Fraction(-Q.b, 2 * Q.a) - Fraction(h6.a - h6.d, 2 * h6.c)
            start = mp.log((R + mp.mpf(abs(u.numerator)) / u.denominator)
                           * abs(h6.c) / mp.sqrt(6))
            start = start if u >= 0 else -start

        # node j / m of the period in fixed point (above)
        wp = mp.prec
        one = 1 << wp
        S, P, C, Rf = (mp.to_fixed(v, wp) for v in (start, period, center, R))
        hint = [None]

        def value(j, m):
            ell = S + j * P // m
            ell -= (2 * ell + P) // (2 * P) * P
            ex = to_fixed(mpf_exp(from_man_exp(ell, -wp), wp), wp)
            e2 = ex * ex >> wp
            re = C - Rf * (e2 - one) // (e2 + one)
            im = 2 * Rf * ex // (e2 + one)
            tau = mp.make_mpc((from_man_exp(re, -wp), from_man_exp(im, -wp)))
            return f_eval(tau, inner, hint).real

        nodes = 32
        h = period / nodes
        if fold == 1:
            total = mp.fsum(value(k, nodes) for k in range(nodes))
        else:       # value(k, nodes) = value(nodes - k, nodes)
            total = (value(0, 1) + value(1, 2)
                     + 2 * mp.fsum(value(k, nodes) for k in range(1, nodes // 2)))
        prev = total * h / sq
        while nodes < 2 ** 16:
            total += fold * mp.fsum(value(2 * k + 1, 2 * nodes)
                                    for k in range(nodes // fold))
            nodes *= 2
            h = period / nodes
            cur = total * h / sq
            diff = abs(cur - prev)
            if diff <= tol * max(1, abs(cur)):
                return +cur, diff + mp.mpf(10) ** (lost - inner.digits) * max(1, abs(cur))
            prev = cur
    raise ArithmeticError(f"trapezoid sums for {Q.as_tuple()} did not settle "
                          f"by {nodes} nodes")


def trace_cycle(n: int, ctx: PrecisionContext = DEFAULT_CTX,
                classes: ClassSet | None = None) -> TraceValue:
    """(1/2pi) sum over classes of the cycle integral, n > 0 non-square.

    sigma Q = -W_6 Q = [-6c, b, -a/6] maps Q_n onto itself and normalizes
    Gamma0(6), so it permutes Gamma0(6)\\Q_n, and it maps C_Q isometrically
    onto C_{sigma Q} (reversing the orientation, which the full-period
    integral does not see).  With f | W_6 = f the two classes of a pair
    {Q, sigma Q} have the same cycle integral: the first of each pair is
    integrated once and counted twice.  A class fixed by sigma is integrated
    over half of its period (cycle_integral).  The partner of Q is the class
    with the SL2(Z) key of sigma Q: on Q_n, Gamma0(6)- and SL2(Z)-equivalence
    agree (bqf.enumerate_classes).  The keys of the representatives come
    with the class set, so only the key of each sigma Q is computed here."""
    if n <= 0 or n % 24 != 1:
        raise ValueError("cycle trace needs n > 0, n = 1 mod 24")
    if is_square(n):
        raise ValueError("square index: use trace_square")
    cs = classes if classes is not None else enumerate_classes(n)
    todo = {key: Q for Q, key in sorted(zip(cs.reps, cs.keys),
                                        key=lambda rep: rep[0].as_tuple())}
    with mp.workdps(ctx.digits + 10):
        total = mp.mpf(0)
        err = mp.mpf(0)
        while todo:
            Q = todo.pop(next(iter(todo)))
            weight = 1 if todo.pop(sl2_class_key(w6_sigma(Q)), None) is None else 2
            v, e = cycle_integral(Q, ctx)
            total += weight * v
            err += weight * e
        total /= 2 * mp.pi
        err = err / (2 * mp.pi) + mp.mpf(10) ** (-ctx.digits + 8) * (1 + abs(total))
        return TraceValue(n, +total, "cycle", +err)


# ---------------------------------------------------------------------------
# Square regime: dampened functions
# ---------------------------------------------------------------------------

# one rule for the whole module: GaussLegendre caches its nodes by degree and
# precision, so panels at a repeated (degree, precision) reuse them
_GL_RULE = GaussLegendre(mp)
_GL_TAIL = {}      # (degree, prec) -> _gl_tail_rows


def _gl_tail_rows(degree: int, prec: int):
    """For each node x_i, weight w_i of the reference rule on [-1, 1] (n
    nodes): w_i (2k+1)/2 P_k(x_i) for k = n-2 and n-1, so that the sums of
    these rows against samples f(x_i) are the last two Legendre coefficients
    of the polynomial interpolating f at the nodes."""
    key = (degree, prec)
    if key not in _GL_TAIL:
        ref = _GL_RULE.get_nodes(-1, 1, degree, prec)
        n = len(ref)
        rows = []
        with mp.workprec(prec):
            for x, w in ref:
                p0, p1 = mp.mpf(1), x
                for j in range(1, n - 1):        # ends with P_{n-2}, P_{n-1}
                    p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
                rows.append((w * (2 * n - 3) / 2 * p0, w * (2 * n - 1) / 2 * p1))
        _GL_TAIL[key] = rows
    return _GL_TAIL[key]


def _gl_panel(fun, a, b, degree: int):
    """(value, error estimate) of the Gauss-Legendre rule of the given degree
    (n = 3 * 2^(degree-1) nodes) for fun over [a, b] (b may be below a).

    With fun mapped to [-1, 1] as sum_k a_k P_k, the rule is exact through
    degree 2n-1, so its error is at most |b - a| sum_{k >= 2n} |a_k|.  While
    the coefficients decay, that is far below the last ones the samples
    give, |a_{n-2}| + |a_{n-1}| of the interpolant (_gl_tail_rows), and
    |b - a| times their sum is the estimate: it costs no sample beyond the
    rule's own n."""
    total = mp.mpf(0)
    c0 = c1 = mp.mpf(0)
    tail = _gl_tail_rows(degree, mp.prec)
    for (x, w), (t0, t1) in zip(_GL_RULE.get_nodes(a, b, degree, mp.prec), tail):
        fx = fun(x)
        total += w * fx
        c0 += t0 * fx
        c1 += t1 * fx
    return total, abs(b - a) * (abs(c0) + abs(c1))


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


def _ray_seed(sigma: GroupElement, x0, cusp: Fraction):
    """(phase, kappa, at_oo) with e(-sigma tau) - e(-conj sigma tau) equal to
    phase * 2 sinh(2 pi kappa y) if at_oo, else phase * 2 sinh(2 pi kappa / y),
    at tau = x0 + i y on the ray over the cusp x0 of a square form.

    For the cusp oo (sigma.c = 0), sigma tau = (a tau + b)/d has real part
    (a x0 + b)/d and imaginary part a y/d.  For the cusp x0 (c x0 + d = 0),
    sigma tau = a/c - r/(c (c tau + d)) = a/c + i r/(c^2 y) with
    r = sigma.scale the determinant.  Computed at the working precision."""
    if sigma.c == 0:
        return (mp.expjpi(-2 * (sigma.a * x0 + sigma.b) / sigma.d),
                mp.mpf(sigma.a) / sigma.d, True)
    if sigma.c * cusp + sigma.d != 0:
        raise ValueError(f"{sigma.as_tuple()} does not send the cusp {cusp} to oo")
    turn = Fraction(-2 * sigma.a, sigma.c) % 2
    return (mp.expjpi(mp.mpf(turn.numerator) / turn.denominator),
            mp.mpf(sigma.scale) / sigma.c ** 2, False)


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
    """int_{y0}^oo f_Q(x0 + i y) dy/y for a square-discriminant form
    Q = (0, b, c) whose cusps are oo and x0 = -c/b, with its error estimate:
    Gauss-Legendre panels of 48 nodes (degree 5) between the break points
    y0, 2 y0, 1/2, 1, 2 that lie below Y1, in increasing order, analytic
    tails beyond.  The estimate is the sum of the panels' own (_gl_panel),
    read from the last two Legendre coefficients of each panel's 48 samples.

    On the ray both subtracted seeds are a constant phase times a real sinh
    (_ray_seed), so a node costs one f_eval and two real exponentials, and
    the tail of the cusp-x0 seed is phase * 2 Shi(2 pi kappa / Y1).  The
    phases and kappa carry the integrand's guard digits: each seed is
    subtracted from f where both are of size e^{2 pi y}.  The nodes of the
    ray share one f_eval hint, so a node reduced by the same matrix as the
    last one takes no reduction step."""
    if Q.a != 0 or Q.b == 0:
        raise ValueError("damped ray needs a form (0, b, c) with b != 0")
    cusp = Fraction(-Q.c, Q.b)
    Y1 = 4 if Y1 is None else Y1
    guard = _damp_guard_digits(Y1)
    inner = PrecisionContext(digits=ctx.digits + guard)
    with mp.workdps(ctx.digits + 10):
        x0 = mp.mpf(x0)
        y0 = mp.mpf(y0)
        Y1 = mp.mpf(Y1)
        with mp.extradps(guard):
            seeds = []
            for mu, sigma in _damp_sigmas(Q):
                phase, kappa, at_oo = _ray_seed(sigma, x0, cusp)
                seeds.append((2 * mu * phase.real, 2 * mp.pi * kappa, at_oo))

        hint = [None]

        def integrand(y):
            with mp.extradps(guard):
                val = f_eval(mp.mpc(x0, y), inner, hint).real - 12
                for coeff, k, at_oo in seeds:
                    val -= coeff * mp.sinh(k * y if at_oo else k / y)
            return val / y

        pts = sorted(p for p in (2 * y0, mp.mpf(1) / 2, 1, 2) if y0 < p < Y1)
        pts = [y0, *pts, Y1]
        head = mp.mpf(0)
        head_err = mp.mpf(0)
        for a, b in zip(pts, pts[1:]):
            val, err = _gl_panel(integrand, a, b, 5)
            head += val
            head_err += err

        tail = _fmin_series_tail(x0, Y1, ctx).real
        for coeff, k, at_oo in seeds:
            if not at_oo:    # the cusp-x0 seed decays like 1/y
                tail -= coeff * mp.shi(k / Y1)
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
    of 6c' (the result must not depend on it).

    Mirror rays.  J tau = -1 - conj(tau) maps the ray of (0, b', c) over
    x0 = -c/b' onto that of (0, b', b' - c) over -1 - x0, point by point at
    the same height.  f has real coefficients and is T-invariant, so
    f(J tau) = conj f(tau).  With eps g eps = [[a, -b], [-c, d]] for
    g = [[a, b], [c, d]] (eps tau = -conj(tau)), the conjugation keeps
    Gamma0(6) and each W_r.  If sigma sends x0 to oo, then
    sigma' = (eps sigma eps) T sends -1 - x0 to oo, with the same Moebius
    sign and sigma' J tau = -conj(sigma tau), so its seed at J tau is the
    conjugate of sigma's seed at tau.  This holds for both cusps (J fixes
    oo), and a seed does not depend on which normalizer of its cusp is
    taken (two differ by an integer translation on the left).  So the
    dampened integrand of the mirror ray is the conjugate of the first at
    every node, and the real parts, which are all the trace takes, agree up
    to rounding.  The ray cache therefore reuses (b', b' - c) when that key
    is present, which leaves 3 of the 5 rays of n = 25 to integrate.  Only
    this exact pair is folded: x0 is not reduced mod 1, so the rays that
    u_offset shifts by integers are still integrated."""
    if n <= 0 or n % 24 != 1 or not is_square(n):
        raise ValueError("square trace needs a positive square n = 1 mod 24")
    b = math.isqrt(n)
    chi = chi12_sqrt(n)
    with mp.workdps(ctx.digits + 10):
        sqrt6 = mp.sqrt(6)
        rays = {}      # the same form is the same integral: each once per call

        def ray(bp: int, c: int):
            """The damped ray of (0, bp, c), over its cusp x0 = -c/bp, or that
            of its mirror (0, bp, bp - c) if that one is already integrated."""
            if (bp, c) not in rays:
                mirror = rays.get((bp, bp - c))
                rays[bp, c] = mirror if mirror is not None else damped_ray_integral(
                    BQF(0, bp, c), mp.mpf(-c) / bp, 1 / (bp * sqrt6), ctx)
            return rays[bp, c]

        total = mp.mpf(0)
        err = mp.mpf(0)
        for c in range(b):
            g, bp, cp, u, v = _square_bookkeeping(b, c)
            if cp != 0 and u_offset:
                u += 6 * cp * u_offset
                v = (1 - u * bp) // (6 * cp)
            for val, e in (ray(bp, cp), ray(bp, -v)):
                total += val / b
                err += e / b
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
