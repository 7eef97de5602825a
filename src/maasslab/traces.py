"""Traces of the level-6 function f over the discriminant-n class sets:

  n < 0   : sums of CM values f(tau_Q)                       (regime 'cm')
  n > 0   : closed-geodesic cycle integrals, non-square n     (regime 'cycle')
  n = b^2 : regularized vertical-line integrals of dampened f (regime 'square')

All integrals carry the 1/(2 pi) normalization of the uniform trace
definition, so for n < 0 the value is the bare CM sum (no 1/(2 pi)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from mpmath import mp
from mpmath.calculus.quadrature import GaussLegendre
from mpmath.libmp import dps_to_prec, from_man_exp, mpf_exp, to_fixed

from .bqf import (BQF, automorph, cm_point, enumerate_classes, fundamental_unit,
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

def trace_cm(n: int, ctx: PrecisionContext = DEFAULT_CTX) -> TraceValue:
    """Tr_n(f) = sum of f over the CM points of Gamma0(6)\\Q_n, n < 0."""
    if n >= 0 or n % 24 != 1:
        raise ValueError("CM trace needs n < 0, n = 1 mod 24")
    with mp.workdps(ctx.digits + 10):
        total = mp.mpf(0)
        for Q in enumerate_classes(n).reps:
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
    geodesic by P = 2 acosh(|tr M|/2) = 2 log eps_+ (|tr M| = eps_+ +
    1/eps_+), so l -> f(tau(l)) is analytic and P-periodic and the
    trapezoid rule converges geometrically (Trefethen-Weideman, SIAM Rev.
    56, 2014).  The nodes double from 32, each sum reusing the nodes of the
    last, until two sums agree to 10^-(digits+2) max(1, |I|).  The error
    estimate is the last difference plus the rounding floor
    10^-(digits+5) max(1, |I|) of f, which keeps digits + 5 of its digits at
    the lowest nodes (below): once both sums have settled, their difference
    falls below the rounding of f.  Only the real part is summed: the traces
    take nothing else.  With the positive measure dl / sqrt(n) over a full
    period the value does not depend on the orientation of C_Q, so Q and -Q
    give the same integral.

    When the fundamental unit eps = (t + u sqrt n)/2 has norm -1
    (t^2 - n u^2 = -4, bqf.fundamental_unit), N = [[(t - bu)/2, -cu],
    [au, (t + bu)/2]] has det -1 and fixes both roots of Q, and 6 | au.
    So tau -> N conj(tau) maps C_Q onto itself, a glide reflection along
    it by 2 log eps = P/2 (N^2 = +-M, eps^2 = eps_+).  N diag(-1, 1) lies
    in Gamma0(6) and f has real coefficients, so f(N conj tau) =
    f(-conj tau) = conj f(tau), and Re f(tau(l + P/2)) = Re f(tau(l)): the
    summand is P/2-periodic.  The 2m-node trapezoid sum over P is then
    twice the m-node sum over a window of length P/2, node for node, so
    the sums, the doubling, the stopping rule and the error estimate are
    those of the full period, and half the nodes are evaluated.  The
    window W is [-P/4, P/4) with the glide and [-P/2, P/2) without.

    When the class of Q is fixed by sigma = -W_6 (bqf.w6_reflection returns
    h = gamma W_6, gamma in Gamma0(6), with act(h, Q) = -Q), h maps C_Q onto
    itself reversing its orientation.  An orientation-reversing isometry of
    a geodesic onto itself that preserves the upper half plane is the
    half-turn about a point z0 of it, here the fixed point of h, at arc
    length l0 with tanh l0 = (center - Re z0)/R.  Since f | W_6 = f
    (mu(6) = +1) and f is Gamma0(6)-invariant, f(h tau) = f(tau), so
    l -> f(tau(l)) is even about l0.  The nodes are then l0 + k W/m, reduced
    into the window, and only k = 0 .. m/2 of the m nodes of the window
    are evaluated, the interior ones weighted 2: half the f evaluations for
    the same sums, on top of the glide.  Otherwise the nodes are
    -W/2 + k W/m, k = 0 .. m-1.

    A node at arc length l lies 2R/(e^l + e^-l) above the real axis, so the
    lowest nodes, at the ends of the window, lie about e^{-P/4} above it
    with the glide and e^{-P/2} without.  The geometry therefore carries
    lost + 10 digits beyond the working precision and f_eval lost + 5
    beyond ctx.digits, with lost = floor(log10 |tr M| / g) + 1 >=
    P/(2 g ln 10), g = 2 with the glide and 1 without: the glide halves the
    digits lost (73 from 7 to 4, 193 from 14 to 7), and the rounding floor
    10^(lost - digits of f) = 10^-(digits+5) stays.  The nodes are built in
    fixed point at the geometry's wp bits: start, W, center and R become
    integers once per integral, l = start + j W / m is reduced into the
    window by one floor division, e^l is one raw libmp exponential, and
    tanh l = (e^{2l} - 1)/(e^{2l} + 1) and 1/cosh l = 2 e^l/(e^{2l} + 1) are
    integer quotients.  Fixed point is absolute: both parts of tau are off
    by a few units of 2^-wp, which against Im tau >= R e^{-P/(2g)} is still
    10^-(digits + 20)/R relative, and is the error that the floating-point
    Re tau of the same precision carries too.  Each node reaches f_eval as
    an mpc, so every evaluation passes through traces.f_eval.

    The nodes of a pass run along the geodesic in order, so the integral
    keeps one f_eval hint: each reduction into the Gamma0(6)+ domain starts
    from the matrix of the last node, which usually reduces the new node
    with no step.  Where consecutive nodes lie far apart (where a pass wraps
    from one end of the window to the other, and at the start of a pass),
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
    glide = 2 if fundamental_unit(n)[2] == -4 else 1
    lost = int(math.log10(trace_m) / glide) + 1     # >= P/(2 glide ln 10)
    inner = PrecisionContext(digits=ctx.digits + lost + 5)
    h6 = w6_reflection(Q)
    fold = 1 if h6 is None else 2
    with mp.workdps(ctx.digits + 10 + lost + 10):
        tol = mp.mpf(10) ** (-ctx.digits - 2)
        window = 2 * mp.acosh(mp.mpf(trace_m) / 2) / glide
        sq = mp.sqrt(n)
        center = mp.mpf(-Q.b) / (2 * Q.a)
        R = sq / (2 * abs(Q.a))
        if h6 is None:
            start = -window / 2
        else:
            # e^{|l0|} = (R + |u|) / Im z0 with u = center - Re z0 = R tanh l0,
            # free of the cancellation in atanh(u / R) near |u| = R
            u = Fraction(-Q.b, 2 * Q.a) - Fraction(h6.a - h6.d, 2 * h6.c)
            start = mp.log((R + mp.mpf(abs(u.numerator)) / u.denominator)
                           * abs(h6.c) / mp.sqrt(6))
            start = start if u >= 0 else -start

        # node j / m of the window in fixed point (above)
        wp = mp.prec
        one = 1 << wp
        S, W, C, Rf = (mp.to_fixed(v, wp) for v in (start, window, center, R))
        hint = [None]

        def value(j, m):
            ell = S + j * W // m
            ell -= (2 * ell + W) // (2 * W) * W
            ex = to_fixed(mpf_exp(from_man_exp(ell, -wp), wp), wp)
            e2 = ex * ex >> wp
            re = C - Rf * (e2 - one) // (e2 + one)
            im = 2 * Rf * ex // (e2 + one)
            tau = mp.make_mpc((from_man_exp(re, -wp), from_man_exp(im, -wp)))
            return f_eval(tau, inner, hint).real

        nodes = 32 // glide         # in the window; glide * nodes in the period
        h = window / nodes
        if fold == 1:
            total = mp.fsum(value(k, nodes) for k in range(nodes))
        else:       # value(k, nodes) = value(nodes - k, nodes)
            total = (value(0, 1) + value(1, 2)
                     + 2 * mp.fsum(value(k, nodes) for k in range(1, nodes // 2)))
        prev = glide * total * h / sq
        while glide * nodes < 2 ** 16:
            total += fold * mp.fsum(value(2 * k + 1, 2 * nodes)
                                    for k in range(nodes // fold))
            nodes *= 2
            h = window / nodes
            cur = glide * total * h / sq
            diff = abs(cur - prev)
            if diff <= tol * max(1, abs(cur)):
                return +cur, diff + mp.mpf(10) ** (lost - inner.digits) * max(1, abs(cur))
            prev = cur
    raise ArithmeticError(f"trapezoid sums for {Q.as_tuple()} did not settle "
                          f"by {glide * nodes} nodes")


def trace_cycle(n: int, ctx: PrecisionContext = DEFAULT_CTX) -> TraceValue:
    """(1/2pi) sum over classes of the cycle integral, n > 0 non-square.

    sigma Q = -W_6 Q = [-6c, b, -a/6] maps Q_n onto itself and normalizes
    Gamma0(6), so it permutes Gamma0(6)\\Q_n, and it maps C_Q isometrically
    onto C_{sigma Q} (reversing the orientation, which the full-period
    integral does not see).  With f | W_6 = f the two classes of a pair
    {Q, sigma Q} have the same cycle integral: the first of each pair is
    integrated once and counted twice.  When the fundamental unit of n has
    norm -1 it gives every class a glide reflection of C_Q by P/2 under
    which Re f is invariant, and the cycle integral evaluates f over a
    window of half the period P, whose lowest nodes lie about e^{-P/4}
    instead of e^{-P/2} above the real axis, so f needs half the extra
    digits; a class fixed by sigma is even about a point of C_Q, which
    halves the evaluations again (cycle_integral).  The partner of Q is the
    class with the SL2(Z) key of sigma Q: on Q_n, Gamma0(6)- and
    SL2(Z)-equivalence agree (bqf.enumerate_classes).  The keys of the
    representatives come with the class set, so only the key of each
    sigma Q is computed here."""
    if n <= 0 or n % 24 != 1:
        raise ValueError("cycle trace needs n > 0, n = 1 mod 24")
    if is_square(n):
        raise ValueError("square index: use trace_square")
    cs = enumerate_classes(n)
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
# precision, and _gl_rows caches them in fixed point
_GL_RULE = GaussLegendre(mp)
_GL_ROWS = {}      # (degree, prec) -> _gl_rows


def _gl_rows(degree: int, prec: int):
    """The reference rule on [-1, 1] (n = 3 * 2^(degree-1) nodes) as four
    columns of prec-bit fixed-point integers: the nodes x_i, the weights
    w_i, and w_i (2k+1)/2 P_k(x_i) for k = n-2 and n-1, so that the sums of
    the last two columns against samples f(x_i) are the last two Legendre
    coefficients of the polynomial interpolating f at the nodes."""
    key = (degree, prec)
    if key not in _GL_ROWS:
        ref = _GL_RULE.get_nodes(-1, 1, degree, prec)
        n = len(ref)
        rows = []
        with mp.workprec(prec):
            for x, w in ref:
                p0, p1 = mp.mpf(1), x
                for j in range(1, n - 1):        # ends with P_{n-2}, P_{n-1}
                    p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
                rows.append((x, w, w * (2 * n - 3) / 2 * p0, w * (2 * n - 1) / 2 * p1))
        _GL_ROWS[key] = [[mp.to_fixed(v, prec) for v in col] for col in zip(*rows)]
    return _GL_ROWS[key]


def _gl_panel(fun, a, b, degree: int):
    """(value, error estimate) of the Gauss-Legendre rule of the given degree
    (n = 3 * 2^(degree-1) nodes) for fun over [a, b] (b may be below a), in
    fixed point at wp = mp.prec bits: a and b are integers standing for
    a / 2^wp and b / 2^wp, fun maps such an integer node to its sample at
    the same scale, and the value and estimate are returned as mpfs.

    With fun mapped to [-1, 1] as sum_k a_k P_k, the rule is exact through
    degree 2n-1, so its error is at most |b - a| sum_{k >= 2n} |a_k|.  While
    the coefficients decay, that is far below the last ones the samples
    give, |a_{n-2}| + |a_{n-1}| of the interpolant (_gl_rows), and |b - a|
    times their sum is the estimate: it costs no sample beyond the rule's
    own n.

    Fixed point.  The columns are below a unit u = 2^-wp off the rule's,
    each node below 1 + |b - a|/2 units, and the value and both tail sums
    are exact integer dot products, converted to mpf once.  With samples of
    size at most M that are off by at most e units (their own rounding, and
    their slope times the node's offset), the value is off by at most
    |b - a| (e + n M / 2) u beyond the rule's own error and its one
    rounding."""
    wp = mp.prec
    xs, ws, t0s, t1s = _gl_rows(degree, wp)
    mid, span = (a + b) << wp, b - a
    fs = [fun((mid + span * x) >> (wp + 1)) for x in xs]
    total = sum(map(mul, ws, fs))
    tail = abs(sum(map(mul, t0s, fs))) + abs(sum(map(mul, t1s, fs)))
    return mp.ldexp(span * total, -3 * wp - 1), mp.ldexp(abs(span) * tail, -3 * wp)


def _damp_sigmas(Q: BQF):
    """The two scaled matrices gamma_i W_{r_i} sending the cusps of Q to oo,
    with their Moebius signs mu(r_i)."""
    geo = geodesic_data(Q)
    out = []
    for (r, g), cusp in zip(geo.cusp_normalizers, geo.cusps):
        sigma = g @ atkin_lehner(r)
        out.append((MU[r], sigma))
    return out


# top of the Gauss-Legendre panels of a damped ray, f's q-series above
_Y1 = Fraction(1, 2)
# bits of a damped ray's fixed point beyond its digits (_ray_prec)
_RAY_GUARD_BITS = 16


def _damp_guard_digits(y) -> int:
    """Extra digits absorbing the cancellation between the exponentially
    growing cusp terms of f and the subtracted seeds on a ray up to height
    y: 10 plus the digits of e^{2 pi max(y, 1/sqrt 6)}.  f's e(-tau) and
    the cusp-oo seed reach e^{2 pi y} (its kappa is at most 1), and the
    cusp-x0 seed e^{2 pi kappa / y} peaks at the ray's lowest point y0,
    at height kappa / y0 <= 1/sqrt 6 (both checked for every ray with
    b' < 60).  So the rays, which stop at _Y1 = 1/2, take 11 digits for
    e^{pi}."""
    return int(2 * math.pi * max(float(y), 1 / math.sqrt(6)) / math.log(10)) + 10


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


@lru_cache(maxsize=8)
def _e1_row(Y, prec: int):
    """E1(2 pi m Y) for m = 1 .. nmax, each to the bits its term
    c(m) E1(2 pi m Y) of the tail needs (_fmin_series_tail); Y is an int
    or a Fraction.

    nmax is the least m with 2 pi m Y - 4 pi sqrt(m/6) >= (prec + 16) ln 2.
    With |c(m)| <= e^{4 pi sqrt(m/6)} (c(m) is at most 0.46 of that bound
    for m <= 200) and E1(x) < e^{-x}/x, the first omitted term is below
    2^-(prec+16), and the terms after it fall by about e^{-2 pi Y} each.

    Term m is below |c(m)| e^{-x}/x at x = 2 pi m Y, and rounding x and
    E1(x) at p bits moves it by a relative (x + 2) 2^-p, so
    p = prec + 20 + floor(log2(|c(m)| e^{-x})) keeps it within
    2^-(prec+17).  p is capped at prec, which the first terms take
    (m <= 8 from Y = 1/2).  The values do not depend on the ray, so
    every ray at prec shares the row."""
    k, g = 2 * math.pi * Y, 4 * math.pi / math.sqrt(6)
    s = (g + math.sqrt(g * g + 4 * k * (prec + 16) * math.log(2))) / (2 * k)
    nmax = math.ceil(s * s)
    fq = f_qexp(nmax)
    row = []
    for m in range(1, nmax + 1):
        p = prec + 20 + math.floor(math.log2(abs(fq.coeff(m))) - m * k / math.log(2))
        with mp.workprec(max(24, min(prec, p))):
            row.append(mp.e1(2 * mp.pi * m * Y.numerator / Y.denominator))
    return tuple(row)


def _fmin_series_tail(cusp: Fraction, Y, prec: int):
    """Re int_Y^oo [f - 12 - (e(-tau) - e(-conj tau))] dy/y on the ray over
    x0 = cusp, at prec bits, from f's q-series: e(-conj tau) + sum c(m) e(m tau)
    integrates term by term to exponential integrals E1(2 pi m Y), shared by
    all rays (_e1_row).  Its real part takes cos(2 pi m x0), which depends
    only on m mod the denominator of x0, one cosine per residue.

    f is holomorphic on the upper half plane, so the series converges for
    every Y > 0.  From Y = 1/2 the sum is of order 1 (its first term
    78 E1(pi) cos(2 pi x0) is up to 0.84), so it runs at the ray's own prec
    and not at a few digits beyond ctx.digits.  The terms do not cancel:
    for Y >= 1/2, c(m) E1(2 pi m Y) falls from m = 1 on, so with each term
    within 2^-(prec+17) and the omitted ones below 2^-(prec+15) (_e1_row)
    the sum is off by a few units of 2^-prec, most of them from the first
    terms."""
    e1 = _e1_row(Y, prec)
    fq = f_qexp(len(e1))
    den = cusp.denominator
    with mp.workprec(prec):
        cosines = [mp.cospi(mp.mpf(2 * (r * cusp.numerator % den)) / den)
                   for r in range(den)]
        total = cosines[1 % den] * e1[0]
        for m, e in enumerate(e1, 1):
            total += fq.coeff(m) * cosines[m % den] * e
        return +total


def _ray_prec(ctx: PrecisionContext) -> int:
    """Bits wp of the damped rays' fixed point, of their q-series tails and
    of their sum in trace_square: the integrand's ctx.digits + 10 +
    _damp_guard_digits(_Y1) digits (21 beyond ctx.digits with _Y1 = 1/2,
    whose 11 guard digits budget e^{pi}), plus _RAY_GUARD_BITS for the
    rounding of the panel sums."""
    return dps_to_prec(ctx.digits + 10 + _damp_guard_digits(_Y1)) + _RAY_GUARD_BITS


def damped_ray_integral(Q: BQF, ctx: PrecisionContext = DEFAULT_CTX):
    """int_{y0}^oo f_Q(x0 + i y) dy/y for a square-discriminant form
    Q = (0, b, c), b > 0, whose cusps are oo and x0 = -c/b, from the ray's
    lowest point y0 = 1/(b sqrt 6), with its error estimate: Gauss-Legendre
    panels of 48 nodes (degree 5) between the break points y0 and 2 y0
    where 2 y0 < _Y1 = 1/2, so [y0, 1/2] for b = 1 and [y0, 2 y0],
    [2 y0, 1/2] for b >= 5, and f's q-series in closed form above 1/2
    (_fmin_series_tail).  The estimate is the sum of the panels' own
    (_gl_panel), read from the last two Legendre coefficients of each
    panel's 48 samples.

    On the ray both subtracted seeds are a constant phase times a real sinh
    (_ray_seed), so a node costs one f_eval and two real exponentials, and
    the tail of the cusp-x0 seed is phase * 2 Shi(2 pi kappa / _Y1).  The
    nodes of the ray share one f_eval hint, so a node reduced by the same
    matrix as the last one takes no reduction step.

    Fixed point.  Everything runs at wp bits (_ray_prec): the integrand's
    ctx.digits + 10 + guard digits, plus _RAY_GUARD_BITS.  x0, y0, the break
    points, the nodes and both seeds (2 mu Re(phase) and k = 2 pi kappa) are
    built from Q at wp; y and the samples are integers at scale 2^wp.  Each
    node passes the exact point x0 + i y to f_eval; each seed sinh is
    (E - 1/E)/2 in integers, with E one raw exponential of k y or k / y at
    wp, and the division by y is one floor.  f and the seeds are rounded at
    the integrand's digits, and near their largest, both e^{2 pi y} at the
    top y = 1/2 and up to e^{2 pi / sqrt 6} at the bottom y0, where the
    cusp-x0 seed peaks (sigma(x0 + i y0) lies at height 1/sqrt 6 on the ray
    of (0, 1, 0) and lower on the others, checked for b < 60), they cancel
    to the O(1) integrand.  The guard
    _damp_guard_digits(_Y1) = 11 digits budgets e^{pi}, the largest of
    these, so a sample is off by about e^{pi} 10^-(digits + 21), below
    10^-(digits + 19).
    The panel sums add at most |b - a| (e + n M / 2) units of 2^-wp
    (_gl_panel).  |b - a| M is below 2000 on every panel for b <= 11 (M
    grows with b near y0), so with n = 48 the sums add below 2^16 units,
    which _RAY_GUARD_BITS covers.

    x0 and y0 come from Q inside the ray, and the sums stay at wp, because
    rounding at ctx.digits + 10 digits would cost more than the rule's own
    error for the first squares: a ray value near 31 has a unit in the last
    place of a few 1e-35 at 35 digits, while Tr_1 and Tr_25 from these
    rules at 25 digits are within 1e-40 of 50-digit tanh-sinh values.  From
    y = 1/2 the tail is of order 1, so it is summed at wp too, off by a few
    units of 2^-wp (_fmin_series_tail).  The value is returned at wp."""
    if Q.a != 0 or Q.b <= 0:
        raise ValueError("damped ray needs a form (0, b, c) with b > 0")
    cusp = Fraction(-Q.c, Q.b)
    inner = PrecisionContext(digits=ctx.digits + _damp_guard_digits(_Y1))
    wp = _ray_prec(ctx)
    one = 1 << wp
    with mp.workprec(wp):
        x0 = mp.mpf(cusp.numerator) / cusp.denominator
        y0 = 1 / (Q.b * mp.sqrt(6))
        seeds = []
        for mu, sigma in _damp_sigmas(Q):
            phase, kappa, at_oo = _ray_seed(sigma, x0, cusp)
            seeds.append((2 * mu * phase.real, 2 * mp.pi * kappa, at_oo))
        fixed = [(mp.to_fixed(c, wp), mp.to_fixed(k, wp), at_oo)
                 for c, k, at_oo in seeds]
        re = x0._mpf_
        hint = [None]

        def integrand(y):
            tau = mp.make_mpc((re, from_man_exp(y, -wp)))
            val = to_fixed(f_eval(tau, inner, hint)._mpc_[0], wp) - 12 * one
            for coeff, k, at_oo in fixed:
                arg = k * y >> wp if at_oo else (k << wp) // y
                e = to_fixed(mpf_exp(from_man_exp(arg, -wp), wp), wp)
                val -= coeff * ((e - (one << wp) // e) >> 1) >> wp
            return (val << wp) // y

        low, top = mp.to_fixed(y0, wp), one * _Y1.numerator // _Y1.denominator
        pts = [low, 2 * low, top] if 2 * low < top else [low, top]
        head = head_err = mp.zero
        for a, b in zip(pts, pts[1:]):
            val, err = _gl_panel(integrand, a, b, 5)
            head += val
            head_err += err

        Y = mp.mpf(_Y1.numerator) / _Y1.denominator
        tail = _fmin_series_tail(cusp, _Y1, wp)
        for coeff, k, at_oo in seeds:
            if not at_oo:    # the cusp-x0 seed decays like 1/y
                tail -= coeff * mp.shi(k / Y)
        return head + tail, head_err


@lru_cache(maxsize=256)
def _ray_value(b: int, c: int, digits: int):
    """damped_ray_integral of (0, b, c) at ctx.digits = digits, kept across
    trace_square calls: c = 0 gives the ray of (0, 1, 0) for every square,
    and a ray depends only on its form and the digits (not on c_max)."""
    return damped_ray_integral(BQF(0, b, c), PrecisionContext(digits=digits))


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
    to rounding.  Each pair is therefore integrated once, under the smaller
    of c and b' - c (_ray_value(b', min(c, b' - c), digits)), which leaves
    3 of the 5 rays of n = 25 to integrate.  Only this exact pair is
    folded: x0 is not reduced mod 1, so the rays that u_offset shifts by
    integers are still integrated.  Integrated rays are kept across calls
    by form and digits, so the ray of (0, 1, 0), which every square uses,
    is integrated once, and a mirror pair is shared by every call that
    uses it; each key names one ray, so no value depends on that cache.

    The rays are summed at their own precision wp (_ray_prec), and the
    TraceValue carries that precision: rounded to ctx.digits + 10 digits,
    the result would carry the rounding of its largest ray values, a few
    1e-35 at 25 digits, while Tr_1, Tr_25 and Tr_49 at 25 digits agree with
    their 40-digit values to 1e-48 (damped_ray_integral)."""
    if n <= 0 or n % 24 != 1 or not is_square(n):
        raise ValueError("square trace needs a positive square n = 1 mod 24")
    b = math.isqrt(n)
    chi = chi12_sqrt(n)
    with mp.workprec(_ray_prec(ctx)):
        total = mp.mpf(0)
        err = mp.mpf(0)
        for c in range(b):
            g, bp, cp, u, v = _square_bookkeeping(b, c)
            if cp != 0 and u_offset:
                u += 6 * cp * u_offset
                v = (1 - u * bp) // (6 * cp)
            for c_ray in (cp, -v):
                val, e = _ray_value(bp, min(c_ray, bp - c_ray), ctx.digits)
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

