"""Classical modular objects and the two weakly holomorphic families.

q-expansion side: eta, E4/E6, j, the level-6 modular function

    f = (1/24) (E4(t) - 4 E4(2t) - 9 E4(3t) + 36 E4(6t)) / (eta(t)eta(2t)eta(3t)eta(6t))^2
      = q^{-1} + 12 + 77 q + ...,

the weight 3/2 level-1 family h_d = P_d(j) * (-Theta(j)/eta) with exponents
in (1/24)Z, and the weight 3/2 level-4 plus-space family g_d with integer
exponents supported on n = 0,3 mod 4.

Evaluation side: eta and the Eisenstein series share one reduction to the
SL2(Z) fundamental domain, which records the total T-shift and the points of
the S-steps; each builds its automorphy factor from that record and sums one
rapidly convergent q-series at the reduced point (the pentagonal series for
eta, Horner on the integer coefficients for E4/E6).  f is invariant up to the
sign mu(e) under the Atkin-Lehner involutions W_e, e | 6, so it is evaluated
by one reduction into a fundamental domain of Gamma0(6)+ (the group generated
by Gamma0(6) and the W_e), where Im tau >= sqrt(2)/6, followed by a blocked
sum over the integer coefficients of f, both in fixed-point arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from mpmath import mp
from mpmath.libmp import (dps_to_prec, from_man_exp, mpf_cos_sin_pi, mpf_exp,
                          mpf_mul, mpf_pi, round_nearest, to_fixed)

from .context import DEFAULT_CTX, PrecisionContext
from .exact import chi12, chi12_sqrt, is_square, s_coeff
from .harmonic import HarmonicExpansion, ModeTerm
from .qseries import (QSeries, eisenstein_E2, eisenstein_E4, eisenstein_E6,
                      eta_series, euler_product, j_series, theta_series)


# ---------------------------------------------------------------------------
# Point evaluation with fundamental-domain reduction
# ---------------------------------------------------------------------------

# step cap of both reduction loops; a point still unreduced after it raises
_MAX_STEPS = 10_000


def _reduce(tau):
    """Reduce tau into the SL2(Z) fundamental domain by T- and S-steps.

    Returns (z, shift, s_points): the reduced point, the total T-shift, and
    the points p at which each S-step p -> -1/p was taken.  The automorphy
    factors follow from these alone:

        eta(tau) = e(shift/24) prod_p (-i p)^{-1/2} eta(z),
        E_k(tau) = prod_p p^{-k} E_k(z)."""
    if tau.imag <= 0:
        raise ValueError("point must be in the upper half plane")
    shift = 0
    s_points = []
    cur = tau
    for _ in range(_MAX_STEPS):
        k = int(mp.nint(cur.real))
        if k:
            shift += k
            cur = cur - k
        if abs(cur) >= 1 - mp.mpf(10) ** (-mp.dps + 2):
            return cur, shift, s_points
        s_points.append(cur)
        cur = -1 / cur
    raise ArithmeticError(f"SL2(Z) reduction did not finish in {_MAX_STEPS} steps")


def _fd_terms_needed() -> int:
    # |q| <= e^{-pi sqrt(3)} in the fundamental domain; 10 guard digits
    return int((mp.dps + 10) * mp.log(10) / (mp.pi * mp.sqrt(3))) + 4


@lru_cache(maxsize=8)
def _pentagonal(gmax: int) -> tuple:
    """(g, sign) for the generalized pentagonal numbers 0 < g <= gmax in
    increasing order: prod (1 - q^n) = 1 + sum sign q^g (Euler), read from
    the support of euler_product."""
    return tuple(euler_product(gmax).support()[1:])


@lru_cache(maxsize=8)
def _eis_coeffs(weight: int, nterms: int) -> tuple:
    series = eisenstein_E4(nterms) if weight == 4 else eisenstein_E6(nterms)
    return tuple(series.coeffs)


def eta_eval(tau, ctx: PrecisionContext = DEFAULT_CTX):
    """Dedekind eta via reduction: the pentagonal series at the reduced point
    times e(shift/24) and 1/sqrt(-i p) for each S-step point p."""
    with mp.workdps(ctx.digits + 10):
        z, shift, s_points = _reduce(mp.mpc(tau))
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
        return +(factor * w * total)


def _eis_eval(tau, weight: int, ctx: PrecisionContext):
    """E_weight via reduction: Horner on the integer q-series at the reduced
    point times p^{-weight} for each S-step point p."""
    with mp.workdps(ctx.digits + 10):
        z, _, s_points = _reduce(mp.mpc(tau))
        q = mp.expjpi(2 * z)
        n = _fd_terms_needed()
        coeffs = _eis_coeffs(weight, n + 1)
        total = mp.mpc(coeffs[n])
        for c in reversed(coeffs[:n]):
            total = total * q + c
        for p in s_points:
            total *= p ** (-weight)
        return +total


def E4_eval(tau, ctx: PrecisionContext = DEFAULT_CTX):
    return _eis_eval(tau, 4, ctx)


def E6_eval(tau, ctx: PrecisionContext = DEFAULT_CTX):
    return _eis_eval(tau, 6, ctx)


# f|W_e = mu(e) f for the Atkin-Lehner involutions W_e, e | 6
MU = {1: 1, 2: -1, 3: -1, 6: 1}
# Gamma0(6)+ is generated by Gamma0(6) and the W_e.  For gcd(d, 6/e) = 1 the
# matrix [[e a, e (e a d - 1)/6], [6, e d]] with e a d = 1 mod 6/e has
# determinant e and lies in W_e Gamma0(6); it sends tau to
# (e/6)(a - 1/(6 tau + e d)), divides Im tau by e |(6/e) tau + d|^2 and
# multiplies f by mu(e).
# The reduced domain is |Re tau| <= 1/2 with e |(6/e) tau + d|^2 >= 1 for all
# such (e, d).  Its lowest point is 1/3 + i sqrt(2)/6, where the arcs
# |tau| = 1/sqrt(6) (e = 6), |tau - 1/3| = sqrt(2)/6 (e = 2) and
# |tau - 1/2| = 1/(2 sqrt(3)) (e = 3) meet.
_Y_MIN = math.sqrt(2) / 6
# (e, mu(e), 6/e, sqrt(e)/6) for the W_e steps of _reduce_plus: since
# e |(6/e) tau + d|^2 >= e (6/e)^2 (Im tau)^2, a step of type e can only be
# taken below Im tau = sqrt(e)/6
_STEPS = tuple((e, mu, 6 // e, math.sqrt(e) / 6) for e, mu in MU.items())


def _moebius(m, zr, zi, W):
    """m = (a, b, c, d) applied to z = (zr + i zi) / 2^W, in the same fixed
    point: (a z + b)/(c z + d) = (a z + b) conj(c z + d) / |c z + d|^2, with
    numerator and denominator exact integers, so each part takes one floor
    division and its error is below one unit 2^-W."""
    a, b, c, d = m
    one = 1 << W
    nr, ni = a * zr + b * one, a * zi
    dr, di = c * zr + d * one, c * zi
    n2 = dr * dr + di * di
    return ((nr * dr + ni * di) << W) // n2, ((ni * dr - nr * di) << W) // n2


def _reduce_plus(zr, zi, W, start=None):
    """Reduce z = (zr + i zi) / 2^W, Im z > 0, into the Gamma0(6)+ domain, in
    fixed point at W bits; returns (zr, zi, sign, g) for the reduced point
    g z, with f(z) = sign f(g z) and Im g z >= _Y_MIN.

    g = (a, b, c, d) is the exact integer matrix [[a, b], [c, d]] of the
    reduction, divided by the gcd of its entries, so its determinant is a
    product of the e | 6 (1, 2, 3 or 6).  Each step translates Re z into
    [-1/2, 1/2] and applies the element with the smallest e |(6/e) z + d|^2
    while that is below 1.  Only the two integers d next to -(6/e) Re z can
    give a value below 1.  The choice is made in floating point, on
    zr / 2^W and zi / 2^W, with a margin of 1e-12 so that a point on an arc
    is not mapped back and forth; the step itself is the integer Moebius map
    _moebius of [[e a, e (e a d - 1)/6], [6, e d]], composed into g.

    start = (g, sign), the result for a nearby point, warm-starts the
    reduction from g z: neighbouring points along a path usually lie in the
    same translate of the domain, and then no step is taken.  If g z lies
    below _Y_MIN / 2 the reduction starts cold from z instead: the old
    matrix may send z so close to the real axis that W bits no longer
    resolve g z.  Above that height g z costs one Moebius map, whose
    rounding is that of the steps it replaces."""
    one = 1 << W
    if start is not None:
        g, sign = start
        wr, wi = _moebius(g, zr, zi, W)
    if start is None or wi / one < _Y_MIN / 2:
        wr, wi, sign, g = zr, zi, 1, (1, 0, 0, 1)
    a, b, c, d = g
    for _ in range(_MAX_STEPS):
        k = (wr + (one >> 1)) >> W
        if k:
            wr -= k << W
            a, b = a - k * c, b - k * d
        x, y = wr / one, wi / one
        best, step = 1 - 1e-12, None
        for e, mu, m, y_top in _STEPS:
            if y >= y_top:
                continue
            u = m * x
            for dd in (math.floor(-u), math.floor(-u) + 1):
                if math.gcd(dd, m) == 1:
                    v = e * ((u + dd) ** 2 + (m * y) ** 2)
                    if v < best:
                        best, step = v, (e, mu, dd)
        if step is None:
            return wr, wi, sign, (a, b, c, d)
        e, mu, dd = step
        inv = pow(e * dd, -1, 6 // e)
        ea, eb = e * inv, e * (e * inv * dd - 1) // 6
        wr, wi = _moebius((ea, eb, 6, e * dd), wr, wi, W)
        a, b, c, d = (ea * a + eb * c, ea * b + eb * d,
                      6 * a + e * dd * c, 6 * b + e * dd * d)
        h = math.gcd(a, b, c, d)
        if h > 1:
            a, b, c, d = a // h, b // h, c // h, d // h
        sign *= mu
    raise ArithmeticError(f"Gamma0(6)+ reduction did not finish in {_MAX_STEPS} steps")


def _f_term_count(y: float, prec: int) -> int:
    """The number N of terms of f - q^{-1} past which the sum at Im tau >= y
    is below 2^-prec.

    With |c(n)| <= e^{4 pi sqrt(n/6)} and |q| = e^{-2 pi y} the n-th term is
    at most e^{g(n)}, g(n) = 4 pi sqrt(n/6) - 2 pi y n.  g is concave with
    g' < -0.43 past n = 6 for y >= _Y_MIN, so once e^{g(N)} <= 2^{-prec-2}
    the terms past N sum to less than 1.9 e^{g(N)} < 2^-prec.  As a
    quadratic in s = sqrt(n), g(n) <= -(prec + 2) log 2 holds from the
    positive root s+ on, so N = max(6, ceil(s+^2)).  y is lowered by a
    relative 1e-12 so that rounding in Im tau never shortens the sum."""
    y *= 1 - 1e-12
    lin = 4 * math.pi / math.sqrt(6)
    s = (lin + math.sqrt(lin * lin + 8 * math.pi * y * (prec + 2) * math.log(2))) \
        / (4 * math.pi * y)
    return max(6, math.ceil(s * s))


# f_eval works in fixed point at W = prec + _GUARD bits and sums the series in
# blocks of _BLOCK terms; f_eval's docstring derives both
_GUARD = 60
_BLOCK = 8


@lru_cache(maxsize=8)
def _f_blocks(prec: int) -> tuple:
    """c(0), ..., c(N) of f - q^{-1}, enough for an error below 2^-prec
    anywhere in the Gamma0(6)+ domain (N = _f_term_count(_Y_MIN, prec)), in
    blocks of _BLOCK consecutive coefficients."""
    n = _f_term_count(_Y_MIN, prec)
    c = f_qexp(n).coeffs[1:n + 2]
    return tuple(tuple(c[i:i + _BLOCK]) for i in range(0, n + 1, _BLOCK))


def f_eval(tau, ctx: PrecisionContext = DEFAULT_CTX, hint=None):
    """The level-6 modular function f = q^{-1} + 12 + 77q + ... .

    One fixed-point pipeline at W = prec + _GUARD bits, where prec is the
    working precision of ctx.digits + 10 digits: tau becomes two integers,
    tau = (zr + i zi) / 2^W, which _reduce_plus reduces into the Gamma0(6)+
    domain by integer Moebius maps.  At the reduced point z = x + iy,
    q = e^{-2 pi y} e^{2 pi i x} comes from one exponential e^{2 pi y} and
    one cosine/sine pair (raw mpmath libmp functions at W bits, no mpc
    objects), and q^{-1} = e^{2 pi y} e^{-2 pi i x} from the same
    exponential.  f - q^{-1} = sum c(n) q^n is summed in blocks of _BLOCK = 8
    terms (Paterson-Stockmeyer, SIAM J. Comput. 2, 1973):

        f - q^{-1} = sum_k q^{8k} B_k,   B_k = sum_{j < 8} c(8k + j) q^j,

    with q^0, ..., q^8 computed once, each B_k an integer dot product of
    eight coefficients with those powers (exact, a C-level loop), and
    Horner's rule in q^8 over the blocks.  Blocks of about sqrt(count) terms
    balance the powers against the Horner steps; count is 20 to 150 here.
    The sum runs over the _f_term_count(y) terms that the reduced point
    needs, so points high in the domain sum fewer terms than its lowest
    point.  q^{-1} is added in the same fixed point: its integer grows with
    e^{2 pi y} and keeps the W significant bits of the exponential.  The
    result is rounded once to prec.

    Precision.  Fixed point is absolute: a floor costs less than u = 2^-W.
    In the domain |q| <= e^{-2 pi _Y_MIN} < 0.23.  q carries an error
    below 3u, and each power q^j one below eps = 6u, since the error of
    q^{j-1} shrinks by |q| at each product.  The dot products round nothing.
    A Horner step S_k = S_{k+1} q^8 + B_k adds 2u, and eps |S_{k+1}| from
    the error of q^8.  Summed over the blocks, the error is at most

        eps sum_{n < count} |c(n)| (|q|^{n - n mod 8}
                                     + floor(n/8) |q|^{n - 8}) + 2u,

    which is largest at the domain's lowest point.  There, with
    |c(n)| <= e^{4 pi sqrt(n/6)}, it is below 2^25 u for every prec (the
    sum converges), and below the cruder (count + 8) eps max_n |c(n)|
    |q|^{max(0, n - 8)}, about 2^31 u.  The reduction rounds each Moebius
    map to 1u, and |f'| <= 2 pi sum |n c(n)| |q|^n < 2^11 there, so a few
    units in the reduced point cost below 2^13 u.  The fixed-point error
    thus stays below 2^(26 - _GUARD) 2^-prec = 2^-34 2^-prec, far under the
    truncation bound 2^-prec of the sum; the extra bits cost little at
    these sizes.  A point deep below the domain enters with its own
    rounding to W bits, which the reduction magnifies by Im z / Im tau; that
    is the conditioning of f at tau, which callers cover with extra digits
    (traces.cycle_integral).

    hint, a one-element list, carries the reduction from call to call along
    a path of nearby points: hint[0] is None or the (g, sign) of the last
    point, the reduction warm-starts from it (_reduce_plus, which falls back
    to a cold start when g tau lies too low), and hint[0] is replaced by this
    point's (g, sign).  The reduced point is the same up to rounding, and the
    working precision, the term count and the sum do not depend on the path
    taken to it; without a hint every call starts cold."""
    prec = dps_to_prec(ctx.digits + 10)
    W = prec + _GUARD
    one = 1 << W
    if not isinstance(tau, mp.mpc):
        with mp.workprec(W):
            tau = mp.mpc(tau)
    re, im = tau._mpc_
    zr, zi = to_fixed(re, W), to_fixed(im, W)
    if zi <= 0:
        raise ValueError("point must be in the upper half plane")
    zr, zi, sign, g = _reduce_plus(zr, zi, W, None if hint is None else hint[0])
    if hint is not None:
        hint[0] = (g, sign)

    grow = to_fixed(mpf_exp(mpf_mul(mpf_pi(W), from_man_exp(zi, 1 - W), W), W), W)
    cos, sin = (to_fixed(v, W) for v in mpf_cos_sin_pi(from_man_exp(zr, 1 - W), W))
    damp = (one << W) // grow
    qr, qi = damp * cos >> W, damp * sin >> W
    pre, pim = [one, qr], [0, qi]        # q^0, ..., q^_BLOCK
    for _ in range(_BLOCK - 1):
        a, b = pre[-1], pim[-1]
        pre.append((a * qr - b * qi) >> W)
        pim.append((a * qi + b * qr) >> W)

    blocks = _f_blocks(prec)      # through c(N), N the count at _Y_MIN
    k, r = divmod(_f_term_count(max(zi / one, _Y_MIN), prec), _BLOCK)
    top = blocks[k][:r + 1]
    sr, si = sum(map(mul, top, pre)), sum(map(mul, top, pim))
    q8r, q8i = pre[_BLOCK], pim[_BLOCK]
    for c in reversed(blocks[:k]):
        sr, si = (((sr * q8r - si * q8i) >> W) + sum(map(mul, c, pre)),
                  ((sr * q8i + si * q8r) >> W) + sum(map(mul, c, pim)))

    sr += grow * cos >> W
    si -= grow * sin >> W
    return mp.make_mpc((from_man_exp(sign * sr, -W, prec, round_nearest),
                        from_man_exp(sign * si, -W, prec, round_nearest)))


# ---------------------------------------------------------------------------
# q-expansions
# ---------------------------------------------------------------------------

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

def F_expansion(trunc24: int = 24 * 16) -> HarmonicExpansion:
    """The weight-3/2 harmonic form built from the smallest-parts counts:
    hol part sum s((n+1)/24) q^{n/24} starting at s(0) q^{-1/24}, nonhol part
    -(1/2) sum chi12(m) m beta_{3/2}(pi m^2 y/6) q^{-m^2/24}."""
    terms = {-1: ModeTerm(hol=Fraction(-1, 12))}
    N = 1
    while 24 * N - 1 <= trunc24:
        terms[24 * N - 1] = ModeTerm(hol=s_coeff(N))
        N += 1
    m = 1
    while m * m <= trunc24:
        ch = chi12(m)
        if ch:
            key = -m * m
            t = terms.setdefault(key, ModeTerm())
            t.beta32.append((Fraction(-ch * m, 2), Fraction(m * m, 6)))
        m += 1
    return HarmonicExpansion(24, terms, [], label="F")


def zminus_expansion(trunc: int = 60) -> HarmonicExpansion:
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


def _gd_seeds(trunc: int):
    """The two seeds g_1 and g_4 of the plus-space family, plus j(4 tau),
    each known at least through q^trunc.

    They are built at the next power of two >= trunc, so that calls with
    nearby truncations share one build (_gd_seed_build)."""
    return _gd_seed_build(1 << max(trunc - 1, 0).bit_length())


@lru_cache(maxsize=4)
def _gd_seed_build(trunc: int):
    """The seeds of _gd_seeds, each known at least through q^trunc.

    g_1 is the half-period twist of theta E4(4t)/eta(4t)^6.  g_4 is solved
    for inside the span generated from g_1 by the plus-support-preserving
    Serre derivative (1/4)Theta - (w/12)E2(4t), Eisenstein multipliers
    E4(4t)/E6(4t), and 1/Delta(4t); both are validated downstream against
    printed coefficients.  The span uses 24 times the Serre derivative,
    D(g) = 6 Theta g - (3 + 4k) E2(4t) g at weight w = 3/2 + 2k, so every
    series in it has integer coefficients, and g_4 is converted to integers
    after the solve."""
    t4 = trunc // 4 + 4
    theta = theta_series(trunc + 8)
    E4_4 = eisenstein_E4(t4).scale_arg(4)
    E6_4 = eisenstein_E6(t4).scale_arg(4)
    eta4_6 = (euler_product(t4) ** 6).scale_arg(4).shift(1)
    g1 = -1 * _sigma_twist(theta * E4_4 * eta4_6.inverse())

    E2_4 = eisenstein_E2(t4 - 1).scale_arg(4)
    D4inv = ((euler_product(t4) ** 24).scale_arg(4).shift(4)).inverse()
    j4 = j_series(t4 - 1).scale_arg(4)

    ds = [g1]
    for k in range(6):
        g = ds[-1]
        ds.append(6 * g.theta_op() - (3 + 4 * k) * (E2_4 * g))
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
    if any(c.denominator != 1 for c in g4.coeffs if isinstance(c, Fraction)):
        raise ArithmeticError("g_4 seed has non-integral coefficients")
    g4 = QSeries(1, g4.lo, [int(c) for c in g4.coeffs], g4.trunc)
    return g1, g4, j4


def _gd_check(d: int, g: QSeries) -> None:
    """Principal part q^{-d}, constant term -2 iff d is a square, plus-space
    support, integrality."""
    if [(k, c) for k, c in g.support() if k < 0] != [(-d, 1)]:
        raise ArithmeticError(f"g_{d}: principal part is not q^-{d}")
    expect0 = -2 if is_square(d) else 0
    if g.coeff(0) != expect0:
        raise ArithmeticError(f"g_{d}: constant term {g.coeff(0)} != {expect0}")
    bad = [(k, c) for k, c in g.support() if k % 4 in (1, 2)]
    if bad:
        raise ArithmeticError(f"g_{d}: plus-space support violated at {bad[:3]}")
    nonint = [(k, c) for k, c in g.support()
              if isinstance(c, Fraction) and c.denominator != 1]
    if nonint:
        raise ArithmeticError(f"g_{d}: non-integral coefficients {nonint[:3]}")


@lru_cache(maxsize=64)
def gd_construct(d: int, trunc: int = 60) -> QSeries:
    """g_d = q^{-d} + sum_{0 <= n = 0,3 (4)} B(d,n) q^n with B(d,0) = -2 iff
    d is a square; positive discriminants d = 0,1 mod 4.

    The family is built bottom-up from one set of seeds: g_m = g_{m-4} j(4t)
    minus sum_{k < m} c_k g_k, where c_k is the q^{-k} coefficient of the
    product, for m = 5, 8, 9, ... up to d (each g_k has principal part q^{-k}
    alone, so the order of the subtractions does not matter).  A product with j(4t) = q^{-4} +
    ... loses 4 terms of truncation and starts 4 terms lower, so g_m is known
    through q^{S-m+1} when the seeds are known through q^S; S = trunc + d
    covers the chain.  Every g_m passes the checks of _gd_check, and the
    result always carries exactly trunc as its truncation."""
    if d <= 0 or d % 4 not in (0, 1):
        raise ValueError("index must be a positive discriminant (0,1 mod 4)")
    g1, g4, j4 = _gd_seeds(trunc + d)
    family = {1: g1, 4: g4}
    for m in range(1, d + 1):
        if m % 4 not in (0, 1):
            continue
        if m not in family:
            g = family[m - 4] * j4
            for k, gk in family.items():
                c = g.coeff(-k)
                if c:
                    g = g + (-c) * gk
            family[m] = g
        _gd_check(m, family[m])
    g = family[d]
    if g.trunc < trunc:
        raise ArithmeticError(f"g_{d} known only through q^{g.trunc} < q^{trunc}")
    return QSeries(1, -d, [int(g.coeff(k)) for k in range(-d, trunc + 1)], trunc)
