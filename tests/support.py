"""Test oracles: the second routes that the package itself does not take
(defining-sum Dedekind and Kloosterman sums, partitions by enumeration,
h*(d) of squares, Whittaker functions and j by other formulas, the dampened
f_Q pointwise, the Gamma0(6) class search), and views of private kernels."""

import json
import math
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import to_fixed

from maasslab import modforms
from maasslab.context import DEFAULT_CTX, PrecisionContext
from maasslab.bqf import (BQF, _transporter_in_gamma06, automorph, reduce_definite,
                          sl2_transporter_indefinite)
from maasslab.exact import _eta_phase, _root_sum, _units, is_square
from maasslab.matrices import GroupElement
from maasslab.modforms import E4_eval, E6_eval, eta_eval, f_eval
from maasslab.qseries import QSeries
from maasslab.special import _as_mpf, richardson, whittaker_Wn
from maasslab.traces import _damp_guard_digits, _damp_sigmas


def dedekind_sum_direct(d: int, c: int) -> Fraction:
    """s(d,c) by the defining sum sum_{r=1}^{c-1} (r/c)((dr/c) - floor - 1/2)."""
    if c < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(d, c) != 1:
        raise ValueError("gcd violation")
    total = Fraction(0)
    for r in range(1, c):
        x = Fraction(d * r, c)
        total += Fraction(r, c) * (x - math.floor(x) - Fraction(1, 2))
    return total


def kloosterman_A_direct(c: int, m: int, ctx: PrecisionContext = DEFAULT_CTX):
    """exact.kloosterman_A with the phases 6c s(d,c) from the defining sum."""
    return _root_sum((int(6 * c * dedekind_sum_direct(d, c)) - 12 * d * m
                      for d in _units(c)), 12 * c, ctx)


def kloosterman_k(a: int, b: int, c: int, ctx: PrecisionContext = DEFAULT_CTX):
    """Ordinary Kloosterman sum k(a,b;c) = sum e((a dbar + b d)/c)."""
    return _root_sum((a * pow(d, -1, c) + b * d for d in _units(c)), c, ctx)


def kloosterman_K_eta(m: int, n: int, c: int, ctx: PrecisionContext = DEFAULT_CTX):
    """K(m,n;c) = sum_{d mod c, (d,c)=1} e^{pi i s(d,c)} e((dbar m + d n)/c),
    the eta-multiplier Kloosterman sum; satisfies A_c(n) = K(0,-n,c)."""
    return _root_sum((_eta_phase(d, c) + 12 * (pow(d, -1, c) * m + d * n)
                      for d in _units(c)), 12 * c, ctx)


def iter_partitions(n: int, max_part: int | None = None):
    """Yield all partitions of n as weakly decreasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(max_part or n, n), 0, -1):
        for rest in iter_partitions(n - first, first):
            yield (first,) + rest


def partition_p_enum(n: int) -> int:
    """p(n) by enumeration."""
    return sum(1 for _ in iter_partitions(n))


def spt_enum(n: int) -> int:
    """spt(n) by enumeration: total multiplicity of the smallest part."""
    return sum(lam.count(lam[-1]) for lam in iter_partitions(n))


def hstar_square_direct(d: int, ctx: PrecisionContext = DEFAULT_CTX):
    """For square d: h*(d) = (1/pi) sum_{c mod sqrt d} log(sqrt d / (c, sqrt d))."""
    if not is_square(d) or d <= 0:
        raise ValueError("need a positive square discriminant")
    b = math.isqrt(d)
    with mp.workdps(ctx.digits + 10):
        total = mp.mpf(0)
        for c in range(b):
            total += mp.log(mp.mpf(b) / math.gcd(c, b))
        return +(total / mp.pi)


def projectively_equal(g1: GroupElement, g2: GroupElement) -> bool:
    """Equality in the group generated by Gamma0(6) and the W_r, i.e. up to
    a positive rational scalar and overall sign of the matrix."""
    m1, m2 = g1.as_tuple(), g2.as_tuple()
    return all(m1[i] * m2[j] == m1[j] * m2[i] for i in range(4) for j in range(i + 1, 4))


def definite_automorphs(Q: BQF):
    """The finite SL2(Z) stabilizer of a definite form (both signs kept)."""
    D = Q.disc()
    auts = []
    umax = math.isqrt(4 // abs(D)) if abs(D) <= 4 else 0
    for u in range(-umax - 1, umax + 2):
        rhs = 4 + D * u * u
        if rhs < 0:
            continue
        t = math.isqrt(rhs)
        if t * t != rhs:
            continue
        for tt in ({t, -t} if t else {0}):
            if (tt - Q.b * u) % 2:
                continue
            auts.append(GroupElement((tt - Q.b * u) // 2, -Q.c * u,
                                     Q.a * u, (tt + Q.b * u) // 2))
    return auts


def gamma06_equivalent(Q1: BQF, Q2: BQF) -> bool:
    """Proper equivalence under Gamma0(6)/{+-1}, by a transporter search.
    The class sets decide by sl2_class_key instead (bqf.enumerate_classes);
    this is their independent check."""
    D = Q1.disc()
    if Q2.disc() != D:
        return False
    if D < 0:
        R1, g1 = reduce_definite(Q1)
        R2, g2 = reduce_definite(Q2)
        if R1 != R2:
            return False
        g2i = g2.inverse_scaled()
        return any((g2i @ u @ g1).c % 6 == 0 for u in definite_automorphs(R1))
    if is_square(D):
        raise ValueError("square-discriminant classes are matched by their cusp data")
    g0 = sl2_transporter_indefinite(Q1, Q2)
    if g0 is None:
        return False
    return _transporter_in_gamma06(g0, automorph(Q1)) is not None


def reduce_plus(tau, start=None):
    """modforms._reduce_plus at the fixed point f_eval uses for the ambient
    precision (W = mp.prec + _GUARD bits): (z, sign, g) with z = g tau an
    mpc."""
    W = mp.prec + modforms._GUARD
    re, im = mp.mpc(tau)._mpc_
    zr, zi, sign, g = modforms._reduce_plus(to_fixed(re, W), to_fixed(im, W), W, start)
    return mp.mpc(mp.ldexp(zr, -W), mp.ldexp(zi, -W)), sign, g


def gamma_star(a, z, ctx: PrecisionContext = DEFAULT_CTX):
    """Entire function gamma*(a,z) = e^{-z} sum_j z^j / Gamma(a+j+1).

    Equals gamma(a,z) / (Gamma(a) z^a) for z > 0 and continues it in z."""
    guard = 20 + int(abs(z) / 2.3) if z < 0 else 15
    with mp.workdps(ctx.digits + guard):
        z = mp.mpf(z)
        a = mp.mpf(a)
        total = mp.mpf(0)
        term_scale = mp.mpf(1)
        j = 0
        target = mp.mpf(10) ** (-(ctx.digits + 10))
        while True:
            term = term_scale / mp.gamma(a + j + 1)
            total += term
            j += 1
            term_scale *= z
            if j > 4 and abs(term) < target * max(1, abs(total)) and abs(z) < j:
                break
            if j > 10_000:
                raise ArithmeticError("gamma* series did not converge")
        return +(mp.e ** (-z) * total)


def beta_gammainc(k, y, ctx: PrecisionContext = DEFAULT_CTX):
    """beta_k(y) = Gamma(1-k, y) / Gamma(1-k) for y > 0 by mpmath's general
    incomplete gamma: the oracle for special.beta_k's closed forms."""
    with mp.workdps(ctx.digits + 15):
        k, y = mp.mpf(k), mp.mpf(y)
        return +(mp.gammainc(1 - k, a=y, b=mp.inf) / mp.gamma(1 - k))


def erfc_quadrature(x, ctx: PrecisionContext = DEFAULT_CTX):
    """erfc(x) = (2/sqrt(pi)) int_x^infty e^{-t^2} dt by quadrature."""
    with mp.workdps(ctx.digits + 15):
        x = _as_mpf(x)
        val = mp.quad(lambda t: mp.e ** (-t * t), [x, x + 2, x + 10, mp.inf])
        return +(2 / mp.sqrt(mp.pi) * val)


def whittaker_Wn_series(n: int, y, s, ctx: PrecisionContext = DEFAULT_CTX):
    """special.whittaker_Wn from mpmath's whitw instead of the integral."""
    with mp.workdps(ctx.digits + 15):
        s = _as_mpf(s)
        u = mp.pi * abs(n) * _as_mpf(y) / 6
        kappa = mp.mpf(1) / 4 if n > 0 else -mp.mpf(1) / 4
        return +(u ** (-mp.mpf(1) / 4) * mp.whitw(kappa, s - mp.mpf(1) / 2, u))


def whittaker_Wn_ds_fd(n: int, y, ctx: PrecisionContext = DEFAULT_CTX):
    """special.whittaker_Wn_ds as a central difference of whittaker_Wn in s
    at s = 3/4, step 1e-6, with one Richardson level."""
    with mp.workdps(ctx.digits + 15):
        s = mp.mpf(3) / 4

        def diff(h):
            return ((whittaker_Wn(n, y, s + h, ctx)
                     - whittaker_Wn(n, y, s - h, ctx)) / (2 * h),)

        d, = richardson(diff, mp.mpf("1e-6"))
        return +d


def whittaker_M_kummer(y, s, ctx: PrecisionContext = DEFAULT_CTX):
    """special.whittaker_M from the defining Kummer series of M_{kappa,mu}
    instead of mpmath's whitm."""
    with mp.workdps(ctx.digits + 15):
        z = mp.pi * _as_mpf(y) / 6
        kappa, mu = mp.mpf(1) / 4, _as_mpf(s) - mp.mpf(1) / 2
        a, b = mu - kappa + mp.mpf(1) / 2, 2 * mu + 1
        total = term = mp.mpf(1)
        j = 0
        target = mp.mpf(10) ** (-(ctx.digits + 10))
        while True:
            term *= (a + j) * z / ((b + j) * (j + 1))
            total += term
            j += 1
            if abs(term) < target * max(1, abs(total)) and j > abs(z):
                break
            if j > 100_000:
                raise ArithmeticError("Kummer series did not converge")
        w = mp.e ** (-z / 2) * z ** (mu + mp.mpf(1) / 2) * total
        return +(z ** (-mp.mpf(1) / 4) * w)


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


def damp_fQ(tau, Q: BQF, ctx: PrecisionContext = DEFAULT_CTX):
    """f_Q(tau) = f(tau) - 12 - sum_i mu(r_i) [e(-sigma_i tau) - e(-conj)].

    The subtracted exponentials are the two Poincare-series terms indexed by
    the cusps of Q; at the spectral point the seed is phi(y) = 2 sinh(2 pi y)
    so each term is e(-w) e^{2 pi v} - e(-w) e^{-2 pi v} at w + iv = sigma tau.
    The pointwise oracle for traces.damped_ray_integral's fixed-point nodes."""
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


def qseries_from_json(blob: str) -> QSeries:
    """The QSeries that QSeries.to_json wrote."""
    data = json.loads(blob)
    terms = data["terms"]
    if not terms:
        return QSeries(data["denom"], 0, [0], data["trunc"])
    lo = min(k for k, _ in terms)
    coeffs = [0] * (data["trunc"] - lo + 1)
    for k, cs in terms:
        frac = Fraction(cs)
        coeffs[k - lo] = int(frac) if frac.denominator == 1 else frac
    return QSeries(data["denom"], lo, coeffs, data["trunc"])


def qseries_eval(series: QSeries, tau):
    """The known terms of the series summed at tau, at the ambient precision."""
    w = mp.expjpi(2 * tau / series.denom)
    return mp.fsum((mp.mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else c)
                   * w ** k for k, c in series.support())


def dense_inverse(series: QSeries) -> QSeries:
    """QSeries.inverse by the O(n^2) recursion over every slot of the window:
    the oracle for the strided recursion."""
    s = series.normalized()
    k0, c0 = s.leading()
    n = s.trunc - s.lo
    a = [s.coeffs[i] for i in range(n + 1)]
    inv0 = 1 if c0 == 1 else (-1 if c0 == -1 else Fraction(1, 1) / c0)
    b = [inv0] + [0] * n
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, k + 1):
            if a[j]:
                acc += a[j] * b[k - j]
        b[k] = -inv0 * acc
    return QSeries(s.denom, -k0, b, -k0 + n)
