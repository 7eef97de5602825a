"""Helpers shared by the test modules: the Gamma0(6) class oracle, the
fixed-point Gamma0(6)+ reduction seen through mpmath numbers, the
incomplete-gamma oracles for special.beta_k and the dense q-series inverse."""

import math
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import to_fixed

from maasslab import modforms
from maasslab.context import DEFAULT_CTX, PrecisionContext
from maasslab.bqf import (BQF, _transporter_in_gamma06, automorph, reduce_definite,
                          sl2_transporter_indefinite)
from maasslab.exact import is_square
from maasslab.matrices import GroupElement
from maasslab.qseries import QSeries


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
