"""Helpers shared by the test modules: the Gamma0(6) class oracle and the
fixed-point Gamma0(6)+ reduction seen through mpmath numbers."""

import math

from mpmath import mp
from mpmath.libmp import to_fixed

from maasslab import modforms
from maasslab.bqf import (BQF, _transporter_in_gamma06, automorph, reduce_definite,
                          sl2_transporter_indefinite)
from maasslab.exact import is_square
from maasslab.matrices import GroupElement


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
