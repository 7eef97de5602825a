"""Class numbers, regulators, Hurwitz class numbers H(n), and the
regulator-weighted class-number sum h*(d) for all sign/square cases.

Conventions: for d < 0 the unit weight omega is taken at the level of the
order of discriminant d (3 for d = -3, 2 for d = -4, else 1), which is what
makes h*(d) = H(|d|) hold for every negative discriminant.  For square
d = m^2 the regulator is 2 log m and the primitive class count is phi(m).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .bqf import class_number, fundamental_unit, reduced_definite_forms
from .context import DEFAULT_CTX, PrecisionContext
from .exact import is_square


@lru_cache(maxsize=None)
def hurwitz_H(n: int) -> Fraction:
    """Hurwitz class number: H(0) = -1/12, H(n) = 0 for n = 1,2 mod 4,
    else the stabilizer-weighted count of positive definite forms of
    discriminant -n."""
    if n < 0:
        raise ValueError("argument must be nonnegative")
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    for Q in reduced_definite_forms(-n):
        if Q.a == Q.b == Q.c:
            total += Fraction(1, 3)
        elif Q.a == Q.c and Q.b == 0:
            total += Fraction(1, 2)
        else:
            total += 1
    return total


def _omega(d: int) -> int:
    if d == -3:
        return 3
    if d == -4:
        return 2
    return 1


def regulator(d: int, ctx: PrecisionContext = DEFAULT_CTX):
    """R(d): 2 pi / omega_d for d < 0; 2 log eps_d for positive non-square d
    (eps_d = (t + u sqrt d)/2 the fundamental unit of the order); 2 log sqrt d
    for square d."""
    if d % 4 not in (0, 1) or d == 0:
        raise ValueError("not a discriminant")
    with mp.workdps(ctx.digits + 10):
        if d < 0:
            return +(2 * mp.pi / _omega(d))
        if is_square(d):
            return +(2 * mp.log(mp.sqrt(d)))
        t, u, _ = fundamental_unit(d)
        return +(2 * mp.log((t + u * mp.sqrt(d)) / 2))


@lru_cache(maxsize=1024)
def hstar(d: int, ctx: PrecisionContext = DEFAULT_CTX):
    """h*(d) = (1/2 pi) sum over l^2 | d (with d/l^2 still a discriminant)
    of R(d/l^2) h(d/l^2).

    Values are cached, keyed by d and ctx: the result is rounded at
    ctx.digits + 10 whatever the caller's precision, so it depends on
    nothing else."""
    if d % 4 not in (0, 1) or d == 0:
        raise ValueError("not a discriminant")
    with mp.workdps(ctx.digits + 10):
        total = mp.mpf(0)
        for ell in range(1, math.isqrt(abs(d)) + 1):
            if d % (ell * ell):
                continue
            m = d // (ell * ell)
            if m % 4 not in (0, 1):
                continue
            total += regulator(m, ctx) * class_number(m)
        return +(total / (2 * mp.pi))


def hstar_square_direct(d: int, ctx: PrecisionContext = DEFAULT_CTX):
    """For square d: h*(d) = (1/pi) sum_{c mod sqrt d} log(sqrt d / (c, sqrt d))."""
    if not is_square(d) or d <= 0:
        raise ValueError("need a positive square discriminant")
    b = math.isqrt(d)
    with mp.workdps(ctx.digits + 10):
        total = mp.mpf(0)
        for c in range(b):
            g = math.gcd(c, b)
            total += mp.log(mp.mpf(b) / g)
        return +(total / mp.pi)
