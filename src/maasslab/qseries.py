"""Truncated q-expansions with exact coefficients.

A QSeries represents  sum_{k=lo}^{trunc} coeffs[k-lo] q^{k/denom}  with the
tail O(q^{(trunc+1)/denom}) unknown.  Coefficients are Python ints or
Fractions; arithmetic tracks the truncation order through products.
Exponent denominators are 1 (integer-weight level-4 objects) or 24
(eta-weight level-1 objects); mixed arithmetic aligns on the lcm.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


class QSeries:
    __slots__ = ("denom", "lo", "coeffs", "trunc")

    def __init__(self, denom: int, lo: int, coeffs, trunc: int | None = None):
        self.denom = denom
        self.lo = lo
        self.coeffs = list(coeffs)
        self.trunc = trunc if trunc is not None else lo + len(self.coeffs) - 1
        if self.trunc - lo + 1 != len(self.coeffs):
            raise ValueError("coefficient window does not match trunc")

    # -- basic accessors ----------------------------------------------------

    def coeff(self, num: int):
        """Coefficient of q^{num/denom}; raises beyond the truncation."""
        if num > self.trunc:
            raise IndexError(f"exponent {num}/{self.denom} beyond truncation")
        if num < self.lo:
            return 0
        return self.coeffs[num - self.lo]

    def support(self):
        return [(k, c) for k, c in
                zip(range(self.lo, self.trunc + 1), self.coeffs) if c]

    def leading(self):
        for k, c in zip(range(self.lo, self.trunc + 1), self.coeffs):
            if c:
                return k, c
        raise ValueError("zero series")

    def normalized(self) -> "QSeries":
        """Drop leading zero coefficients."""
        i = 0
        while i < len(self.coeffs) - 1 and not self.coeffs[i]:
            i += 1
        return QSeries(self.denom, self.lo + i, self.coeffs[i:], self.trunc)

    def __repr__(self):
        parts = []
        for k, c in self.support()[:6]:
            parts.append(f"{c}*q^({k}/{self.denom})")
        more = " + ..." if len(self.support()) > 6 else ""
        return f"QSeries({' + '.join(parts)}{more}; trunc={self.trunc})"

    # -- arithmetic ----------------------------------------------------------

    def _aligned(self, other: "QSeries"):
        d = self.denom * other.denom // math.gcd(self.denom, other.denom)
        return self.with_denom(d), other.with_denom(d)

    def with_denom(self, d: int) -> "QSeries":
        if d == self.denom:
            return self
        if d % self.denom:
            raise ValueError("can only refine the exponent denominator")
        f = d // self.denom
        coeffs = [0] * ((self.trunc - self.lo) * f + f)
        for i, c in enumerate(self.coeffs):
            coeffs[i * f] = c
        return QSeries(d, self.lo * f, coeffs, self.trunc * f + (f - 1))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries(self.denom, 0, [other], self.trunc)
        a, b = self._aligned(other)
        lo = min(a.lo, b.lo)
        trunc = min(a.trunc, b.trunc)
        coeffs = [0] * (trunc - lo + 1)
        for src in (a, b):
            for k, c in src.support():
                if k <= trunc:
                    coeffs[k - lo] += c
        return QSeries(a.denom, lo, coeffs, trunc)

    def __neg__(self):
        return QSeries(self.denom, self.lo, [-c for c in self.coeffs], self.trunc)

    def __sub__(self, other):
        return self + (-other if isinstance(other, QSeries) else -other)

    def __rmul__(self, scalar):
        return QSeries(self.denom, self.lo,
                       [scalar * c for c in self.coeffs], self.trunc)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        a, b = self._aligned(other)
        a, b = a.normalized(), b.normalized()
        trunc = min(a.lo + b.trunc, b.lo + a.trunc)
        lo = a.lo + b.lo
        out = [0] * (trunc - lo + 1)
        bs = b.support()
        for ka, ca in a.support():
            top = trunc - ka
            for kb, cb in bs:
                if kb > top:
                    break
                out[ka + kb - lo] += ca * cb
        return QSeries(a.denom, lo, out, trunc)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return QSeries(self.denom, 0,
                           [1] + [0] * (self.trunc - self.lo), self.trunc - self.lo)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; a leading coefficient other than +-1 gives
        Fraction coefficients.

        With g the gcd of the exponent offsets k - k0 of the nonzero
        coefficients, only every g-th slot of the inverse can be nonzero
        (g = 24 for eta), so the recursion runs on those slots alone, over
        the nonzero terms, and the result is spread back over the window."""
        s = self.normalized()
        k0, c0 = s.leading()
        n = s.trunc - s.lo
        terms = [(j, c) for j, c in enumerate(s.coeffs) if c and j]
        # a running gcd: math.gcd over a starred generator made the peak RSS
        # grow steadily over repeated h_d builds (CPython 3.11)
        g = 0
        for j, _ in terms:
            g = math.gcd(g, j)
        g = g or n + 1
        terms = [(j // g, c) for j, c in terms]
        inv0 = 1 if c0 == 1 else (-1 if c0 == -1 else Fraction(1, 1) / c0)
        b = [inv0] + [0] * (n // g)
        live = 0
        for k in range(1, len(b)):
            while live < len(terms) and terms[live][0] <= k:
                live += 1
            acc = 0
            for j, c in terms[:live]:
                acc += c * b[k - j]
            b[k] = -inv0 * acc
        out = [0] * (n + 1)
        out[::g] = b
        return QSeries(s.denom, -k0, out, -k0 + n)

    def shift(self, num: int) -> "QSeries":
        """Multiply by q^{num/denom}."""
        return QSeries(self.denom, self.lo + num, self.coeffs, self.trunc + num)

    def scale_arg(self, m: int) -> "QSeries":
        """Replace q^{1/denom} by q^{m/denom}: the expansion of f(m tau)."""
        coeffs = [0] * ((self.trunc - self.lo) * m + m)
        for k, c in self.support():
            coeffs[(k - self.lo) * m] = c
        return QSeries(self.denom, self.lo * m, coeffs,
                       self.trunc * m + (m - 1))

    def theta_op(self) -> "QSeries":
        """(1/2 pi i) d/dtau: multiplies the q^{nu} coefficient by nu.

        Exponents on the integer lattice give integer factors, so an integer
        series at integral exponents stays integer."""
        d = self.denom
        coeffs = [(k // d * c if k % d == 0 else Fraction(k, d) * c) if c else 0
                  for k, c in zip(range(self.lo, self.trunc + 1), self.coeffs)]
        return QSeries(self.denom, self.lo, coeffs, self.trunc)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        terms = [[k, str(c)] for k, c in self.support()]
        return json.dumps({"denom": self.denom, "trunc": self.trunc,
                           "terms": terms})


# ---------------------------------------------------------------------------
# Generating series
# ---------------------------------------------------------------------------

def euler_product(trunc: int) -> QSeries:
    """prod (1-q^n) up to q^trunc, by the pentagonal number theorem."""
    coeffs = [0] * (trunc + 1)
    k = 0
    while True:
        for g, sign in ((k * (3 * k - 1) // 2, (-1) ** k),
                        (k * (3 * k + 1) // 2, (-1) ** k)):
            if g <= trunc:
                coeffs[g] = sign
        if k * (3 * k - 1) // 2 > trunc:
            break
        k += 1
    return QSeries(1, 0, coeffs, trunc)


def eta_series(trunc24: int) -> QSeries:
    """Dedekind eta in exponent-denominator 24: sum (-1)^k q^{(6k+1)^2/24}."""
    coeffs = [0] * (trunc24 - 1 + 1)
    k = 0
    while (6 * k + 1) ** 2 <= trunc24 or (6 * k - 1) ** 2 <= trunc24:
        for m in (6 * k + 1, 6 * k - 1 if k else None):
            if m is None:
                continue
            if m * m <= trunc24:
                coeffs[m * m - 1] = (-1) ** k
        k += 1
    return QSeries(24, 1, coeffs, trunc24)


def _divisor_power_sigma(trunc: int, power: int):
    sig = [0] * (trunc + 1)
    for d in range(1, trunc + 1):
        dp = d ** power
        for m in range(d, trunc + 1, d):
            sig[m] += dp
    return sig


def eisenstein_E2(trunc: int) -> QSeries:
    sig = _divisor_power_sigma(trunc, 1)
    return QSeries(1, 0, [1] + [-24 * s for s in sig[1:]], trunc)


def eisenstein_E4(trunc: int) -> QSeries:
    sig = _divisor_power_sigma(trunc, 3)
    return QSeries(1, 0, [1] + [240 * s for s in sig[1:]], trunc)


def eisenstein_E6(trunc: int) -> QSeries:
    sig = _divisor_power_sigma(trunc, 5)
    return QSeries(1, 0, [1] + [-504 * s for s in sig[1:]], trunc)


def delta_series(trunc: int) -> QSeries:
    return (euler_product(trunc - 1) ** 24).shift(1)


def j_series(trunc: int) -> QSeries:
    e4 = eisenstein_E4(trunc + 1)
    return (e4 ** 3) * delta_series(trunc + 1).inverse()


def theta_series(trunc: int) -> QSeries:
    """Jacobi theta = 1 + 2 sum q^{n^2}."""
    coeffs = [0] * (trunc + 1)
    coeffs[0] = 1
    n = 1
    while n * n <= trunc:
        coeffs[n * n] = 2
        n += 1
    return QSeries(1, 0, coeffs, trunc)
