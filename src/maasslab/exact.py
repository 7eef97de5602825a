"""Exact rational/integer combinatorics: Dedekind sums, the eta multiplier
system, generalized Kloosterman sums A_c(n), the Kronecker character chi_12,
and partition statistics p(n), spt(n), s(n).

Everything here is pure and deterministic.  The exact sums share one kernel:
integer phase numerators mod N summed as N-th roots of unity.  The only
floating point lives in the vectorized Kloosterman scan, which uses the
Selberg-Whiteman formula (no Dedekind sums) and is cross-checked against the
exact Dedekind-phase evaluation in the tests.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp

from .context import DEFAULT_CTX, PrecisionContext
from .matrices import GroupElement


# ---------------------------------------------------------------------------
# Dedekind sums
# ---------------------------------------------------------------------------

def dedekind_sum_direct(d: int, c: int) -> Fraction:
    """s(d,c) by the defining sum sum_{r=1}^{c-1} (r/c)((dr/c) - floor - 1/2).

    Slow oracle; kept independent of the reciprocity descent."""
    if c < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(d, c) != 1:
        raise ValueError("gcd violation")
    total = Fraction(0)
    for r in range(1, c):
        x = Fraction(d * r, c)
        total += Fraction(r, c) * (x - math.floor(x) - Fraction(1, 2))
    return total


def dedekind_sum(d: int, c: int) -> Fraction:
    """s(d,c) via the Euclid-style reciprocity descent (exact)."""
    if c < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(d, c) != 1:
        raise ValueError("gcd violation")
    d %= c
    total = Fraction(0)
    sign = 1
    # s(d,c) = (d^2+c^2+1)/(12dc) - 1/4 - s(c mod d, d)
    while d > 0:
        total += sign * (Fraction(d * d + c * c + 1, 12 * d * c) - Fraction(1, 4))
        sign = -sign
        d, c = c % d, d
    return total


# ---------------------------------------------------------------------------
# Eta multiplier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitRoot24:
    """A 24th root of unity e(exponent/24)."""

    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % 24)

    def __mul__(self, other: "UnitRoot24") -> "UnitRoot24":
        return UnitRoot24(self.exponent + other.exponent)

    def conjugate(self) -> "UnitRoot24":
        return UnitRoot24(-self.exponent)

    def value(self):
        """Numerical value at the current mpmath precision."""
        return mp.expjpi(mp.mpf(2 * self.exponent) / 24)


def eta_multiplier(gamma: GroupElement) -> UnitRoot24:
    """The multiplier chi with eta(g tau) = chi(g) sqrt(c tau + d) eta(tau),
    principal branch of the square root.

    For c > 0 this is e(((a+d)/c - 12 s(d,c) - 3)/24); the c <= 0 cases are
    reduced to it via eta(tau + b) = e(b/24) eta(tau) and the -I relation."""
    if gamma.scale != 1:
        raise ValueError("eta multiplier is defined on SL2(Z) only")
    a, b, c, d = gamma.as_tuple()
    if c == 0:
        # +-T^b; sqrt(-1) = i contributes e(-6/24) when d = -1
        if d == 1:
            return UnitRoot24(b)
        return UnitRoot24(-b - 6)
    if c < 0:
        # chi(g) = i * chi(-g) since sqrt(c tau + d) = -i sqrt(-c tau - d)
        return UnitRoot24(6) * eta_multiplier(-gamma)
    expo = Fraction(a + d, c) - 12 * dedekind_sum(d, c) - 3
    if expo.denominator != 1:
        raise ArithmeticError("eta multiplier exponent must be integral")
    return UnitRoot24(int(expo))


# ---------------------------------------------------------------------------
# Kronecker character chi_12 and friends
# ---------------------------------------------------------------------------

def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for arbitrary integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # factor out 2s from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol on odd n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def chi12(x) -> int:
    """chi_12 = (12|n); returns 0 when x is not a rational integer."""
    if isinstance(x, Fraction):
        if x.denominator != 1:
            return 0
        x = x.numerator
    if isinstance(x, float):
        if not x.is_integer():
            return 0
        x = int(x)
    return kronecker_symbol(12, int(x))


def chi12_sqrt(n: int) -> int:
    """chi_12(sqrt(n)): 0 unless n is a perfect square."""
    if n < 0:
        return 0
    r = math.isqrt(n)
    return chi12(r) if r * r == n else 0


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def omega0(c: int) -> int:
    """Number of distinct odd primes dividing c."""
    c = abs(c)
    count = 0
    while c % 2 == 0:
        c //= 2
    p = 3
    while p * p <= c:
        if c % p == 0:
            count += 1
            while c % p == 0:
                c //= p
        p += 2
    if c > 1:
        count += 1
    return count


# ---------------------------------------------------------------------------
# Kloosterman sums
# ---------------------------------------------------------------------------

def _root_sum(numerators, N: int, ctx: PrecisionContext):
    """sum_k e(k/N) over the integer numerators k: the defining sum, each k
    reduced mod N in integers and equal residues counted together.

    A residue r = hB + j with B = isqrt(N) + 1 and 0 <= j < B has e(r/N) =
    e(hB/N) e(j/N), so the sum is sum_h e(hB/N) sum_j count(r) e(j/N): about
    2 sqrt(N) roots of unity instead of one per numerator.  The roots are
    fixed-point integers with 20 guard bits, so the only rounding is that of
    each root: the sums over them are exact."""
    counts = Counter(k % N for k in numerators)
    B = math.isqrt(N) + 1
    with ctx.workprec() as w:
        wp = w.prec + 20

        def root(k):
            z = w.expjpi(2 * w.mpf(k) / N)
            return w.to_fixed(z.real, wp), w.to_fixed(z.imag, wp)

        low = [root(j) for j in range(B)]
        rows = {}
        for r, n in counts.items():
            h, j = divmod(r, B)
            row = rows.setdefault(h, [0, 0])
            row[0] += n * low[j][0]
            row[1] += n * low[j][1]
        re = im = 0
        for h, (sr, si) in rows.items():
            hr, hi = root(h * B)
            re += hr * sr - hi * si
            im += hr * si + hi * sr
        return w.mpc(w.ldexp(re, -2 * wp), w.ldexp(im, -2 * wp))


def _units(c: int) -> list:
    """The residues d mod c with (d, c) = 1."""
    if c < 1:
        raise ValueError("modulus must be positive")
    return [d for d in range(c) if math.gcd(d, c) == 1]


def _eta_phase(d: int, c: int, sfun=dedekind_sum) -> int:
    """6c s(d,c), an integer: the phase e^{pi i s(d,c)} is e(6c s(d,c) / 12c)."""
    x = 6 * c * sfun(d, c)
    if x.denominator != 1:
        raise ArithmeticError("6c s(d,c) must be integral")
    return int(x)


def kloosterman_A(c: int, m: int, ctx: PrecisionContext = DEFAULT_CTX,
                  method: str = "fast"):
    """A_c(m) = sum_{d mod c, (d,c)=1} e^{pi i s(d,c)} e(-d m / c).

    Phases are exact integers mod 12c summed as roots of unity.  method
    'direct' forces the defining-sum Dedekind evaluation, 'fast' the
    reciprocity descent."""
    sfun = dedekind_sum if method == "fast" else dedekind_sum_direct
    return _root_sum((_eta_phase(d, c, sfun) - 12 * d * m for d in _units(c)),
                     12 * c, ctx)


def kloosterman_k(a: int, b: int, c: int, ctx: PrecisionContext = DEFAULT_CTX):
    """Ordinary Kloosterman sum k(a,b;c) = sum e((a dbar + b d)/c)."""
    return _root_sum((a * pow(d, -1, c) + b * d for d in _units(c)), c, ctx)


def kloosterman_K_eta(m: int, n: int, c: int,
                      ctx: PrecisionContext = DEFAULT_CTX):
    """K(m,n;c) = sum_{d mod c, (d,c)=1} e^{pi i s(d,c)} e((dbar m + d n)/c),
    the eta-multiplier Kloosterman sum; satisfies A_c(n) = K(0,-n,c)."""
    return _root_sum((_eta_phase(d, c) + 12 * (pow(d, -1, c) * m + d * n)
                      for d in _units(c)), 12 * c, ctx)


@lru_cache(maxsize=8)
def kloosterman_table(c_max: int, ms: tuple) -> dict:
    """Vectorized scan of A_c(m) for 1 <= c <= c_max and every m in ms.

    Returns {m: float64 array A of length c_max+1 with A[c] = A_c(m)}, from
    the Selberg-Whiteman formula (no Dedekind sums)

        A_c(m) = sqrt(c/3) sum_{l mod 2c, P(l) = -m (c)}
                 (-1)^l cos((6l+1) pi / 6c),   P(l) = l(3l+1)/2.

    For each c one integer pass reduces P(l) mod c for all l < 2c and marks
    the l whose residue is a wanted -m mod c; cosines are taken only at
    those hits, about 2^omega(c) per m.  The hit terms are the same float64
    values, summed per residue in the same increasing-l order, as a sum over
    every residue would give, so each A_c(m) is bit-identical to that scan
    (kept in the tests as the oracle) and the output is deterministic."""
    ms = tuple(ms)
    out = {m: np.zeros(c_max + 1) for m in ms}
    for m in ms:
        out[m][1] = 1.0  # exact; the formula gives 1 + 2^-52 in float64
    ls = np.arange(2 * c_max, dtype=np.int64)
    pent = ls * (3 * ls + 1) // 2
    wanted = np.zeros(c_max, dtype=bool)
    for c in range(2, c_max + 1):
        res = pent[:2 * c] % c
        want = [(-m) % c for m in ms]
        wanted[want] = True
        hit = np.flatnonzero(wanted[res])
        wanted[want] = False
        terms = np.cos(np.pi * (6 * hit + 1) / (6 * c))
        terms[hit % 2 == 1] *= -1.0
        sums = np.bincount(res[hit], weights=terms, minlength=c)
        scale = math.sqrt(c / 3)
        for m, w in zip(ms, want):
            out[m][c] = scale * sums[w]
    return out


def lehmer_ratios(c_max: int, ms: tuple, table: dict | None = None) -> np.ndarray:
    """max_m |A_c(m)| / (2^{omega0(c)} sqrt(c)) for each c (index = c)."""
    if table is None:
        table = kloosterman_table(c_max, tuple(ms))
    bound = np.array([1.0] + [2.0 ** omega0(c) * math.sqrt(c)
                              for c in range(1, c_max + 1)])
    worst = np.zeros(c_max + 1)
    for m in ms:
        worst = np.maximum(worst, np.abs(table[m][:c_max + 1]))
    return worst / bound


def partial_sum_S(n: int, x: float, table: dict | None = None) -> float:
    """S(n,x) = sum_{c <= x} A_c((1-n)/24) / c."""
    if n % 24 != 1:
        raise ValueError("index must be 1 mod 24")
    if x < 1:
        raise ValueError("cutoff below 1")
    m = (1 - n) // 24
    cx = int(math.floor(x))
    if table is None or m not in table or len(table[m]) <= cx:
        table = kloosterman_table(cx, (m,))
    col = table[m]
    cs = np.arange(1, cx + 1)
    return float((col[1:cx + 1] / cs).sum())


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _partition_list(n_max: int) -> tuple:
    """p(0..n_max) by the pentagonal-number recurrence."""
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return tuple(p)


def partition_p(n: int) -> int:
    """Partition function p(n), exact."""
    if n < 0:
        raise ValueError("negative argument")
    return _partition_list(max(n, 64))[n]


def iter_partitions(n: int, max_part: int | None = None):
    """Yield all partitions of n as weakly decreasing tuples (oracle use)."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in iter_partitions(n - first, first):
            yield (first,) + rest


def partition_p_enum(n: int) -> int:
    """Brute-force enumeration count (test oracle)."""
    return sum(1 for _ in iter_partitions(n))


def spt_enum(n: int) -> int:
    """spt(n) by direct enumeration: total multiplicity of the smallest part."""
    total = 0
    for lam in iter_partitions(n):
        smallest = lam[-1]
        total += sum(1 for part in lam if part == smallest)
    return total


@lru_cache(maxsize=4)
def _spt_list(n_max: int) -> tuple:
    """spt(0..n_max) via counting partitions with all parts > k.

    spt(n) = sum_{k>=1} sum_{m>=1} m * #{partitions of n - mk into parts > k}.
    One row holds the counts for parts > k; adding the part k for k = n_max,
    ..., 1 turns it into the row for k - 1.  For each k the inner sum
    acc[n] = sum_m m row[n - mk] follows from s1[n] = row[n-k] + s1[n-k] and
    acc[n] = s1[n] + acc[n-k], so time is O(n_max^2) and memory O(n_max)."""
    row = [1] + [0] * n_max        # partitions into parts > n_max
    out = [0] * (n_max + 1)
    for k in range(n_max, 0, -1):
        part = k + 1
        for x in range(part, n_max + 1):
            row[x] += row[x - part]
        s1 = [0] * (n_max + 1)
        acc = [0] * (n_max + 1)
        for n in range(k, n_max + 1):
            s1[n] = row[n - k] + s1[n - k]
            acc[n] = s1[n] + acc[n - k]
            out[n] += acc[n]
    return tuple(out)


def spt(n: int) -> int:
    """Total number of smallest parts in the partitions of n."""
    if n < 1:
        raise ValueError("argument must be positive")
    return _spt_list(max(n, 64))[n]


def s_coeff(x) -> Fraction:
    """s(n) = spt(n) + (24n-1) p(n) / 12 for integers n >= 1, and s(0) = -1/12.

    Accepts a nonnegative integer or a Fraction that reduces to one (the
    argument pattern (m+1)/24 with m = -1 mod 24)."""
    x = Fraction(x)
    if x.denominator != 1 or x < 0:
        raise ValueError("argument must reduce to a nonnegative integer")
    n = int(x)
    if n == 0:
        return Fraction(-1, 12)
    return spt(n) + Fraction(24 * n - 1, 12) * partition_p(n)


def trace_cm_exact(n: int) -> Fraction:
    """12 s((1-n)/24) for n = 1 mod 24, n < 0: the exact CM trace value."""
    if n >= 0 or n % 24 != 1:
        raise ValueError("need a negative index = 1 mod 24")
    return 12 * s_coeff(Fraction(1 - n, 24))
