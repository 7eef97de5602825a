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
    if x != int(x):
        return 0
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


def _eta_phase(d: int, c: int) -> int:
    """6c s(d,c), an integer: the phase e^{pi i s(d,c)} is e(6c s(d,c) / 12c)."""
    x = 6 * c * dedekind_sum(d, c)
    if x.denominator != 1:
        raise ArithmeticError("6c s(d,c) must be integral")
    return int(x)


def kloosterman_A(c: int, m: int, ctx: PrecisionContext = DEFAULT_CTX):
    """A_c(m) = sum_{d mod c, (d,c)=1} e^{pi i s(d,c)} e(-d m / c).

    Phases are exact integers mod 12c (the Dedekind sums by the reciprocity
    descent) summed as roots of unity."""
    return _root_sum((_eta_phase(d, c) - 12 * d * m for d in _units(c)),
                     12 * c, ctx)


_SCAN_BLOCK = 32     # moduli (or primes) per numpy block of the hit scan


def _prime_power_sieve(n: int):
    """(primes, pp) for 0..n: the primes up to n, and pp[k] the power of the
    smallest prime factor of k that exactly divides k (pp[1] = 1)."""
    pp = np.zeros(n + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n) + 1):
        if pp[p] == 0:
            multiples = pp[p * p::p]
            multiples[multiples == 0] = p
    unset = np.flatnonzero(pp == 0)
    pp[unset] = unset
    primes = unset[2:]
    spf = pp.copy()
    for p in primes[primes * primes <= n].tolist():
        q = p * p
        while q <= n:
            multiples = pp[q::q]
            multiples[spf[q::q] == p] = q
            q *= p
    return primes, pp


def _pair_order(pair: np.ndarray, pairs: int, hit: np.ndarray, hits: int) -> np.ndarray:
    """The order that sorts the entries by (pair, hit), with 0 <= pair < pairs
    and 0 <= hit < hits: stable radix passes over 16-bit digits, the low
    digits of hit first (uint16 keys take numpy's linear radix sort)."""
    order = np.arange(hit.size)
    for key, bound in ((hit, hits), (pair, pairs)):
        for shift in range(0, (bound - 1).bit_length(), 16):
            digit = (key[order] >> shift).astype(np.uint16)
            order = order[np.argsort(digit, kind="stable")]
    return order


def _hit_roots(c_max: int, ms: tuple, primes: np.ndarray):
    """The roots l mod q of 3l^2 + l + 2m for every m in ms and every prime
    power q that divides some 2c with c <= c_max.

    Returns (row, start, roots): the roots of q for ms[j] are
    roots[start[i]:start[i + 1]] with i = row[q] * len(ms) + j; row 0 is
    q = 1, whose one root is 0.  A prime p >= 5 takes its roots from one
    table of squares mod p, since (6l + 1)^2 = 1 - 24m there, _SCAN_BLOCK
    primes at a time.  p^k is lifted from the roots mod p^(k-1), trying
    each r + t p^(k-1) with t < p (every root mod p^k reduces to one mod
    p^(k-1), also when p | 1 - 24m); the lift from q = 1 searches mod 2
    and mod 3."""
    M = len(ms)
    m2 = 2 * np.array(ms, dtype=np.int64)
    ends, roots = [np.arange(M + 1)], [np.zeros(M, dtype=np.int64)]
    row = np.zeros(2 * c_max + 1, dtype=np.int64)
    seeds = {}      # (m index, root) mod p for the p >= 5 lifted below
    big = primes[primes >= 5]
    # one buffer each for the tables of squares, so that no prime allocates
    half = np.arange((int(big[-1]) + 1) // 2 if big.size else 0, dtype=np.int64)
    square, sqrt = half * half, np.empty(3 * half.size, dtype=np.int64)
    for first in range(0, big.size, _SCAN_BLOCK):
        p = big[first:first + _SCAN_BLOCK, None]
        x = np.empty((p.size, M), dtype=np.int64)
        for i, q in enumerate(p.ravel().tolist()):
            k = (q + 1) // 2
            sqrt[:q] = -1
            np.remainder(square[:k], q, out=sqrt[q:q + k])
            sqrt[sqrt[q:q + k]] = half[:k]
            x[i] = sqrt[(1 - 12 * m2) % q]
        # l = (x - 1)/6 and (-x - 1)/6; the second is a new root iff x > 0
        inv6 = np.where(p % 6 == 1, 5 * p + 1, p + 1) // 6     # 6 inv6 = 1 mod p
        both = np.concatenate([((x - 1) * inv6 % p)[..., None],
                               ((p - x - 1) * inv6 % p)[..., None]], axis=-1)
        slots = np.concatenate([(x >= 0)[..., None], (x > 0)[..., None]], axis=-1)
        at = np.flatnonzero(slots)
        ends.append(ends[-1][-1] + np.cumsum(np.bincount(at // 2, minlength=x.size)))
        roots.append(both.ravel()[at])
        row[p] = 1 + first + np.arange(p.size)[:, None]
        for i in np.flatnonzero(p * p <= c_max).tolist():
            seeds[int(p[i, 0])] = np.nonzero(slots[i])[0], both[i][slots[i]]
    del half, square, sqrt      # before the concatenations below
    rows = 1 + big.size
    for p in (p for p in primes.tolist() if p < 5 or p * p <= c_max):
        if p < 5:
            q, mi, r = 1, np.arange(M), np.zeros(M, dtype=np.int64)
        else:
            q, (mi, r) = p, seeds[p]
        while q * p <= (2 * c_max if p == 2 else c_max):
            cand = (r[:, None] + q * np.arange(p)).ravel()
            mi = np.repeat(mi, p)
            q *= p
            keep = ((3 * cand + 1) * cand + m2[mi]) % q == 0
            mi, r = mi[keep], cand[keep]
            row[q], rows = rows, rows + 1
            ends.append(ends[-1][-1] + np.cumsum(np.bincount(mi, minlength=M)))
            roots.append(r)
    start, ends = np.concatenate(ends), None    # drop the pieces first
    return row, start, np.concatenate(roots)


@lru_cache(maxsize=8)
def kloosterman_table(c_max: int, ms: tuple) -> dict:
    """Vectorized scan of A_c(m) for 1 <= c <= c_max and every m in ms.

    Returns {m: float64 array A of length c_max+1 with A[c] = A_c(m)}, from
    the Selberg-Whiteman formula (no Dedekind sums)

        A_c(m) = sqrt(c/3) sum_{l mod 2c, P(l) = -m (c)}
                 (-1)^l cos((6l+1) pi / 6c),   P(l) = l(3l+1)/2.

    Hits as roots.  l(3l+1) is even, so P(l) + m = (3l^2 + l + 2m)/2 and l
    is a hit iff 2c | 3l^2 + l + 2m: the hits are the roots of that
    quadratic mod 2c.  By the Chinese remainder theorem they are the
    l = sum_q r_q e_q mod 2c over the prime powers q || 2c, one root r_q
    mod q for each q, where e_q = 1 mod q and e_q = 0 mod 2c/q: e_q is
    2c/q times one inverse of 2c/q mod q, taken while factoring c with a
    sieve of smallest-prime powers.  Mod a prime p >= 5,
    12(3l^2 + l + 2m) = (6l + 1)^2 - (1 - 24m), so the roots are
    l = (x - 1)/6 with x^2 = 1 - 24m mod p: two, one (p | 1 - 24m) or
    none, read from one table of squares mod p that serves every m.
    Powers of 2 and 3, and p^k with k >= 2, are lifted one power at a time
    by trying the p lifts of each root, which also covers p | 1 - 24m
    (_hit_roots).  No residue pass is made: for blocks of _SCAN_BLOCK
    moduli every (c, m) pair is expanded over the roots of its prime powers
    in turn (numpy repeat and gather), and cosines are taken at the hits
    only, about 2^omega(c) per m.

    Bit-identical.  The terms are the same float64 values as in a sum over
    every residue, (-1)^l cos(pi (6l+1) / 6c) with the same operations in
    the same order.  The hits of each (c, m) are put in increasing l
    (stable radix passes, _pair_order), and np.bincount adds its weights
    one after the other from 0.0, so each column sum adds the same numbers
    in the same order as the all-residue scan (kept in the tests as the
    oracle), and the product with sqrt(c/3) is the same.  The output is
    deterministic."""
    if c_max < 1:
        raise ValueError("c_max must be at least 1")
    ms = tuple(ms)
    if not ms:
        return {}
    M = len(ms)
    out = {m: np.zeros(c_max + 1) for m in ms}
    for m in ms:
        out[m][1] = 1.0  # exact; the formula gives 1 + 2^-52 in float64
    primes, pp = _prime_power_sieve(c_max)
    row, start, roots = _hit_roots(c_max, ms, primes)
    for c0 in range(2, c_max + 1, _SCAN_BLOCK):
        cs = np.arange(c0, min(c0 + _SCAN_BLOCK, c_max + 1), dtype=np.int64)
        mod = 2 * cs
        # the prime powers q || 2c; the power of 2, which has two roots for
        # every m, comes last, so that pairs without hits drop out first
        low = np.where(cs % 2 == 0, pp[cs], 1)
        rest, levels = cs // low, []
        while np.count_nonzero(rest > 1):
            levels.append(pp[rest])
            rest //= levels[-1]
        # every (c, m) pair, expanded over the roots of each q in turn
        ci, mi = np.divmod(np.arange(cs.size * M), M)
        hit = np.zeros(ci.size, dtype=np.int64)
        for q in levels + [2 * low]:
            cof = mod // q
            e = cof * np.array([pow(a, -1, b) for a, b in
                                zip((cof % q).tolist(), q.tolist())], dtype=np.int64)
            f = row[q][ci] * M + mi
            k = start[f + 1] - start[f]
            # the roots of each entry: start[f] + t for t < k
            at = np.repeat(start[f + 1] - np.cumsum(k), k)
            at += np.arange(at.size)
            ci, mi, hit = np.repeat(ci, k), np.repeat(mi, k), np.repeat(hit, k)
            hit += roots[at] * e[ci]
        hit %= mod[ci]
        pair = ci * M + mi
        order = _pair_order(pair, cs.size * M, hit, 2 * c_max)
        pair, ci, hit = pair[order], ci[order], hit[order]
        terms = np.cos(np.pi * (6 * hit + 1) / (6 * cs[ci]))
        terms[hit % 2 == 1] *= -1.0
        sums = np.bincount(pair, weights=terms, minlength=cs.size * M)
        scale = np.sqrt(cs / 3)
        for j, m in enumerate(ms):
            out[m][c0:c0 + cs.size] = scale * sums[j::M]
    return out


def lehmer_ratios(c_max: int, ms: tuple) -> np.ndarray:
    """max_m |A_c(m)| / (2^{omega0(c)} sqrt(c)) for each c (index = c)."""
    table = kloosterman_table(c_max, tuple(ms))
    bound = np.array([1.0] + [2.0 ** omega0(c) * math.sqrt(c)
                              for c in range(1, c_max + 1)])
    worst = np.zeros(c_max + 1)
    for m in ms:
        worst = np.maximum(worst, np.abs(table[m]))
    return worst / bound


def partial_sum_S(n: int, x: float) -> float:
    """S(n,x) = sum_{c <= x} A_c((1-n)/24) / c."""
    if n % 24 != 1:
        raise ValueError("index must be 1 mod 24")
    if x < 1:
        raise ValueError("cutoff below 1")
    m = (1 - n) // 24
    cx = int(math.floor(x))
    col = kloosterman_table(cx, (m,))[m]
    cs = np.arange(1, cx + 1)
    return float((col[1:] / cs).sum())


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
