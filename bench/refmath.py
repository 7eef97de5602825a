"""Independent mathematics for the benchmark's references.

Nothing here calls the numerical routes under test.  The level-6 function
f is evaluated from mpmath's q-Pochhammer symbol and Jacobi theta functions
after a separate SL2(Z) reduction; class numbers are counted with Zagier's
reduction cycles; units come from a direct Pell search; spt and p come from
enumerating partitions.  Only exact integer bookkeeping (the Gamma0(6) class
representatives and the cusp normalizers of square-discriminant forms) is
taken from the package, as combinatorial input.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from mpmath import mp


# ---------------------------------------------------------------------------
# Partitions: s(N) = spt(N) + (24N - 1) p(N) / 12 by enumeration
# ---------------------------------------------------------------------------

def partitions(n: int, largest: int | None = None):
    """Weakly decreasing tuples summing to n."""
    if n == 0:
        yield ()
        return
    top = n if largest is None else min(n, largest)
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def s_of(N: int) -> Fraction:
    """s(N) for N >= 1 from a full enumeration of the partitions of N."""
    count = 0
    smallest_parts = 0
    for lam in partitions(N):
        count += 1
        smallest_parts += lam.count(lam[-1])
    return smallest_parts + Fraction(24 * N - 1, 12) * count


def cm_trace(n: int) -> Fraction:
    """Tr_n(f) = 12 s((1 - n)/24) for n < 0, n = 1 mod 24 (the spt identity)."""
    return 12 * s_of((1 - n) // 24)


# ---------------------------------------------------------------------------
# Units and class numbers of real quadratic orders
# ---------------------------------------------------------------------------

def pell(d: int):
    """Smallest (t, u, norm) with u >= 1 and t^2 - d u^2 = norm in {4, -4}."""
    u = 1
    while True:
        for norm in (-4, 4):
            t2 = d * u * u + norm
            t = math.isqrt(t2)
            if t > 0 and t * t == t2:
                return t, u, norm
        u += 1


def totally_positive_unit(d: int):
    """(t, u) of the smallest unit (t + u sqrt d)/2 > 1 of norm +1."""
    t, u, norm = pell(d)
    if norm == -4:
        t, u = (t * t + d * u * u) // 2, t * u
    return t, u


def narrow_class_number(d: int) -> int:
    """Proper SL2(Z) classes of primitive forms of discriminant d > 0, d not a
    square: the number of cycles of Zagier-reduced forms a, c > 0, b > a + c."""
    reduced = set()
    # b > a + c >= 2 sqrt(ac) = sqrt(b^2 - d) forces b <= d
    for b in range(1, d + 1):
        if (b * b - d) % 4 or b * b <= d:
            continue
        ac = (b * b - d) // 4
        for a in range(1, b):
            if ac % a:
                continue
            c = ac // a
            if b > a + c and math.gcd(math.gcd(a, b), c) == 1:
                reduced.add((a, b, c))
    cycles = 0
    while reduced:
        start = reduced.pop()
        a, b, c = start
        while True:
            # Zagier step: [a,b,c] -> [c, 2cn - b, a - bn + cn^2], n = ceil((b + sqrt d)/2c)
            n = (b + math.isqrt(d)) // (2 * c) + 1
            a, b, c = c, 2 * c * n - b, a - b * n + c * n * n
            if (a, b, c) == start:
                break
            reduced.discard((a, b, c))
        cycles += 1
    return cycles


def hstar(d: int):
    """h*(d) for d > 0 with the package's documented conventions:
    (1/2 pi) sum over l^2 | d, d/l^2 a discriminant, of R(m) h(m), where
    R(m) = 2 log of the fundamental unit (any norm) and h(m) counts proper
    classes for non-square m; R(k^2) = 2 log k and h(k^2) = phi(k)."""
    total = mp.mpf(0)
    for ell in range(1, math.isqrt(d) + 1):
        if d % (ell * ell):
            continue
        m = d // (ell * ell)
        if m % 4 not in (0, 1):
            continue
        k = math.isqrt(m)
        if k * k == m:
            phi = sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)
            total += 2 * mp.log(k) * phi
        else:
            t, u, _ = pell(m)
            total += 2 * mp.log((t + u * mp.sqrt(m)) / 2) * narrow_class_number(m)
    return total / (2 * mp.pi)


def chi12(k: int) -> int:
    return {1: 1, 11: 1, 5: -1, 7: -1}.get(k % 12, 0)


# ---------------------------------------------------------------------------
# The alpha kernel, from its integral definition
# ---------------------------------------------------------------------------

def alpha(y):
    """alpha(y) = (sqrt y / 4 pi) int_0^oo e^{-pi y t} t^{-1/2} log(1+t) dt,
    with t = u^2 over the whole half line."""
    y = mp.mpf(y)
    val = mp.quad(lambda u: 2 * mp.exp(-mp.pi * y * u * u) * mp.log1p(u * u),
                  [0, 1 / mp.sqrt(y), mp.inf])
    return mp.sqrt(y) / (4 * mp.pi) * val


# ---------------------------------------------------------------------------
# The level-6 function f from mpmath's theta and q-Pochhammer functions
# ---------------------------------------------------------------------------

def _eta2_e4(tau):
    """(eta(tau)^2, E4(tau)).  Squaring eta makes both reduction steps
    branch-free: eta(t+1)^2 = e^{i pi/6} eta(t)^2, eta(-1/t)^2 = -i t eta(t)^2."""
    f_eta, f_e4 = mp.mpc(1), mp.mpc(1)
    cur = tau
    while True:
        k = int(mp.nint(cur.real))
        if k:
            f_eta *= mp.expjpi(mp.mpf(k) / 6)
            cur -= k
        if abs(cur) >= 1:
            break
        f_eta /= -1j * cur
        f_e4 /= cur ** 4
        cur = -1 / cur
    nome = mp.expjpi(cur)
    e4 = (mp.jtheta(2, 0, nome) ** 8 + mp.jtheta(3, 0, nome) ** 8
          + mp.jtheta(4, 0, nome) ** 8) / 2
    eta2 = mp.expjpi(cur / 6) * mp.qp(nome ** 2) ** 2
    return f_eta * eta2, f_e4 * e4


def f_value(tau):
    """f = (E4(t) - 4E4(2t) - 9E4(3t) + 36E4(6t)) / (24 (eta(t)eta(2t)eta(3t)eta(6t))^2)."""
    with mp.extradps(30):
        tau = mp.mpc(tau)
        parts = [_eta2_e4(k * tau) for k in (1, 2, 3, 6)]
        den = parts[0][0] * parts[1][0] * parts[2][0] * parts[3][0]
        num = parts[0][1] - 4 * parts[1][1] - 9 * parts[2][1] + 36 * parts[3][1]
        return num / (24 * den)


# ---------------------------------------------------------------------------
# Cycle traces: periodic trapezoid rule over the exact period
# ---------------------------------------------------------------------------

def cycle_integral(form, n: int, tol):
    """int over one period of f(tau(l)) dl / sqrt n along the geodesic of
    form = (a, b, c); the period 2 log eps_+ comes from the Pell unit.
    The trapezoid rule on a periodic analytic integrand converges
    geometrically; nodes double until two sums agree within tol."""
    a, b, _c = form
    t, u = totally_positive_unit(n)
    period = 2 * mp.log((t + u * mp.sqrt(n)) / 2)
    center = mp.mpf(-b) / (2 * a)
    radius = mp.sqrt(n) / (2 * abs(a))

    # at |l| = period/2 the point sits e^{-period} from the real axis: carry
    # that many extra digits so its offset from the nearby root stays exact
    extra = int(period / mp.log(10)) + 10

    def value(ell):
        with mp.extradps(extra):
            tau = mp.mpc(center - radius * mp.tanh(ell), radius / mp.cosh(ell))
            return +f_value(tau).real

    nodes = 64
    h = period / nodes
    total = mp.fsum(value(-period / 2 + k * h) for k in range(nodes))
    prev = total * h
    while nodes < 2 ** 16:
        mids = mp.fsum(value(-period / 2 + (k + mp.mpf(1) / 2) * h)
                       for k in range(nodes))
        total += mids
        nodes *= 2
        h = period / nodes
        cur = total * h
        print(f"  n={n} form={form} nodes={nodes} change={mp.nstr(abs(cur - prev), 3)}",
              file=sys.stderr, flush=True)
        if abs(cur - prev) < tol:
            return cur / mp.sqrt(n), abs(cur - prev) / mp.sqrt(n), nodes
        prev = cur
    raise ArithmeticError(f"trapezoid sums for n={n} did not settle by {nodes} nodes")


def cycle_trace(n: int, reps, tol):
    total = mp.mpf(0)
    err = mp.mpf(0)
    nodes = []
    for form in reps:
        v, e, k = cycle_integral(form, n, tol)
        total += v
        err += e
        nodes.append(k)
    return total / (2 * mp.pi), err / (2 * mp.pi), nodes


# ---------------------------------------------------------------------------
# Square traces: adaptive quadrature of the dampened integrand
# ---------------------------------------------------------------------------

MU = {1: 1, 2: -1, 3: -1, 6: 1}


def _e_minus(w):
    """e(-w) - e(-conj w) for w in the upper half plane."""
    return mp.expjpi(-2 * w) - mp.expjpi(-2 * mp.conj(w))


def _apply(m, tau):
    a, b, c, d = m
    return (a * tau + b) / (c * tau + d)


def damped_ray(x0, y0, sigmas, y_cut):
    """int_{y0}^oo f_Q(x0 + iy) dy/y with f_Q = f - 12 - sum mu [e(-s tau) - e(-conj)].

    Adaptive tanh-sinh quadrature up to y_cut, each node's precision raised
    by its own e^{2 pi y} cancellation depth; beyond y_cut only the finite-cusp
    dampening terms remain above e^{-2 pi y_cut}, integrated after y = y_cut/t."""
    def head(y):
        with mp.extradps(int(2 * mp.pi * y / mp.log(10)) + 15):
            tau = mp.mpc(x0, y)
            val = f_value(tau) - 12
            for mu, sig in sigmas:
                val -= mu * _e_minus(_apply(sig, tau))
            return val.real / y

    cuts = [y0] + [p for p in (2 * y0, mp.mpf(1) / 2, 1, 2, 4, 8) if y0 < p < y_cut] + [y_cut]
    total = mp.quad(head, cuts)
    for mu, sig in sigmas:
        if sig[2] == 0:
            continue

        def tail(t, sig=sig):
            if t == 0:
                return mp.mpf(0)
            return _e_minus(_apply(sig, mp.mpc(x0, y_cut / t))).real / t

        total -= mu * mp.quad(tail, [0, mp.mpf(1) / 2, 1])
    return total


def square_bookkeeping(b: int, c: int):
    """(b', c', v) for the pair of rays of the class [0, b, c]: the ray over
    -c'/b' and the ray over v/b' with gamma_c = [[u, -c'], [6v, b']]."""
    g = math.gcd(b, c) if c else b
    bp, cp = b // g, c // g
    if cp == 0:
        return bp, cp, 0
    m = 6 * abs(cp)
    u = pow(bp % m, -1, m)
    v = (1 - u * bp) // (6 * cp)
    return bp, cp, v
