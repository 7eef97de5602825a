"""Integral binary quadratic forms and their reduction theory.

Covers SL2(Z) reduction (definite and indefinite, with transformation
tracking), reduction cycles, Pell/fundamental-unit data, the Gamma0(6)
class sets

    Q_n = { ax^2+bxy+cy^2 : b^2-4ac = n, 6|a (a>0 for n<0), b = 1 mod 12 }

for n = 1 mod 24 in all three regimes, CM points, geodesic data, and the
cusp normalizations used for square discriminants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import is_square
from .matrices import GroupElement, IDENTITY, S_MAT, T_power, atkin_lehner


@dataclass(frozen=True)
class BQF:
    a: int
    b: int
    c: int

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def content(self) -> int:
        return math.gcd(math.gcd(abs(self.a), abs(self.b)), abs(self.c))

    def as_tuple(self):
        return (self.a, self.b, self.c)

    def value(self, x, y):
        return self.a * x * x + self.b * x * y + self.c * y * y

    def in_Qn(self) -> bool:
        """Membership in Q_n: 6 | a, b = 1 mod 12 (and a > 0 when definite)."""
        ok = self.a % 6 == 0 and self.b % 12 == 1
        if self.disc() < 0:
            ok = ok and self.a > 0
        return ok


def act(g: GroupElement, Q: BQF) -> BQF:
    return BQF(*g.apply_form(Q.as_tuple()))


# ---------------------------------------------------------------------------
# SL2(Z) reduction, definite forms
# ---------------------------------------------------------------------------

def _translate_to_normal(Q: BQF):
    """T^k with b' = b - 2ak in (-|a|, |a|]."""
    a = abs(Q.a)
    k = -((a - Q.b) // (2 * a))
    g = T_power(k)
    return act(g, Q), g


def reduce_definite(Q: BQF):
    """Reduced representative (|b| <= a <= c, b >= 0 if a = c or |b| = a)
    together with g such that act(g, Q) = reduced."""
    if Q.disc() >= 0 or Q.a <= 0:
        raise ValueError("need a positive definite form")
    g = IDENTITY
    cur = Q
    while True:
        cur, t = _translate_to_normal(cur)
        g = t @ g
        if cur.a > cur.c:
            cur, g = act(S_MAT, cur), S_MAT @ g
            continue
        break
    if cur.a == cur.c and cur.b < 0:
        cur, g = act(S_MAT, cur), S_MAT @ g
    if -cur.a == cur.b:
        cur, t = _translate_to_normal(cur)  # b = -a -> b = a
        g = t @ g
    return cur, g


def reduced_definite_forms(D: int, primitive_only: bool = False):
    """All SL2(Z)-reduced positive definite forms of discriminant D < 0."""
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError("need a negative discriminant")
    forms = []
    amax = math.isqrt(abs(D) // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            Q = BQF(a, b, c)
            if primitive_only and Q.content() != 1:
                continue
            forms.append(Q)
    return forms


# ---------------------------------------------------------------------------
# Indefinite reduction cycles
# ---------------------------------------------------------------------------

def is_reduced_indefinite(Q: BQF) -> bool:
    D = Q.disc()
    if D <= 0 or is_square(D):
        raise ValueError("need a positive non-square discriminant")
    s = math.isqrt(D)
    return 0 < Q.b <= s and s - Q.b < 2 * abs(Q.a) <= s + Q.b


def rho_step(Q: BQF):
    """One reduction step [a,b,c] -> [c,b',*], with its transformation.

    The new middle coefficient is the unique b' = b mod 2|c| in the window
    (-|c|, |c|] when |c| > sqrt(D), else (sqrt(D) - 2|c|, sqrt(D))."""
    D = Q.disc()
    s = math.isqrt(D)
    cur, g = act(S_MAT, Q), S_MAT            # [c, -b, a]
    a2 = 2 * abs(cur.a)
    hi = abs(cur.a) if abs(cur.a) > s else s
    bp = hi - ((hi - cur.b) % a2)
    k = (cur.b - bp) // (2 * cur.a)
    t = T_power(k)
    return act(t, cur), t @ g


def reduce_indefinite(Q: BQF):
    """Some reduced form in the SL2(Z) class, with transformation."""
    g = IDENTITY
    cur = Q
    for _ in range(10_000):
        if is_reduced_indefinite(cur):
            return cur, g
        cur, step = rho_step(cur)
        g = step @ g
    raise ArithmeticError("indefinite reduction did not terminate")


def cycle_of(Q: BQF):
    """The full rho-cycle through a reduced form: list of (form, transform)
    with transform mapping the starting form to each member."""
    if not is_reduced_indefinite(Q):
        raise ValueError("cycle must start at a reduced form")
    out = [(Q, IDENTITY)]
    cur, g = rho_step(Q)
    guard = 0
    while cur != Q:
        out.append((cur, g))
        cur2, step = rho_step(cur)
        g = step @ g
        cur = cur2
        guard += 1
        if guard > 100_000:
            raise ArithmeticError("runaway reduction cycle")
    return out, g     # g maps Q to itself: the cycle automorph


def automorph_sl2(Q: BQF) -> GroupElement:
    """Generator of the infinite cyclic SL2(Z) stabilizer (up to sign)."""
    R, g = reduce_indefinite(Q)
    _, m = cycle_of(R)
    gi = g.inverse_scaled()
    return gi @ m @ g


def sl2_transporter_indefinite(Q1: BQF, Q2: BQF):
    """g with act(g, Q1) = Q2, or None if SL2(Z)-inequivalent."""
    R1, g1 = reduce_indefinite(Q1)
    R2, g2 = reduce_indefinite(Q2)
    cyc, _ = cycle_of(R1)
    for form, walk in cyc:
        if form == R2:
            return g2.inverse_scaled() @ walk @ g1
    return None


@lru_cache(maxsize=None)
def fundamental_unit(D: int):
    """Minimal (t, u, norm) with t,u >= 1 and t^2 - D u^2 = norm in {4,-4},
    for a positive non-square discriminant D."""
    if D <= 0 or D % 4 not in (0, 1) or is_square(D):
        raise ValueError("need a positive non-square discriminant")
    b0 = D % 2
    principal = BQF(1, b0, (b0 * b0 - D) // 4)
    M = automorph_sl2(principal)
    t = M.a + M.d
    u = M.c            # lower-left = a*u with a = 1
    if t < 0:
        t, u = -t, -u
    if u < 0:
        u = -u         # inverse automorph has (t, -u)
    if t * t - D * u * u != 4 or t <= 0 or u <= 0:
        raise ArithmeticError(f"cycle automorph failed Pell check for D={D}")
    # descend to the norm -4 unit when it exists: eps_+ = eps_-^2
    tm = math.isqrt(t - 2) if t >= 2 else 0
    if tm and tm * tm == t - 2 and u % tm == 0:
        um = u // tm
        if tm * tm - D * um * um == -4:
            return tm, um, -4
    return t, u, 4


def automorph(Q: BQF) -> GroupElement:
    """Stabilizer generator [[ (t-bu)/2, -cu ], [ au, (t+bu)/2 ]] from the
    minimal t^2 - D u^2 = 4; lands in Gamma0(6) whenever 6 | a."""
    D = Q.disc()
    if D <= 0 or is_square(D):
        raise ValueError("automorph requires a positive non-square discriminant")
    t, u, norm = fundamental_unit(D)
    if norm == -4:
        t, u = (t * t + D * u * u) // 2, t * u
    if (t - Q.b * u) % 2:
        raise ArithmeticError("automorph parity violation")
    return GroupElement((t - Q.b * u) // 2, -Q.c * u,
                        Q.a * u, (t + Q.b * u) // 2)


# ---------------------------------------------------------------------------
# The W_6 reflection
# ---------------------------------------------------------------------------

def _transporter_in_gamma06(g0: GroupElement, M: GroupElement):
    """The first g0 M^k (k >= 0) in Gamma0(6), or None; M-powers mod 6 are
    periodic, so k runs over one period."""
    seen = set()
    cur = g0
    mk = IDENTITY
    for _ in range(10_000):
        if cur.c % 6 == 0:
            return cur
        key = tuple(x % 6 for x in mk.as_tuple())
        if key in seen:
            return None
        seen.add(key)
        mk = mk @ M
        cur = cur @ M
    raise ArithmeticError("transporter search did not stabilize")


def w6_sigma(Q: BQF) -> BQF:
    """sigma Q = -W_6 Q = [-6c, b, -a/6] for 6 | a: an involution of Q_n for
    n > 0 that normalizes Gamma0(6), so it also acts on Gamma0(6)\\Q_n."""
    if Q.a % 6:
        raise ValueError("sigma needs 6 | a")
    return BQF(-6 * Q.c, Q.b, -Q.a // 6)


def w6_reflection(Q: BQF):
    """h = gamma W_6 with gamma in Gamma0(6) and act(gamma, sigma Q) = Q, when
    sigma fixes the class of Q (positive non-square disc); else None.

    act(h, Q) = -Q, so h maps the geodesic C_Q onto itself with the opposite
    orientation: it is the half-turn (trace 0, determinant 6) about its fixed
    point z0 = (h.a - h.d)/(2 h.c) + i sqrt(6)/|h.c|, which lies on C_Q.
    None also when 6 does not divide a, where sigma is not defined."""
    if Q.a % 6:
        return None
    sQ = w6_sigma(Q)
    g0 = sl2_transporter_indefinite(sQ, Q)
    if g0 is None:
        return None
    gamma = _transporter_in_gamma06(g0, automorph(sQ))
    if gamma is None:
        return None
    return gamma @ atkin_lehner(6)


# ---------------------------------------------------------------------------
# Class sets Q_n
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassSet:
    """Representatives of Gamma0(6)\\Q_n; keys[i] is the sl2_class_key of
    reps[i], or keys is None for square n, where sl2_class_key is not
    defined."""
    n: int
    reps: tuple
    regime: str
    keys: tuple | None


def class_number(d: int) -> int:
    """Form class number h(d): proper SL2(Z) classes of primitive forms.

    Negative d: reduced-form count.  Positive non-square d: number of
    reduction cycles.  Square d = m^2: Euler phi(m), the count of primitive
    classes compatible with the regulator-weighted square-index formula."""
    if d % 4 not in (0, 1) or d == 0:
        raise ValueError("not a discriminant")
    if is_square(d):
        m = math.isqrt(d)
        return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
    return len(sl2_class_keys(d, primitive_only=True))


def _reduced_indefinite_forms(D: int, primitive_only: bool):
    out = []
    s = math.isqrt(D)
    for b in range(1, s + 1):
        if (D - b * b) % 4:
            continue
        lo = (s - b) // 2 + 1
        hi = (s + b) // 2
        for aa in range(max(lo, 1), hi + 1):
            for a in (aa, -aa):
                if (b * b - D) % (4 * a):
                    continue
                Q = BQF(a, b, (b * b - D) // (4 * a))
                if primitive_only and Q.content() != 1:
                    continue
                out.append(Q)
    return out


def sl2_class_key(Q: BQF) -> BQF:
    """A label of the SL2(Z) class of Q: the reduced form (disc < 0) or the
    least form of its reduction cycle (positive non-square disc)."""
    if Q.disc() < 0:
        return reduce_definite(Q)[0]
    cyc, _ = cycle_of(reduce_indefinite(Q)[0])
    return min((form for form, _g in cyc), key=BQF.as_tuple)


def sl2_class_keys(D: int, primitive_only: bool = False) -> set:
    """The sl2_class_key of every SL2(Z) class of discriminant D (D < 0, or
    D > 0 not a square), of all contents unless primitive_only: the reduced
    forms, or one least form per reduction cycle."""
    if D < 0:
        return set(reduced_definite_forms(D, primitive_only))
    keys = set()
    remaining = set(_reduced_indefinite_forms(D, primitive_only))
    while remaining:
        cyc, _ = cycle_of(remaining.pop())
        forms = [form for form, _g in cyc]
        remaining.difference_update(forms)
        keys.add(min(forms, key=BQF.as_tuple))
    return keys


def _qn_candidates(n: int, a_bound: int):
    """Forms [a,b,c] with 6|a, 0<a<=a_bound, b = 1 mod 12, disc n; one b per
    translation class mod 2a."""
    for a in range(6, a_bound + 1, 6):
        period = (2 * a * 12) // math.gcd(2 * a, 12)
        for b in range(1, period + 1, 12):
            if (b * b - n) % (4 * a):
                continue
            yield BQF(a, b, (b * b - n) // (4 * a))


def square_class_reps(n: int):
    """Square-discriminant class representatives: W_r [0,b,c], c mod b,
    for n = b^2 with (b,6) = 1.

    Returns (r, [list of underlying forms [0,b,c]])."""
    b = math.isqrt(n)
    if b * b != n or math.gcd(b, 6) != 1:
        raise ValueError("need n a square coprime to 6")
    r = {1: 1, 7: 2, 5: 3, 11: 6}[b % 12]
    return r, [BQF(0, b, c) for c in range(b)]


def enumerate_classes(n: int) -> ClassSet:
    """Representatives of Gamma0(6)\\Q_n for n = 1 mod 24, imprimitive
    classes included.

    For gcd(n, 6) = 1, Gamma0(6)\\Q_n -> SL2(Z)\\{forms of disc n} is a
    bijection (Gross-Kohnen-Zagier, Math. Ann. 278 (1987), I.1), so two forms
    of Q_n are Gamma0(6)-equivalent exactly when their sl2_class_keys agree.
    Non-square n: the first candidate of each SL2(Z) class by increasing a,
    until every class of disc n has one."""
    if n % 24 != 1 or n == 0:
        raise ValueError("index must be nonzero and 1 mod 24")
    if is_square(n):
        r, base = square_class_reps(n)
        W = atkin_lehner(r)
        return ClassSet(n, tuple(act(W, Q) for Q in base), "square", None)
    missing = sl2_class_keys(n)
    reps, keys = [], []
    for Q in _qn_candidates(n, 600 * (math.isqrt(abs(n)) + 1)):
        key = sl2_class_key(Q)
        if key in missing:
            missing.remove(key)
            reps.append(Q)
            keys.append(key)
            if not missing:
                regime = "negative" if n < 0 else "positive-nonsquare"
                return ClassSet(n, tuple(reps), regime, tuple(keys))
    raise ArithmeticError(f"{len(missing)} classes of disc {n} have no form in Q_n")


# ---------------------------------------------------------------------------
# CM points, geodesics, cusp data
# ---------------------------------------------------------------------------

def cm_point(Q: BQF):
    """Root of Q(tau, 1) in the upper half plane, as an mpmath complex."""
    from mpmath import mp
    D = Q.disc()
    if D >= 0:
        raise ValueError("CM point requires a negative discriminant")
    return mp.mpc(-Q.b, mp.sqrt(abs(D))) / (2 * Q.a)


@dataclass(frozen=True)
class Geodesic:
    """Semicircle data for disc > 0 non-square; cusp data for square disc."""
    form: BQF
    center: Fraction | None = None
    radius2: Fraction | None = None          # radius^2, exact
    automorph: GroupElement | None = None
    cusps: tuple | None = None               # (a1, a2) as Fraction or 'oo'
    cusp_normalizers: tuple | None = None    # ((r1, g1), (r2, g2))


def cusp_normalizer(cusp):
    """The unique (r, gamma) with gamma in Gamma0(6), gamma W_r cusp = oo."""
    found = []
    for r in (1, 2, 3, 6):
        W = atkin_lehner(r)
        image = W.apply_cusp(cusp)
        if image == "oo":
            found.append((r, IDENTITY))
            continue
        p, q = image.numerator, image.denominator
        if q % 6:
            continue
        # gamma = [[u, v], [-q, p]] with up + vq = 1
        g, u, v = _xgcd(p, q)
        if g != 1:
            raise ArithmeticError("cusp not in lowest terms")
        found.append((r, GroupElement(u, v, -q, p)))
    if len(found) != 1:
        raise ArithmeticError(f"cusp {cusp}: expected exactly one Atkin-Lehner "
                              f"normalizer, found {len(found)}")
    return found[0]


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def geodesic_data(Q: BQF) -> Geodesic:
    D = Q.disc()
    if D <= 0:
        raise ValueError("geodesic requires a positive discriminant")
    if not is_square(D):
        if Q.a == 0:
            raise ValueError("normalize a != 0 for non-square geodesics")
        return Geodesic(Q,
                        center=Fraction(-Q.b, 2 * Q.a),
                        radius2=Fraction(D, 4 * Q.a * Q.a),
                        automorph=automorph(Q))
    e = math.isqrt(D)
    if Q.a != 0:
        roots = (Fraction(-Q.b + e, 2 * Q.a), Fraction(-Q.b - e, 2 * Q.a))
    else:
        roots = ("oo", Fraction(-Q.c, Q.b))
    normalizers = tuple(cusp_normalizer(x) for x in roots)
    return Geodesic(Q, cusps=roots, cusp_normalizers=normalizers)
