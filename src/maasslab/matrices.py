"""Integer matrices acting on the upper half plane: SL2(Z), Gamma0(6),
and the Atkin-Lehner normalizers W_r for r | 6.

A GroupElement stores an integer matrix [[a,b],[c,d]] together with a
scale r = det; the actual group element is the matrix divided by sqrt(r).
The Moebius action and the action on quadratic forms do not depend on
the sqrt(r) normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GroupElement:
    a: int
    b: int
    c: int
    d: int
    scale: int = 1

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det != self.scale:
            raise ValueError(f"determinant {det} does not match scale {self.scale}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.scale * other.scale,
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(-self.a, -self.b, -self.c, -self.d, self.scale)

    def inverse_scaled(self) -> "GroupElement":
        """Adjugate: the inverse up to the scalar factor 1/scale.

        For scale 1 this is the genuine inverse in SL2(Z)."""
        return GroupElement(self.d, -self.b, -self.c, self.a, self.scale)

    def apply(self, tau):
        """Moebius action on a point of the upper half plane (or a cusp)."""
        num = self.a * tau + self.b
        den = self.c * tau + self.d
        return num / den

    def apply_cusp(self, cusp):
        """Action on P^1(Q); cusp is a Fraction or the string 'oo'."""
        if cusp == "oo":
            if self.c == 0:
                return "oo"
            return Fraction(self.a, self.c)
        num = self.a * cusp + self.b
        den = self.c * cusp + self.d
        if den == 0:
            return "oo"
        return Fraction(num) / Fraction(den)

    def apply_form(self, form):
        """Action gQ(x,y) = Q(dx - by, -cx + ay) on a quadratic form.

        Multiplies the discriminant by scale^2; for scale > 1 the result is
        divided by scale so that Atkin-Lehner involutions preserve disc."""
        a, b, c, d = self.a, self.b, self.c, self.d
        qa, qb, qc = form
        A = qa * d * d - qb * c * d + qc * c * c
        B = -2 * qa * b * d + qb * (a * d + b * c) - 2 * qc * a * c
        C = qa * b * b - qb * a * b + qc * a * a
        if self.scale != 1:
            if any(x % self.scale for x in (A, B, C)):
                raise ValueError("form not integral after normalizer action")
            A, B, C = A // self.scale, B // self.scale, C // self.scale
        return (A, B, C)

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d)


IDENTITY = GroupElement(1, 0, 0, 1)
S_MAT = GroupElement(0, -1, 1, 0)


def T_power(n: int) -> GroupElement:
    return GroupElement(1, n, 0, 1)


def atkin_lehner(r: int) -> GroupElement:
    """The Atkin-Lehner matrix W_r for Gamma0(6), r | 6 (entries over sqrt r)."""
    if r == 1:
        return GroupElement(1, 0, 0, 1, 1)
    if r == 2:
        return GroupElement(2, -1, 6, -2, 2)
    if r == 3:
        return GroupElement(3, 1, 6, 3, 3)
    if r == 6:
        return GroupElement(0, -1, 6, 0, 6)
    raise ValueError("Atkin-Lehner index must divide 6")
