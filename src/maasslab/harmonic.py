"""Nonholomorphic Fourier expansions: per-mode records combining a
holomorphic coefficient with beta- and alpha-weighted nonholomorphic parts,
plus the handful of index-zero special terms (sqrt y, log y, 1/sqrt y).

The same structure carries the weight-3/2 forms (F and the level-4 Zagier
form), the weight-1/2 forms (the depth-3/2 assemblies at level 1 and 4),
and feeds both pointwise evaluation and the horizontal boundary pairing
used by the regularized inner products.

A mode's y-part (HarmonicExpansion.mode_value) excludes e^{-2 pi nu y}:
the mode is y-part(y) e(nu tau).  eval multiplies the y-part by e(nu tau)
in one complex exponential.  The pairing multiplies the q^{k/D} coefficient
of a holomorphic series, which carries e^{-2 pi k y/D}, by mode -k/D, which
carries e^{+2 pi k y/D}; the two cancel exactly, so neither is computed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from .context import DEFAULT_CTX, PrecisionContext
from .qseries import QSeries
from .special import alpha, beta_k


@dataclass
class ModeTerm:
    """y-part of the e(nu tau) mode: hol + sum c beta_k(s pi y) +
    sum c alpha(s y)."""
    hol: object = 0
    beta12: list = field(default_factory=list)   # (coeff, scale): beta_{1/2}(scale*pi*y)
    beta32: list = field(default_factory=list)   # (coeff, scale): beta_{3/2}(scale*pi*y)
    alph: list = field(default_factory=list)     # (coeff, scale): alpha(scale*y)


@dataclass
class HarmonicExpansion:
    denom: int
    terms: dict                                   # exponent numerator -> ModeTerm
    specials: list = field(default_factory=list)  # (kind, Fraction coefficient)
    label: str = ""

    # -- evaluation ---------------------------------------------------------

    def mode_value(self, num: int, y, ctx: PrecisionContext = DEFAULT_CTX):
        """y-part of the mode at nu = num/denom, without e^{-2 pi nu y}: hol
        plus the beta and alpha terms.  The mode is this times e(nu tau);
        eval applies e(nu tau), and the pairing needs no exponential because
        the series' e^{-2 pi k y/D} cancels the mode's e^{+2 pi k y/D}."""
        term = self.terms.get(num)
        if term is None:
            return mp.mpf(0)
        total = mp.mpc(_num(term.hol)) if term.hol else mp.mpc(0)
        for c, s in term.beta12:
            total += mp.mpc(_num(c)) * beta_k(mp.mpf(1) / 2, _frac(s) * mp.pi * y, ctx)
        for c, s in term.beta32:
            total += mp.mpc(_num(c)) * beta_k(mp.mpf(3) / 2, _frac(s) * mp.pi * y, ctx)
        for c, s in term.alph:
            total += mp.mpc(_num(c)) * alpha(_frac(s) * y, ctx)
        return total

    def specials_value(self, y, ctx: PrecisionContext = DEFAULT_CTX):
        total = mp.mpc(0)
        for kind, c in self.specials:
            c = _frac(c)
            if kind == "sqrt_y":
                total += c * mp.sqrt(y)
            elif kind == "inv_sqrt_y_over_pi":
                total += c / (mp.pi * mp.sqrt(y))
            elif kind == "gamma_log_16piy_over_pi":
                total += c * (mp.euler - mp.log(16 * mp.pi * y)) / mp.pi
            else:
                raise ValueError(f"unknown special term {kind}")
        return total

    def eval(self, tau, ctx: PrecisionContext = DEFAULT_CTX):
        """Pointwise value at tau = x + iy."""
        with mp.workdps(ctx.digits + 10):
            tau = mp.mpc(tau)
            y = tau.imag
            if y <= 0:
                raise ValueError("point must be in the upper half plane")
            total = self.specials_value(y, ctx)
            for num in sorted(self.terms):
                total += self.mode_value(num, y, ctx) * mp.expjpi(2 * num * tau / self.denom)
            return +total

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        def enc(v):
            if isinstance(v, Fraction):
                return str(v)
            if isinstance(v, (int, float)):
                return repr(v)
            return mp.nstr(mp.mpc(v), 25)

        data = {
            "denom": self.denom,
            "label": self.label,
            "terms": [
                {"exponent_num": num,
                 "hol": enc(t.hol),
                 "nonhol_beta": [[enc(c), str(_frac(s)), "1/2"] for c, s in t.beta12]
                               + [[enc(c), str(_frac(s)), "3/2"] for c, s in t.beta32],
                 "alpha_terms": [[enc(c), str(_frac(s))] for c, s in t.alph]}
                for num, t in sorted(self.terms.items())
            ],
            "special_terms": [[kind, str(_frac(c))] for kind, c in self.specials],
        }
        return json.dumps(data)


def _frac(s):
    return mp.mpf(s.numerator) / s.denominator if isinstance(s, Fraction) else mp.mpf(s)


def pair_on_horizontal(qs: QSeries, hx: HarmonicExpansion, y_eff,
                       ctx: PrecisionContext = DEFAULT_CTX):
    """int_0^1 (sum_k qs_k e(k x / D) e^{-2 pi k y/D}) * hx(x + i y) dx.

    Both factors must share the exponent denominator; only frequency-zero
    pairs survive, so this is sum_k qs_k e^{-2 pi (k/D) y} * (mode -k of hx)
    plus the constant-mode special terms.  Mode -k is its y-part times
    e^{+2 pi (k/D) y} on the line, so the decays cancel and the sum is
    sum_k qs_k mode_value(-k, y)."""
    if qs.denom != hx.denom:
        raise ValueError("exponent denominators must match for the pairing")
    with mp.workdps(ctx.digits + 10):
        y_eff = mp.mpf(y_eff)
        total = mp.mpc(0)
        for k, c in qs.support():
            if -k in hx.terms:
                total += mp.mpc(_num(c)) * hx.mode_value(-k, y_eff, ctx)
            if k == 0:
                total += mp.mpc(_num(c)) * hx.specials_value(y_eff, ctx)
        return +total


def _num(c):
    if isinstance(c, Fraction):
        return mp.mpf(c.numerator) / c.denominator
    return c
