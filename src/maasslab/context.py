"""Working-precision settings shared by the numerical layers."""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import mpmath
from mpmath import mp


def _default_digits() -> int:
    env = os.environ.get("MAASSLAB_DIGITS")
    if env:
        return max(20, int(env))
    return 60


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in decimal digits.  The Kloosterman cutoff is not
    part of it: each series takes its c_max as an argument."""

    digits: int = 60

    def __post_init__(self):
        if self.digits < 20:
            raise ValueError("need at least 20 working digits")

    @property
    def eps(self):
        return mpmath.mpf(10) ** (-self.digits)

    @contextmanager
    def workprec(self):
        """mpmath working precision raised to digits + 10 guard digits."""
        with mp.workdps(self.digits + 10):
            yield mp


DEFAULT_CTX = PrecisionContext(digits=_default_digits())
