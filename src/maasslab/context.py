"""Working-precision settings shared by the numerical layers."""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import mpmath
from mpmath import mp


def _default_digits() -> int:
    env = os.environ.get("MAASSLAB_DIGITS")
    if env:
        return max(20, int(env))
    return 60


@dataclass(frozen=True)
class PrecisionContext:
    """Bundle of precision knobs: decimal digits and Kloosterman-sum cutoff."""

    digits: int = 60
    c_max: int = 10_000             # modulus cutoff in Kloosterman series

    def __post_init__(self):
        if self.digits < 20:
            raise ValueError("need at least 20 working digits")

    def with_digits(self, digits: int) -> "PrecisionContext":
        return replace(self, digits=digits)

    @property
    def eps(self):
        return mpmath.mpf(10) ** (-self.digits)

    @contextmanager
    def workprec(self, extra: int = 10):
        """mpmath working precision raised to digits + extra guard digits."""
        with mp.workdps(self.digits + extra):
            yield mp


DEFAULT_CTX = PrecisionContext(digits=_default_digits())
