"""Arithmetic, geometric and generalized logarithmic means on ordered intervals.

All functions here are pure and stateless; they may be called concurrently
from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class OrderedInterval:
    """A pair 0 < a < b, the integration interval of every evaluator."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"interval endpoints must be finite, got ({self.a}, {self.b})")
        if not 0.0 < self.a < self.b:
            raise DomainError(f"interval requires 0 < a < b, got ({self.a}, {self.b})")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


def arithmetic_mean(iv: OrderedInterval) -> float:
    """(a + b) / 2."""
    return 0.5 * (iv.a + iv.b)


def geometric_mean(iv: OrderedInterval) -> float:
    """sqrt(a * b)."""
    return math.sqrt(iv.a * iv.b)


def gen_log_mean_pow(iv: OrderedInterval, p: float) -> float:
    """The p-th power of the generalized logarithmic mean.

    Computed directly as (b^(p+1) - a^(p+1)) / ((p+1)(b-a)).  Every formula
    downstream consumes this ratio rather than the mean itself, so exposing
    it avoids a lossy ^(1/p) -> ^p round trip.  p must be finite and
    neither 0 nor -1.
    """
    if not math.isfinite(p) or p == -1.0 or p == 0.0:
        raise DomainError(f"generalized logarithmic mean undefined for p={p}")
    a, b = iv.a, iv.b
    return (b ** (p + 1.0) - a ** (p + 1.0)) / ((p + 1.0) * (b - a))


def gen_log_mean(iv: OrderedInterval, p: float) -> float:
    """The generalized logarithmic mean L_p; lies strictly between a and b."""
    return gen_log_mean_pow(iv, p) ** (1.0 / p)


def power_diff_quotient(iv: OrderedInterval, r: float) -> float:
    """(b^r - a^r) / (b - a).

    Equals (r-1) * L_{r-2}^{r-2}(a, b) wherever the latter is defined, but
    stays finite at r = 0 (value 0), which the s -> 1 limits below need.
    """
    return (iv.b ** r - iv.a ** r) / (iv.b - iv.a)
