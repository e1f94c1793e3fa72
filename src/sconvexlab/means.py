"""Arithmetic, geometric and generalized logarithmic means on ordered intervals.

All functions here are pure and stateless; they may be called concurrently
from any number of threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError

# The positive normal floats: no overflow, no digits lost to underflow.
_NORMAL_MIN = sys.float_info.min
_NORMAL_MAX = sys.float_info.max


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


def arithmetic_mean(iv: OrderedInterval) -> float:
    """(a + b) / 2, summed as a/2 + b/2 so that a + b cannot overflow."""
    return 0.5 * iv.a + 0.5 * iv.b


def geometric_mean(iv: OrderedInterval) -> float:
    """sqrt(a * b), or sqrt(a) * sqrt(b) when a * b is not a normal float:
    an overflow to inf, or an underflow that has lost digits or all of them."""
    ab = iv.a * iv.b
    if _NORMAL_MIN <= ab <= _NORMAL_MAX:
        return math.sqrt(ab)
    return math.sqrt(iv.a) * math.sqrt(iv.b)


def gen_log_mean_pow(iv: OrderedInterval, p: float) -> float:
    """The p-th power of the generalized logarithmic mean.

    Computed directly as (b^(p+1) - a^(p+1)) / ((p+1)(b-a)) when both
    powers are normal floats.  When one underflows or overflows it is
    factored as b^p (1 - r^(p+1)) / ((p+1)(1 - r)) with r = a/b, and an
    OverflowError is raised if that is not finite either.  Every formula
    downstream consumes this ratio rather than the mean itself, so exposing
    it avoids a lossy ^(1/p) -> ^p round trip.  p must be finite and
    neither 0 nor -1.
    """
    if not math.isfinite(p) or p == -1.0 or p == 0.0:
        raise DomainError(f"generalized logarithmic mean undefined for p={p}")
    a, b = iv.a, iv.b
    try:
        a_pow, b_pow = a ** (p + 1.0), b ** (p + 1.0)
    except OverflowError:
        a_pow = b_pow = math.inf
    if _NORMAL_MIN <= a_pow <= _NORMAL_MAX and _NORMAL_MIN <= b_pow <= _NORMAL_MAX:
        return (b_pow - a_pow) / ((p + 1.0) * (b - a))
    r = a / b
    value = b ** p * ((1.0 - r ** (p + 1.0)) / ((p + 1.0) * (1.0 - r)))
    if not math.isfinite(value):
        raise OverflowError(f"L_p^p out of range for p={p} on [{a}, {b}]")
    return value


def gen_log_mean(iv: OrderedInterval, p: float) -> float:
    """The generalized logarithmic mean L_p; lies strictly between a and b.

    Raises DomainError when L_p^p rounds to 0 and p < 0 (a one-ulp
    interval can do this), since 0 has no negative power.
    """
    value = gen_log_mean_pow(iv, p)
    if value == 0.0 and p < 0.0:
        raise DomainError(f"L_p^p rounds to 0 on [{iv.a}, {iv.b}] for p={p}, so L_p = 0^(1/p) is undefined")
    return value ** (1.0 / p)


def power_diff_quotient(iv: OrderedInterval, r: float) -> float:
    """(b^r - a^r) / (b - a).

    Equals (r-1) * L_{r-2}^{r-2}(a, b) wherever the latter is defined, but
    stays finite at r = 0 (value 0), which the s -> 1 limits below need.
    """
    return (iv.b ** r - iv.a ** r) / (iv.b - iv.a)
