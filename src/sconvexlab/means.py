"""Arithmetic, geometric and generalized logarithmic means on ordered intervals.

OrderedInterval is a named tuple (a, b) whose __new__ checks 0 < a < b;
_make and _replace skip that check, so nothing calls them.  All functions
here are pure and stateless; they may be called concurrently from any
number of threads.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import DomainError

# The positive normal floats: no overflow, no digits lost to underflow.
_NORMAL_MIN = sys.float_info.min
_NORMAL_MAX = sys.float_info.max


class OrderedInterval(namedtuple("OrderedInterval", "a b")):
    """A pair 0 < a < b, the integration interval of every evaluator."""

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"interval endpoints must be finite, got ({a}, {b})")
        if not 0.0 < a < b:
            raise DomainError(f"interval requires 0 < a < b, got ({a}, {b})")
        return tuple.__new__(cls, (a, b))


def arithmetic_mean(iv: OrderedInterval) -> float:
    """(a + b) / 2, rounded once even when subnormal; a/2 + b/2 when a + b overflows."""
    total = iv.a + iv.b
    if total <= _NORMAL_MAX:
        return total / 2.0
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

    Two routes.  The direct quotient (b^(p+1) - a^(p+1)) / ((p+1)(b-a)) in
    floats, when both powers and the denominator are normal floats.  Every
    other input (a power that underflows or overflows, which for p + 1 < 0
    is a^(p+1) alone, or a denominator below the normal range: subnormal
    endpoints, or a tiny p + 1 times a tiny b - a) takes the same quotient
    in decimal arithmetic, whose exponent range holds both powers and every
    subnormal.  An OverflowError is raised whenever the value is not a
    finite float.  Every formula downstream consumes this ratio rather than
    the mean itself, so exposing it avoids a lossy ^(1/p) -> ^p round trip.
    p must be finite and neither 0 nor -1.
    """
    if not math.isfinite(p) or p == -1.0 or p == 0.0:
        raise DomainError(f"generalized logarithmic mean undefined for p={p}")
    a, b = iv.a, iv.b
    try:
        a_pow, b_pow = a ** (p + 1.0), b ** (p + 1.0)
    except OverflowError:
        a_pow = b_pow = math.inf
    den = (p + 1.0) * (b - a)
    if _NORMAL_MIN <= a_pow <= _NORMAL_MAX and _NORMAL_MIN <= b_pow <= _NORMAL_MAX and _NORMAL_MIN <= abs(den):
        value = (b_pow - a_pow) / den
    else:
        from decimal import Context, Decimal, localcontext  # only this branch needs decimal

        # A decimal overflow gives Infinity.  k = p + 1 is added at 60
        # digits, not rounded to a float.  Unary + rounds each endpoint to
        # 60 digits, which makes ** many times faster than on the up to 767
        # digits of a float's exact value.  |p + 1| and log(b/a) are each at
        # least about 1e-16, so db^k - da^k cancels at most 32 digits and
        # leaves 28.
        with localcontext(Context(prec=60, traps=[])):
            k, da, db = Decimal(p) + 1, +Decimal(a), +Decimal(b)
            value = float((db ** k - da ** k) / (k * (db - da)))
    if not math.isfinite(value):
        raise OverflowError(f"L_p^p out of range for p={p} on [{a}, {b}]")
    return value


def gen_log_mean(iv: OrderedInterval, p: float) -> float:
    """The generalized logarithmic mean L_p; lies strictly between a and b.

    Known exceptions (ROADMAP item 3), where the float value reaches an
    endpoint or passes it: a tiny |p| (a = 1, b = 3, p = 1e-300 gives 1),
    and the float root ^(1/p) or the direct quotient on an interval with
    b/a - 1 near or below sqrt(eps) (a = 1, b = 1.0000000001, p = 1 gives
    1).  Raises DomainError when L_p^p rounds to 0 and p < 0 (a one-ulp
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
