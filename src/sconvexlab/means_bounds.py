"""Special-means forms of the propositions: mean-expressed defects and bounds.

The concrete functions behind these are x^s (power family) and
x^(1-s)/(1-s) (reciprocal-derivative family, |f'| = x^-s).  Their defects
collapse into combinations of A, G and the generalized logarithmic mean,
which is what prop_power_lhs and prop_recip_lhs evaluate; both are
cross-checked against the quadrature defect of the underlying function.

Right-hand sides are derived BY SUBSTITUTION of the endpoint derivative
magnitudes into the generic bounds (one source of truth), not transcribed
from each proposition's display.  That choice localizes a sign defect in
the printed reciprocal-family bound: its second term is the exact negative
of what substitution yields.  prop_se4_rhs_printed evaluates the printed
form for documentation; it is never asserted as a valid bound.

PROPOSITIONS defines each proposition in one place: its family, whether
its rows carry q, and the generic bound it substitutes into; FAMILY_DF
gives each family's endpoint derivative magnitudes.  prop_rhs and the
props suite both read the two tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .funcmodel import as_s
from .means import (
    OrderedInterval,
    arithmetic_mean,
    gen_log_mean_pow,
    geometric_mean,
    power_diff_quotient,
)
from .bounds import bound_se2, bound_se5, bound_se6, se2_weights


def _require_recip_s(s: float):
    if not 0.0 < s < 1.0:
        raise DomainError(f"reciprocal-family propositions require 0 < s < 1, got {s}")


def prop_power_lhs(iv: OrderedInterval, s) -> float:
    """Mean-expressed defect of x^s:

        | L_s^s + ((s-1) G^2 L_{s-2}^{s-2} - A^s) / 2 |

    The product (s-1) * L_{s-2}^{s-2} is evaluated as the single quotient
    (b^(s-1) - a^(s-1)) / (b - a), which is finite and equals 0 at s = 1,
    sidestepping the p = -1 singularity of L_{s-2} there.
    """
    sv = as_s(s)
    ls = gen_log_mean_pow(iv, sv)
    mixed = geometric_mean(iv) ** 2 * power_diff_quotient(iv, sv - 1.0)
    return abs(ls + 0.5 * (mixed - arithmetic_mean(iv) ** sv))


def prop_recip_lhs(iv: OrderedInterval, s: float) -> float:
    """Mean-expressed defect of x^(1-s)/(1-s):

        | L_{1-s}^{1-s}/(1-s) - (s G^2 L_{-1-s}^{-1-s} + A^(1-s)) / (2(1-s)) |

    The integral-mean term uses exponent 1-s; the proposition's display
    prints L_s^s there, which agrees only at s = 1/2 (see the package
    notes on the reciprocal-family display).
    """
    s = float(s)
    _require_recip_s(s)
    mean_term = gen_log_mean_pow(iv, 1.0 - s) / (1.0 - s)
    mixed = s * geometric_mean(iv) ** 2 * gen_log_mean_pow(iv, -1.0 - s)
    return abs(mean_term - (mixed + arithmetic_mean(iv) ** (1.0 - s)) / (2.0 * (1.0 - s)))


def _power_df(iv: OrderedInterval, s: float) -> tuple[float, float]:
    """|f'| endpoints for f = x^s: s * x^(s-1)."""
    return s * iv.a ** (s - 1.0), s * iv.b ** (s - 1.0)


def _recip_df(iv: OrderedInterval, s: float) -> tuple[float, float]:
    """|f'| endpoints for f = x^(1-s)/(1-s): x^-s.  Needs s < 1."""
    _require_recip_s(s)
    return iv.a ** -s, iv.b ** -s


# Each family's |f'| at the endpoints, (iv, s) -> (df_a, df_b).
FAMILY_DF = {"power": _power_df, "recip": _recip_df}


# Each proposition substitutes its family's |f'| endpoints into one generic
# bound: id -> (family, whether its row carries q, bound(df_a, df_b, iv, s, q)).
# The order is the props suite's row order within each family.  The bounds
# are called through their module-global names, so that replacing a module
# attribute (as tests and tracing do) takes effect.
PROPOSITIONS = {
    "se3": ("power", False, lambda da, db, iv, s, q: bound_se2(da, db, iv, s)),
    "se7": ("power", True, lambda da, db, iv, s, q: bound_se6(da, db, iv, s, q)),
    "se8": ("power", True, lambda da, db, iv, s, q: bound_se5(da, db, iv, s, q)),
    "se4": ("recip", False, lambda da, db, iv, s, q: bound_se2(da, db, iv, s)),
    "se9": ("recip", True, lambda da, db, iv, s, q: bound_se5(da, db, iv, s, q)),
    "se10": ("recip", True, lambda da, db, iv, s, q: bound_se6(da, db, iv, s, q)),
}


def prop_rhs(kind: str, iv: OrderedInterval, s, q: Optional[float] = None) -> float:
    """Substitution-derived right side for one of the six propositions.

    SE3/SE7/SE8 substitute the x^s derivative magnitudes into the
    endpoint, power-mean and Holder bounds respectively; SE4/SE10/SE9 do
    the same with x^-s.  SE8/SE9 need q > 1, SE7/SE10 accept q >= 1.
    """
    entry = PROPOSITIONS.get(kind.lower())
    if entry is None:
        raise DomainError(f"unknown proposition kind {kind.upper()!r}")
    family, _, bound = entry
    sv = as_s(s)
    df_a, df_b = FAMILY_DF[family](iv, sv)
    return bound(df_a, df_b, iv, sv, q)


@dataclass(frozen=True)
class Se4Discrepancy:
    """Comparison of the printed reciprocal-family bound with substitution.

    The first terms agree; the printed second term is the exact negative of
    the substitution form's, so the printed display is not a valid upper
    bound and is reported here instead of being asserted.
    """

    printed_rhs: float
    substitution_rhs: float
    printed_second_term: float
    substitution_second_term: float

    @property
    def is_exact_negation(self) -> bool:
        return self.printed_second_term == -self.substitution_second_term


def prop_se4_rhs_printed(iv: OrderedInterval, s: float) -> float:
    """The reciprocal-family bound exactly as displayed (documentation only)."""
    return se4_discrepancy(iv, s).printed_rhs


def se4_discrepancy(iv: OrderedInterval, s: float) -> Se4Discrepancy:
    s = float(s)
    _require_recip_s(s)
    a, b = iv.a, iv.b
    denom = (s + 1.0) * (s + 2.0)
    scale = 2.0 ** (s + 2.0)
    pow1, pow2 = se2_weights(s)

    first = (a * pow1 + b * pow2) / (scale * b ** s * denom)
    printed_second = (a * (s - 2.0 ** (s + 2.0) + 2.0) - b * pow1) / (scale * a ** s * denom)
    substitution_second = (b * pow1 + a * pow2) / (scale * a ** s * denom)
    return Se4Discrepancy(
        printed_rhs=first + printed_second,
        substitution_rhs=first + substitution_second,
        printed_second_term=printed_second,
        substitution_second_term=substitution_second,
    )
