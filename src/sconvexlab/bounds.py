"""Evaluators for the defect quantity and every inequality bound.

The central left-hand side is the Bullen-type defect

    | (1/(b-a)) int_a^b f - 1/2 * ( (b f(a) - a f(b))/(b-a) + f((a+b)/2) ) |

Note the mixed endpoint term b f(a) - a f(b): unlike the trapezoid defect,
this quantity does NOT vanish for affine f.  The theorems bound the absolute
value; the signed value is kept available because the integral identity that
generates all of them is an identity on signed quantities.

Three families of right-hand sides live here:

* bound_se2 / bound_se5 / bound_se6 - the s-convex bounds, for derivatives
  whose magnitude (or its q-th power) is s-convex in the second sense;
* bound_s1 / bound_s2 / bound_s3 - the s = 1 convex-case bounds, implemented
  literally from their own printed coefficients so the s -> 1 reductions are
  genuine two-sided checks rather than the same code path twice;
* the classical trapezoid bounds (DA, PP, PPC, ADK) and the
  Hermite-Hadamard / Bullen chains - cross-checks and reduction oracles.

THEOREMS is the registry: one entry per bound theorem, naming its
hypothesis and evaluating its two sides; the harness draws each theorem's
instances from the family that meets its hypothesis.
evaluate_bound, the bound suites and the command line all read it.  Each
formula is defined once: one that a single theorem uses lives in that
theorem's entry (its sides function), and one that several theorems or
suites share is a named function here.

Proving the hypothesis is the caller's duty throughout; see the harness.
All evaluators are pure.

Only a handle with no exact integral (mean_value) and the identity's
t-integrals (lemma_identity_rhs) integrate numerically, and every power sum
has an exact integral, so quadrature is imported on the first numerical
integral: integrate below is a stand-in that binds quadrature.integrate in
its own place when first called.  means, defect, bound, sweep and the bound
and reduction suites never compile quadrature.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .errors import DomainError, EvalError, MissingParam
from .funcmodel import FuncHandle, as_s
from .means import OrderedInterval, arithmetic_mean, gen_log_mean

DEFAULT_BOUND_TOL = 1e-9


def check_q(q, bound: str, strict: bool) -> float:
    """q as a float: finite and > 1 for the Holder bounds (strict), >= 1 for
    the others.  Raises MissingParam for None and DomainError otherwise."""
    rule = "q > 1" if strict else "q >= 1"
    if q is None:
        raise MissingParam(f"{bound} requires {rule}")
    q = float(q)
    if not (math.isfinite(q) and (q > 1.0 if strict else q >= 1.0)):
        raise DomainError(f"{bound} requires a finite {rule}, got {q}")
    return q


class BoundReport(NamedTuple):
    """One evaluated inequality: sides, margin, and the verdict."""

    theorem_id: str
    a: float
    b: float
    s: Optional[float]
    q: Optional[float]
    lhs: float
    rhs: float
    margin: float
    holds: bool


def verdict(lhs: float, rhs: float, tol: float) -> str:
    """Classify lhs <= rhs as "ok", "warning" or "violation".

    With margin = rhs - lhs and allowance = max(tol, tol * |rhs|), a case
    holds when margin >= -allowance.  Margins in [-allowance, 0) are
    floating-point noise and count as warnings; lower ones are violations.
    """
    margin = rhs - lhs
    if margin >= 0.0:
        return "ok"
    if margin >= -max(tol, tol * abs(rhs)):
        return "warning"
    return "violation"


def integrate(f: Callable[[float], float], lo: float, hi: float):
    """quadrature.integrate, imported and bound in this one's place on the
    first call.  That call replaces a wrapper put here before it, so wrap
    this name after the first numerical integral."""
    global integrate
    from .quadrature import integrate

    return integrate(f, lo, hi)


def mean_value(f: FuncHandle, lo: float, hi: float) -> float:
    """Integral mean of f over [lo, hi]; exact route when available."""
    if f.exact_integral is not None:
        return f.exact_integral(lo, hi) / (hi - lo)
    return integrate(f.value, lo, hi).value / (hi - lo)


def bullen_defect_signed(f: FuncHandle, iv: OrderedInterval) -> float:
    a, b = iv.a, iv.b
    mixed = (b * f.value(a) - a * f.value(b)) / (b - a)
    return mean_value(f, a, b) - 0.5 * (mixed + f.value(arithmetic_mean(iv)))


def bullen_type_defect(f: FuncHandle, iv: OrderedInterval) -> float:
    """Absolute Bullen-type defect, the quantity all se-bounds dominate."""
    return abs(bullen_defect_signed(f, iv))


def lemma_identity_rhs(f: FuncHandle, iv: OrderedInterval) -> float:
    """The two weighted t-integrals of f' whose sum equals the signed defect.

        1/4 int_0^1 (t b + (1-t) a) f'((1-t)/2 b + (1+t)/2 a) dt
      + 1/4 int_0^1 (t a + (1-t) b) f'((1-t)/2 a + (1+t)/2 b) dt
    """
    a, b = iv.a, iv.b
    df = f.derivative

    def first(t: float) -> float:
        return (t * b + (1.0 - t) * a) * df(0.5 * (1.0 - t) * b + 0.5 * (1.0 + t) * a)

    def second(t: float) -> float:
        return (t * a + (1.0 - t) * b) * df(0.5 * (1.0 - t) * a + 0.5 * (1.0 + t) * b)

    return 0.25 * integrate(first, 0.0, 1.0).value + 0.25 * integrate(second, 0.0, 1.0).value


def se2_weights(s: float) -> tuple[float, float]:
    """The endpoint bound's two weights before scaling by 2^(s+2)(s+1)(s+2)."""
    return s * 2.0 ** (s + 1.0) + s + 2.0, 2.0 ** (s + 2.0) - s - 2.0


def _se2_coeffs(a: float, b: float, s: float) -> tuple[float, float]:
    pow1, pow2 = se2_weights(s)
    denom = 2.0 ** (s + 2.0) * (s + 1.0) * (s + 2.0)
    return (b * pow1 + a * pow2) / denom, (a * pow1 + b * pow2) / denom


def bound_se2(df_a: float, df_b: float, iv: OrderedInterval, s) -> float:
    """Endpoint-weighted bound for s-convex |f'|: C1*|f'(a)| + C2*|f'(b)|."""
    sv = as_s(s)
    c1, c2 = _se2_coeffs(iv.a, iv.b, sv)
    return c1 * df_a + c2 * df_b


def bound_se5(df_a: float, df_b: float, iv: OrderedInterval, s, q) -> float:
    """Holder-split bound for s-convex |f'|^q, q > 1, scaled by L_p(a, b)
    with p = q / (q - 1) the conjugate exponent."""
    q = check_q(q, "Holder exponent", strict=True)
    sv = as_s(s)
    w = 2.0 ** (sv + 1.0) - 1.0
    prefactor = gen_log_mean(iv, q / (q - 1.0)) / (4.0 * (2.0 ** sv * (sv + 1.0)) ** (1.0 / q))
    bracket = (df_b ** q + w * df_a ** q) ** (1.0 / q) + (df_a ** q + w * df_b ** q) ** (1.0 / q)
    return prefactor * bracket


def bound_se6(df_a: float, df_b: float, iv: OrderedInterval, s, q: float) -> float:
    """Power-mean bound for s-convex |f'|^q, scaled by A^(1-1/q)(a, b).

    The theorem is stated for q > 1; q = 1 is accepted because the bound
    then collapses algebraically to bound_se2.
    """
    q = check_q(q, "power-mean bound", strict=False)
    sv = as_s(s)
    a, b = iv.a, iv.b
    w1 = sv * 2.0 ** (sv + 1.0) + 1.0
    w2 = 2.0 ** (sv + 2.0) - sv - 3.0
    prefactor = arithmetic_mean(iv) ** (1.0 - 1.0 / q) / (
        2.0 ** (2.0 * q + sv) * (sv + 1.0) * (sv + 2.0)
    ) ** (1.0 / q)
    br1 = (a * sv + a + b) * df_b ** q + (b * w1 + a * w2) * df_a ** q
    br2 = (b * sv + b + a) * df_a ** q + (a * w1 + b * w2) * df_b ** q
    return prefactor * (br1 ** (1.0 / q) + br2 ** (1.0 / q))


def bound_s1(df_a: float, df_b: float, iv: OrderedInterval) -> float:
    """Convex-case endpoint bound for convex |f'|, from its printed coefficients."""
    a, b = iv.a, iv.b
    return (5.0 * a + 7.0 * b) / 48.0 * df_a + (7.0 * a + 5.0 * b) / 48.0 * df_b


def bound_s2(df_a: float, df_b: float, iv: OrderedInterval, q) -> float:
    """Convex-case Holder bound for convex |f'|^q, q > 1, scaled by L_p(a, b)."""
    q = check_q(q, "Holder exponent", strict=True)
    bracket = (df_b ** q + 3.0 * df_a ** q) ** (1.0 / q) + (df_a ** q + 3.0 * df_b ** q) ** (1.0 / q)
    return gen_log_mean(iv, q / (q - 1.0)) / 4.0 ** (1.0 + 1.0 / q) * bracket


def bound_s3(df_a: float, df_b: float, iv: OrderedInterval, q) -> float:
    """Convex-case power-mean bound for convex |f'|^q, q >= 1, scaled by A^(1-1/q)."""
    q = check_q(q, "S3 bound", strict=False)
    a, b = iv.a, iv.b
    br1 = df_b ** q * (2.0 * a + b) + df_a ** q * (4.0 * a + 5.0 * b)
    br2 = df_a ** q * (a + 2.0 * b) + df_b ** q * (5.0 * a + 4.0 * b)
    pref = arithmetic_mean(iv) ** (1.0 - 1.0 / q) / (4.0 * 12.0 ** (1.0 / q))
    return pref * (br1 ** (1.0 / q) + br2 ** (1.0 / q))


def hadamard_s_triple(f: FuncHandle, u: float, v: float, s) -> tuple[float, float, float]:
    """The s-convex double inequality chain on [u, v], u = 0 allowed.

    Returns (2^(s-1) f((u+v)/2), integral mean, (f(u)+f(v))/(s+1)).  The
    endpoint-average constant 1/(s+1) admits an equality instance, e.g.
    f = sqrt on (0, 1) with s = 1/2.  At s = 1 this is the Hermite-Hadamard
    chain (midpoint value, integral mean, endpoint average) of convex f.
    """
    sv = as_s(s)
    if not (0.0 <= u < v):
        raise DomainError(f"s-convex chain requires 0 <= u < v, got ({u}, {v})")
    try:
        f_u = f.value(u)
    except (ZeroDivisionError, ValueError):
        f_u = math.nan
    if not math.isfinite(f_u):
        raise DomainError(f"s-convex chain needs f finite at u = {u}; the function is unbounded or undefined there")
    left = 2.0 ** (sv - 1.0) * f.value(0.5 * (u + v))
    return left, mean_value(f, u, v), (f_u + f.value(v)) / (sv + 1.0)


def trapezoid_defect(f: FuncHandle, iv: OrderedInterval) -> float:
    """| endpoint average - integral mean |, the classical trapezoid error."""
    return abs(0.5 * (f.value(iv.a) + f.value(iv.b)) - mean_value(f, iv.a, iv.b))


def chain_leg(left: float, mid: float, right: float) -> tuple[float, float]:
    """The tighter leg of a chain left <= mid <= right, as (lhs, rhs)."""
    return (left, mid) if mid - left <= right - mid else (mid, right)


def _endpoint_sides(bound):
    """Sides of a Bullen-defect theorem whose bound takes |f'(a)| and |f'(b)|."""

    def sides(f, a, b, s, q):
        iv = OrderedInterval(a, b)
        return bullen_type_defect(f, iv), bound(abs(f.derivative(a)), abs(f.derivative(b)), iv, s, q)

    return sides


def _da_sides(f, a, b, s, q):
    """DA: (b-a)/8 * (|f'(a)| + |f'(b)|) for convex |f'|."""
    lhs = trapezoid_defect(f, OrderedInterval(a, b))
    df = f.derivative
    return lhs, (b - a) / 8.0 * (abs(df(a)) + abs(df(b)))


def _pp_sides(f, a, b, s, q):
    """PP: (b-a)/4 * ((|f'(a)|^q + |f'(b)|^q)/2)^(1/q) for convex |f'|^q, q >= 1."""
    lhs = trapezoid_defect(f, OrderedInterval(a, b))
    q = check_q(q, "PP bound", strict=False)
    df = f.derivative
    return lhs, (b - a) / 4.0 * (0.5 * (abs(df(a)) ** q + abs(df(b)) ** q)) ** (1.0 / q)


def _ppc_sides(f, a, b, s, q):
    """PPC: (b-a)/4 * |f'((a+b)/2)| for concave |f'|^q.  The bound does not
    read q, but the hypothesis needs q >= 1."""
    check_q(q, "PPC bound", strict=False)
    lhs = trapezoid_defect(f, OrderedInterval(a, b))
    return lhs, (b - a) / 4.0 * abs(f.derivative(0.5 * (a + b)))


def _adk_sides(f, a, b, s, q):
    """ADK: (b-a)/4 * ((q-1)/(2q-1))^(1-1/q) * (|f'((3a+b)/4)| + |f'((a+3b)/4)|)
    for concave |f'|^q, q >= 1."""
    lhs = trapezoid_defect(f, OrderedInterval(a, b))
    q = check_q(q, "ADK bound", strict=False)
    df = f.derivative
    weight = ((q - 1.0) / (2.0 * q - 1.0)) ** (1.0 - 1.0 / q)
    return lhs, (b - a) / 4.0 * weight * (abs(df((3.0 * a + b) / 4.0)) + abs(df((a + 3.0 * b) / 4.0)))


def _bullen_sides(f, a, b, s, q):
    """Bullen: the integral mean is at most (f(midpoint) + endpoint average)/2 for convex f."""
    lhs = mean_value(f, a, b)
    return lhs, 0.5 * (f.value(0.5 * (a + b)) + 0.5 * (f.value(a) + f.value(b)))


class Theorem(NamedTuple):
    """One bound theorem: its hypothesis and two sides.

    The theorem assumes its hypothesis function ("f", "|f'|" or "|f'|^q")
    s-convex, or concave when concave; s = 1 unless takes_s.  Reports carry
    s when takes_s and q when uses_q.  sides(f, a, b, s, q) gives (lhs,
    rhs); for a chain theorem, its tighter leg.
    """

    id: str
    takes_s: bool
    hypothesis: str
    concave: bool
    sides: Callable[..., tuple[float, float]]

    @property
    def uses_q(self) -> bool:
        return self.hypothesis == "|f'|^q"


# The sides call the evaluators through their module-global names, so that
# replacing a module attribute (as tests and tracing do) takes effect.
THEOREMS = {th.id: th for th in (
    Theorem("se2", True, "|f'|", False,
            _endpoint_sides(lambda da, db, iv, s, q: bound_se2(da, db, iv, s))),
    Theorem("se5", True, "|f'|^q", False,
            _endpoint_sides(lambda da, db, iv, s, q: bound_se5(da, db, iv, s, q))),
    Theorem("se6", True, "|f'|^q", False,
            _endpoint_sides(lambda da, db, iv, s, q: bound_se6(da, db, iv, s, q))),
    Theorem("s1", False, "|f'|", False,
            _endpoint_sides(lambda da, db, iv, s, q: bound_s1(da, db, iv))),
    Theorem("s2", False, "|f'|^q", False,
            _endpoint_sides(lambda da, db, iv, s, q: bound_s2(da, db, iv, q))),
    Theorem("s3", False, "|f'|^q", False,
            _endpoint_sides(lambda da, db, iv, s, q: bound_s3(da, db, iv, q))),
    Theorem("da", False, "|f'|", False, _da_sides),
    Theorem("pp", False, "|f'|^q", False, _pp_sides),
    Theorem("ppc", False, "|f'|^q", True, _ppc_sides),
    Theorem("adk", False, "|f'|^q", True, _adk_sides),
    Theorem("hh", False, "f", False,
            lambda f, a, b, s, q: chain_leg(*hadamard_s_triple(f, a, b, 1.0))),
    Theorem("hhs", True, "f", False,
            lambda f, a, b, s, q: chain_leg(*hadamard_s_triple(f, a, b, s))),
    Theorem("bullen", False, "f", False, _bullen_sides),
)}


def evaluate_bound(
    theorem: str,
    f: FuncHandle,
    iv: OrderedInterval,
    s: Optional[float] = None,
    q: Optional[float] = None,
) -> BoundReport:
    """Evaluate one named inequality on explicit inputs (the hypothesis is not checked).

    Defect-style theorems report lhs = defect, rhs = bound.  Chain theorems
    (hh, hhs, bullen) report the tighter leg of the chain as (lhs, rhs).
    A side that is not finite raises EvalError.
    """
    th = THEOREMS.get(theorem.lower())
    if th is None:
        raise DomainError(f"unknown theorem id {theorem!r}")
    if th.takes_s and s is None:
        raise MissingParam(f"{th.id} requires s")
    lhs, rhs = th.sides(f, iv.a, iv.b, s, q)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        # c * x**p overflows to inf without raising OverflowError.
        raise EvalError(f"{th.id}: a side is not finite (lhs {lhs!r}, rhs {rhs!r})")
    s_row = as_s(s) if th.takes_s else None
    q_row = q if th.uses_q else None
    holds = verdict(lhs, rhs, DEFAULT_BOUND_TOL) != "violation"
    return BoundReport(th.id, iv.a, iv.b, s_row, q_row, lhs, rhs, rhs - lhs, holds)
