"""Function representation, s-convexity certification, instance generation.

A PowerSum is the exact workhorse: sum of c * x^p terms with term-wise
derivative and antiderivative, valid on (0, inf).  FuncHandle packages a
function together with its derivative and, when available, an exact
definite integral, which is what every inequality evaluator consumes.

check_hypothesis establishes a case's hypothesis before a bound is
asserted on it: proof first, grid as fallback.  prove_hypothesis proves the
s-convexity (or concavity) of f, |f'| or |f'|^q on (0, inf) from the
power-sum terms, comparing exponents exactly, and names the rule it used.
When no rule applies, the sampling certifier checks the inequality

    phi(t*x + (1-t)*y) <= t^s * phi(x) + (1-t)^s * phi(y)

on one fixed uniform (x, y, t) grid, 33 x 33 x 21 points, and reports the
first violation beyond a small floating-point allowance; that check is
evidence, not a proof.  The grid is a constant so that no caller can
coarsen it.

Everything here is pure and deterministic given (seed, config); handles can
be shared across threads without interior mutation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import DomainError, EvalError, ExponentError
from .means import OrderedInterval

CERT_TOL = 1e-10
# Certification grid: points on the x and y axes (one shared linspace) and on t.
_CERT_XY = 33
_CERT_T = 21


def as_s(s) -> float:
    """The convexity exponent s as a float, validated to lie in (0, 1]."""
    s = float(s)
    if not (math.isfinite(s) and 0.0 < s <= 1.0):
        raise DomainError(f"s must lie in (0, 1], got {s}")
    return s


@dataclass(frozen=True)
class PowerSum:
    """Finite sum of power terms c * x^p, exact on (0, inf)."""

    terms: tuple[tuple[float, float], ...]

    def __init__(self, terms):
        normalized = tuple((float(c), float(p)) for c, p in terms)
        for c, p in normalized:
            if not (math.isfinite(c) and math.isfinite(p)):
                raise DomainError(f"power-sum term ({c}, {p}) is not finite")
        object.__setattr__(self, "terms", normalized)

    def __call__(self, x):
        total = 0.0
        for c, p in self.terms:
            total = total + c * x ** p
        return total

    def derivative(self) -> "PowerSum":
        """Term-wise d/dx; terms that differentiate to zero are dropped."""
        return PowerSum([(c * p, p - 1.0) for c, p in self.terms if c * p != 0.0])

    def antiderivative(self) -> "PowerSum":
        for _, p in self.terms:
            if p == -1.0:
                raise ExponentError("term with exponent -1 has no power-function antiderivative")
        return PowerSum([(c / (p + 1.0), p + 1.0) for c, p in self.terms])

    def to_dsl(self) -> str:
        """Render in the CLI function grammar.

        Parsing the result gives back an equal sum for every non-empty sum
        (an exponent of -0.0 returns as 0.0).  The empty sum renders as
        "0.0", which parses to the one-term sum [(0.0, 0.0)].
        """
        if not self.terms:
            return "0.0"
        parts = []
        for c, p in self.terms:
            if p == 0.0:
                parts.append(repr(c))
            else:
                parts.append(f"{c!r}*x^{p!r}")
        return " + ".join(parts)


def powersum_integral(ps: PowerSum, iv: OrderedInterval) -> float:
    """Exact definite integral, term by term; c*x^-1 integrates to c*log(b/a)."""
    total = 0.0
    for c, p in ps.terms:
        if p == -1.0:
            total += c * math.log1p((iv.b - iv.a) / iv.a)
        else:
            total += c * (iv.b ** (p + 1.0) - iv.a ** (p + 1.0)) / (p + 1.0)
    return total


@dataclass(frozen=True)
class FuncHandle:
    """A function, its derivative, and an optional exact definite integral."""

    value: Callable[[float], float]
    derivative: Callable[[float], float]
    exact_integral: Optional[Callable[[OrderedInterval], float]] = None


def handle_from_power_sum(ps: PowerSum) -> FuncHandle:
    dps = ps.derivative()
    return FuncHandle(
        value=ps,
        derivative=dps,
        exact_integral=lambda iv: powersum_integral(ps, iv),
    )


@dataclass(frozen=True)
class CertResult:
    """Outcome of a grid certification run.

    When certified is False the counterexample (x, y, t, lhs, rhs) violates
    the checked inequality by more than the certifier tolerance.
    """

    certified: bool
    counterexample: Optional[tuple[float, float, float, float, float]]
    samples_checked: int


def _cmp_product(p: float, k: float, r: float) -> int:
    """Sign of p*k - r for finite p, r and finite k > 0, computed exactly
    from the floats' integer ratios (the float product p*k can round
    across r)."""
    pn, pd = p.as_integer_ratio()
    kn, kd = k.as_integer_ratio()
    rn, rd = r.as_integer_ratio()
    diff = pn * kn * rd - rn * pd * kd
    return (diff > 0) - (diff < 0)


def prove_hypothesis(ps: PowerSum, hypothesis: str, s, q, concave: bool) -> Optional[str]:
    """Name the rule that proves the hypothesis on (0, inf), or None.

    ps is the power sum the hypothesis function is built from: f for "f",
    f' for "|f'|" and "|f'|^q".  The claim is that the function is
    s-convex in the second sense, or concave when concave (s is then
    unused).  Every rule needs every coefficient c >= 0, so |ps| = ps.  A
    term's effective exponent e is p*q for "|f'|^q" and p otherwise, and
    is compared with 0, s and 1 exactly.  The rules:

    * "term": one term with e <= 0 or e >= s.  c*x^e is nonnegative and
      convex when e <= 0 or e >= 1, hence s-convex since t <= t^s on
      [0, 1]; when s <= e <= 1, (u+v)^e <= u^e + v^e and t^e <= t^s.
    * "sum" ("f", "|f'|"): no exponent lies in (0, s).  Each term is
      s-convex by "term", and nonnegative sums keep s-convexity.
    * "convex power" ("|f'|^q", q >= 1): every p <= 0 or p >= 1.  Then ps
      is nonnegative and convex, and u^q is convex and nondecreasing on
      [0, inf), so ps^q is nonnegative and convex.
    * "concave term" (concave): one term with 0 <= e <= 1, a concave power.
    """
    if any(c < 0.0 for c, _ in ps.terms):
        return None
    powered = hypothesis == "|f'|^q"
    if powered:
        if q is None or not (0.0 < q < math.inf):
            return None
        k = q
    elif hypothesis in ("f", "|f'|"):
        k = 1.0
    else:
        return None
    exponents = [p for _, p in ps.terms]
    single = len(exponents) == 1
    if concave:
        if single and _cmp_product(exponents[0], k, 0.0) >= 0 and _cmp_product(exponents[0], k, 1.0) <= 0:
            return "concave term"
        return None
    if not 0.0 < s <= 1.0:
        return None
    if single and (_cmp_product(exponents[0], k, 0.0) <= 0 or _cmp_product(exponents[0], k, s) >= 0):
        return "term"
    if not powered and all(p <= 0.0 or p >= s for p in exponents):
        return "sum"
    if powered and q >= 1.0 and all(p <= 0.0 or p >= 1.0 for p in exponents):
        return "convex power"
    return None


def certify_s_convex(phi: Callable[[float], float], s, lo: float, hi: float) -> CertResult:
    """Check s-convexity in the second sense on a uniform sample grid.

    phi must map an array to an array of the same shape, or to a scalar
    when it is constant.  Violations
    smaller than CERT_TOL * (1 + |rhs|) are ignored as floating-point slack.
    Raises EvalError if phi is non-finite anywhere on the grid.
    """
    return _certify(phi, as_s(s), lo, hi, concave=False)


def certify_concave(phi: Callable[[float], float], lo: float, hi: float) -> CertResult:
    """Check ordinary concavity on the same sample grid."""
    return _certify(phi, 1.0, lo, hi, concave=True)


def _certify(phi, s: float, lo: float, hi: float, concave: bool) -> CertResult:
    """Grid check of phi(mix) <= t^s phi(x) + (1-t)^s phi(y), or of its
    reverse when concave (then s = 1 and the right side is the chord).

    The witness is (x, y, t, phi(mix), right side).
    """
    if not 0.0 < lo < hi:
        raise DomainError(f"certification window requires 0 < lo < hi, got ({lo}, {hi})")
    import numpy as np  # only the grid needs numpy; proofs and the CLI do not

    xs = np.linspace(lo, hi, _CERT_XY)
    ts = np.linspace(0.0, 1.0, _CERT_T)

    # A constant phi may return a scalar: the empty power sum (the derivative
    # of a constant) returns 0.0 for any input.
    px = np.broadcast_to(np.asarray(phi(xs), dtype=float), xs.shape)
    mix = ts[None, None, :] * xs[:, None, None] + (1.0 - ts[None, None, :]) * xs[None, :, None]
    pmix = np.broadcast_to(np.asarray(phi(mix), dtype=float), mix.shape)
    if not (np.isfinite(px).all() and np.isfinite(pmix).all()):
        raise EvalError("function returned a non-finite value on the certification grid")

    rhs = ts[None, None, :] ** s * px[:, None, None] + (1.0 - ts[None, None, :]) ** s * px[None, :, None]
    excess = (rhs - pmix if concave else pmix - rhs) - CERT_TOL * (1.0 + np.abs(rhs))
    samples = excess.size
    if not (excess > 0.0).any():
        return CertResult(True, None, samples)
    i, j, k = np.unravel_index(int(np.argmax(excess)), excess.shape)
    witness = (float(xs[i]), float(xs[j]), float(ts[k]), float(pmix[i, j, k]), float(rhs[i, j, k]))
    return CertResult(False, witness, samples)


def check_hypothesis(f: FuncHandle, hypothesis: str, s, q, concave: bool, a: float, b: float) -> Optional[str]:
    """Establish that f, |f'| or |f'|^q (the hypothesis) is s-convex, or
    concave when concave, for f on [a, b]: proof first, grid as fallback.

    Returns the prove_hypothesis rule for the power sum the hypothesis is
    about (f.value for "f", else f.derivative) when one applies.  Otherwise
    the grid certifies phi, which is that sum, |sum| or |sum|^q, on [a, b]
    (on [1e-3 * b, b] when a = 0): "grid" when it passes, None when not.
    """
    ps = f.value if hypothesis == "f" else f.derivative
    rule = prove_hypothesis(ps, hypothesis, s, q, concave)
    if rule is not None:
        return rule
    if hypothesis == "f":
        phi = ps
    elif hypothesis == "|f'|":
        phi = lambda x: abs(ps(x))
    else:
        phi = lambda x: abs(ps(x)) ** q
    lo = a if a > 0.0 else 1e-3 * b
    cert = certify_concave(phi, lo, b) if concave else certify_s_convex(phi, s, lo, b)
    return "grid" if cert.certified else None


@dataclass(frozen=True)
class GenConfig:
    """Sampler settings for certified test instances."""

    lo_min: float = 0.25
    hi_max: float = 4.0
    max_terms: int = 3
    coeff_min: float = 0.05
    coeff_max: float = 2.0
    min_width: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.lo_min < self.hi_max:
            raise DomainError(f"generator bounds require 0 < lo_min < hi_max, got ({self.lo_min}, {self.hi_max})")
        if self.max_terms < 1:
            raise DomainError("generator needs max_terms >= 1")


def sample_interval(rng: random.Random, cfg: GenConfig) -> OrderedInterval:
    """Draw an ordered interval inside the configured bounds."""
    span = cfg.hi_max - cfg.lo_min
    while True:
        u = rng.uniform(cfg.lo_min, cfg.hi_max)
        v = rng.uniform(cfg.lo_min, cfg.hi_max)
        if abs(u - v) >= cfg.min_width * span:
            return OrderedInterval(min(u, v), max(u, v))


def sample_dconvex_instance(rng: random.Random, cfg: GenConfig) -> tuple[FuncHandle, OrderedInterval]:
    """Draw an instance from the base family, without certifying it.

    f' is a nonnegative combination of power terms with exponents in
    (-1, 0] or [1, 3], hence nonnegative and convex on (0, inf), so |f'|
    and |f'|^q for q >= 1 are s-convex for every s in (0, 1].  f is its
    closed-form antiderivative, which gives an exact integral.  Equal rng
    states give bitwise-identical instances.
    """
    n_terms = rng.randint(1, cfg.max_terms)
    terms = []
    for _ in range(n_terms):
        if rng.random() < 0.5:
            exponent = rng.uniform(-0.9, 0.0)
        else:
            exponent = rng.uniform(1.0, 3.0)
        terms.append((rng.uniform(cfg.coeff_min, cfg.coeff_max), exponent))
    dps = PowerSum(terms)
    f = dps.antiderivative()
    handle = FuncHandle(
        value=f,
        derivative=dps,
        exact_integral=lambda window: powersum_integral(f, window),
    )
    return handle, sample_interval(rng, cfg)
