"""Function representation, s-convexity certification, instance generation.

A PowerSum is the exact workhorse: sum of c * x^p terms with term-wise
derivative and antiderivative, valid on (0, inf).  FuncHandle packages a
function together with its derivative and, when available, an exact
definite integral, which is what every inequality evaluator consumes.

The certifier is sampling-based, not a proof: it checks the s-convexity
inequality

    phi(t*x + (1-t)*y) <= t^s * phi(x) + (1-t)^s * phi(y)

on a uniform (x, y, t) grid and reports the first violation beyond a small
floating-point allowance.  Instances released by the generator are always
certified first.

Everything here is pure and deterministic given (seed, config); handles can
be shared across threads without interior mutation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, EvalError, ExponentError, GenerationError
from .means import OrderedInterval

CERT_TOL = 1e-10
DEFAULT_GRID = (33, 33, 21)


@dataclass(frozen=True)
class SParam:
    """The convexity exponent s, restricted to (0, 1]."""

    s: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and 0.0 < self.s <= 1.0):
            raise DomainError(f"s must lie in (0, 1], got {self.s}")


def as_s(s) -> float:
    """Accept an SParam or a bare number; return the validated float."""
    if isinstance(s, SParam):
        return s.s
    return SParam(float(s)).s


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
        """Render in the CLI function grammar; parse(to_dsl()) round-trips."""
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
    """Exact definite integral over the interval via term-wise antiderivative."""
    total = 0.0
    for c, p in ps.terms:
        if p == -1.0:
            raise ExponentError("term with exponent -1 has no power-function antiderivative")
        total += c * (iv.b ** (p + 1.0) - iv.a ** (p + 1.0)) / (p + 1.0)
    return total


@dataclass(frozen=True)
class FuncHandle:
    """A function, its derivative, and an optional exact definite integral."""

    value: Callable[[float], float]
    derivative: Callable[[float], float]
    exact_integral: Optional[Callable[[OrderedInterval], float]] = None
    descriptor: str = ""


def handle_from_power_sum(ps: PowerSum) -> FuncHandle:
    dps = ps.derivative()
    return FuncHandle(
        value=ps,
        derivative=dps,
        exact_integral=lambda iv: powersum_integral(ps, iv),
        descriptor=ps.to_dsl(),
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


def _grid_values(phi, points: np.ndarray) -> np.ndarray:
    """Evaluate phi on an array, falling back to a scalar loop."""
    try:
        out = np.asarray(phi(points), dtype=float)
        if out.shape == points.shape:
            return out
    except Exception:
        pass
    return np.array([phi(float(v)) for v in points.ravel()], dtype=float).reshape(points.shape)


def certify_s_convex(
    phi: Callable[[float], float],
    s,
    lo: float,
    hi: float,
    grid: tuple[int, int, int] = DEFAULT_GRID,
) -> CertResult:
    """Check s-convexity in the second sense on a uniform sample grid.

    Violations smaller than CERT_TOL * (1 + |rhs|) are ignored as
    floating-point slack.  Raises EvalError if phi is non-finite anywhere
    on the grid.
    """
    return _certify(phi, as_s(s), lo, hi, grid, concave=False)


def certify_concave(
    phi: Callable[[float], float],
    lo: float,
    hi: float,
    grid: tuple[int, int, int] = DEFAULT_GRID,
) -> CertResult:
    """Check ordinary concavity on the same kind of sample grid."""
    return _certify(phi, 1.0, lo, hi, grid, concave=True)


def _certify(phi, s: float, lo: float, hi: float, grid, concave: bool) -> CertResult:
    """Grid check of phi(mix) <= t^s phi(x) + (1-t)^s phi(y), or of its
    reverse when concave (then s = 1 and the right side is the chord).

    The witness is (x, y, t, phi(mix), right side).
    """
    if not 0.0 < lo < hi:
        raise DomainError(f"certification window requires 0 < lo < hi, got ({lo}, {hi})")
    if len(grid) != 3 or any(int(n) < 8 for n in grid):
        raise DomainError(f"certification grid needs >= 8 points per axis, got {grid}")
    nx, ny, nt = (int(n) for n in grid)
    xs = np.linspace(lo, hi, nx)
    ys = xs if ny == nx else np.linspace(lo, hi, ny)
    ts = np.linspace(0.0, 1.0, nt)

    px = _grid_values(phi, xs)
    py = px if ys is xs else _grid_values(phi, ys)
    mix = ts[None, None, :] * xs[:, None, None] + (1.0 - ts[None, None, :]) * ys[None, :, None]
    pmix = _grid_values(phi, mix)
    if not (np.isfinite(px).all() and np.isfinite(py).all() and np.isfinite(pmix).all()):
        raise EvalError("function returned a non-finite value on the certification grid")

    rhs = ts[None, None, :] ** s * px[:, None, None] + (1.0 - ts[None, None, :]) ** s * py[None, :, None]
    # A full-grid array (183 KB at the default grid) sits near the C
    # allocator's trim threshold, where each extra one can cost fresh page
    # faults, so the slack is built in place and the excess reuses mix.
    slack = np.abs(rhs)
    slack += 1.0
    slack *= CERT_TOL
    excess = np.subtract(pmix, rhs, out=mix)
    if concave:
        np.negative(excess, out=excess)
    excess -= slack
    samples = nx * ny * nt
    if not (excess > 0.0).any():
        return CertResult(True, None, samples)
    i, j, k = np.unravel_index(int(np.argmax(excess)), excess.shape)
    witness = (float(xs[i]), float(ys[j]), float(ts[k]), float(pmix[i, j, k]), float(rhs[i, j, k]))
    return CertResult(False, witness, samples)


@dataclass(frozen=True)
class GenConfig:
    """Sampler settings for certified test instances."""

    lo_min: float = 0.25
    hi_max: float = 4.0
    max_terms: int = 3
    coeff_min: float = 0.05
    coeff_max: float = 2.0
    min_width: float = 0.05
    grid: tuple[int, int, int] = DEFAULT_GRID

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
    (-1, 0] or [1, 3], hence nonnegative and convex on (0, inf), and f is
    its closed-form antiderivative.
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
        descriptor=f.to_dsl(),
    )
    return handle, sample_interval(rng, cfg)


def gen_certified_instance(
    seed: int,
    s,
    config: GenConfig = GenConfig(),
) -> tuple[FuncHandle, OrderedInterval, CertResult]:
    """Deterministically build an instance whose |f'| is certified s-convex.

    f' is drawn as a nonnegative combination of power terms with exponents
    in (-1, 0] or [1, 3]; such an f' is nonnegative and convex on (0, inf),
    so |f'| and |f'|^q for q >= 1 are s-convex for every s in (0, 1].  The
    antiderivative gives f in closed form, hence an exact integral with no
    nested quadrature.  Identical seeds produce bitwise-identical instances.
    """
    sv = as_s(s)
    rng = random.Random(seed)
    handle, iv = sample_dconvex_instance(rng, config)
    dps = handle.derivative
    cert = certify_s_convex(lambda x: np.abs(dps(x)), sv, iv.a, iv.b, config.grid)
    if not cert.certified:
        raise GenerationError(
            f"seed {seed}: generated |f'| failed s-convexity certification at {cert.counterexample}"
        )
    return handle, iv, cert
