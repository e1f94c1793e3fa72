"""Adaptive numerical integration with an embedded Gauss/Kronrod rule pair.

Each panel is evaluated with the 15-point Kronrod extension of the 7-point
Gauss rule.  The Gauss value is a by-product of the same 15 function
evaluations, and the difference between the two estimates drives the error
estimator.  Refinement is globally adaptive: the panel with the largest
estimated error is bisected until the summed estimate meets the tolerance.
The worst-panel queue breaks ties on interval position, so the same panels
are bisected in the same order, and the sums are math.fsum, which is
correctly rounded and so independent of the panels' order: results are
fully deterministic for fixed inputs.

The error estimator follows standard practice for this rule pair: the raw
difference |K15 - G7| is rescaled by the panel's deviation integral, which
sharpens the estimate by roughly a 3/2 power and lets panels that touch a
point of reduced smoothness (for example x^s near 0) converge well before
the bisection depth limit.

The tolerances and the depth limit are fixed: an absolute error of 1e-11 or
a relative error of 1e-10, whichever is looser, and 60 bisection levels.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DepthExhausted, DomainError, EvalError

# Nodes of the 15-point Kronrod rule on [-1, 1]; the 7 Gauss nodes are the
# odd-indexed entries plus the centre.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)

_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)

_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_EPS = 2.220446049250313e-16
_ABS_TOL = 1e-11
_REL_TOL = 1e-10
_MAX_DEPTH = 60


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one integral: value, error estimate, evaluation count."""

    value: float
    error_estimate: float
    evaluations: int


def _eval(f: Callable[[float], float], x: float) -> float:
    y = f(x)
    if not math.isfinite(y):
        raise EvalError(f"integrand returned non-finite value {y!r} at x={x!r}")
    return y


def _panel(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """One Kronrod panel: (integral estimate, error estimate)."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    fc = _eval(f, centre)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = abs(resk)
    pairs = []
    for j in range(7):
        dx = half * _XGK[j]
        fa = _eval(f, centre - dx)
        fb = _eval(f, centre + dx)
        pairs.append((fa, fb))
        resk += _WGK[j] * (fa + fb)
        resabs += _WGK[j] * (abs(fa) + abs(fb))
        if j % 2 == 1:
            resg += _WG[j // 2] * (fa + fb)

    mean = 0.5 * resk
    resasc = _WGK[7] * abs(fc - mean)
    for j, (fa, fb) in enumerate(pairs):
        resasc += _WGK[j] * (abs(fa - mean) + abs(fb - mean))

    value = resk * half
    resabs *= half
    resasc *= half
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 0.0:
        err = max(err, 50.0 * _EPS * resabs)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise EvalError(f"integrand's weighted sums overflow on [{lo!r}, {hi!r}]")
    return value, err


def integrate(f: Callable[[float], float], lo: float, hi: float) -> QuadResult:
    """Integrate f over [lo, hi] to the fixed absolute/relative tolerance.

    Raises DepthExhausted when the worst remaining panel has already been
    bisected _MAX_DEPTH times and the summed error estimate still exceeds
    the tolerance, and EvalError when f returns a non-finite value anywhere
    it is sampled or when finite samples overflow a panel's weighted sums
    or the sum over the panels.
    """
    if not lo < hi:
        raise DomainError(f"integration bounds require lo < hi, got ({lo}, {hi})")

    value, err = _panel(f, lo, hi)
    evaluations = 15
    # Max-heap keyed on error estimate; position tie-break keeps pops
    # deterministic.  Entries: (-err, lo, hi, value, depth).
    panels = [(-err, lo, hi, value, 0)]
    # "not <=" keeps bisecting a NaN error estimate.
    while not err <= max(_ABS_TOL, _REL_TOL * abs(value)):
        neg_err, a, b, _, depth = heapq.heappop(panels)
        if depth >= _MAX_DEPTH:
            raise DepthExhausted(
                f"no convergence on [{a}, {b}] after {_MAX_DEPTH} bisection levels "
                f"(panel error estimate {-neg_err:.3e}, total {err:.3e})"
            )
        mid = 0.5 * (a + b)
        lval, lerr = _panel(f, a, mid)
        rval, rerr = _panel(f, mid, b)
        evaluations += 30
        heapq.heappush(panels, (-lerr, a, mid, lval, depth + 1))
        heapq.heappush(panels, (-rerr, mid, b, rval, depth + 1))
        try:
            value = math.fsum(p[3] for p in panels)
            err = math.fsum(-p[0] for p in panels)
        except OverflowError:
            raise EvalError(f"the panel sums overflow on [{lo!r}, {hi!r}]") from None
    # fsum turns a -0.0 sum into 0.0; + 0.0 does the same for a first panel
    # that converged on its own.
    return QuadResult(value + 0.0, err, evaluations)
