"""Adaptive integrator: frozen values, structural properties, failure modes."""

import math
import random

import pytest

from sconvexlab import DepthExhausted, DomainError, EvalError, OrderedInterval, integrate
from sconvexlab.funcmodel import PowerSum, powersum_integral
from sconvexlab.quadrature import QuadResult, _panel


class TestKnownIntegrals:
    def test_polynomial(self):
        r = integrate(lambda x: x * x, 1.0, 3.0)
        assert r.value == pytest.approx(26 / 3, abs=1e-10)

    def test_sqrt_from_zero(self):
        r = integrate(lambda x: math.sqrt(x), 0.0, 1.0)
        assert r.value == pytest.approx(2 / 3, abs=1e-10)

    def test_reciprocal(self):
        r = integrate(lambda x: 1.0 / x, 1.0, 2.0)
        assert r.value == pytest.approx(math.log(2), abs=1e-10)

    def test_error_estimate_within_request(self):
        for f, lo, hi in [(lambda x: x ** 3.7, 0.5, 2.0), (lambda x: math.sqrt(x), 0.0, 1.0)]:
            r = integrate(f, lo, hi)
            assert r.error_estimate <= max(1e-11, 1e-10 * abs(r.value))

    def test_degree_13_needs_one_panel(self):
        # The embedded Gauss rule is exact through degree 13, so the error
        # estimate vanishes and no panel is ever split.
        r = integrate(lambda x: x ** 13, 0.0, 1.0)
        assert r.evaluations == 15
        assert r.value == pytest.approx(1 / 14, rel=1e-13)

    def test_one_panel_returns_that_panel(self):
        # When the first panel meets the tolerance, integrate bisects nothing.
        for f, lo, hi in [(lambda x: x ** 13, 0.0, 1.0), (math.exp, 0.0, 1.0), (lambda x: x ** 2.5, 1.0, 3.0)]:
            assert integrate(f, lo, hi) == QuadResult(*_panel(f, lo, hi), 15)

    def test_one_panel_zero_is_positive(self):
        # fsum gives +0.0 for a sum of -0.0 panels; a first panel of -0.0
        # that converges on its own comes back as +0.0 too.
        r = integrate(lambda x: -0.0, 0.0, 1.0)
        assert r.evaluations == 15
        assert math.copysign(1.0, r.value) == 1.0


class TestStructuralProperties:
    def test_linearity(self):
        rng = random.Random(3)
        f = lambda x: x ** 2.5
        g = lambda x: 1.0 / (1.0 + x)
        for _ in range(20):
            alpha = rng.uniform(-3, 3)
            beta = rng.uniform(-3, 3)
            combined = integrate(lambda x: alpha * f(x) + beta * g(x), 0.5, 2.0).value
            split = alpha * integrate(f, 0.5, 2.0).value + beta * integrate(g, 0.5, 2.0).value
            assert combined == pytest.approx(split, abs=5e-10)

    def test_interval_additivity(self):
        rng = random.Random(4)
        f = lambda x: x ** 1.3 + 1.0 / x
        for _ in range(20):
            a = rng.uniform(0.1, 1.0)
            b = a + rng.uniform(0.5, 3.0)
            c = rng.uniform(a + 1e-3, b - 1e-3)
            whole = integrate(f, a, b).value
            parts = integrate(f, a, c).value + integrate(f, c, b).value
            assert whole == pytest.approx(parts, abs=5e-10)

    def test_agreement_with_exact_power_sums(self):
        """1000 random power sums: quadrature matches the antiderivative."""
        rng = random.Random(42)
        for _ in range(1000):
            terms = [
                (rng.uniform(-2, 2), rng.uniform(-0.9, 3.0))
                for _ in range(rng.randint(1, 3))
            ]
            ps = PowerSum(terms)
            a = rng.uniform(0.25, 2.0)
            iv = OrderedInterval(a, a + rng.uniform(0.1, 2.0))
            exact = powersum_integral(ps, iv)
            approx = integrate(ps, iv.a, iv.b).value
            assert approx == pytest.approx(exact, rel=1e-9, abs=1e-11), (
                f"quadrature disagrees with antiderivative for {ps.to_dsl()} on {iv}"
            )

    def test_determinism(self):
        f = lambda x: math.sqrt(x) + x ** 2.3
        r1 = integrate(f, 0.0, 2.0)
        r2 = integrate(f, 0.0, 2.0)
        assert (r1.value, r1.error_estimate, r1.evaluations) == (r2.value, r2.error_estimate, r2.evaluations)


class TestFailureModes:
    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 2.0, 1.0)
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 1.0)
        with pytest.raises(DomainError):
            integrate(lambda x: x, math.nan, 1.0)

    def test_non_finite_integrand(self):
        with pytest.raises(EvalError):
            integrate(lambda x: float("nan"), 0.0, 1.0)
        with pytest.raises(EvalError):
            integrate(lambda x: float("inf") if x > 0.5 else 1.0, 0.0, 1.0)

    def test_non_finite_sample_names_the_point(self):
        with pytest.raises(EvalError, match=r"non-finite value nan at x=0\.5$"):
            integrate(lambda x: float("nan"), 0.0, 1.0)

    def test_overflowing_panel(self):
        # Every sample is finite, but the panel's weighted sums overflow:
        # to inf for a constant, to inf - inf for a step.
        with pytest.raises(EvalError, match=r"weighted sums overflow on \[0\.0, 1\.0\]"):
            integrate(lambda x: 1.7e308, 0.0, 1.0)
        with pytest.raises(EvalError, match=r"weighted sums overflow on \[0\.0, 1\.0\]"):
            integrate(lambda x: 1.7e308 if x < 0.5 else -1.7e308, 0.0, 1.0)

    def test_overflowing_panel_total(self):
        # The first panel samples zeros (and one 1, so that it bisects); the
        # halves see 8e307 throughout, finite panels whose sum overflows.
        first = set()
        integrate(lambda x: first.add(x) or 0.0, 0.0, 4.0)

        def f(x):
            if x in first:
                return 1.0 if x == 2.0 else 0.0
            return 8e307

        with pytest.raises(EvalError, match=r"panel sums overflow on \[0\.0, 4\.0\]"):
            integrate(f, 0.0, 4.0)

    def test_depth_exhausted(self):
        # 1/x is not integrable on (0, 1]: the panel at 0 never converges.
        with pytest.raises(DepthExhausted, match=r"on \[0\.0, 8\.67\d*e-19\] after 60 bisection levels"):
            integrate(lambda x: 1.0 / x, 0.0, 1.0)
