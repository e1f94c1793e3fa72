"""Adaptive integrator: frozen values, structural properties, failure modes."""

import math
import random

import pytest

from sconvexlab import DepthExhausted, DomainError, EvalError, OrderedInterval, integrate
from sconvexlab.funcmodel import PowerSum, powersum_integral
from sconvexlab.quadrature import _EPS, _WG, _WGK, _XGK, QuadResult, _panel


def _reference_panel(f, lo, hi):
    """The loop form of quadrature._panel: the same nodes, sums and order."""

    def sample(x):
        y = f(x)
        if not math.isfinite(y):
            raise EvalError(f"integrand returned non-finite value {y!r} at x={x!r}")
        return y

    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    fc = sample(centre)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = abs(resk)
    pairs = []
    for j in range(7):
        dx = half * _XGK[j]
        fa = sample(centre - dx)
        fb = sample(centre + dx)
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


def _outcome(panel, f, lo, hi):
    """A panel's (value, err) as float.hex strings, or its error's type and text."""
    try:
        return tuple(float.hex(v) for v in panel(f, lo, hi))
    except (ArithmeticError, EvalError) as exc:
        return type(exc).__name__, str(exc)


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


class TestPanelMatchesReference:
    """The straight-line panel gives the loop form's bits, panel by panel."""

    @staticmethod
    def _cases():
        rng = random.Random(2024)
        for _ in range(2000):
            ps = PowerSum([(rng.uniform(-3, 3), rng.uniform(-1.5, 4.0)) for _ in range(rng.randint(1, 3))])
            lo = rng.uniform(1e-3, 5.0)
            yield ps, lo, lo + 10.0 ** rng.uniform(-8, 1)
        for _ in range(300):
            hi = 10.0 ** rng.uniform(-12, 0)
            yield math.sqrt, rng.uniform(0.0, 0.5) * hi, hi
        for _ in range(300):
            lo = 10.0 ** rng.uniform(-6, 1)
            yield (lambda x: 1.0 / x), lo, lo * rng.uniform(1.001, 100.0)
        for _ in range(300):
            lo = rng.uniform(-2.0, 1.0)
            yield (lambda x: x ** 13), lo, lo + rng.uniform(1e-3, 2.0)
        for _ in range(100):
            lo = rng.uniform(-1.0, 1.0)
            yield (lambda x: -0.0), lo, lo + rng.uniform(1e-3, 2.0)
        for _ in range(300):
            lo = rng.uniform(-1.0, 0.0)
            jump = rng.uniform(-1e300, 1e300)
            yield (lambda x, jump=jump: jump if x < 0.0 else 1.0), lo, lo + rng.uniform(1e-3, 2.0)

    def test_bit_equal_value_and_error(self):
        # float.hex tells -0.0 from 0.0, so the sign of a zero panel counts.
        for f, lo, hi in self._cases():
            assert _outcome(_panel, f, lo, hi) == _outcome(_reference_panel, f, lo, hi), (f, lo, hi)


class TestPanelSampleOrder:
    """Which nodes a panel samples, in which order, and when it stops."""

    LO, HI = 0.25, 2.0

    @staticmethod
    def _recorder(result=lambda i, x: x * x):
        """An integrand that records its samples; result(i, x) answers the i-th."""
        seen = []

        def f(x):
            seen.append(x)
            return result(len(seen) - 1, x)

        return f, seen

    def test_nodes_and_order(self):
        f, seen = self._recorder()
        _panel(f, self.LO, self.HI)
        g, expected = self._recorder()
        _reference_panel(g, self.LO, self.HI)
        centre, half = 0.5 * (self.LO + self.HI), 0.5 * (self.HI - self.LO)
        nodes = [centre]
        for x in _XGK[:7]:
            nodes += [centre - half * x, centre + half * x]
        assert [x.hex() for x in seen] == [x.hex() for x in expected] == [x.hex() for x in nodes]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", range(15))
    def test_non_finite_sample_stops_the_panel(self, k, bad):
        f, seen = self._recorder(lambda i, x: bad if i == k else x)
        with pytest.raises(EvalError) as err:
            _panel(f, self.LO, self.HI)
        assert len(seen) == k + 1
        assert str(err.value) == f"integrand returned non-finite value {bad!r} at x={seen[k]!r}"

    @pytest.mark.parametrize("k", [0, 7, 14])
    def test_integrand_exception_propagates(self, k):
        raised = ZeroDivisionError("from the integrand")

        def fail(i, x):
            if i == k:
                raise raised
            return x

        f, seen = self._recorder(fail)
        with pytest.raises(ZeroDivisionError) as err:
            _panel(f, self.LO, self.HI)
        assert err.value is raised
        assert len(seen) == k + 1
