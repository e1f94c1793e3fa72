"""Power sums, the grid certifier, and the instance generator."""

import math
import random

import numpy as np
import pytest

from sconvexlab import (
    CertResult,
    DomainError,
    EvalError,
    ExponentError,
    GenConfig,
    OrderedInterval,
    PowerSum,
    certify_concave,
    certify_s_convex,
    integrate,
    powersum_integral,
)
from sconvexlab.funcmodel import CERT_TOL, as_s, sample_dconvex_instance


def _certified_instance(seed, s):
    """Sample an instance from the base family and certify its |f'|."""
    f, iv = sample_dconvex_instance(random.Random(seed), GenConfig())
    df = f.derivative
    return f, iv, certify_s_convex(lambda x: np.abs(df(x)), s, iv.a, iv.b)


def _direct_certify(phi, s, lo, hi, concave):
    """The certifier's arithmetic written out without buffer reuse: the
    s-convexity check, or the concavity check against the chord."""
    xs = np.linspace(lo, hi, 33)
    ts = np.linspace(0.0, 1.0, 21)[None, None, :]
    mix = ts * xs[:, None, None] + (1.0 - ts) * xs[None, :, None]
    pmix = phi(mix)
    if concave:
        rhs = ts * phi(xs)[:, None, None] + (1.0 - ts) * phi(xs)[None, :, None]
        excess = rhs - pmix - CERT_TOL * (1.0 + np.abs(rhs))
    else:
        rhs = ts ** s * phi(xs)[:, None, None] + (1.0 - ts) ** s * phi(xs)[None, :, None]
        excess = pmix - rhs - CERT_TOL * (1.0 + np.abs(rhs))
    if not (excess > 0.0).any():
        return None
    i, j, k = np.unravel_index(int(np.argmax(excess)), excess.shape)
    return (xs[i], xs[j], ts[0, 0, k], pmix[i, j, k], rhs[i, j, k])


class TestPowerSum:
    def test_integral_examples(self):
        assert powersum_integral(PowerSum([(1, 2)]), OrderedInterval(1, 3)) == pytest.approx(26 / 3, rel=1e-15)
        assert powersum_integral(PowerSum([(1, 0.5)]), OrderedInterval(1, 4)) == pytest.approx(14 / 3, rel=1e-15)
        assert powersum_integral(PowerSum([(2.5, 0)]), OrderedInterval(1, 3)) == pytest.approx(5.0, rel=1e-15)

    def test_exponent_minus_one_rejected(self):
        with pytest.raises(ExponentError):
            powersum_integral(PowerSum([(1.0, -1.0)]), OrderedInterval(1, 2))
        with pytest.raises(ExponentError):
            PowerSum([(2.0, -1.0)]).antiderivative()

    def test_derivative_termwise(self):
        ps = PowerSum([(0.5, 0.5), (2.5, 0.0)])
        assert ps.derivative().terms == ((0.25, -0.5),)

    def test_antiderivative_then_derivative_roundtrip(self):
        rng = random.Random(9)
        for _ in range(100):
            terms = [(rng.uniform(-2, 2), rng.uniform(-0.9, 3.0)) for _ in range(rng.randint(1, 4))]
            ps = PowerSum(terms)
            back = ps.antiderivative().derivative()
            x = rng.uniform(0.3, 3.0)
            assert back(x) == pytest.approx(ps(x), rel=1e-12)

    def test_integral_matches_quadrature(self):
        rng = random.Random(10)
        for _ in range(200):
            terms = [(rng.uniform(-2, 2), rng.uniform(-0.9, 3.0)) for _ in range(rng.randint(1, 3))]
            ps = PowerSum(terms)
            a = rng.uniform(0.25, 2.0)
            iv = OrderedInterval(a, a + rng.uniform(0.1, 2.0))
            assert powersum_integral(ps, iv) == pytest.approx(
                integrate(ps, iv.a, iv.b).value, rel=1e-9, abs=1e-11
            )

    def test_vector_evaluation(self):
        ps = PowerSum([(1.0, 2.0), (0.5, -0.5)])
        xs = np.array([1.0, 2.0, 4.0])
        np.testing.assert_allclose(ps(xs), [ps(float(x)) for x in xs], rtol=1e-15)


class TestSParam:
    """The exponent s, validated by as_s."""

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.0001, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            as_s(bad)

    def test_accepts_boundary(self):
        assert as_s(1.0) == 1.0


class TestCertifier:
    def test_square_is_convex(self):
        result = certify_s_convex(lambda x: x ** 2, 1.0, 1.0, 4.0)
        assert result.certified
        assert result.counterexample is None
        assert result.samples_checked == 33 * 33 * 21

    def test_sqrt_is_half_convex(self):
        assert certify_s_convex(lambda x: np.sqrt(x), 0.5, 1.0, 4.0).certified

    def test_negated_square_fails_with_witness(self):
        result = certify_s_convex(lambda x: -(x ** 2), 1.0, 1.0, 4.0)
        assert not result.certified
        x, y, t, lhs, rhs = result.counterexample
        # The witness really violates the inequality beyond the allowance.
        assert lhs > rhs + 1e-10 * (1 + abs(rhs))
        assert 1.0 <= x <= 4.0 and 1.0 <= y <= 4.0 and 0.0 <= t <= 1.0

    def test_nonpositive_function_fails_for_fractional_s(self):
        # x = y rows force phi(x) <= (t^s + (1-t)^s) phi(x), impossible for
        # strictly negative values once s < 1.
        assert not certify_s_convex(lambda x: -1.0 - 0.0 * x, 0.5, 1.0, 4.0).certified

    def test_non_finite_raises(self):
        with np.errstate(invalid="ignore"):
            with pytest.raises(EvalError):
                certify_s_convex(lambda x: np.log(x - 2.0), 1.0, 1.0, 4.0)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            certify_s_convex(lambda x: x, 1.0, 4.0, 1.0)
        with pytest.raises(DomainError):
            certify_s_convex(lambda x: x, 1.0, 0.0, 4.0)

    def test_scalar_only_callable_supported(self):
        calls = []

        def phi(x):
            if not isinstance(x, float):
                raise TypeError("scalar only")
            calls.append(x)
            return x * x

        assert certify_s_convex(phi, 1.0, 1.0, 2.0).certified

    def test_array_errors_other_than_type_and_value_propagate(self):
        # Only a scalar-only callable's TypeError or ValueError selects the
        # scalar fallback; any other error on an array is the caller's.
        def phi(x):
            if isinstance(x, np.ndarray):
                raise DomainError("array input rejected")
            return x * x

        with pytest.raises(DomainError, match="array input rejected"):
            certify_s_convex(phi, 1.0, 1.0, 2.0)

    @pytest.mark.parametrize("phi, s, concave", [
        (lambda x: x ** 2, 1.0, False),
        (lambda x: -(x ** 2), 1.0, False),
        (lambda x: np.sqrt(x), 0.5, False),
        (lambda x: np.sqrt(x), 0.25, False),
        (lambda x: -1.0 - 0.0 * x, 0.5, False),
        (lambda x: 3.0 * x - 1.0, 1.0, False),
        (lambda x: np.abs(x - 2.3) ** 1.5, 0.75, False),
        (lambda x: np.sqrt(x), 1.0, True),
        (lambda x: x ** 2, 1.0, True),
        (lambda x: 3.0 * x - 1.0, 1.0, True),
        (lambda x: np.sin(x), 1.0, True),
    ])
    def test_matches_direct_formula(self, phi, s, concave):
        if concave:
            result = certify_concave(phi, 0.5, 3.5)
        else:
            result = certify_s_convex(phi, s, 0.5, 3.5)
        expected = _direct_certify(phi, s, 0.5, 3.5, concave)
        assert result.certified == (expected is None)
        assert result.counterexample == expected

    def test_concavity(self):
        assert certify_concave(lambda x: np.sqrt(x), 1.0, 4.0).certified
        result = certify_concave(lambda x: x ** 2, 1.0, 4.0)
        assert not result.certified and result.counterexample is not None

    def test_convex_implies_s_convex_on_nonnegative_family(self):
        """t <= t^s on [0,1]: certified convex nonnegative functions stay
        certified for every smaller s on the same grid."""
        rng = random.Random(21)
        for _ in range(10):
            f, iv = sample_dconvex_instance(rng, GenConfig())
            df = f.derivative
            assert certify_s_convex(lambda x: np.abs(df(x)), 1.0, iv.a, iv.b).certified
            for s in (0.1, 0.4, 0.75):
                assert certify_s_convex(lambda x: np.abs(df(x)), s, iv.a, iv.b).certified


class TestGenerator:
    def test_determinism(self):
        left = _certified_instance(1234, 0.5)
        right = _certified_instance(1234, 0.5)
        assert left[0].descriptor == right[0].descriptor
        assert left[1] == right[1]
        assert left[2] == right[2]

    def test_distinct_seeds_differ(self):
        a = _certified_instance(0, 0.5)[0].descriptor
        b = _certified_instance(1, 0.5)[0].descriptor
        assert a != b

    def test_certificate_is_returned(self):
        _, _, cert = _certified_instance(5, 0.25)
        assert isinstance(cert, CertResult) and cert.certified

    def test_linear_derivative_instance(self):
        # f' = x integrates to x^2/2.
        f = PowerSum([(1.0, 1.0)]).antiderivative()
        assert f.terms == ((0.5, 2.0),)

    def test_half_power_instance_certifies(self):
        # f' = 0.5 x^(-1/2) comes from f = sqrt; |f'| is s-convex at s = 1/2.
        dps = PowerSum([(0.5, -0.5)])
        assert dps.antiderivative().terms == ((1.0, 0.5),)
        assert certify_s_convex(lambda x: np.abs(dps(x)), 0.5, 0.5, 3.0).certified

    def test_hypotheses_hold_across_powers(self):
        """|f'| and |f'|^q certify as s-convex for q in {1, 1.5, 2, 3}."""
        for seed in range(12):
            f, iv, cert = _certified_instance(seed, 0.5)
            assert cert.certified
            df = f.derivative
            for q in (1.0, 1.5, 2.0, 3.0):
                res = certify_s_convex(lambda x: np.abs(df(x)) ** q, 0.5, iv.a, iv.b)
                assert res.certified, f"seed {seed}, q {q}: {res.counterexample}"

    def test_exact_integral_agrees_with_quadrature(self):
        for seed in (3, 8, 15):
            f, iv, _ = _certified_instance(seed, 1.0)
            exact = f.exact_integral(iv)
            approx = integrate(f.value, iv.a, iv.b).value
            assert exact == pytest.approx(approx, rel=1e-9)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            GenConfig(lo_min=2.0, hi_max=1.0)
        with pytest.raises(DomainError):
            GenConfig(max_terms=0)
