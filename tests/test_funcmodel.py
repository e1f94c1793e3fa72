"""Power sums, hypothesis proofs, a reference grid, and the instance generator."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sconvexlab.errors import DomainError, ExponentError
from sconvexlab.funcmodel import (
    GenConfig,
    PowerSum,
    as_s,
    check_hypothesis,
    handle_from_power_sum,
    powersum_integral,
    prove_hypothesis,
    sample_dconvex_instance,
)
from sconvexlab.means import OrderedInterval
from sconvexlab.quadrature import integrate

# Slack of the reference grid: violations below _GRID_TOL * (1 + |rhs|) are
# floating-point noise.
_GRID_TOL = 1e-10


def _certified_instance(seed, s):
    """Sample an instance from the base family, with the rule that proves
    its |f'| s-convex."""
    f, iv = sample_dconvex_instance(random.Random(seed), GenConfig())
    return f, iv, check_hypothesis(f, "|f'|", s, None, False)


def _direct_certify(phi, s, lo, hi, concave=False):
    """A reference check of phi(t x + (1-t) y) <= t^s phi(x) + (1-t)^s phi(y),
    s-convexity in the second sense, or of concavity against the chord when
    concave (s is then unused), on a uniform 33 x 33 x 21 (x, y, t) grid
    over [lo, hi].  Returns None when no point violates it by more than the
    slack, else the worst witness (x, y, t, lhs, rhs).  A sample, not a
    proof: the tests use it to cross-check the proof rules.  phi must map
    an array to an array and be finite on the grid."""
    assert 0.0 < lo < hi and (concave or 0.0 < s <= 1.0)
    s = 1.0 if concave else s
    xs = np.linspace(lo, hi, 33)
    ts = np.linspace(0.0, 1.0, 21)[None, None, :]
    mix = ts * xs[:, None, None] + (1.0 - ts) * xs[None, :, None]
    px, pmix = phi(xs), phi(mix)
    assert np.isfinite(px).all() and np.isfinite(pmix).all(), "phi is not finite on the grid"
    rhs = ts ** s * px[:, None, None] + (1.0 - ts) ** s * px[None, :, None]
    excess = (rhs - pmix if concave else pmix - rhs) - _GRID_TOL * (1.0 + np.abs(rhs))
    if not (excess > 0.0).any():
        return None
    i, j, k = np.unravel_index(int(np.argmax(excess)), excess.shape)
    return (xs[i], xs[j], ts[0, 0, k], pmix[i, j, k], rhs[i, j, k])


def _pointwise_worst_excess(phi, s, lo, hi, concave):
    """The largest excess over _direct_certify's grid, computed one
    (x, y, t) point at a time in Python floats."""
    s = 1.0 if concave else s
    xs = np.linspace(lo, hi, 33).tolist()
    worst = -math.inf
    for x in xs:
        for y in xs:
            for t in np.linspace(0.0, 1.0, 21).tolist():
                lhs = float(phi(t * x + (1.0 - t) * y))
                rhs = t ** s * float(phi(x)) + (1.0 - t) ** s * float(phi(y))
                excess = (rhs - lhs if concave else lhs - rhs) - _GRID_TOL * (1.0 + abs(rhs))
                worst = max(worst, excess)
    return worst


class TestPowerSum:
    def test_integral_examples(self):
        assert powersum_integral(PowerSum([(1, 2)]), 1, 3) == pytest.approx(26 / 3, rel=1e-15)
        assert powersum_integral(PowerSum([(1, 0.5)]), 1, 4) == pytest.approx(14 / 3, rel=1e-15)
        assert powersum_integral(PowerSum([(2.5, 0)]), 1, 3) == pytest.approx(5.0, rel=1e-15)

    def test_integral_from_zero(self):
        # lo = 0 is allowed when every exponent is > -1.
        assert powersum_integral(PowerSum([(1, 0.5), (3, 2)]), 0.0, 1.0) == pytest.approx(2 / 3 + 1, rel=1e-15)
        assert powersum_integral(PowerSum([(2, -0.5)]), 0.0, 4.0) == 8.0

    def test_exponent_minus_one_rejected(self):
        # x^-1 has no power-function antiderivative, but its integral is a log.
        assert powersum_integral(PowerSum([(1.0, -1.0)]), 1, 2) == math.log(2)
        with pytest.raises(ExponentError):
            PowerSum([(2.0, -1.0)]).antiderivative()

    def test_reciprocal_past_the_float_range(self):
        # hi / lo = 1e600 overflows, so log1p would give inf.
        assert powersum_integral(PowerSum([(2.0, -1.0)]), 1e-300, 1e300) == 2.0 * (math.log(1e300) - math.log(1e-300))

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
            assert powersum_integral(ps, iv.a, iv.b) == pytest.approx(
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
    """The reference grid that the proof rules are cross-checked against
    must itself pass and fail where the inequality does."""

    def test_square_is_convex(self):
        assert _direct_certify(lambda x: x ** 2, 1.0, 1.0, 4.0) is None

    def test_sqrt_is_half_convex(self):
        assert _direct_certify(lambda x: np.sqrt(x), 0.5, 1.0, 4.0) is None

    def test_negated_square_fails_with_witness(self):
        x, y, t, lhs, rhs = _direct_certify(lambda x: -(x ** 2), 1.0, 1.0, 4.0)
        # The witness really violates the inequality beyond the allowance.
        assert lhs > rhs + 1e-10 * (1 + abs(rhs))
        assert 1.0 <= x <= 4.0 and 1.0 <= y <= 4.0 and 0.0 <= t <= 1.0

    def test_nonpositive_function_fails_for_fractional_s(self):
        # x = y rows force phi(x) <= (t^s + (1-t)^s) phi(x), impossible for
        # strictly negative values once s < 1.
        assert _direct_certify(lambda x: -1.0 - 0.0 * x, 0.5, 1.0, 4.0) is not None

    def test_non_finite_raises(self):
        # A NaN compares false, so it must not count as a pass.
        with np.errstate(invalid="ignore"):
            with pytest.raises(AssertionError, match="not finite"):
                _direct_certify(lambda x: np.log(x - 2.0), 1.0, 1.0, 4.0)

    def test_grid_validation(self):
        with pytest.raises(AssertionError):
            _direct_certify(lambda x: x, 1.0, 4.0, 1.0)
        with pytest.raises(AssertionError):
            _direct_certify(lambda x: x, 1.0, 0.0, 4.0)

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
        """The broadcast grid gives the verdict and the worst excess of the
        inequality evaluated one point at a time."""
        witness = _direct_certify(phi, s, 0.5, 3.5, concave)
        worst = _pointwise_worst_excess(phi, s, 0.5, 3.5, concave)
        assert (witness is None) == (worst <= 0.0)
        if witness is not None:
            _, _, _, lhs, rhs = witness
            excess = (rhs - lhs if concave else lhs - rhs) - _GRID_TOL * (1.0 + abs(rhs))
            assert excess == pytest.approx(worst, rel=1e-9)

    def test_concavity(self):
        assert _direct_certify(lambda x: np.sqrt(x), 1.0, 1.0, 4.0, concave=True) is None
        assert _direct_certify(lambda x: x ** 2, 1.0, 1.0, 4.0, concave=True) is not None

    def test_concavity_ignores_s(self):
        # The concavity check compares with the chord whatever s is given,
        # and does not validate it.
        chord = _direct_certify(lambda x: x ** 2, 1.0, 1.0, 4.0, concave=True)
        for s in (0.25, 7.0, None):
            assert _direct_certify(lambda x: x ** 2, s, 1.0, 4.0, concave=True) == chord
        with pytest.raises(AssertionError):
            _direct_certify(lambda x: x ** 2, 7.0, 1.0, 4.0)

    def test_convex_implies_s_convex_on_nonnegative_family(self):
        """t <= t^s on [0,1]: convex nonnegative functions that pass the
        grid pass it for every smaller s too."""
        rng = random.Random(21)
        for _ in range(10):
            f, iv = sample_dconvex_instance(rng, GenConfig())
            df = f.derivative
            assert _direct_certify(lambda x: np.abs(df(x)), 1.0, iv.a, iv.b) is None
            for s in (0.1, 0.4, 0.75):
                assert _direct_certify(lambda x: np.abs(df(x)), s, iv.a, iv.b) is None


HYPOTHESES = ("f", "|f'|", "|f'|^q")


def _grid_certifies(ps, hypothesis, s, q, concave, lo, hi):
    """The reference grid on the hypothesis function built from ps: ps,
    |ps| or |ps|^q."""
    if hypothesis == "f":
        phi = ps
    elif hypothesis == "|f'|":
        phi = lambda x: np.abs(ps(x))
    else:
        phi = lambda x: np.abs(ps(x)) ** q
    return _direct_certify(phi, s, lo, hi, concave) is None


@st.composite
def _proof_cases(draw):
    """A power sum of 1-3 terms with c in [0, 2], whose exponents sit on,
    next to or between the rule boundaries, with s, q, a hypothesis, the
    concave flag and a window 0 < lo < hi."""
    s = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    q = draw(st.floats(min_value=1.0, max_value=4.0))
    hypothesis = draw(st.sampled_from(HYPOTHESES))
    concave = draw(st.booleans())
    k = q if hypothesis == "|f'|^q" else 1.0
    boundaries = st.sampled_from((0.0, s, 1.0, 1.0 / q, s / k, 1.0 / k))
    exponents = st.one_of(
        boundaries,
        boundaries.map(lambda p: math.nextafter(p, math.inf)),
        boundaries.map(lambda p: math.nextafter(p, -math.inf)),
        st.floats(min_value=-2.0, max_value=3.0),
    )
    terms = draw(st.lists(st.tuples(st.floats(min_value=0.0, max_value=2.0), exponents), min_size=1, max_size=3))
    lo = draw(st.floats(min_value=0.05, max_value=4.0))
    hi = lo + draw(st.floats(min_value=0.01, max_value=4.0))
    return PowerSum(terms), hypothesis, s, q, concave, lo, hi


class TestProveHypothesis:
    @settings(max_examples=400, deadline=None)
    @given(case=_proof_cases())
    def test_every_proof_passes_the_grid(self, case):
        ps, hypothesis, s, q, concave, lo, hi = case
        if prove_hypothesis(ps, hypothesis, s, q, concave) is not None:
            assert _grid_certifies(ps, hypothesis, s, q, concave, lo, hi)

    @settings(max_examples=200, deadline=None)
    @given(case=_proof_cases(), data=st.data())
    def test_a_negative_coefficient_is_not_proved(self, case, data):
        ps, hypothesis, s, q, concave, _, _ = case
        terms = list(ps.terms)
        i = data.draw(st.integers(min_value=0, max_value=len(terms) - 1))
        c = data.draw(st.floats(min_value=-2.0, max_value=0.0, exclude_max=True))
        terms[i] = (c, terms[i][1])
        assert prove_hypothesis(PowerSum(terms), hypothesis, s, q, concave) is None

    @settings(max_examples=200, deadline=None)
    @given(
        s=st.floats(min_value=0.01, max_value=1.0),
        c=st.floats(min_value=0.0, max_value=2.0),
        const=st.floats(min_value=0.0, max_value=2.0),
        q=st.floats(min_value=1.0, max_value=4.0),
        hypothesis=st.sampled_from(HYPOTHESES),
        concave=st.booleans(),
        data=st.data(),
    )
    def test_an_exponent_below_s_with_a_constant_is_not_proved(self, s, c, const, q, hypothesis, concave, data):
        p = data.draw(st.floats(min_value=0.0, max_value=0.9 * s, exclude_min=True, exclude_max=True))
        ps = PowerSum([(c, p), (const, 0.0)])
        assert prove_hypothesis(ps, hypothesis, s, q, concave) is None

    def test_rounded_product_is_not_taken_for_one(self):
        # m*q rounds to 1.0, but the exact product lies above 1, so x^(m q)
        # is not concave.
        m, q = 0.33333333333333337, 3.0
        assert m * q == 1.0
        assert prove_hypothesis(PowerSum([(1.0, m)]), "|f'|^q", 1.0, q, True) is None
        assert prove_hypothesis(PowerSum([(1.0, 1.0 / q)]), "|f'|^q", 1.0, q, True) == "concave term"

    @pytest.mark.parametrize("terms, hypothesis, s, q, concave, rule", [
        ([(1.0, 0.5)], "f", 0.5, None, False, "term"),
        ([(2.0, -0.5)], "|f'|^q", 0.25, 3.0, False, "term"),
        ([(1.0, 0.25)], "|f'|^q", 0.75, 3.0, False, "term"),
        ([(1.0, 2.0), (0.5, -0.5), (1.0, 0.0)], "|f'|", 0.5, None, False, "sum"),
        ([(1.0, 2.0), (1.0, 0.5)], "f", 0.5, None, False, "sum"),
        ([(1.0, 2.0), (0.5, -0.5)], "|f'|^q", 0.5, 1.5, False, "convex power"),
        ([(1.0, 0.2)], "|f'|^q", 1.0, 2.0, True, "concave term"),
        ([(1.0, 0.2)], "|f'|^q", 0.5, 2.0, False, None),
        ([(1.0, 2.0), (1.0, 0.5)], "|f'|^q", 0.5, 2.0, False, None),
        ([(1.0, 2.0), (0.5, -0.5)], "|f'|^q", 0.5, 0.5, False, None),
        ([(1.0, 0.5), (1.0, 0.25)], "f", 1.0, None, True, None),
        ([(1.0, 2.0)], "f", 1.5, None, False, None),
        # The empty sum is the zero function: concave and s-convex.
        ([], "f", 0.5, None, False, "zero"),
        ([], "f", 0.5, None, True, "zero"),
        ([], "|f'|", 0.5, None, False, "zero"),
        ([], "|f'|", 0.5, None, True, "zero"),
        ([], "|f'|^q", 0.5, 0.5, False, "zero"),
        ([], "|f'|^q", 0.5, 0.5, True, "zero"),
        ([], "|f'|^q", 0.5, 2.0, False, "zero"),
        ([], "|f'|^q", 0.5, 2.0, True, "zero"),
    ])
    def test_rules(self, terms, hypothesis, s, q, concave, rule):
        assert prove_hypothesis(PowerSum(terms), hypothesis, s, q, concave) == rule


class TestCheckHypothesis:
    """Real, unpatched cases: a proof, or None when no rule proves the
    hypothesis, whether it holds or not."""

    @pytest.mark.parametrize("terms, hypothesis, s, q, concave, result", [
        ([(1.0, 2.0)], "f", 1.0, None, False, "term"),
        # No rule covers an exponent in (0, s) beside a constant, nor the
        # concavity of the q-th power of a sum.
        ([(1.0, 0.2), (1.0, 0.0)], "f", 0.5, None, False, None),
        ([(1.0, 1.5), (2.0, 1.25)], "|f'|^q", 1.0, 2.0, True, None),
        ([(-1.0, 2.0)], "f", 1.0, None, False, None),
        # f' is the empty sum, whose zero |f'|^q is concave.
        ([(2.0, 0.0)], "|f'|^q", 1.0, 2.0, True, "zero"),
    ], ids=["x^2-term", "x^0.2+1-not-proved", "concave-power-not-proved", "-x^2-refused",
            "constant-zero"])
    def test_proves_or_certifies(self, terms, hypothesis, s, q, concave, result):
        f = handle_from_power_sum(PowerSum(terms))
        assert check_hypothesis(f, hypothesis, s, q, concave) == result


class TestGenerator:
    def test_determinism(self):
        left = _certified_instance(1234, 0.5)
        right = _certified_instance(1234, 0.5)
        assert left[0].value == right[0].value
        assert left[1] == right[1]
        assert left[2] == right[2]

    def test_distinct_seeds_differ(self):
        a = _certified_instance(0, 0.5)[0].value
        b = _certified_instance(1, 0.5)[0].value
        assert a != b

    def test_certificate_is_returned(self):
        _, _, rule = _certified_instance(5, 0.25)
        assert rule in ("term", "sum")

    def test_linear_derivative_instance(self):
        # f' = x integrates to x^2/2.
        f = PowerSum([(1.0, 1.0)]).antiderivative()
        assert f.terms == ((0.5, 2.0),)

    def test_half_power_instance_certifies(self):
        # f' = 0.5 x^(-1/2) comes from f = sqrt; |f'| is s-convex at s = 1/2.
        dps = PowerSum([(0.5, -0.5)])
        assert dps.antiderivative().terms == ((1.0, 0.5),)
        assert prove_hypothesis(dps, "|f'|", 0.5, None, False) == "term"

    def test_hypotheses_hold_across_powers(self):
        """|f'| is proved 0.5-convex, and |f'|^q for q in {1, 1.5, 2, 3}
        passes the reference grid at s = 0.5."""
        for seed in range(12):
            f, iv, rule = _certified_instance(seed, 0.5)
            assert rule is not None
            df = f.derivative
            for q in (1.0, 1.5, 2.0, 3.0):
                witness = _direct_certify(lambda x: np.abs(df(x)) ** q, 0.5, iv.a, iv.b)
                assert witness is None, f"seed {seed}, q {q}: {witness}"

    def test_exact_integral_agrees_with_quadrature(self):
        for seed in (3, 8, 15):
            f, iv, _ = _certified_instance(seed, 1.0)
            exact = f.exact_integral(iv.a, iv.b)
            approx = integrate(f.value, iv.a, iv.b).value
            assert exact == pytest.approx(approx, rel=1e-9)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            GenConfig(lo_min=2.0, hi_max=1.0)
        with pytest.raises(DomainError):
            GenConfig(max_terms=0)
