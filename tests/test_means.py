"""Mean evaluations: frozen values, domain errors, and structural properties."""

import decimal
import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sconvexlab import (
    DomainError,
    OrderedInterval,
    arithmetic_mean,
    gen_log_mean,
    gen_log_mean_pow,
    geometric_mean,
    integrate,
    power_diff_quotient,
)


class TestOrderedInterval:
    def test_rejects_nonpositive_a(self):
        with pytest.raises(DomainError):
            OrderedInterval(0.0, 1.0)
        with pytest.raises(DomainError):
            OrderedInterval(-1.0, 1.0)

    def test_rejects_unordered(self):
        with pytest.raises(DomainError):
            OrderedInterval(3.0, 1.0)
        with pytest.raises(DomainError):
            OrderedInterval(2.0, 2.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            OrderedInterval(1.0, math.inf)


class TestArithmeticGeometric:
    @pytest.mark.parametrize("a,b,expected", [(2, 4, 3.0), (1, 3, 2.0), (1, 4, 2.5)])
    def test_arithmetic_midpoints(self, a, b, expected):
        assert arithmetic_mean(OrderedInterval(a, b)) == expected

    @pytest.mark.parametrize("a,b,expected", [(4, 9, 6.0), (1, 4, 2.0)])
    def test_geometric_perfect_squares(self, a, b, expected):
        assert geometric_mean(OrderedInterval(a, b)) == expected

    def test_geometric_sqrt8(self):
        assert geometric_mean(OrderedInterval(2, 4)) == pytest.approx(2.8284271247461903, rel=1e-15)

    def test_g_below_a(self):
        rng = random.Random(11)
        for _ in range(200):
            a = rng.uniform(0.1, 5.0)
            b = a + rng.uniform(0.01, 5.0)
            iv = OrderedInterval(a, b)
            assert geometric_mean(iv) < arithmetic_mean(iv)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
           st.floats(min_value=5e-324, max_value=1.7976931348623157e308))
    @example(5e-324, 1e-323)
    @example(1e-200, 1e-120)
    @example(1e308, 1.7976931348623157e308)
    def test_means_inside_interval(self, a, b):
        # Subnormals and endpoints whose sum or product overflows included.
        assume(a != b)
        a, b = min(a, b), max(a, b)
        iv = OrderedInterval(a, b)
        assert a <= arithmetic_mean(iv) <= b
        g = geometric_mean(iv)
        assert a <= g <= b
        exact = (decimal.Decimal(a) * decimal.Decimal(b)).sqrt(decimal.Context(prec=40))
        if g >= 2.2250738585072014e-308:
            assert abs(decimal.Decimal(g) - exact) <= decimal.Decimal(g) * decimal.Decimal(4e-16)


class TestGenLogMeanPow:
    def test_p1_is_arithmetic(self):
        assert gen_log_mean_pow(OrderedInterval(1, 3), 1.0) == 2.0

    def test_p2(self):
        assert gen_log_mean_pow(OrderedInterval(1, 3), 2.0) == pytest.approx(13 / 3, rel=1e-15)

    def test_negative_p(self):
        # (4^-0.5 - 1) / (-0.5 * 3) = 1/3
        assert gen_log_mean_pow(OrderedInterval(1, 4), -1.5) == pytest.approx(1 / 3, rel=1e-15)

    # L_inf would be b and L_-inf a, but the ratio formula gives nan or a
    # wrong finite value there, so a non-finite p is excluded too.
    @pytest.mark.parametrize("p", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_excluded_exponents(self, p):
        with pytest.raises(DomainError):
            gen_log_mean_pow(OrderedInterval(1, 3), p)

    def test_always_positive(self):
        rng = random.Random(5)
        for _ in range(300):
            a = rng.uniform(0.05, 4.0)
            b = a + rng.uniform(0.01, 4.0)
            p = rng.uniform(-4.0, 4.0)
            if p in (-1.0, 0.0):
                continue
            assert gen_log_mean_pow(OrderedInterval(a, b), p) > 0.0

    @settings(max_examples=500, deadline=None)
    @given(st.floats(min_value=2.2250738585072014e-308, max_value=1.7976931348623157e308),
           st.floats(min_value=2.2250738585072014e-308, max_value=1.7976931348623157e308))
    @example(1e-300, 1e-299)
    @example(1e150, 1e160)
    @example(2.2250738585072014e-308, 1.7976931348623157e308)
    @example(2.2250738585072014e-308, 2.2250738585072014e-302)
    def test_p1_inside_interval(self, a, b):
        # Endpoints whose squares underflow or overflow included.  Intervals
        # with b < a (1 + 1e-6) are left out: there b^2 - a^2 cancels and
        # L_1 can stray from (a + b) / 2 by more than (b - a) / 2.
        a, b = min(a, b), max(a, b)
        assume(b >= a * (1.0 + 1e-6))
        assert a <= gen_log_mean_pow(OrderedInterval(a, b), 1.0) <= b

    def test_p1_matches_arithmetic_on_random(self):
        rng = random.Random(6)
        for _ in range(300):
            a = rng.uniform(0.05, 4.0)
            iv = OrderedInterval(a, a + rng.uniform(0.01, 4.0))
            assert gen_log_mean_pow(iv, 1.0) == pytest.approx(arithmetic_mean(iv), rel=1e-13)

    def test_equals_weighted_t_integral(self):
        """L_p^p(a,b) must equal int_0^1 (t b + (1-t) a)^p dt."""
        rng = random.Random(7)
        for _ in range(25):
            a = rng.uniform(0.2, 3.0)
            b = a + rng.uniform(0.1, 3.0)
            p = rng.choice([-1.7, -0.5, 0.5, 1.5, 2.0, 3.3])
            iv = OrderedInterval(a, b)
            oracle = integrate(lambda t: (t * b + (1 - t) * a) ** p, 0.0, 1.0).value
            assert gen_log_mean_pow(iv, p) == pytest.approx(oracle, rel=1e-9), (
                f"ratio form disagrees with t-integral at a={a}, b={b}, p={p}"
            )


class TestGenLogMean:
    def test_l1_is_arithmetic(self):
        assert gen_log_mean(OrderedInterval(1, 3), 1.0) == 2.0

    def test_l2(self):
        assert gen_log_mean(OrderedInterval(1, 3), 2.0) == pytest.approx(math.sqrt(13 / 3), rel=1e-15)

    def test_negative_p_shape(self):
        # (1/3)^(1/-1.5) = 3^(2/3), strictly inside (1, 4); a naive reading
        # of the exponent as 1/3 -> 9 would escape the interval.
        value = gen_log_mean(OrderedInterval(1, 4), -1.5)
        assert value == pytest.approx(2.0800838230519041, rel=1e-13)
        assert 1.0 < value < 4.0
        assert abs(value - 9.0) > 6.0

    def test_betweenness(self):
        rng = random.Random(13)
        for _ in range(500):
            a = rng.uniform(0.05, 5.0)
            b = a + rng.uniform(0.01, 5.0)
            p = rng.uniform(-3.5, 3.5)
            if abs(p) < 1e-3 or abs(p + 1) < 1e-3:
                continue
            value = gen_log_mean(OrderedInterval(a, b), p)
            assert a < value < b, f"L_p escaped the interval: a={a}, b={b}, p={p}, L={value}"

    def test_scaling(self):
        rng = random.Random(17)
        for _ in range(300):
            a = rng.uniform(0.1, 3.0)
            b = a + rng.uniform(0.05, 3.0)
            p = rng.choice([-2.5, -1.5, 0.5, 1.0, 2.0, 3.0])
            lam = rng.uniform(0.1, 10.0)
            lhs = gen_log_mean(OrderedInterval(lam * a, lam * b), p)
            rhs = lam * gen_log_mean(OrderedInterval(a, b), p)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_continuity_at_collapsing_interval(self):
        for a in (0.5, 1.0, 2.0, 7.5):
            eps = 1e-6 * a
            for p in (-2.5, -1.5, 0.5, 2.0):
                value = gen_log_mean(OrderedInterval(a, a + eps), p)
                assert abs(value - a) <= 2 * eps


class TestPowerDiffQuotient:
    def test_zero_at_r_zero(self):
        assert power_diff_quotient(OrderedInterval(1, 3), 0.0) == 0.0

    def test_matches_mean_route_for_s_below_one(self):
        """(b^(s-1)-a^(s-1))/(b-a) == (s-1) L_{s-2}^{s-2} wherever both exist."""
        rng = random.Random(23)
        for _ in range(200):
            a = rng.uniform(0.2, 3.0)
            iv = OrderedInterval(a, a + rng.uniform(0.05, 3.0))
            s = rng.uniform(0.05, 0.95)
            direct = power_diff_quotient(iv, s - 1.0)
            via_mean = (s - 1.0) * gen_log_mean_pow(iv, s - 2.0)
            assert direct == pytest.approx(via_mean, rel=1e-12)
