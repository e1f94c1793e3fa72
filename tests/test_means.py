"""Mean evaluations: frozen values, domain errors, and structural properties."""

import decimal
import math
import random

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sconvexlab.errors import DomainError
from sconvexlab.means import (
    OrderedInterval,
    arithmetic_mean,
    gen_log_mean,
    gen_log_mean_pow,
    geometric_mean,
    power_diff_quotient,
)
from sconvexlab.quadrature import integrate


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
    @example(5e-324, 1e-323)  # the sum is 3 subnormal steps, so its half is a tie
    @example(3.4023779616209797e-308, 5.103566942431469e-308)  # a normal a whose half is subnormal
    @example(1e-200, 1e-120)
    @example(1e308, 1.7976931348623157e308)  # a + b overflows
    def test_arithmetic_mean_is_correctly_rounded(self, a, b):
        assume(a != b)
        a, b = min(a, b), max(a, b)
        # Two doubles and their half sum are exact in 2,000 digits, so
        # float() rounds the true mean once.
        with decimal.localcontext(decimal.Context(prec=2000)):
            exact = float((decimal.Decimal(a) + decimal.Decimal(b)) / 2)
        assert arithmetic_mean(OrderedInterval(a, b)) == exact

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

    @pytest.mark.parametrize("a, b, p, mean_pow", [
        # 40 digits: 3.727022219294391997e+161; b - a is subnormal.
        (5e-324, 1e-323, -0.5, 3.727022219294392e+161),
        # 40 digits: 9.999999888745541559e+299; a tiny p + 1 times b - a.
        (1e-300, 1e-300 + 2.2250738585072014e-308, -0.9999999999999999, 9.999999888745541e+299),
    ])
    def test_denominator_below_the_normal_range(self, a, b, p, mean_pow):
        # Both powers are normal floats, but (p + 1)(b - a) underflows to 0.
        assert gen_log_mean_pow(OrderedInterval(a, b), p) == pytest.approx(mean_pow, rel=1e-15)

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


class TestGenLogMeanPastTheFloatRange:
    """A power that is not a normal float: for p + 1 < 0, a^(p+1) is the
    larger power and can overflow on its own, and a/b can underflow; for
    p + 1 > 0, a^(p+1) can underflow, and b^p can overflow where L_p^p
    does not."""

    # 40-digit values of L_p^p and L_p.
    @pytest.mark.parametrize("a, b, p, mean_pow, mean", [
        (1e-300, 1e300, -2.5, 6.6666666666666661e+149, 1.1760790225246736e-60),
        (1e-300, 1e300, -3.0, 4.9999999999999995e+299, 1.2599210498948732e-100),
        (1.0, 1.000714, 1e6, 1.3250225793707e+307, 1.0007074251602803),
    ])
    def test_values(self, a, b, p, mean_pow, mean):
        iv = OrderedInterval(a, b)
        assert gen_log_mean_pow(iv, p) == pytest.approx(mean_pow, rel=1e-15)
        assert gen_log_mean(iv, p) == pytest.approx(mean, rel=1e-15)

    @pytest.mark.parametrize("a, b, p", [
        (5e-324, 1.624800201446007e+124, -2.842509883017094),  # about 1.65e471
        (1e-300, 1.0, -2.5),  # about 6.7e449
        (0.5, 2.0, -1e20),
        (1.0, 1e300, 3.0),  # about 2.5e899
        (1e-200, 1.00000000000001e-200, -2.5),  # normal powers, about 1e500
    ])
    def test_out_of_range_raises(self, a, b, p):
        with pytest.raises(OverflowError, match="out of range"):
            gen_log_mean_pow(OrderedInterval(a, b), p)

    def test_matches_a_high_precision_reference(self):
        """Within 4e-16 of (e^(k ln b) - e^(k ln a)) / (k (b - a)), k = p + 1
        added exactly, at 60 digits, wherever a^k or b^k is not a normal
        float.  Every other draw takes p + 1 > 0 on b = a (1 + 10^v), from
        1e-12 to 100.  A last 200 draws take p in (0.05, 0.95) on such
        intervals with a in (1e-300, 1e-200), where both powers underflow:
        there |ln L_p^p| is about 500, so a k rounded to a float (an error up
        to 1.1e-16) moves L_p^p by up to about 6e-14."""
        ctx = decimal.Context(prec=60)
        normal = (decimal.Decimal(2.2250738585072014e-308), decimal.Decimal(1.7976931348623157e308))

        def reference(a, b, p):
            """L_p^p at 60 digits, and whether both powers are normal floats."""
            k = ctx.add(decimal.Decimal(p), 1)
            da, db = ctx.plus(decimal.Decimal(a)), ctx.plus(decimal.Decimal(b))
            a_pow, b_pow = ctx.exp(ctx.multiply(k, ctx.ln(da))), ctx.exp(ctx.multiply(k, ctx.ln(db)))
            exact = ctx.divide(ctx.subtract(b_pow, a_pow), ctx.multiply(k, ctx.subtract(db, da)))
            return exact, normal[0] <= a_pow <= normal[1] and normal[0] <= b_pow <= normal[1]

        def check(a, b, p, exact):
            value = gen_log_mean_pow(OrderedInterval(a, b), p)
            assert abs(decimal.Decimal(value) - exact) <= exact * decimal.Decimal(4e-16), (a, b, p)

        rng = random.Random(29)
        checked = draws = 0
        while checked < 200:
            draws += 1
            if draws % 2:
                a, b = sorted(10.0 ** rng.uniform(-323.0, 308.0) for _ in range(2))
                p = -1.0 - 10.0 ** rng.uniform(-3.0, 1.0)
                # Skip, from a float estimate, draws whose powers are both
                # normal or whose L_p^p (about a^(p+1) / ((-1-p) b)) is not.
                log_a, log_b = (p + 1.0) * math.log10(a), (p + 1.0) * math.log10(b)
                if -307.0 < log_b and log_a < 308.0 or not -300.0 < log_a - math.log10(-1.0 - p) - math.log10(b) < 300.0:
                    continue
            else:
                a = 10.0 ** rng.uniform(-323.0, 308.0)
                b = a * (1.0 + 10.0 ** rng.uniform(-12.0, 2.0))
                p = -1.0 + 10.0 ** rng.uniform(-3.0, 1.0)
                # Skip, from a float estimate, draws whose powers are both normal.
                if not (a < b < math.inf) or -307.0 < (p + 1.0) * math.log10(a) and (p + 1.0) * math.log10(b) < 308.0:
                    continue
            exact, in_range = reference(a, b, p)
            if not (a < b and not in_range and normal[0] <= exact <= normal[1]):
                continue
            check(a, b, p, exact)
            checked += 1

        checked = 0
        while checked < 200:
            a = 10.0 ** rng.uniform(-300.0, -200.0)
            b = a * (1.0 + 10.0 ** rng.uniform(-12.0, 0.0))
            p = rng.uniform(0.05, 0.95)
            if not a < b or b ** (p + 1.0) >= 2.2250738585072014e-308:
                continue
            exact, in_range = reference(a, b, p)
            assert not in_range
            check(a, b, p, exact)
            checked += 1


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

    @pytest.mark.parametrize("a, b", [(1.0, 3.0), (0.25, 4.0), (2.0, 2.1), (1e-3, 1e3)])
    def test_small_p_matches_a_high_precision_reference(self, a, b):
        """Within 1e-13 of ((b^(p+1) - a^(p+1)) / ((p+1)(b-a)))^(1/p) at 400
        digits, enough to resolve L_p^p - 1 at p = 1e-300 and at the
        subnormal p = 5e-324.  The float root (L_p^p)^(1/p) gives 1 at
        p = 1e-300 and is off by 6e-4 at p = 1e-12 on [1e-3, 1e3]."""
        with mpmath.workdps(400):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            for magnitude in (5e-324, 1e-300, 1e-12, 1e-8, 1e-5, 1e-3):
                for p in (magnitude, -magnitude):
                    k = mpmath.mpf(p) + 1
                    exact = ((mb ** k - ma ** k) / (k * (mb - ma))) ** (1 / mpmath.mpf(p))
                    value = gen_log_mean(OrderedInterval(a, b), p)
                    assert abs(value - exact) <= 1e-13 * exact, (a, b, p)

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
