"""Bound evaluators: frozen anchors, coefficient oracles, dominance, reductions.

The closed-form coefficients of the endpoint and power-mean bounds are the
heart of the package, so they are verified here against their defining
weighted t-integrals evaluated by quadrature, an entirely independent route.
"""

import math
import random

import numpy as np
import pytest

from sconvexlab import (
    DomainError,
    MissingParam,
    OrderedInterval,
    PowerSum,
    bound_s1,
    bound_s2,
    bound_s3,
    bound_se2,
    bound_se5,
    bound_se6,
    bullen_defect_signed,
    bullen_type_defect,
    evaluate_bound,
    hadamard_s_triple,
    handle_from_power_sum,
    integrate,
    lemma_identity_rhs,
    trapezoid_defect,
)
from sconvexlab.funcmodel import FuncHandle, sample_dconvex_instance, GenConfig

IV13 = OrderedInterval(1, 3)
IV14 = OrderedInterval(1, 4)

X = handle_from_power_sum(PowerSum([(1, 1)]))
X2 = handle_from_power_sum(PowerSum([(1, 2)]))
SQRT = handle_from_power_sum(PowerSum([(1, 0.5)]))
CONST = handle_from_power_sum(PowerSum([(2.5, 0)]))


def random_interval(rng, lo=0.25, hi=4.0, min_width=0.05):
    a = rng.uniform(lo, hi)
    b = rng.uniform(lo, hi)
    while abs(b - a) < min_width:
        b = rng.uniform(lo, hi)
    return OrderedInterval(min(a, b), max(a, b))


class TestBullenDefect:
    def test_constant_collapses(self):
        assert bullen_type_defect(CONST, IV13) == 0.0

    def test_linear_does_not_vanish(self):
        # closed form (a+b)/4: the mixed endpoint term keeps affine
        # functions away from zero.
        assert bullen_type_defect(X, IV13) == pytest.approx(1.0, abs=1e-14)
        rng = random.Random(2)
        for _ in range(50):
            iv = random_interval(rng)
            assert bullen_type_defect(X, iv) == pytest.approx((iv.a + iv.b) / 4, rel=1e-12)

    def test_square(self):
        assert bullen_type_defect(X2, IV13) == pytest.approx(23 / 6, abs=1e-12)

    def test_sqrt(self):
        assert bullen_type_defect(SQRT, IV14) == pytest.approx(0.4316528071801274, abs=1e-12)
        assert bullen_type_defect(SQRT, IV14) == pytest.approx(0.431653, abs=1e-6)

    def test_quadrature_fallback_matches_exact(self):
        bare = FuncHandle(value=lambda x: x ** 2, derivative=lambda x: 2 * x)
        assert bullen_type_defect(bare, IV13) == pytest.approx(23 / 6, abs=1e-10)


class TestLemmaIdentity:
    def test_constant(self):
        assert lemma_identity_rhs(CONST, IV13) == 0.0

    def test_linear(self):
        # each t-integral contributes A(a,b)/4
        assert lemma_identity_rhs(X, IV13) == pytest.approx(1.0, abs=1e-12)

    def test_square_signed(self):
        signed = bullen_defect_signed(X2, IV13)
        assert lemma_identity_rhs(X2, IV13) == pytest.approx(signed, abs=1e-12)
        assert abs(signed) == pytest.approx(23 / 6, abs=1e-12)

    def test_identity_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(100):
            f, iv = sample_dconvex_instance(rng, GenConfig())
            lhs = bullen_defect_signed(f, iv)
            rhs = lemma_identity_rhs(f, iv)
            assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs)), (
                f"identity broke for {f.value.to_dsl()} on {iv}: {lhs} vs {rhs}"
            )


class TestBoundSe2:
    def test_s1_coefficients(self):
        # At s=1 the weights become (5a+7b)/48 and (7a+5b)/48.
        assert bound_se2(1.0, 0.0, IV13, 1.0) == pytest.approx(26 / 48, rel=1e-14)
        assert bound_se2(0.0, 1.0, IV13, 1.0) == pytest.approx(22 / 48, rel=1e-14)
        assert bound_se2(2.0, 6.0, IV13, 1.0) == pytest.approx(23 / 6, rel=1e-14)

    def test_zero_derivative(self):
        assert bound_se2(0.0, 0.0, IV13, 0.5) == 0.0

    def test_half_s_anchor(self):
        assert bound_se2(0.5, 0.25, IV14, 0.5) == pytest.approx(0.6383883476483184, rel=1e-12)
        assert bound_se2(0.5, 0.25, IV14, 0.5) == pytest.approx(0.638388, abs=1e-6)

    def test_coefficients_match_t_integral_oracle(self):
        """C1 must equal the weighted t-integral the proof evaluates:

            1/4 int_0^1 (tb+(1-t)a) ((1+t)/2)^s dt
          + 1/4 int_0^1 (ta+(1-t)b) ((1-t)/2)^s dt
        """
        rng = random.Random(77)
        for _ in range(25):
            iv = random_interval(rng)
            s = rng.uniform(0.05, 1.0)
            a, b = iv.a, iv.b
            c1_oracle = 0.25 * (
                integrate(lambda t: (t * b + (1 - t) * a) * ((1 + t) / 2) ** s, 0, 1).value
                + integrate(lambda t: (t * a + (1 - t) * b) * ((1 - t) / 2) ** s, 0, 1).value
            )
            c2_oracle = 0.25 * (
                integrate(lambda t: (t * b + (1 - t) * a) * ((1 - t) / 2) ** s, 0, 1).value
                + integrate(lambda t: (t * a + (1 - t) * b) * ((1 + t) / 2) ** s, 0, 1).value
            )
            assert bound_se2(1.0, 0.0, iv, s) == pytest.approx(c1_oracle, rel=1e-9)
            assert bound_se2(0.0, 1.0, iv, s) == pytest.approx(c2_oracle, rel=1e-9)

    def test_equality_for_square(self):
        # |f'| = 2x is linear and positive: every estimate in the derivation
        # is tight, so bound equals defect.
        assert bound_se2(2.0, 6.0, IV13, 1.0) == pytest.approx(bullen_type_defect(X2, IV13), abs=1e-10)


class TestBoundSe5:
    def test_anchor_s1_q2(self):
        assert bound_se5(2.0, 6.0, IV13, 1.0, 2.0) == pytest.approx(4.556560911375046, rel=1e-12)

    def test_zero_derivative(self):
        assert bound_se5(0.0, 0.0, IV13, 0.5, 1.5) == 0.0

    def test_s1_prefactor_and_weights(self):
        """At s=1 the prefactor is L_p / 4^(1+1/q) and the q-bracket weights
        are (1, 3), i.e. the literal convex-case bound."""
        rng = random.Random(41)
        for _ in range(50):
            iv = random_interval(rng)
            q = rng.uniform(1.01, 5.0)
            df_a, df_b = rng.uniform(0, 3), rng.uniform(0, 3)
            assert bound_se5(df_a, df_b, iv, 1.0, q) == pytest.approx(
                bound_s2(df_a, df_b, iv, q), rel=1e-12
            )

    def test_t_integral_weights(self):
        """int ((1-t)/2)^s dt = 1/(2^s(s+1)); int ((1+t)/2)^s dt brings the
        2^(s+1)-1 weight."""
        for s in (0.1, 0.5, 0.9, 1.0):
            low = integrate(lambda t: ((1 - t) / 2) ** s, 0, 1).value
            high = integrate(lambda t: ((1 + t) / 2) ** s, 0, 1).value
            assert low == pytest.approx(1 / (2 ** s * (s + 1)), rel=1e-10)
            assert high == pytest.approx((2 ** (s + 1) - 1) / (2 ** s * (s + 1)), rel=1e-10)

    def test_holder_pair_validation(self):
        # The Holder bounds need q > 1, so that p = q / (q - 1) is finite.
        with pytest.raises(DomainError, match="Holder exponent"):
            bound_se5(2.0, 6.0, IV13, 1.0, 1.0)
        # q is checked before s.
        with pytest.raises(DomainError, match="Holder exponent requires a finite q > 1, got 0.5"):
            bound_se5(2.0, 6.0, IV13, 2.0, 0.5)
        with pytest.raises(DomainError, match="Holder exponent"):
            bound_s2(2.0, 6.0, IV13, 1.0)


class TestBoundSe6:
    def test_anchor_s1_q2(self):
        assert bound_se6(2.0, 6.0, IV13, 1.0, 2.0) == pytest.approx(4.214982059327063, rel=1e-12)

    def test_zero_derivative(self):
        assert bound_se6(0.0, 0.0, IV13, 0.5, 2.0) == 0.0

    def test_q1_collapses_to_endpoint_bound(self):
        rng = random.Random(55)
        for _ in range(200):
            iv = random_interval(rng)
            s = rng.uniform(0.05, 1.0)
            df_a, df_b = rng.uniform(0, 3), rng.uniform(0, 3)
            lhs = bound_se6(df_a, df_b, iv, s, 1.0)
            rhs = bound_se2(df_a, df_b, iv, s)
            assert lhs == pytest.approx(rhs, rel=1e-12), f"collapse failed at s={s}, iv={iv}"

    def test_bracket_coefficients_match_t_integral_oracle(self):
        """The two q-bracket weights come from weighted moment integrals."""
        rng = random.Random(56)
        for _ in range(20):
            iv = random_interval(rng)
            s = rng.uniform(0.05, 1.0)
            a, b = iv.a, iv.b
            denom = 2 ** s * (s + 1) * (s + 2)
            low = integrate(lambda t: ((1 - t) / 2) ** s * (t * b + (1 - t) * a), 0, 1).value
            high = integrate(lambda t: ((1 + t) / 2) ** s * (t * b + (1 - t) * a), 0, 1).value
            assert low == pytest.approx((a * s + a + b) / denom, rel=1e-9)
            assert high == pytest.approx((b * (s * 2 ** (s + 1) + 1) + a * (2 ** (s + 2) - s - 3)) / denom, rel=1e-9)

    def test_rejects_q_below_one(self):
        with pytest.raises(DomainError):
            bound_se6(1.0, 1.0, IV13, 0.5, 0.9)


class TestBoundMs:
    def test_s1_printed_coefficients(self):
        assert bound_s1(2.0, 6.0, IV13) == pytest.approx(23 / 6, rel=1e-14)

    def test_s2_anchor(self):
        assert bound_s2(2.0, 6.0, IV13, 2.0) == pytest.approx(4.556560911375046, rel=1e-12)

    def test_s3_anchor(self):
        assert bound_s3(2.0, 6.0, IV13, 2.0) == pytest.approx(4.214982059327063, rel=1e-12)

    def test_missing_q(self):
        with pytest.raises(MissingParam):
            bound_s2(1.0, 1.0, IV13, None)
        with pytest.raises(MissingParam):
            bound_s3(1.0, 1.0, IV13, None)


class TestHadamardChains:
    """At s = 1 the s-convex chain is the Hermite-Hadamard chain of convex f."""

    def test_square_triple(self):
        left, mid, right = hadamard_s_triple(X2, 1.0, 3.0, 1.0)
        assert (left, right) == (4.0, 5.0)
        assert mid == pytest.approx(13 / 3, rel=1e-12)
        assert left <= mid <= right

    def test_affine_equality(self):
        left, mid, right = hadamard_s_triple(X, 1.0, 3.0, 1.0)
        assert left == pytest.approx(mid, abs=1e-14)
        assert mid == pytest.approx(right, abs=1e-14)

    def test_constant(self):
        assert hadamard_s_triple(CONST, 1.0, 3.0, 1.0) == pytest.approx((2.5, 2.5, 2.5), abs=1e-14)

    def test_s_triple_sharp_instance(self):
        left, mid, right = hadamard_s_triple(SQRT, 0.0, 1.0, 0.5)
        assert left == pytest.approx(0.5, abs=1e-12)
        assert right == pytest.approx(2 / 3, abs=1e-15)
        assert abs(mid - right) <= 1e-10  # the constant 1/(s+1) is attained
        assert left <= mid <= right + 1e-10

    def test_s_triple_reduces_to_plain_chain_at_s1(self):
        assert hadamard_s_triple(X2, 1.0, 3.0, 1.0) == pytest.approx((4.0, 13 / 3, 5.0), rel=1e-12)
        assert hadamard_s_triple(X, 1.0, 3.0, 1.0) == pytest.approx((2.0, 2.0, 2.0), abs=1e-13)

    def test_s_triple_rejects_negative_u(self):
        with pytest.raises(DomainError):
            hadamard_s_triple(X2, -0.5, 1.0, 0.5)

    def test_s_triple_rejects_f_unbounded_at_zero(self):
        recip_sqrt = handle_from_power_sum(PowerSum([(1.0, -0.5)]))
        with pytest.raises(DomainError, match="unbounded or undefined"):
            hadamard_s_triple(recip_sqrt, 0.0, 1.0, 0.5)
        inf_at_zero = FuncHandle(value=lambda x: np.inf if x == 0.0 else x, derivative=lambda x: 1.0)
        with pytest.raises(DomainError):
            hadamard_s_triple(inf_at_zero, 0.0, 1.0, 0.5)

    def test_bullen_rhs(self):
        assert evaluate_bound("bullen", X2, IV13).rhs == pytest.approx(4.5, abs=1e-14)
        assert evaluate_bound("bullen", X2, IV13).rhs >= 13 / 3
        assert evaluate_bound("bullen", X, IV13).rhs == pytest.approx(2.0, abs=1e-14)
        assert evaluate_bound("bullen", CONST, IV13).rhs == pytest.approx(2.5, abs=1e-14)


class TestTrapezoidFamily:
    def test_square(self):
        assert trapezoid_defect(X2, IV13) == pytest.approx(2 / 3, abs=1e-12)

    def test_affine_vanishes(self):
        assert trapezoid_defect(X, IV13) == pytest.approx(0.0, abs=1e-14)

    def test_three_halves_power(self):
        f = handle_from_power_sum(PowerSum([(2 / 3, 1.5)]))
        assert trapezoid_defect(f, IV14) == pytest.approx(11 / 45, abs=1e-12)

    def test_da_anchor(self):
        assert evaluate_bound("da", X2, IV13).rhs == pytest.approx(2.0, abs=1e-14)
        assert trapezoid_defect(X2, IV13) <= evaluate_bound("da", X2, IV13).rhs

    def test_pp_anchor(self):
        assert evaluate_bound("pp", X2, IV13, q=2.0).rhs == pytest.approx(0.5 * math.sqrt(20), rel=1e-14)

    def test_ppc_value(self):
        assert evaluate_bound("ppc", X2, IV13, q=2.0).rhs == pytest.approx(2.0, abs=1e-14)

    def test_adk_anchor(self):
        f = handle_from_power_sum(PowerSum([(2 / 3, 1.5)]))
        value = evaluate_bound("adk", f, IV14, q=2.0).rhs
        assert value == pytest.approx(1.3534467116692798, rel=1e-12)
        assert value == pytest.approx(1.35345, abs=1e-5)
        assert trapezoid_defect(f, IV14) <= value

    def test_missing_q(self):
        with pytest.raises(MissingParam):
            evaluate_bound("pp", X2, IV13)
        with pytest.raises(MissingParam):
            evaluate_bound("adk", X2, IV13)


class TestDominanceOnCertifiedFamily:
    """The three main bounds hold over the generated family, spot scale."""

    def test_se2_se5_se6(self):
        rng = random.Random(99)
        for _ in range(60):
            f, iv = sample_dconvex_instance(rng, GenConfig())
            df = f.derivative
            df_a, df_b = abs(df(iv.a)), abs(df(iv.b))
            defect = bullen_type_defect(f, iv)
            for s in (0.25, 0.5, 1.0):
                assert defect <= bound_se2(df_a, df_b, iv, s) + 1e-9
                for q in (1.5, 2.0, 3.0):
                    assert defect <= bound_se5(df_a, df_b, iv, s, q) + 1e-9
                    assert defect <= bound_se6(df_a, df_b, iv, s, q) + 1e-9


class TestEvaluateBound:
    def test_report_fields(self):
        r = evaluate_bound("se2", X2, IV13, s=1.0)
        assert r.theorem_id == "se2"
        assert (r.a, r.b, r.s, r.q) == (1.0, 3.0, 1.0, None)
        assert r.holds and r.margin == pytest.approx(0.0, abs=1e-10)

    def test_missing_parameters(self):
        with pytest.raises(MissingParam):
            evaluate_bound("se2", X2, IV13)
        with pytest.raises(MissingParam):
            evaluate_bound("se5", X2, IV13, s=0.5)

    def test_chain_violation_reported(self):
        # sqrt is concave, so the plain convexity chain must fail.
        r = evaluate_bound("hh", SQRT, IV14)
        assert not r.holds and r.margin < 0

    def test_unknown_theorem(self):
        with pytest.raises(DomainError):
            evaluate_bound("zz9", X2, IV13)
