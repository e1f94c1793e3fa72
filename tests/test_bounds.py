"""Bound evaluators: frozen anchors, coefficient oracles, dominance, reductions.

The closed-form coefficients of the endpoint and power-mean bounds are the
heart of the package, so they are verified here against their defining
weighted t-integrals evaluated by quadrature, an entirely independent route.
"""

import itertools
import math
import random
from functools import cache, partial

import mpmath
import numpy as np
import pytest

import sconvexlab.bounds as bounds
from sconvexlab.bounds import (
    DEFAULT_BOUND_TOL,
    THEOREMS,
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
    lemma_identity_rhs,
    trapezoid_defect,
    verdict,
)
from sconvexlab.errors import DomainError, MissingParam
from sconvexlab.funcmodel import (
    FuncHandle,
    GenConfig,
    PowerSum,
    check_hypothesis,
    handle_from_power_sum,
    powersum_integral,
    sample_dconvex_instance,
)
from sconvexlab.means import OrderedInterval
from sconvexlab.quadrature import integrate

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


@cache
def _envelope_integrals_50_digits(a, b, s):
    """The proofs' t-integrals at 50 digits: the lemma's kernels
    k1 = tb + (1-t)a and k2 = ta + (1-t)b against the s-convex envelope's
    factors ((1+t)/2)^s and ((1-t)/2)^s, as I1 = int k1 up, J1 = int k1 down,
    I2 = int k2 down and J2 = int k2 up, and the bare factors as
    E1 = int up and E2 = int down."""
    with mpmath.workdps(50):
        a, b, s = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(s)
        up = lambda t: ((1 + t) / 2) ** s
        down = lambda t: ((1 - t) / 2) ** s
        k1 = lambda t: t * b + (1 - t) * a
        k2 = lambda t: t * a + (1 - t) * b
        quad = lambda g: mpmath.quad(g, [0, 1])
        return (quad(lambda t: k1(t) * up(t)), quad(lambda t: k1(t) * down(t)),
                quad(lambda t: k2(t) * down(t)), quad(lambda t: k2(t) * up(t)), quad(up), quad(down))


@cache
def _kernel_norm_50_digits(a, b, p):
    """(int_0^1 k1^p dt)^(1/p), the Holder step's kernel factor, at 50 digits."""
    with mpmath.workdps(50):
        a, b, p = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(p)
        return mpmath.quad(lambda t: (t * b + (1 - t) * a) ** p, [0, 1]) ** (1 / p)


def _se2_weights_50_digits(a, b, s):
    """The weights of |f'(a)| and |f'(b)| in the se2 proof: the envelope's
    two factors swap places between the kernels of the two weights."""
    i1, j1, i2, j2, _, _ = _envelope_integrals_50_digits(a, b, s)
    with mpmath.workdps(50):
        return (i1 + i2) / 4, (j1 + j2) / 4


def _se6_50_digits(a, b, s, q, da, db):
    """The power-mean proof's bound: the triangle step, then
    int k|f'| <= (int k)^(1-1/q) (int k|f'|^q)^(1/q) with int k = A, then
    the s-convex envelope of |f'|^q under each kernel."""
    i1, j1, i2, j2, _, _ = _envelope_integrals_50_digits(a, b, s)
    with mpmath.workdps(50):
        q, da, db = mpmath.mpf(q), mpmath.mpf(da), mpmath.mpf(db)
        mean = (mpmath.mpf(a) + mpmath.mpf(b)) / 2
        bracket = (i1 * da ** q + j1 * db ** q) ** (1 / q) + (i2 * da ** q + j2 * db ** q) ** (1 / q)
        return mean ** (1 - 1 / q) * bracket / 4


def _se5_50_digits(a, b, s, q, da, db):
    """The Holder proof's bound: int k|f'| <= (int k^p)^(1/p) (int |f'|^q)^(1/q),
    p = q/(q-1), with the s-convex envelope of |f'|^q; both kernels have
    the same p-norm."""
    _, _, _, _, e1, e2 = _envelope_integrals_50_digits(a, b, s)
    norm = _kernel_norm_50_digits(a, b, q / (q - 1.0))
    with mpmath.workdps(50):
        q, da, db = mpmath.mpf(q), mpmath.mpf(da), mpmath.mpf(db)
        bracket = (e1 * da ** q + e2 * db ** q) ** (1 / q) + (e2 * da ** q + e1 * db ** q) ** (1 / q)
        return norm * bracket / 4


PROOF_S = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
PROOF_Q = (1.0, 1.5, 2.0, 3.0)
PROOF_INTERVALS = ((1.0, 3.0), (0.25, 4.0), (2.0, 2.1), (1e-3, 1e3))
# (|f'(a)|, |f'(b)|) pairs for the bounds that are not linear in them.
PROOF_DERIVATIVES = ((1.0, 0.0), (0.0, 1.0), (2.0, 6.0), (0.5, 3.0))


def _worst_proof_gaps():
    """The worst relative gaps of bounds._se2_coeffs, and of bound_s1's
    coefficients at s = 1, from the 50-digit proof weights."""
    se2 = s1 = 0.0
    for (a, b), s in itertools.product(PROOF_INTERVALS, PROOF_S):
        ref = _se2_weights_50_digits(a, b, s)
        gaps = lambda coeffs: max(float(abs(c - r) / r) for c, r in zip(coeffs, ref))
        se2 = max(se2, gaps(bounds._se2_coeffs(a, b, s)))
        if s == 1.0:
            iv = OrderedInterval(a, b)
            s1 = max(s1, gaps((bound_s1(1.0, 0.0, iv), bound_s1(0.0, 1.0, iv))))
    return se2, s1


def _worst_norm_bound_gaps():
    """The worst relative gap of each of se5, se6, s2 and s3 (the last two
    at s = 1) from its proof's bound at 50 digits; se5 and s2 at q > 1."""
    worst = dict.fromkeys(("se5", "se6", "s2", "s3"), 0.0)

    def gap(name, value, ref):
        worst[name] = max(worst[name], float(abs(value - ref) / ref))

    for (a, b), s, q, (da, db) in itertools.product(PROOF_INTERVALS, PROOF_S, PROOF_Q, PROOF_DERIVATIVES):
        iv = OrderedInterval(a, b)
        ref = _se6_50_digits(a, b, s, q, da, db)
        gap("se6", bound_se6(da, db, iv, s, q), ref)
        if s == 1.0:
            gap("s3", bound_s3(da, db, iv, q), ref)
        if q > 1.0:
            ref = _se5_50_digits(a, b, s, q, da, db)
            gap("se5", bound_se5(da, db, iv, s, q), ref)
            if s == 1.0:
                gap("s2", bound_s2(da, db, iv, q), ref)
    return worst


@cache
def _trapezoid_50_digits(a, b, q, da, db):
    """The da and pp proofs' bounds at 50 digits, from the trapezoid
    identity (f(a)+f(b))/2 - mean(f) = (b-a)/2 int (1-2t) f'(ta+(1-t)b) dt:
    the triangle step, the power-mean step for pp, and the convex envelope
    t|f'(a)|^k + (1-t)|f'(b)|^k.  Each integral is split at the kink t = 1/2."""
    with mpmath.workdps(50):
        a, b, q, da, db = map(mpmath.mpf, (a, b, q, da, db))
        kernel = lambda t: abs(1 - 2 * t)
        quad = lambda g: mpmath.quad(g, [0, 0.5, 1])
        half = (b - a) / 2
        da_ref = half * quad(lambda t: kernel(t) * (t * da + (1 - t) * db))
        envelope = quad(lambda t: kernel(t) * (t * da ** q + (1 - t) * db ** q))
        return da_ref, half * quad(kernel) ** (1 - 1 / q) * envelope ** (1 / q)


def _worst_trapezoid_gaps():
    """The worst relative gap of each of da and pp, as THEOREMS evaluates
    it, from its proof's bound at 50 digits."""
    worst = dict.fromkeys(("da", "pp"), 0.0)
    for (a, b), q, (da, db) in itertools.product(PROOF_INTERVALS, PROOF_Q, PROOF_DERIVATIVES):
        # The sides read f' at a and b only; f = x gives a finite lhs.
        f = X._replace(derivative={a: da, b: db}.__getitem__)
        for theorem, ref in zip(worst, _trapezoid_50_digits(a, b, q, da, db)):
            _, rhs = THEOREMS[theorem].sides(f, a, b, None, q)
            worst[theorem] = max(worst[theorem], float(abs(rhs - ref) / ref))
    return worst


class TestProofConstants:
    """The se2, s1, se5, se6, s2, s3, da and pp constants are the integrals
    their proofs evaluate (ROADMAP item 9); the worst gaps found were
    2.3e-16 (se2), 9.1e-17 (s1), 6.4e-16 (se5), 5.5e-16 (se6), 5.0e-16
    (s2), 3.3e-16 (s3), 5.6e-17 (da) and 2.0e-16 (pp)."""

    def test_se2_and_s1_constants_follow_from_the_proof(self):
        se2, s1 = _worst_proof_gaps()
        assert se2 < 1e-14 and s1 < 1e-14

    def test_control_a_perturbed_se2_weight_is_caught(self, monkeypatch):
        exact = bounds.se2_weights
        monkeypatch.setattr(bounds, "se2_weights", lambda s: (exact(s)[0] * (1 + 1e-12), exact(s)[1]))
        se2, _ = _worst_proof_gaps()
        assert se2 > 1e-14

    def test_holder_and_power_mean_constants_follow_from_the_proof(self):
        worst = _worst_norm_bound_gaps()
        assert all(gap < 1e-14 for gap in worst.values()), worst

    def test_control_a_perturbed_gen_log_mean_is_caught(self, monkeypatch):
        exact = bounds.gen_log_mean
        monkeypatch.setattr(bounds, "gen_log_mean", lambda iv, p: exact(iv, p) * (1 + 1e-12))
        worst = _worst_norm_bound_gaps()
        assert worst["se5"] > 1e-14 and worst["s2"] > 1e-14

    def test_control_a_perturbed_arithmetic_mean_is_caught(self, monkeypatch):
        # A^(1-1/q) moves only at q > 1.
        exact = bounds.arithmetic_mean
        monkeypatch.setattr(bounds, "arithmetic_mean", lambda iv: exact(iv) * (1 + 1e-12))
        worst = _worst_norm_bound_gaps()
        assert worst["se6"] > 1e-14 and worst["s3"] > 1e-14

    def test_trapezoid_constants_follow_from_the_proof(self):
        worst = _worst_trapezoid_gaps()
        assert all(gap < 1e-14 for gap in worst.values()), worst

    @pytest.mark.parametrize("theorem", ["da", "pp"])
    def test_control_a_perturbed_trapezoid_bound_is_caught(self, monkeypatch, theorem):
        th = THEOREMS[theorem]

        def perturbed(f, a, b, s, q):
            lhs, rhs = th.sides(f, a, b, s, q)
            return lhs, rhs * (1 + 1e-12)

        monkeypatch.setitem(THEOREMS, theorem, th._replace(sides=perturbed))
        assert _worst_trapezoid_gaps()[theorem] > 1e-14


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

    def test_s_triple_at_zero_exact_or_numerical(self):
        """At u = 0 a power sum's mean is exact; a handle without an exact
        integral still gets it by quadrature."""
        assert hadamard_s_triple(SQRT, 0.0, 1.0, 0.5)[1] == pytest.approx(2 / 3, rel=1e-15)
        plain = FuncHandle(value=lambda x: math.sqrt(x), derivative=lambda x: 0.5 / math.sqrt(x))
        assert abs(hadamard_s_triple(plain, 0.0, 1.0, 0.5)[1] - 2 / 3) <= 1e-10

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


def _negated(ps):
    return PowerSum([(-c, p) for c, p in ps.terms])


def _negated_draws():
    """300 base-family draws, each as (f, -f, iv, s, q).  -f has every
    coefficient of f, f' and the exact integral negated."""
    draws = []
    for seed in range(300):
        rng = random.Random(seed)
        f, iv = sample_dconvex_instance(rng, GenConfig())
        s, q = rng.choice((0.25, 0.5, 0.75, 1.0)), rng.choice((1.5, 2.0, 3.0))
        neg_f = _negated(f.value)
        neg = FuncHandle(neg_f, _negated(f.derivative), partial(powersum_integral, neg_f))
        draws.append((f, neg, iv, s, q))
    return draws


class TestNegatedInstances:
    """f -> -f leaves |f'| unchanged, so every theorem whose hypothesis is on
    f' must give the same sides; generated f' are never negative, so only
    these draws show that each side takes |f'| (ROADMAP item 2)."""

    DERIVATIVE_THEOREMS = ("se2", "se5", "se6", "s1", "s2", "s3", "da", "pp", "ppc", "adk")

    def test_sides_ignore_the_sign_of_f(self):
        assert sorted(self.DERIVATIVE_THEOREMS) == sorted(t for t, th in THEOREMS.items() if th.hypothesis != "f")
        for f, neg, iv, s, q in _negated_draws():
            for t in self.DERIVATIVE_THEOREMS:
                sides = THEOREMS[t].sides
                assert [x.hex() for x in sides(neg, iv.a, iv.b, s, q)] == [x.hex() for x in sides(f, iv.a, iv.b, s, q)]

    def test_signed_derivatives_violate_se2(self):
        """Control: the se2 right side fed the signed f'(a), f'(b) of -f
        is negative, a violation on every draw."""
        for _, neg, iv, s, _ in _negated_draws():
            rhs = bound_se2(neg.derivative(iv.a), neg.derivative(iv.b), iv, s)
            assert verdict(bullen_type_defect(neg, iv), rhs, DEFAULT_BOUND_TOL) == "violation"


# One term on [1, 20] per row, whose premise check_hypothesis does not
# prove, as (theorems, f, s, q); f' is x^0.5, x^0.25 or x^-2.5 (f its
# antiderivative), or f itself is x^0.5.
UNPROVED = (
    (("se2", "s1"), PowerSum([(1.0, 0.5)]).antiderivative(), 1.0, None),
    (("se6", "s3"), PowerSum([(1.0, 0.25)]).antiderivative(), 1.0, 1.5),
    (("ppc",), PowerSum([(1.0, -2.5)]).antiderivative(), 1.0, 1.5),
    (("adk",), PowerSum([(1.0, -2.5)]).antiderivative(), 1.0, 3.0),
    (("hh", "hhs", "bullen"), PowerSum([(1.0, 0.5)]), 1.0, None),
)


@pytest.mark.parametrize("theorem,f,s,q", [pytest.param(t, f, s, q, id=t) for ids, f, s, q in UNPROVED for t in ids])
def test_each_premise_matters(theorem, f, s, q):
    """Without its premise, the theorem's inequality fails (ROADMAP item
    11): on these instances check_hypothesis proves nothing and lhs > rhs
    beyond the tolerance (lhs/rhs 1.152 for se2 and s1, 1.099 for se6 and
    s3, 21.25 for ppc, 7.99 for adk, 1.134 for hh and hhs, 1.038 for
    bullen).  se5, s2, da and pp had no such instance on the grid searched:
    c = +-1, e in steps of 0.25 over [-2.5, 4], b in {1.5, 2, 3, 5, 10, 20},
    and the suites' s and q grids."""
    th = THEOREMS[theorem]
    handle = handle_from_power_sum(f)
    assert check_hypothesis(handle, th.hypothesis, s if th.takes_s else 1.0, q, th.concave) is None
    lhs, rhs = th.sides(handle, 1.0, 20.0, s, q)
    assert verdict(lhs, rhs, DEFAULT_BOUND_TOL) == "violation"


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
