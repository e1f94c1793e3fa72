"""Mean-expressed proposition sides: oracle agreement, dominance, sign defect."""

import random

import pytest

from sconvexlab.bounds import bound_se2, bound_se5, bound_se6, bullen_type_defect
from sconvexlab.errors import DomainError, MissingParam
from sconvexlab.funcmodel import FuncHandle, PowerSum
from sconvexlab.means import OrderedInterval
from sconvexlab.means_bounds import prop_power_lhs, prop_recip_lhs, prop_rhs, se4_discrepancy

IV13 = OrderedInterval(1, 3)
IV14 = OrderedInterval(1, 4)

POWER_S = [round(0.1 * k, 1) for k in range(1, 11)]
RECIP_S = [round(0.1 * k, 1) for k in range(1, 10)]


def quadrature_defect_of_power(iv, coeff, exponent):
    """Defect of coeff * x^exponent with the integral mean taken by quadrature."""
    ps = PowerSum([(coeff, exponent)])
    handle = FuncHandle(value=ps, derivative=ps.derivative())
    return bullen_type_defect(handle, iv)


def random_interval(rng):
    a = rng.uniform(0.25, 4.0)
    b = rng.uniform(0.25, 4.0)
    while abs(b - a) < 0.05:
        b = rng.uniform(0.25, 4.0)
    return OrderedInterval(min(a, b), max(a, b))


class TestPropPowerLhs:
    def test_anchor(self):
        assert prop_power_lhs(IV14, 0.5) == pytest.approx(0.4316528071801274, abs=1e-12)
        assert prop_power_lhs(IV14, 0.5) == pytest.approx(0.431653, abs=1e-6)

    def test_s_equal_one_is_linear_defect(self):
        # the vanishing quotient kills the mixed term and x^1 remains
        assert prop_power_lhs(IV13, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert prop_power_lhs(IV13, 1.0) == pytest.approx(
            bullen_type_defect(FuncHandle(value=lambda x: x, derivative=lambda x: 1.0), IV13), abs=1e-10
        )

    def test_matches_quadrature_defect_on_grid(self):
        rng = random.Random(61)
        for _ in range(20):
            iv = random_interval(rng)
            for s in POWER_S:
                lhs = prop_power_lhs(iv, s)
                oracle = quadrature_defect_of_power(iv, 1.0, s)
                assert lhs == pytest.approx(oracle, abs=1e-9, rel=1e-9), f"s={s}, iv={iv}"


class TestPropRecipLhs:
    def test_matches_quadrature_defect_on_grid(self):
        rng = random.Random(62)
        for _ in range(20):
            iv = random_interval(rng)
            for s in RECIP_S:
                lhs = prop_recip_lhs(iv, s)
                oracle = quadrature_defect_of_power(iv, 1.0 / (1.0 - s), 1.0 - s)
                assert lhs == pytest.approx(oracle, abs=1e-9, rel=1e-9), f"s={s}, iv={iv}"

    def test_half_s_equals_twice_sqrt_defect(self):
        assert prop_recip_lhs(IV14, 0.5) == pytest.approx(quadrature_defect_of_power(IV14, 2.0, 0.5), abs=1e-10)

    def test_s_one_rejected(self):
        with pytest.raises(DomainError):
            prop_recip_lhs(IV13, 1.0)


class TestPropRhs:
    def test_se3_anchor_pair(self):
        rhs = prop_rhs("SE3", IV14, 0.5)
        assert rhs == pytest.approx(0.6383883476483184, rel=1e-12)
        assert prop_power_lhs(IV14, 0.5) <= rhs

    def test_se3_s1_equality_instance(self):
        # x^1 has |f'| = 1: both sides equal (26+22)/48 = 1.
        assert prop_rhs("SE3", IV13, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert prop_power_lhs(IV13, 1.0) == pytest.approx(prop_rhs("SE3", IV13, 1.0), abs=1e-12)

    def test_substitution_consistency(self):
        """Each proposition must be bit-equal to its generic bound with the
        family's |f'| endpoints substituted: one source of truth, same code
        path.  x^s has |f'| = s x^(s-1); x^(1-s)/(1-s) has |f'| = x^-s."""
        rng = random.Random(63)
        for _ in range(50):
            iv = random_interval(rng)
            q = rng.choice([1.0, 1.5, 2.0, 3.0])
            hq = q if q > 1.0 else 2.0
            s = rng.choice(POWER_S)
            da, db = s * iv.a ** (s - 1), s * iv.b ** (s - 1)
            assert prop_rhs("SE3", iv, s) == bound_se2(da, db, iv, s)
            assert prop_rhs("SE7", iv, s, q) == bound_se6(da, db, iv, s, q)
            assert prop_rhs("SE8", iv, s, hq) == bound_se5(da, db, iv, s, hq)
            s = rng.choice(RECIP_S)
            da, db = iv.a ** -s, iv.b ** -s
            assert prop_rhs("SE4", iv, s) == bound_se2(da, db, iv, s)
            assert prop_rhs("SE10", iv, s, q) == bound_se6(da, db, iv, s, q)
            assert prop_rhs("SE9", iv, s, hq) == bound_se5(da, db, iv, s, hq)

    def test_dominance_all_six_kinds(self):
        rng = random.Random(64)
        for _ in range(15):
            iv = random_interval(rng)
            q = rng.choice([1.5, 2.0, 3.0])
            for s in POWER_S:
                lhs = prop_power_lhs(iv, s)
                assert lhs <= prop_rhs("SE3", iv, s) + 1e-9
                assert lhs <= prop_rhs("SE7", iv, s, q) + 1e-9
                assert lhs <= prop_rhs("SE8", iv, s, q) + 1e-9
            for s in RECIP_S:
                lhs = prop_recip_lhs(iv, s)
                assert lhs <= prop_rhs("SE4", iv, s) + 1e-9
                assert lhs <= prop_rhs("SE9", iv, s, q) + 1e-9
                assert lhs <= prop_rhs("SE10", iv, s, q) + 1e-9

    def test_parameter_requirements(self):
        with pytest.raises(MissingParam):
            prop_rhs("SE8", IV13, 0.5)
        with pytest.raises(MissingParam):
            prop_rhs("SE7", IV13, 0.5)
        with pytest.raises(DomainError):
            prop_rhs("SE9", IV13, 1.0, 2.0)  # reciprocal family needs s < 1
        with pytest.raises(DomainError):
            prop_rhs("SE10", IV13, 1.0, 2.0)
        with pytest.raises(DomainError):
            prop_rhs("SE11", IV13, 0.5)


class TestSe4Discrepancy:
    def test_second_term_is_exact_negation(self):
        rng = random.Random(65)
        for _ in range(100):
            iv = random_interval(rng)
            s = rng.uniform(0.05, 0.95)
            d = se4_discrepancy(iv, s)
            assert d.printed_second_term == -d.substitution_second_term, (
                f"negation not exact at iv={iv}, s={s}"
            )

    def test_printed_value_not_a_bound(self):
        # The printed form loses the positive a^-s weight entirely, so it
        # falls below the substitution bound; on this anchor it goes negative.
        d = se4_discrepancy(IV14, 0.5)
        assert d.printed_rhs < d.substitution_rhs
        assert d.printed_rhs < 0.0
        assert d.substitution_rhs == pytest.approx(prop_rhs("SE4", IV14, 0.5), rel=1e-15)

    def test_first_terms_agree_with_substitution(self):
        rng = random.Random(66)
        for _ in range(50):
            iv = random_interval(rng)
            s = rng.uniform(0.05, 0.95)
            d = se4_discrepancy(iv, s)
            assert d.substitution_rhs == pytest.approx(prop_rhs("SE4", iv, s), rel=1e-12)
