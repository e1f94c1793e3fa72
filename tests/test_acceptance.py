"""Acceptance gate: every release criterion at its stated scale and tolerance.

Each test prints one pass/fail line (run pytest with -s to watch them go by).
The scales here are the contract: shrinking a case count or loosening a
tolerance to make a red test green is never acceptable.
"""

import json
import math
import random

import pytest

from sconvexlab.bounds import (
    bound_s2,
    bound_se2,
    bound_se5,
    bound_se6,
    bullen_type_defect,
    evaluate_bound,
    hadamard_s_triple,
    trapezoid_defect,
)
from sconvexlab.cli import dispatch
from sconvexlab.funcmodel import FuncHandle, GenConfig, PowerSum, handle_from_power_sum, sample_interval
from sconvexlab.harness import (
    SuiteConfig,
    run_bound_suites,
    run_identity_suite,
    run_prop_crosscheck_suite,
    run_reduction_suite,
)
from sconvexlab.means import OrderedInterval
from sconvexlab.means_bounds import prop_power_lhs, prop_recip_lhs, prop_rhs, se4_discrepancy


def _line(criterion: str, ok: bool):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_lemma_identity_1000_instances():
    ok = False
    try:
        report = run_identity_suite(SuiteConfig(seed=42, cases=1000, tol=1e-8))[0]
        assert report.cases_run == 1000
        assert report.violations == (), f"identity violations: {report.violations[:3]}"
        assert report.worst_margin >= -1e-8
        ok = True
    finally:
        _line("1 integral identity, 1000 seeded instances at 1e-8", ok)


def test_criterion_2_endpoint_bound_dominance_5000_cases():
    ok = False
    try:
        report = run_bound_suites(SuiteConfig(seed=101, cases=5000, tol=1e-9), ("SE2",))[0]
        assert report.cases_run == 5000
        assert report.violations == (), f"se2 violations: {report.violations[:3]}"
        assert report.skipped < 5000

        # equality anchor: f = x^2 on (1,3) at s = 1, both sides 23/6
        iv = OrderedInterval(1, 3)
        f = handle_from_power_sum(PowerSum([(1, 2)]))
        lhs = bullen_type_defect(f, iv)
        rhs = bound_se2(2.0, 6.0, iv, 1.0)
        assert abs(lhs - 23 / 6) <= 1e-10
        assert abs(rhs - 23 / 6) <= 1e-10
        assert abs(lhs - rhs) <= 1e-10
        ok = True
    finally:
        _line("2 endpoint bound, 5000 certified cases + 23/6 equality", ok)


def test_criterion_3_holder_and_power_mean_bounds_5000_each():
    ok = False
    try:
        for theorem in ("SE5", "SE6"):
            report = run_bound_suites(SuiteConfig(seed=202, cases=5000, tol=1e-9), (theorem,))[0]
            assert report.cases_run == 5000
            assert report.violations == (), f"{theorem} violations: {report.violations[:3]}"
        ok = True
    finally:
        _line("3 Holder and power-mean bounds, 5000 certified cases each", ok)


def test_criterion_4_reductions_to_convex_case():
    ok = False
    try:
        report = run_reduction_suite(SuiteConfig(seed=303, cases=1000, tol=1e-12))[0]
        assert report.violations == ()
        assert report.worst_margin >= -1e-12

        # spot sample quoted in the operation contract
        iv = OrderedInterval(1, 3)
        se5_at_one = bound_se5(2.0, 6.0, iv, 1.0, 2.0)
        assert se5_at_one == pytest.approx(bound_s2(2.0, 6.0, iv, 2.0), rel=1e-12)
        assert bound_se6(2.0, 6.0, iv, 0.5, 1.0) == pytest.approx(bound_se2(2.0, 6.0, iv, 0.5), rel=1e-12)
        ok = True
    finally:
        _line("4 s->1 and q->1 reductions, 1000 samples at 1e-12", ok)


def test_criterion_5_proposition_crosschecks():
    ok = False
    try:
        report = run_prop_crosscheck_suite(SuiteConfig(seed=404, cases=50, tol=1e-9))[0]
        assert report.cases_run == 50
        assert report.violations == (), f"prop violations: {report.violations[:3]}"

        iv = OrderedInterval(1, 4)
        lhs = prop_power_lhs(iv, 0.5)
        rhs = prop_rhs("SE3", iv, 0.5)
        assert lhs == pytest.approx(0.431653, abs=1e-6)
        assert rhs == pytest.approx(0.638388, abs=1e-6)
        assert lhs <= rhs
        ok = True
    finally:
        _line("5 proposition cross-checks, s-grid x 50 intervals at 1e-9", ok)


def test_criterion_6_sharp_constant_equality():
    ok = False
    try:
        # quadrature route on purpose: no exact-integral shortcut
        f = FuncHandle(value=lambda x: math.sqrt(x), derivative=lambda x: 0.5 / math.sqrt(x))
        left, mid, right = hadamard_s_triple(f, 0.0, 1.0, 0.5)
        assert abs(mid - right) <= 1e-10, f"endpoint-average constant not attained: {mid} vs {right}"
        assert left <= mid + 1e-10
        ok = True
    finally:
        _line("6 sharpness of the endpoint-average constant at 1e-10", ok)


def test_criterion_7_prior_art_chain_1000_each():
    ok = False
    try:
        for theorem in ("HH", "DA", "PP", "PPC", "ADK"):
            report = run_bound_suites(SuiteConfig(seed=505, cases=1000, tol=1e-9), (theorem,))[0]
            assert report.cases_run == 1000
            assert report.violations == (), f"{theorem} violations: {report.violations[:3]}"
            assert report.skipped < 1000

        # anchors
        iv13 = OrderedInterval(1, 3)
        x2 = handle_from_power_sum(PowerSum([(1, 2)]))
        assert evaluate_bound("da", x2, iv13).rhs == pytest.approx(2.0, abs=1e-12)
        assert trapezoid_defect(x2, iv13) == pytest.approx(2 / 3, abs=1e-12)

        iv14 = OrderedInterval(1, 4)
        f32 = handle_from_power_sum(PowerSum([(2 / 3, 1.5)]))
        assert evaluate_bound("adk", f32, iv14, q=2.0).rhs == pytest.approx(1.35345, abs=1e-5)
        assert trapezoid_defect(f32, iv14) == pytest.approx(0.244444, abs=1e-6)
        ok = True
    finally:
        _line("7 prior-art chain and trapezoid bounds, 1000 cases each", ok)


def test_criterion_8_printed_bound_discrepancy_documented():
    ok = False
    try:
        # symbolic-level comparison: the coefficient functions of a and b in
        # the printed second term are the exact negatives of the
        # substitution form's, across a dense s sweep
        for k in range(1, 400):
            s = k / 400.0
            printed_a = s - 2.0 ** (s + 2.0) + 2.0
            sub_a = 2.0 ** (s + 2.0) - s - 2.0
            assert printed_a == -sub_a
            printed_b = -(s * 2.0 ** (s + 1.0) + s + 2.0)
            sub_b = s * 2.0 ** (s + 1.0) + s + 2.0
            assert printed_b == -sub_b

        # 100 numeric samples of the fully assembled terms
        rng = random.Random(808)
        for _ in range(100):
            iv = sample_interval(rng, GenConfig())
            s = rng.uniform(0.02, 0.98)
            d = se4_discrepancy(iv, s)
            assert d.printed_second_term == -d.substitution_second_term
            assert d.printed_rhs < d.substitution_rhs

        # the tool emits a notice instead of asserting the printed bound
        report = run_prop_crosscheck_suite(SuiteConfig(seed=606, cases=100))[0]
        assert report.notes and "100/100" in report.notes[0]
        assert not any(r.theorem == "se4_printed" for r in report.rows)
        ok = True
    finally:
        _line("8 printed reciprocal-family bound: documented sign discrepancy", ok)


def test_criterion_9_verify_reports_byte_identical(tmp_path, capsys):
    ok = False
    try:
        paths = [tmp_path / f"report_{i}.json" for i in (1, 2)]
        for path in paths:
            code = dispatch([
                "verify", "--suite", "all", "--cases", "40", "--seed", "42",
                "--out", str(path), "--format", "json",
            ])
            assert code == 0
        docs = [json.loads(p.read_text()) for p in paths]
        for doc in docs:
            for suite in doc:
                suite["runtime_ms"] = 0.0
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)

        csv_paths = [tmp_path / f"report_{i}.csv" for i in (1, 2)]
        for path in csv_paths:
            code = dispatch([
                "verify", "--suite", "all", "--cases", "40", "--seed", "42",
                "--out", str(path), "--format", "csv",
            ])
            assert code == 0
        assert csv_paths[0].read_bytes() == csv_paths[1].read_bytes()
        ok = True
    finally:
        _line("9 repeated verify runs byte-identical (runtime excluded)", ok)
