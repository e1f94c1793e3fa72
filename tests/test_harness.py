"""Suite runner behaviour: determinism, schema, skip accounting, controls."""

import json
import random

import pytest

import sconvexlab.cli as cli
import sconvexlab.harness as harness
import sconvexlab.means_bounds as means_bounds
from sconvexlab import (
    BOUND_THEOREMS,
    DomainError,
    OrderedInterval,
    SuiteConfig,
    run_bound_suite,
    run_identity_suite,
    run_prop_crosscheck_suite,
    run_reduction_suite,
)
from sconvexlab.errors import SuiteError
from sconvexlab.funcmodel import CertResult, FuncHandle
from sconvexlab.harness import render_csv, render_json, report_to_dict

CFG = SuiteConfig(seed=42, cases=40)


class TestIdentitySuite:
    def test_clean_run(self):
        report = run_identity_suite(CFG)
        assert report.cases_run == 40
        assert report.violations == ()
        assert report.worst_margin >= -CFG.identity_tol

    def test_negative_control(self):
        # value says x^2 but the declared derivative is 3x^2: the identity
        # must flag the mismatch as a violation, not an error.
        corrupted = FuncHandle(value=lambda x: x ** 2, derivative=lambda x: 3 * x ** 2)
        report = run_identity_suite(CFG, instances=[(corrupted, OrderedInterval(1, 3))])
        assert len(report.violations) == 1
        assert report.violations[0].theorem == "identity"

    def test_determinism(self):
        r1 = run_identity_suite(CFG)
        r2 = run_identity_suite(CFG)
        assert r1.rows == r2.rows
        assert r1.worst_margin == r2.worst_margin


class TestBoundSuites:
    @pytest.mark.parametrize("theorem", BOUND_THEOREMS)
    def test_no_violations(self, theorem):
        report = run_bound_suite(SuiteConfig(seed=11, cases=25), theorem)
        assert report.violations == (), f"{theorem}: {report.violations}"
        assert report.suite_id == f"bounds:{theorem.lower()}"
        assert report.skipped == 0

    def test_unknown_theorem(self):
        with pytest.raises(DomainError):
            run_bound_suite(CFG, "SE9000")

    def test_hhs_sharp_case_leads(self):
        report = run_bound_suite(SuiteConfig(seed=3, cases=5), "HHS")
        first = report.rows[0]
        assert (first.a, first.b, first.s) == (0.0, 1.0, 0.5)
        # right-inequality equality: the margin sits at numerical zero
        assert abs(first.margin) <= 1e-10

    def test_skip_accounting_and_all_skipped_failure(self, monkeypatch):
        always_fail = CertResult(False, (1.0, 1.0, 0.5, 1.0, 0.0), 1)
        monkeypatch.setattr(harness, "certify_s_convex", lambda *a, **k: always_fail)
        with pytest.raises(SuiteError):
            run_bound_suite(SuiteConfig(seed=1, cases=3), "SE2")

    def test_partial_skip_counted(self, monkeypatch):
        cfg = SuiteConfig(seed=1, cases=4)
        evaluated = {th: run_bound_suite(cfg, th).rows[0] for th in BOUND_THEOREMS}
        calls = {"i": 0}

        def flaky(real):
            def certify(*args, **kwargs):
                calls["i"] += 1
                if calls["i"] == 1:
                    return CertResult(False, (1.0, 1.0, 0.5, 1.0, 0.0), 1)
                return real(*args, **kwargs)

            return certify

        monkeypatch.setattr(harness, "certify_s_convex", flaky(harness.certify_s_convex))
        monkeypatch.setattr(harness, "certify_concave", flaky(harness.certify_concave))
        for theorem in BOUND_THEOREMS:
            calls["i"] = 0
            report = run_bound_suite(cfg, theorem)
            assert report.skipped == 1, theorem
            skipped, full = report.rows[0], evaluated[theorem]
            assert skipped.status == "skipped"
            assert (skipped.lhs, skipped.rhs, skipped.margin) == (None, None, None)
            # A skip row carries the same columns as the row it replaces.
            assert (skipped.a, skipped.b, skipped.s, skipped.q) == (full.a, full.b, full.s, full.q), theorem


class TestCertificationMemo:
    @staticmethod
    def _count_certifier_calls(monkeypatch, calls, fail_first=False):
        def counting(real):
            def certify(*args, **kwargs):
                calls["n"] += 1
                if fail_first and calls["n"] == 1:
                    return CertResult(False, (1.0, 1.0, 0.5, 1.0, 0.0), 1)
                return real(*args, **kwargs)

            return certify

        monkeypatch.setattr(harness, "certify_s_convex", counting(harness.certify_s_convex))
        monkeypatch.setattr(harness, "certify_concave", counting(harness.certify_concave))

    def test_verify_certifies_each_shared_hypothesis_once(self, monkeypatch, tmp_path, capsys):
        calls = {"n": 0}
        self._count_certifier_calls(monkeypatch, calls)
        reports = {}

        def recording(cfg, theorem, *args, **kwargs):
            report = run_bound_suite(cfg, theorem, *args, **kwargs)
            reports[theorem] = report
            return report

        monkeypatch.setattr(cli, "run_bound_suite", recording)
        argv = ["verify", "--suite", "bounds", "--cases", "5", "--seed", "42", "--out", str(tmp_path / "r.json")]
        assert cli.dispatch(argv) == 0
        # 65 certifications, 31 of them distinct.
        assert calls["n"] == 31
        assert list(reports) == [th.lower() for th in BOUND_THEOREMS]
        cfg = SuiteConfig(seed=42, cases=5)
        for theorem, report in reports.items():
            assert report.rows == run_bound_suite(cfg, theorem).rows, theorem

    def test_a_skip_belongs_to_the_hypothesis(self, monkeypatch):
        # s1 and da both assume |f'| convex on the same instances.
        calls = {"n": 0}
        self._count_certifier_calls(monkeypatch, calls, fail_first=True)
        cfg = SuiteConfig(seed=1, cases=4)
        certified = {}
        s1 = run_bound_suite(cfg, "s1", certified)
        assert calls["n"] == cfg.cases
        da = run_bound_suite(cfg, "da", certified)
        assert calls["n"] == cfg.cases
        for report in (s1, da):
            assert report.skipped == 1
            assert report.rows[0].status == "skipped"


class TestReductionSuite:
    def test_clean_and_tight(self):
        report = run_reduction_suite(SuiteConfig(seed=13, cases=100))
        assert report.violations == ()
        assert report.worst_margin >= -1e-12
        names = {r.theorem for r in report.rows}
        assert names == {"se2_s1_vs_s1", "se5_s1_vs_s2", "se6_s1_vs_s3", "se6_q1_vs_se2"}


class TestPropSuite:
    def test_clean_with_notes(self):
        report = run_prop_crosscheck_suite(SuiteConfig(seed=17, cases=5))
        assert report.violations == ()
        assert report.notes and "printed" in report.notes[0]
        assert "5/5" in report.notes[0]
        themes = {r.theorem for r in report.rows}
        assert {"prop_power_xcheck", "prop_recip_xcheck", "se3", "se4", "se7", "se8", "se9", "se10"} <= themes

    def test_propositions_call_the_bound_by_name(self, monkeypatch):
        """Replacing means_bounds.bound_se6 moves exactly the se7 and se10
        rows, so the table binds its bounds late, as tracing needs."""
        cfg = SuiteConfig(seed=17, cases=3)
        before = run_prop_crosscheck_suite(cfg).rows
        monkeypatch.setattr(means_bounds, "bound_se6", lambda df_a, df_b, iv, s, q: 1e6)
        after = run_prop_crosscheck_suite(cfg).rows
        assert len(after) == len(before)
        moved = 0
        for old, new in zip(before, after):
            if old.theorem in ("se7", "se10"):
                assert new.rhs == 1e6 and old.rhs != 1e6
                moved += 1
            else:
                assert new == old
        assert moved == 3 * (len(harness._PROP_POWER_S) + len(harness._PROP_RECIP_S))


class TestReportSerialization:
    def test_json_schema_keys(self):
        report = run_reduction_suite(SuiteConfig(seed=2, cases=5))
        payload = report_to_dict(report)
        assert set(payload) == {
            "suite", "seed", "cases_run", "skipped", "violations",
            "worst_margin", "warnings", "notes", "runtime_ms",
        }
        for v in payload["violations"]:
            assert set(v) == {"case", "theorem", "a", "b", "s", "q", "lhs", "rhs", "margin"}

    def test_violation_entries_serialized(self):
        corrupted = FuncHandle(value=lambda x: x ** 2, derivative=lambda x: 3 * x ** 2)
        report = run_identity_suite(CFG, instances=[(corrupted, OrderedInterval(1, 3))])
        payload = report_to_dict(report)
        assert len(payload["violations"]) == 1
        entry = payload["violations"][0]
        assert entry["theorem"] == "identity" and entry["case"] == 0

    def test_json_determinism_modulo_runtime(self):
        r1 = run_identity_suite(CFG)
        r2 = run_identity_suite(CFG)
        d1, d2 = report_to_dict(r1), report_to_dict(r2)
        d1["runtime_ms"] = d2["runtime_ms"] = 0.0
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_csv_layout_and_determinism(self):
        r1 = run_reduction_suite(SuiteConfig(seed=19, cases=8))
        r2 = run_reduction_suite(SuiteConfig(seed=19, cases=8))
        text = render_csv(r1)
        assert text == render_csv(r2)
        lines = text.splitlines()
        assert lines[0] == "suite,case,theorem,a,b,s,q,lhs,rhs,margin,status"
        assert len(lines) == 1 + 4 * 8  # four reduction rows per case

    def test_render_json_list(self):
        reports = [run_reduction_suite(SuiteConfig(seed=1, cases=2))]
        parsed = json.loads(render_json(reports))
        assert isinstance(parsed, list) and parsed[0]["suite"] == "reductions"


class TestConfigValidation:
    def test_bad_cases(self):
        with pytest.raises(DomainError):
            SuiteConfig(cases=0)

    def test_bad_tolerances(self):
        for field in ("identity_tol", "bound_tol", "reduction_tol"):
            for bad in (float("nan"), float("inf"), -1e-9):
                with pytest.raises(DomainError):
                    SuiteConfig(**{field: bad})
