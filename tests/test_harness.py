"""Suite runner behaviour: determinism, schema, skip accounting, controls."""

import csv
import io
import json
import math
import random

import pytest

import sconvexlab.cli as cli
import sconvexlab.funcmodel as funcmodel
import sconvexlab.harness as harness
import sconvexlab.means_bounds as means_bounds
from sconvexlab import (
    THEOREMS,
    DomainError,
    OrderedInterval,
    SuiteConfig,
    run_bound_suite,
    run_identity_suite,
    run_prop_crosscheck_suite,
    run_reduction_suite,
)
from sconvexlab.errors import SuiteError
from sconvexlab.funcmodel import CertResult, FuncHandle, PowerSum, sample_interval
from sconvexlab.means_bounds import PROPOSITIONS
from sconvexlab.harness import CSV_HEADER, CaseRow, SuiteReport, render_csv, render_json, report_to_dict, write_report

CFG = SuiteConfig(seed=42, cases=40)


def _proofs_off(monkeypatch):
    """Send every hypothesis to the grid certifier."""
    monkeypatch.setattr(funcmodel, "prove_hypothesis", lambda *a, **k: None)


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
    @pytest.mark.parametrize("theorem", THEOREMS, ids=str.upper)
    def test_no_violations(self, theorem):
        report = run_bound_suite(SuiteConfig(seed=11, cases=25), theorem)
        assert report.violations == (), f"{theorem}: {report.violations}"
        assert report.suite_id == f"bounds:{theorem}"
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
        _proofs_off(monkeypatch)
        monkeypatch.setattr(funcmodel, "certify_s_convex", lambda *a, **k: always_fail)
        with pytest.raises(SuiteError):
            run_bound_suite(SuiteConfig(seed=1, cases=3), "SE2")

    def test_partial_skip_counted(self, monkeypatch):
        cfg = SuiteConfig(seed=1, cases=4)
        evaluated = {th: run_bound_suite(cfg, th).rows[0] for th in THEOREMS}
        calls = {"i": 0}

        def flaky(real):
            def certify(*args, **kwargs):
                calls["i"] += 1
                if calls["i"] == 1:
                    return CertResult(False, (1.0, 1.0, 0.5, 1.0, 0.0), 1)
                return real(*args, **kwargs)

            return certify

        _proofs_off(monkeypatch)
        monkeypatch.setattr(funcmodel, "certify_s_convex", flaky(funcmodel.certify_s_convex))
        monkeypatch.setattr(funcmodel, "certify_concave", flaky(funcmodel.certify_concave))
        for theorem in THEOREMS:
            calls["i"] = 0
            report = run_bound_suite(cfg, theorem)
            assert report.skipped == 1, theorem
            skipped, full = report.rows[0], evaluated[theorem]
            assert skipped.status == "skipped"
            assert (skipped.lhs, skipped.rhs, skipped.margin) == (None, None, None)
            # A skip row carries the same columns as the row it replaces.
            assert (skipped.a, skipped.b, skipped.s, skipped.q) == (full.a, full.b, full.s, full.q), theorem


class TestGridFallback:
    @staticmethod
    def _count_certifier_calls(monkeypatch, calls, proofs=False):
        def counting(real):
            def certify(*args, **kwargs):
                calls["n"] += 1
                return real(*args, **kwargs)

            return certify

        if not proofs:
            _proofs_off(monkeypatch)
        monkeypatch.setattr(funcmodel, "certify_s_convex", counting(funcmodel.certify_s_convex))
        monkeypatch.setattr(funcmodel, "certify_concave", counting(funcmodel.certify_concave))

    def test_verify_certifies_every_case_on_the_grid(self, monkeypatch, tmp_path):
        calls = {"n": 0}
        self._count_certifier_calls(monkeypatch, calls)
        reports = {}

        def recording(cfg, theorem):
            report = run_bound_suite(cfg, theorem)
            reports[theorem] = report
            return report

        monkeypatch.setattr(cli, "run_bound_suite", recording)
        argv = ["verify", "--suite", "bounds", "--cases", "5", "--seed", "42", "--out", str(tmp_path / "r.json")]
        assert cli.dispatch(argv) == 0
        # 13 suites x 5 cases, each certified on its own.
        assert calls["n"] == 65
        assert list(reports) == list(THEOREMS)
        cfg = SuiteConfig(seed=42, cases=5)
        for theorem, report in reports.items():
            assert report.rows == run_bound_suite(cfg, theorem).rows, theorem

    def test_proofs_leave_no_grid_call_and_the_same_rows(self, monkeypatch, tmp_path):
        argv = ["verify", "--suite", "bounds", "--cases", "5", "--seed", "42", "--format", "csv", "--out"]
        proved, grid = {"n": 0}, {"n": 0}
        self._count_certifier_calls(monkeypatch, proved, proofs=True)
        assert cli.dispatch(argv + [str(tmp_path / "proved.csv")]) == 0
        assert proved["n"] == 0
        monkeypatch.undo()
        self._count_certifier_calls(monkeypatch, grid)
        assert cli.dispatch(argv + [str(tmp_path / "grid.csv")]) == 0
        assert grid["n"] == 65
        assert (tmp_path / "proved.csv").read_text() == (tmp_path / "grid.csv").read_text()

    def test_no_generated_case_reaches_the_grid(self, monkeypatch):
        """Every instance family meets a proof rule by construction, so the
        grid is only a fallback; a family that sends cases to it fails here."""

        def no_grid(*args, **kwargs):
            raise AssertionError("a generated case reached the grid certifier")

        monkeypatch.setattr(funcmodel, "certify_s_convex", no_grid)
        monkeypatch.setattr(funcmodel, "certify_concave", no_grid)
        for seed in (1, 2, 3, 42, 7331):
            cfg = SuiteConfig(seed=seed, cases=200)
            for theorem in THEOREMS:
                assert run_bound_suite(cfg, theorem).skipped == 0, (seed, theorem)


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

    def test_rows_equal_oracle_built_per_case(self):
        """The suite builds each s's oracle once; a copy that rebuilds it for
        every case and s gives the same rows."""
        cfg = SuiteConfig(seed=23, cases=4)
        families = (
            ("power", "prop_power_xcheck", harness._PROP_POWER_S, means_bounds.prop_power_lhs,
             lambda s: PowerSum([(1.0, s)])),
            ("recip", "prop_recip_xcheck", harness._PROP_RECIP_S, means_bounds.prop_recip_lhs,
             lambda s: PowerSum([(1.0 / (1.0 - s), 1.0 - s)])),
        )
        expected = []
        for i in range(cfg.cases):
            rng = random.Random(cfg.seed ^ i)
            iv = sample_interval(rng, harness._GEN)
            q = rng.choice(harness._Q_GRID)
            for family, xcheck, s_grid, prop_lhs, underlying in families:
                for s in s_grid:
                    ps = underlying(s)
                    oracle = FuncHandle(value=ps, derivative=ps.derivative())
                    lhs = prop_lhs(iv, s)
                    defect = harness.bullen_type_defect(oracle, iv)
                    expected.append(harness._match_row(i, xcheck, iv, s, None, lhs, defect, cfg.bound_tol))
                    for pid, (pfamily, carries_q, _) in means_bounds.PROPOSITIONS.items():
                        if pfamily == family:
                            q_row = q if carries_q else None
                            rhs = means_bounds.prop_rhs(pid, iv, s, q_row)
                            expected.append(harness._bound_row(i, pid, iv.a, iv.b, s, q_row, lhs, rhs, cfg.bound_tol))
        assert run_prop_crosscheck_suite(cfg).rows == tuple(expected)


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
        row = report.violations[0]
        assert entry == {
            "case": 0, "theorem": "identity", "a": 1.0, "b": 3.0, "s": None, "q": None,
            "lhs": row.lhs, "rhs": row.rhs, "margin": row.margin,
        }

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

    def test_row_fields_are_the_csv_columns(self):
        # A field added to CaseRow must not become a CSV column unnoticed.
        assert CaseRow._fields == CSV_HEADER[1:]

    def test_render_json_list(self):
        reports = [run_reduction_suite(SuiteConfig(seed=1, cases=2))]
        parsed = json.loads(render_json(reports))
        assert isinstance(parsed, list) and parsed[0]["suite"] == "reductions"


def _hand_report(suite_id, rows):
    return SuiteReport(suite_id, 0, len(rows), 0, tuple(rows), (), 0, 0.0, (), 0.0)


def _csv_writer_reference(reports):
    """The report as csv.writer renders it, the renderer's contract."""
    if isinstance(reports, SuiteReport):
        reports = [reports]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for report in reports:
        writer.writerows((report.suite_id,) + row for row in report.rows)
    return buf.getvalue()


@pytest.fixture(scope="module")
def all_suites():
    return cli._run_suites("all", SuiteConfig(seed=3, cases=4))


class TestCsvRenderer:
    # Signed zeros in one case (equal as floats, unequal reprs), values
    # repeated within and across cases, an int beside an equal float,
    # non-finite and subnormal cells, and None cells.
    MIXED = _hand_report("mixed", [
        CaseRow(0, "t1", 0.0, 1.5, None, None, -0.0, 0.0, -0.0, "ok"),
        CaseRow(0, "t2", -0.0, 1.5, 0.25, 2.0, 0.1, 1, 1.0, "warning"),
        CaseRow(1, "t1", 0.1, 1.5, 0.25, 2.0, 0.1, 0.0, -0.0, "violation"),
        CaseRow(1, "t3", 5e-324, math.inf, -math.inf, math.nan, -math.nan, None, None, "skipped"),
        CaseRow(2, "t3", math.nan, -5e-324, 1.0, 1, 1e308, -1e-308, 0.30000000000000004, "ok"),
    ])
    SINGLE = _hand_report("single", [CaseRow(7, "t1", 1.0, 2.0, None, 3.0, 0.5, 0.75, 0.25, "ok")])
    EMPTY = _hand_report("empty", [])

    @staticmethod
    def _assert_matches_csv_writer(tmp_path, reports):
        expected = _csv_writer_reference(reports)
        assert render_csv(reports) == expected
        out = tmp_path / "report.csv"
        write_report(reports, str(out), "csv")
        assert out.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("reports", [
        MIXED, [MIXED], [SINGLE], [EMPTY], [], [MIXED, SINGLE, EMPTY, MIXED],
    ])
    def test_bytes_match_csv_writer(self, tmp_path, reports):
        self._assert_matches_csv_writer(tmp_path, reports)

    def test_generated_reports_match_csv_writer(self, tmp_path, all_suites):
        self._assert_matches_csv_writer(tmp_path, all_suites)

    def test_no_field_needs_quoting(self, all_suites):
        # The renderer writes fields unquoted; csv.writer would quote one
        # holding any of these characters.
        names = set(CSV_HEADER) | set(THEOREMS) | set(PROPOSITIONS)
        names |= {"ok", "warning", "violation", "skipped"}
        names |= {r.suite_id for r in all_suites}
        names |= {row.theorem for r in all_suites for row in r.rows}
        names |= {row.status for r in all_suites for row in r.rows}
        assert {"prop_power_xcheck", "prop_recip_xcheck", "se6_q1_vs_se2", "bounds:se2"} <= names
        for name in names:
            assert not set(name) & set(',"\r\n'), name

    def test_unknown_format_writes_nothing(self, tmp_path):
        out = tmp_path / "report.xml"
        with pytest.raises(DomainError):
            write_report(self.SINGLE, str(out), "xml")
        assert not out.exists()


class TestConfigValidation:
    def test_bad_cases(self):
        with pytest.raises(DomainError):
            SuiteConfig(cases=0)

    def test_bad_tolerances(self):
        for field in ("identity_tol", "bound_tol", "reduction_tol"):
            for bad in (float("nan"), float("inf"), -1e-9):
                with pytest.raises(DomainError):
                    SuiteConfig(**{field: bad})
