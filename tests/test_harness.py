"""Suite runner behaviour: determinism, schema, skip accounting, controls."""

import csv
import io
import json
import math
import random

import numpy as np
import pytest

import sconvexlab.bounds
import sconvexlab.cli as cli
import sconvexlab.funcmodel as funcmodel
import sconvexlab.harness as harness
import sconvexlab.means_bounds as means_bounds
import sconvexlab.quadrature as quadrature
from sconvexlab.bounds import DEFAULT_BOUND_TOL, THEOREMS
from sconvexlab.cli import write_report
from sconvexlab.errors import DomainError, SuiteError
from sconvexlab.funcmodel import FuncHandle, PowerSum, handle_from_power_sum, sample_interval
from sconvexlab.harness import (
    CSV_HEADER,
    CaseRow,
    SuiteConfig,
    SuiteReport,
    _csv_lines,
    render_json,
    report_to_dict,
    run_bound_suites,
    run_identity_suite,
    run_prop_crosscheck_suite,
    run_reduction_suite,
)
from sconvexlab.means import OrderedInterval
from sconvexlab.means_bounds import PROPOSITIONS

CFG = SuiteConfig(seed=42, cases=40)


def _verify(suite, tmp_path, seed, cases):
    """Run verify --suite suite through the command line, its report to a file."""
    argv = ["verify", "--suite", suite, "--seed", str(seed), "--cases", str(cases), "--out", str(tmp_path / "r.json")]
    assert cli.dispatch(argv) == 0


def _corrupt_identity_instances(monkeypatch):
    """Give every identity case f = x^2 on [1, 3] with the wrong f' = 3x^2."""
    corrupted = FuncHandle(value=lambda x: x ** 2, derivative=lambda x: 3 * x ** 2)
    monkeypatch.setattr(harness, "sample_dconvex_instance", lambda rng, cfg: (corrupted, OrderedInterval(1, 3)))


class TestIdentitySuite:
    def test_clean_run(self):
        report = run_identity_suite(CFG)[0]
        assert report.cases_run == 40
        assert report.violations == ()
        assert report.worst_margin >= -harness._IDENTITY_TOL

    def test_negative_control(self, monkeypatch):
        # value says x^2 but the declared derivative is 3x^2: the identity
        # must flag the mismatch as a violation, not an error.
        _corrupt_identity_instances(monkeypatch)
        report = run_identity_suite(CFG)[0]
        assert len(report.violations) == CFG.cases
        assert {r.theorem for r in report.violations} == {"identity"}

    @pytest.mark.parametrize("eps, violated", [(1e-7, CFG.cases), (1e-8, 0)])
    def test_a_perturbed_rhs_fails(self, monkeypatch, eps, violated):
        """The suite can fail: lemma_identity_rhs scaled by 1 + 1e-7 breaks
        every case at seed 42, and by 1 + 1e-8 none."""
        real = harness.lemma_identity_rhs
        monkeypatch.setattr(harness, "lemma_identity_rhs", lambda *args: real(*args) * (1.0 + eps))
        assert len(run_identity_suite(CFG)[0].violations) == violated

    def test_determinism(self):
        r1 = run_identity_suite(CFG)[0]
        r2 = run_identity_suite(CFG)[0]
        assert r1.rows == r2.rows
        assert r1.worst_margin == r2.worst_margin

    def test_nearby_seeds_draw_different_cases(self):
        def windows(seed):
            return {(r.a, r.b) for r in run_identity_suite(SuiteConfig(seed=seed, cases=1000))[0].rows}

        assert not windows(1) & windows(2)


class TestBoundSuites:
    @pytest.mark.parametrize("theorem", THEOREMS, ids=str.upper)
    def test_no_violations(self, theorem):
        report = run_bound_suites(SuiteConfig(seed=11, cases=25), (theorem,))[0]
        assert report.violations == (), f"{theorem}: {report.violations}"
        assert report.suite_id == f"bounds:{theorem}"
        assert report.skipped == 0

    def test_unknown_theorem(self, monkeypatch):
        # An unknown id is an error before any case runs, also beside known ids.
        monkeypatch.setattr(harness, "_case_rng", lambda cfg, i: pytest.fail("a case ran"))
        for theorems in (("SE9000",), ("se99",), ("se2", "se99")):
            with pytest.raises(DomainError, match="unknown bound suite"):
                run_bound_suites(CFG, theorems)

    def test_the_default_is_every_theorem_in_registry_order(self):
        cfg = SuiteConfig(seed=5, cases=3)
        default, explicit = run_bound_suites(cfg), run_bound_suites(cfg, THEOREMS)
        assert [r.suite_id for r in default] == [f"bounds:{theorem}" for theorem in THEOREMS]
        for one, other in zip(default, explicit, strict=True):
            assert [list(map(repr, row)) for row in one.rows] == [list(map(repr, row)) for row in other.rows]

    @pytest.mark.parametrize("theorem", THEOREMS, ids=str.upper)
    def test_a_weakened_bound_fails(self, monkeypatch, theorem):
        """Each suite can fail: its right side scaled by 1 - eps gives a
        violation at seed 42 over 200 cases.  eps = 0.01 for nine theorems.
        da, pp, ppc and adk need eps = 0.75: their largest lhs/rhs on these
        cases is 0.66, 0.51, 0.33 and 0.27, so these four suites would pass
        a bound 1.5 to 3.7 times too weak."""
        cfg = SuiteConfig(seed=42, cases=200)
        eps = 0.75 if theorem in ("da", "pp", "ppc", "adk") else 0.01
        th = THEOREMS[theorem]

        def scaled(f, a, b, s, q):
            lhs, rhs = th.sides(f, a, b, s, q)
            return lhs, rhs * (1.0 - eps)

        assert run_bound_suites(cfg, (theorem,))[0].violations == ()
        monkeypatch.setitem(THEOREMS, theorem, th._replace(sides=scaled))
        assert len(run_bound_suites(cfg, (theorem,))[0].violations) >= 1

    def test_hhs_sharp_case_leads(self):
        report = run_bound_suites(SuiteConfig(seed=3, cases=5), ("HHS",))[0]
        first = report.rows[0]
        assert (first.a, first.b, first.s) == (0.0, 1.0, 0.5)
        # right-inequality equality: the margin sits at numerical zero
        assert abs(first.margin) <= 1e-10

    def test_skip_accounting_and_all_skipped_failure(self, monkeypatch):
        monkeypatch.setattr(funcmodel, "prove_hypothesis", lambda *a, **k: None)
        with pytest.raises(SuiteError):
            run_bound_suites(SuiteConfig(seed=1, cases=3), ("SE2",))

    def test_partial_skip_counted(self, monkeypatch):
        cfg = SuiteConfig(seed=1, cases=4)
        evaluated = {th: run_bound_suites(cfg, (th,))[0].rows[0] for th in THEOREMS}
        calls = {"i": 0}

        def flaky(real):
            def prove_hypothesis(*args, **kwargs):
                calls["i"] += 1
                if calls["i"] == 1:
                    return None
                return real(*args, **kwargs)

            return prove_hypothesis

        monkeypatch.setattr(funcmodel, "prove_hypothesis", flaky(funcmodel.prove_hypothesis))
        for theorem in THEOREMS:
            calls["i"] = 0
            report = run_bound_suites(cfg, (theorem,))[0]
            assert report.skipped == 1, theorem
            skipped, full = report.rows[0], evaluated[theorem]
            assert skipped.status == "skipped"
            assert (skipped.lhs, skipped.rhs, skipped.margin) == (None, None, None)
            # A skip row carries the same columns as the row it replaces.
            assert (skipped.a, skipped.b, skipped.s, skipped.q) == (full.a, full.b, full.s, full.q), theorem

    @pytest.mark.parametrize("order", [
        list(THEOREMS),
        list(THEOREMS)[::-1],
        ["se6", "hhs", "s1", "adk", "se2"],
    ], ids=["registry", "reversed", "subset"])
    def test_a_shared_run_gives_each_theorem_its_own_rows(self, order):
        """run_bound_suites gives each theorem the report a run of that
        theorem alone gives, whichever theorems share the run and in any order."""
        cfg = SuiteConfig(seed=7331, cases=200)
        shared = harness.run_bound_suites(cfg, order)
        assert [r.suite_id for r in shared] == [f"bounds:{theorem}" for theorem in order]
        for theorem, report in zip(order, shared):
            alone = run_bound_suites(cfg, (theorem,))[0]
            # repr, field by field, so that -0.0 differs from 0.0 and nan equals nan.
            assert [list(map(repr, row)) for row in report.rows] == [list(map(repr, row)) for row in alone.rows]
            assert repr(report._replace(runtime_ms=0.0)) == repr(alone._replace(runtime_ms=0.0)), theorem

    def test_the_shared_run_check_reaches_every_draw(self):
        """Seed 7331 over 200 cases, the configuration above, holds the hhs
        sharp case 0 and both outcomes of the s-term swap."""
        cfg = SuiteConfig(seed=7331, cases=200)
        first = run_bound_suites(cfg, ("hhs",))[0].rows[0]
        assert (first.a, first.b, first.s) == (0.0, 1.0, 0.5)
        swapped = set()
        for i in range(cfg.cases):
            rng = harness._case_rng(cfg, i)
            s, q = rng.choice(harness._S_GRID), rng.choice(harness._Q_GRID)
            if harness._family(THEOREMS["se5"], s, q) is harness._sconvex_term_instance:
                swapped.add(rng.random() < 0.2)
        assert swapped == {True, False}

    def test_each_case_is_seeded_once(self, monkeypatch, tmp_path):
        """verify --suite bounds builds one generator per case, not one per
        case and theorem."""
        seeded = []
        real = harness._case_rng
        monkeypatch.setattr(harness, "_case_rng", lambda cfg, i: seeded.append(i) or real(cfg, i))
        _verify("bounds", tmp_path, seed=1, cases=7)
        assert seeded == list(range(7))

    def test_every_suite_seeds_each_case_once(self, monkeypatch, tmp_path):
        """verify --suite all seeds cases 0-6 once per suite, in report order:
        identity, bounds, reductions, props."""
        seeded = []
        real = harness._case_rng
        monkeypatch.setattr(harness, "_case_rng", lambda cfg, i: seeded.append(i) or real(cfg, i))
        names = ("identity", "bounds", "reductions", "props")
        for name, run in harness.SUITES.items():
            monkeypatch.setitem(harness.SUITES, name, lambda cfg, run=run, name=name: seeded.append(name) or run(cfg))
        _verify("all", tmp_path, seed=1, cases=7)
        assert seeded == [x for name in names for x in (name, *range(7))]


class TestSuiteTable:
    def test_every_runner_returns_its_list_of_reports(self):
        cfg = SuiteConfig(seed=2, cases=2)
        for name, run in harness.SUITES.items():
            reports = run(cfg)
            assert type(reports) is list and all(type(r) is SuiteReport for r in reports), name
            assert len(reports) == (len(THEOREMS) if name == "bounds" else 1)
            assert all(r.suite_id.split(":")[0] == name for r in reports)


class TestProofCoverage:
    def test_every_generated_case_is_proved(self):
        """Every instance family meets a proof rule by construction; a family
        that draws a case no rule proves shows here as a skip."""
        for seed in (1, 2, 3, 42, 7331):
            cfg = SuiteConfig(seed=seed, cases=200)
            for theorem in THEOREMS:
                assert run_bound_suites(cfg, (theorem,))[0].skipped == 0, (seed, theorem)

    def test_no_bound_suite_integrates_numerically(self, monkeypatch):
        """Every instance family is a power sum, whose integral mean is exact
        on every window, [0, v] included, so no bound case needs quadrature."""

        def no_quadrature(*args, **kwargs):
            raise AssertionError("a bound case integrated numerically")

        monkeypatch.setattr(sconvexlab.bounds, "integrate", no_quadrature)
        for seed in (1, 42, 7331):
            cfg = SuiteConfig(seed=seed, cases=200)
            for theorem in THEOREMS:
                assert run_bound_suites(cfg, (theorem,))[0].skipped == 0, (seed, theorem)


def _root_term_instances(monkeypatch):
    """Give every base and s-term swap draw f' = x^0.5 on [1, 20], with
    its exact integral: one term whose |f'| is s-convex only for s <= 0.5
    and never convex."""
    f = handle_from_power_sum(PowerSum([(1.0, 0.5)]).antiderivative())
    monkeypatch.setattr(harness, "sample_dconvex_instance", lambda rng, cfg: (f, OrderedInterval(1.0, 20.0)))
    monkeypatch.setattr(harness, "_sconvex_term_instance", lambda i, rng, s, q: (f, 1.0, 20.0, s))


class TestProofRuleControl:
    """The proof rules are what keep "no violation" true (ROADMAP item 11):
    on f' = x^0.5 over [1, 20], where the premises of se2, s1, se6 and s3
    fail for some s and q, the rules skip every case that would violate,
    and a rule that also accepts every nonnegative single term lets the
    violations through (12 for se2, 40 for s1, 6 for se6, 16 for s3)."""

    CFG = SuiteConfig(seed=42, cases=40)

    def test_the_rules_skip_every_violating_case(self, monkeypatch):
        _root_term_instances(monkeypatch)
        for report in run_bound_suites(self.CFG, ("se2", "se6", "s3")):
            assert report.violations == (), report.suite_id
        with pytest.raises(SuiteError, match="every case was skipped"):
            run_bound_suites(self.CFG, ("s1",))

    def test_control_a_lenient_term_rule_lets_violations_through(self, monkeypatch):
        _root_term_instances(monkeypatch)
        real = funcmodel.prove_hypothesis

        def lenient(ps, hypothesis, s, q, concave):
            rule = real(ps, hypothesis, s, q, concave)
            if rule is None and len(ps.terms) == 1 and ps.terms[0][0] >= 0.0:
                return "term"
            return rule

        monkeypatch.setattr(funcmodel, "prove_hypothesis", lenient)
        reports = run_bound_suites(self.CFG, ("se2", "s1", "se6", "s3"))
        assert all(len(report.violations) > 0 for report in reports), [len(r.violations) for r in reports]


class TestReductionSuite:
    def test_clean_and_tight(self):
        report = run_reduction_suite(SuiteConfig(seed=13, cases=100))[0]
        assert report.violations == ()
        assert report.worst_margin >= -1e-12
        names = {r.theorem for r in report.rows}
        assert names == {"se2_s1_vs_s1", "se5_s1_vs_s2", "se6_s1_vs_s3", "se6_q1_vs_se2"}

    def test_a_perturbed_bound_fails(self, monkeypatch):
        """The suite can fail: bound_s1 scaled by 1 + 1e-10 breaks the
        se2_s1_vs_s1 collapse in every case at seed 42."""
        cfg = SuiteConfig(seed=42, cases=20)
        assert run_reduction_suite(cfg)[0].violations == ()
        real = harness.bound_s1
        monkeypatch.setattr(harness, "bound_s1", lambda *args: real(*args) * (1.0 + 1e-10))
        violations = run_reduction_suite(cfg)[0].violations
        assert len(violations) == 20
        assert {(r.case, r.theorem) for r in violations} == {(i, "se2_s1_vs_s1") for i in range(20)}


class TestPropSuite:
    def test_clean_with_notes(self):
        report = run_prop_crosscheck_suite(SuiteConfig(seed=17, cases=5))[0]
        assert report.violations == ()
        assert report.notes and "printed" in report.notes[0]
        assert "5/5" in report.notes[0]
        themes = {r.theorem for r in report.rows}
        assert {"prop_power_xcheck", "prop_recip_xcheck", "se3", "se4", "se7", "se8", "se9", "se10"} <= themes

    def test_a_perturbed_lhs_fails(self, monkeypatch):
        """The suite can fail: prop_power_lhs scaled by 1 + 1e-7 gives 60
        violations over the 5 cases at seed 42, in the power family's
        cross-check and its se3 and se7 rows."""
        cfg = SuiteConfig(seed=42, cases=5)
        assert run_prop_crosscheck_suite(cfg)[0].violations == ()
        real = harness.prop_power_lhs
        monkeypatch.setattr(harness, "prop_power_lhs", lambda *args: real(*args) * (1.0 + 1e-7))
        violations = run_prop_crosscheck_suite(cfg)[0].violations
        assert len(violations) == 60
        assert {r.case for r in violations} == set(range(5))
        assert {r.theorem for r in violations} == {"prop_power_xcheck", "se3", "se7"}

    def test_propositions_call_the_bound_by_name(self, monkeypatch):
        """Replacing means_bounds.bound_se6 moves exactly the se7 and se10
        rows, so the table binds its bounds late, as tracing needs."""
        cfg = SuiteConfig(seed=17, cases=3)
        before = run_prop_crosscheck_suite(cfg)[0].rows
        monkeypatch.setattr(means_bounds, "bound_se6", lambda df_a, df_b, iv, s, q: 1e6)
        after = run_prop_crosscheck_suite(cfg)[0].rows
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
            rng = random.Random((cfg.seed << 32) | i)
            iv = sample_interval(rng, harness._GEN)
            q = rng.choice(harness._Q_GRID)
            for family, xcheck, s_grid, prop_lhs, underlying in families:
                for s in s_grid:
                    ps = underlying(s)
                    oracle = FuncHandle(value=ps, derivative=ps.derivative())
                    lhs = prop_lhs(iv, s)
                    defect = harness.bullen_type_defect(oracle, iv)
                    expected.append(harness._match_row(i, xcheck, iv, s, lhs, defect, DEFAULT_BOUND_TOL))
                    for pid, (pfamily, carries_q, _) in means_bounds.PROPOSITIONS.items():
                        if pfamily == family:
                            q_row = q if carries_q else None
                            rhs = means_bounds.prop_rhs(pid, iv, s, q_row)
                            expected.append(harness._bound_row(i, pid, iv.a, iv.b, s, q_row, lhs, rhs, DEFAULT_BOUND_TOL))
        assert run_prop_crosscheck_suite(cfg)[0].rows == tuple(expected)

    def test_oracle_matches_power_sum_bit_for_bit(self):
        """Each oracle's value is its one term c * x^p, which gives the bits
        PowerSum([(c, p)]) gives, at the 15 Kronrod nodes of sampled
        intervals and at both endpoints."""
        terms = [(1.0, s) for s in harness._PROP_POWER_S]
        terms += [(1.0 / (1.0 - s), 1.0 - s) for s in harness._PROP_RECIP_S]
        oracles = [(harness._quadrature_oracle(c, p).value, PowerSum([(c, p)])) for c, p in terms]
        rng = random.Random(2024)
        for _ in range(300):
            iv = sample_interval(rng, harness._GEN)
            nodes = [iv.a, iv.b]
            quadrature._panel(lambda x: nodes.append(x) or 1.0, iv.a, iv.b)
            assert len(nodes) == 17
            for value, ps in oracles:
                for x in nodes:
                    assert float.hex(value(x)) == float.hex(ps(x)), (iv, ps, x)


class TestReportSerialization:
    def test_json_schema_keys(self):
        report = run_reduction_suite(SuiteConfig(seed=2, cases=5))[0]
        payload = report_to_dict(report)
        assert set(payload) == {
            "suite", "seed", "cases_run", "skipped", "violations",
            "worst_margin", "warnings", "notes", "runtime_ms",
        }
        for v in payload["violations"]:
            assert set(v) == {"case", "theorem", "a", "b", "s", "q", "lhs", "rhs", "margin"}

    def test_violation_entries_serialized(self, monkeypatch):
        _corrupt_identity_instances(monkeypatch)
        report = run_identity_suite(SuiteConfig(seed=42, cases=1))[0]
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
        r1 = run_identity_suite(CFG)[0]
        r2 = run_identity_suite(CFG)[0]
        d1, d2 = report_to_dict(r1), report_to_dict(r2)
        d1["runtime_ms"] = d2["runtime_ms"] = 0.0
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_csv_layout_and_determinism(self):
        r1 = run_reduction_suite(SuiteConfig(seed=19, cases=8))[0]
        r2 = run_reduction_suite(SuiteConfig(seed=19, cases=8))[0]
        text = "".join(_csv_lines([r1]))
        assert text == "".join(_csv_lines([r2]))
        lines = text.splitlines()
        assert lines[0] == "suite,case,theorem,a,b,s,q,lhs,rhs,margin,status"
        assert len(lines) == 1 + 4 * 8  # four reduction rows per case

    def test_row_fields_are_the_csv_columns(self):
        # A field added to CaseRow is a CSV column; test_csv_layout_and_determinism
        # pins the header's text.
        assert CaseRow._fields == CSV_HEADER[1:]

    def test_render_json_list(self):
        # A list of one report is one object, a longer list an array.
        one = run_reduction_suite(SuiteConfig(seed=1, cases=2))[0]
        two = run_identity_suite(SuiteConfig(seed=1, cases=2))[0]
        assert json.loads(render_json([one])) == report_to_dict(one)
        parsed = json.loads(render_json([one, two]))
        assert isinstance(parsed, list) and [r["suite"] for r in parsed] == ["reductions", "identity"]
        assert parsed == [report_to_dict(one), report_to_dict(two)]


def _hand_report(suite_id, rows):
    return SuiteReport(suite_id, 0, len(rows), 0, tuple(rows), (), 0, 0.0, (), 0.0)


def _csv_writer_reference(reports):
    """The report as csv.writer renders it, the renderer's contract."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for report in reports:
        writer.writerows((report.suite_id,) + row for row in report.rows)
    return buf.getvalue()


@pytest.fixture(scope="module")
def all_suites():
    return [report for run in harness.SUITES.values() for report in run(SuiteConfig(seed=3, cases=4))]


class _StrFloat(float):
    """A float whose str is not its repr; csv.writer writes the str."""

    def __str__(self):
        return f"<{float.__repr__(self)}>"


class TestCsvRenderer:
    # Signed zeros in one case (equal as floats, unequal reprs), values
    # repeated within and across cases, an int beside an equal float,
    # non-finite and subnormal cells, None cells, and numpy floats and a
    # float subclass beside equal floats in every column (equal, with
    # unequal str).
    MIXED = _hand_report("mixed", [
        CaseRow(0, "t1", 0.0, 1.5, None, None, -0.0, 0.0, -0.0, "ok"),
        CaseRow(0, "t2", -0.0, 1.5, 0.25, 2.0, 0.1, 1, 1.0, "warning"),
        CaseRow(1, "t1", 0.1, 1.5, 0.25, 2.0, 0.1, 0.0, -0.0, "violation"),
        CaseRow(1, "t3", 5e-324, math.inf, -math.inf, math.nan, -math.nan, None, None, "skipped"),
        CaseRow(2, "t3", math.nan, -5e-324, 1.0, 1, 1e308, -1e-308, 0.30000000000000004, "ok"),
        CaseRow(3, "t1", 2.5, 2.5, 0.1, 0.1, 2.5, 2.5, 0.1, "ok"),
        CaseRow(3, "t2", np.float64(2.5), _StrFloat(2.5), np.float64(0.1), _StrFloat(0.1),
                _StrFloat(2.5), np.float64(2.5), _StrFloat(0.1), "ok"),
        CaseRow(3, "t3", _StrFloat(2.5), np.float64(2.5), _StrFloat(-0.0), np.float64(-0.0),
                np.float64(2.5), _StrFloat(-0.0), np.float64(0.1), "warning"),
    ])
    SINGLE = _hand_report("single", [CaseRow(7, "t1", 1.0, 2.0, None, 3.0, 0.5, 0.75, 0.25, "ok")])
    EMPTY = _hand_report("empty", [])

    @staticmethod
    def _assert_matches_csv_writer(tmp_path, reports):
        expected = _csv_writer_reference(reports)
        assert "".join(_csv_lines(reports)) == expected
        out = tmp_path / "report.csv"
        write_report(reports, str(out), "csv")
        assert out.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("reports", [
        [MIXED], [SINGLE], [EMPTY], [], [MIXED, SINGLE, EMPTY, MIXED],
    ])
    def test_bytes_match_csv_writer(self, tmp_path, reports):
        self._assert_matches_csv_writer(tmp_path, reports)

    def test_generated_reports_match_csv_writer(self, tmp_path, all_suites):
        self._assert_matches_csv_writer(tmp_path, all_suites)

    # The renderer reuses a cell's text when the cell above holds the same
    # object; each of these must still give csv.writer's bytes.
    _X = 0.1 + 0.2
    _Y, _Y2 = float("2.5"), float("2.5")
    IDENTITY_EDGES = {
        "shared": [
            CaseRow(0, "t1", _X, _X, _X, _X, _X, _X, _X, "ok"),
            CaseRow(0, "t1", _X, _X, _X, _X, _X, _X, _X, "ok"),
            CaseRow(0, "t2", _X, 1.5, _X, None, _X, 2.5, _X, "warning"),
        ],
        "equal_distinct": [
            CaseRow(0, "t1", _Y, _Y, _Y, _Y, _Y, _Y, _Y, "ok"),
            CaseRow(0, "t1", _Y2, _Y2, _Y2, _Y2, _Y2, _Y2, _Y2, "ok"),
            CaseRow(0, "t1", np.float64(2.5), _StrFloat(2.5), 2.5, 2.5, _StrFloat(2.5), 2.5, _Y, "ok"),
        ],
        "signed_zero": [
            CaseRow(0, "t1", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "ok"),
            CaseRow(0, "t1", -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, "ok"),
            CaseRow(0, "t1", 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, "ok"),
        ],
        "none_after_float": [
            CaseRow(0, "t1", 1.5, 2.5, 0.5, 2.0, 0.25, 0.75, 0.5, "ok"),
            CaseRow(0, "t1", 1.5, 2.5, None, None, None, None, None, "skipped"),
            CaseRow(0, "t1", 1.5, 2.5, 0.5, 2.0, 0.25, 0.75, 0.5, "ok"),
        ],
        "case_returns": [
            CaseRow(0, "t1", 1.5, 2.5, 0.5, None, 0.25, 0.75, 0.5, "ok"),
            CaseRow(1, "t1", 1.5, 2.5, 0.5, None, 0.25, 0.75, 0.5, "ok"),
            CaseRow(0, "t1", 1.5, 2.5, 0.5, None, 0.25, 0.75, 0.5, "ok"),
        ],
    }

    @pytest.mark.parametrize("edge", sorted(IDENTITY_EDGES))
    def test_identity_edges_match_csv_writer(self, tmp_path, edge):
        assert self._Y == self._Y2 and self._Y is not self._Y2  # equal_distinct's premise
        report = _hand_report(edge, self.IDENTITY_EDGES[edge])
        self._assert_matches_csv_writer(tmp_path, [report])
        self._assert_matches_csv_writer(tmp_path, [report, self.SINGLE, report])

    def test_one_string_per_case(self, all_suites):
        # The header, then each case's lines as one string.
        chunks = list(_csv_lines(all_suites))
        assert len(chunks) == 1 + sum(len({row.case for row in r.rows}) for r in all_suites)
        assert chunks[0] == ",".join(CSV_HEADER) + "\n"
        assert all(len({line.split(",")[1] for line in chunk.splitlines()}) == 1 for chunk in chunks[1:])

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
            write_report([self.SINGLE], str(out), "xml")
        assert not out.exists()


class TestConfigValidation:
    def test_bad_cases(self):
        with pytest.raises(DomainError):
            SuiteConfig(cases=0)

    def test_at_most_2_to_the_32_cases(self):
        # _case_rng's sub-seed (seed << 32) | i is unique only for i < 2^32;
        # case 2^32 + j would replay case j of this seed or of seed + 1.
        assert SuiteConfig(cases=1 << 32).cases == 1 << 32
        with pytest.raises(DomainError):
            SuiteConfig(cases=(1 << 32) + 1)

    def test_bad_tolerances(self):
        for bad in (float("nan"), float("inf"), -1e-9):
            with pytest.raises(DomainError):
                SuiteConfig(tol=bad)

    def test_negative_seed(self):
        # random.Random seeds with an int's absolute value, so a negative
        # seed would replay another seed's cases.
        SuiteConfig(seed=0)
        for bad in (-1, -42, -(1 << 40)):
            with pytest.raises(DomainError):
                SuiteConfig(seed=bad)
