"""CLI: grammar, command output, exit codes, and report determinism."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import sconvexlab
from sconvexlab import THEOREMS, ParseError, PowerSum, parse_function_dsl
from sconvexlab.cli import dispatch

BOUND_X2 = ["--f", "1*x^2", "--a", "1", "--b", "3"]


class TestFunctionGrammar:
    def test_single_term(self):
        assert parse_function_dsl("1*x^2").terms == ((1.0, 2.0),)

    def test_two_terms_with_constant(self):
        assert parse_function_dsl("0.5*x^0.5 + 2.5").terms == ((0.5, 0.5), (2.5, 0.0))

    def test_signs_and_exponent_notation(self):
        assert parse_function_dsl("2*x^-1 + -3e-1").terms == ((2.0, -1.0), (-0.3, 0.0))
        assert parse_function_dsl("-1.5e1*x^2e0").terms == ((-15.0, 2.0),)

    def test_whitespace_ignored(self):
        assert parse_function_dsl(" 1 * x ^ 2 +  3 ").terms == ((1.0, 2.0), (3.0, 0.0))

    def test_coefficient_mandatory(self):
        with pytest.raises(ParseError) as err:
            parse_function_dsl("x^2")
        assert err.value.offset == 0
        assert "number" in err.value.expected

    def test_minus_is_not_a_separator(self):
        with pytest.raises(ParseError) as err:
            parse_function_dsl("1*x^2 - 3")
        assert err.value.offset == 6
        assert err.value.expected == "'+'"

    def test_wrong_variable(self):
        with pytest.raises(ParseError) as err:
            parse_function_dsl("1*y^2")
        assert err.value.offset == 2 and err.value.expected == "'x'"

    def test_trailing_separator(self):
        with pytest.raises(ParseError):
            parse_function_dsl("1*x^2 +")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_function_dsl("   ")

    def test_roundtrip_identity(self):
        rng = random.Random(71)
        for _ in range(200):
            terms = []
            for _ in range(rng.randint(1, 4)):
                coeff = rng.uniform(-5, 5)
                exponent = rng.choice([0.0, rng.uniform(-2, 3)])
                terms.append((coeff, exponent))
            ps = PowerSum(terms)
            assert parse_function_dsl(ps.to_dsl()) == ps


class TestCommands:
    def test_defect_prints_value(self, capsys):
        assert dispatch(["defect", "--f", "1*x^2", "--a", "1", "--b", "3"]) == 0
        assert capsys.readouterr().out.strip() == "3.83333333333333"

    def test_bound_equality_case(self, capsys):
        code = dispatch(["bound", "--theorem", "se2", "--f", "1*x^2", "--a", "1", "--b", "3", "--s", "1"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "lhs 3.83333333333333" in out
        assert "rhs 3.83333333333333" in out
        assert "holds true" in out

    def test_bound_violation_exits_one(self, capsys):
        # sqrt is concave; the convex midpoint chain fails on it.
        code = dispatch(["bound", "--theorem", "hh", "--f", "1*x^0.5", "--a", "1", "--b", "4"])
        assert code == 1
        assert "holds false" in capsys.readouterr().out

    def test_means_output(self, capsys):
        assert dispatch(["means", "--a", "1", "--b", "3", "--p", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "A 2"
        assert lines[1] == "G 1.73205080756888"
        assert lines[2] == "L_p^p 4.33333333333333"
        assert lines[3] == "L_p 2.08166599946613"

    def test_fifteen_significant_digits(self, capsys):
        dispatch(["defect", "--f", "1*x^0.5", "--a", "1", "--b", "4"])
        assert capsys.readouterr().out.strip() == "0.431652807180127"


class TestVerifyCommand:
    def test_reports_are_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["verify", "--suite", "reductions", "--cases", "25", "--seed", "42", "--format", "json"]
        assert dispatch(args + ["--out", str(out1)]) == 0
        assert dispatch(args + ["--out", str(out2)]) == 0
        d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        d1["runtime_ms"] = d2["runtime_ms"] = 0.0
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_csv_reports_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        args = ["verify", "--suite", "identity", "--cases", "20", "--seed", "7", "--format", "csv"]
        assert dispatch(args + ["--out", str(out1)]) == 0
        assert dispatch(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_summary_lines(self, capsys):
        assert dispatch(["verify", "--suite", "identity", "--cases", "10", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "suite identity: cases 10, skipped 0, violations 0" in out

    def test_violations_exit_one(self, tmp_path, capsys):
        # an absurd tolerance turns harmless rounding noise into violations
        code = dispatch([
            "verify", "--suite", "reductions", "--cases", "10", "--seed", "3",
            "--tol", "1e-30", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1

    @pytest.mark.parametrize("suite, digest", [
        ("all", "520dec14dd0c761740477c2fb1bbb3b932ba1349cbb5bc79bc12d9101c0c90cd"),
        ("bounds", "753b2780e8e6c82e2ca5dfaa58e1cca1255640635b876b21d0bdcc2452024b7c"),
    ])
    def test_golden_report_digest(self, tmp_path, capsys, suite, digest):
        # Pinned report bytes: a change meant to keep every report as it is
        # (a speed-up, a refactor) must leave these digests alone.
        out = tmp_path / "report.csv"
        args = ["verify", "--suite", suite, "--cases", "20", "--seed", "42", "--format", "csv", "--out", str(out)]
        assert dispatch(args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_props_note_passthrough(self, capsys):
        assert dispatch(["verify", "--suite", "props", "--cases", "3", "--seed", "5"]) == 0
        assert "note: se4 as-printed bound" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = dispatch([
            "sweep", "--theorem", "se2", "--f", "1*x^2", "--a", "1", "--b", "3",
            "--s-grid", "0.2:1.0:0.2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theorem,a,b,s,q,lhs,rhs,margin,holds"
        assert len(lines) == 1 + 5
        assert all(line.endswith("true") for line in lines[1:])
        assert "worst_margin" in capsys.readouterr().out

    def test_sweep_violations_exit_one(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        # sqrt is concave, so the convexity chain behind bullen reverses
        code = dispatch([
            "sweep", "--theorem", "bullen", "--f", "1*x^0.5", "--a", "1", "--b", "4",
            "--s-grid", "0.5:0.5:0.1", "--out", str(out),
        ])
        assert code == 1
        assert out.read_text().splitlines()[1].endswith("false")


class TestExitCodes:
    def test_parse_error(self, capsys):
        assert dispatch(["defect", "--f", "x^2", "--a", "1", "--b", "3"]) == 2
        assert "expected number" in capsys.readouterr().err

    def test_domain_error(self, capsys):
        assert dispatch(["means", "--a", "3", "--b", "1"]) == 2

    def test_missing_param(self, capsys):
        assert dispatch(["bound", "--theorem", "se5", "--f", "1*x^2", "--a", "1", "--b", "3", "--s", "0.5"]) == 2

    @pytest.mark.parametrize("argv", [
        ["defect", "--f", "1*x^400", "--a", "1", "--b", "10"],
        ["means", "--a", "1", "--b", "1e300", "--p", "3"],
    ])
    def test_overflow_is_an_error(self, capsys, argv):
        assert dispatch(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["bound", "--theorem", "pp", *BOUND_X2, "--q", "0"],
        ["sweep", "--theorem", "pp", *BOUND_X2, "--s-grid", "0.5:1:0.5", "--q", "0", "--out", "{out}"],
        ["bound", "--theorem", "pp", *BOUND_X2, "--q", "nan"],
        ["bound", "--theorem", "adk", *BOUND_X2, "--q", "inf"],
        ["bound", "--theorem", "s3", *BOUND_X2, "--q", "inf"],
        ["bound", "--theorem", "pp", *BOUND_X2, "--q", "0.5"],
        ["bound", "--theorem", "pp", *BOUND_X2, "--q", "-2"],
        ["bound", "--theorem", "se6", *BOUND_X2, "--s", "0.5", "--q", "inf"],
        ["verify", "--suite", "reductions", "--cases", "2", "--tol", "nan"],
        ["verify", "--suite", "reductions", "--cases", "2", "--tol", "-1"],
        ["bound", "--theorem", "ppc", *BOUND_X2, "--q", "nan"],
        ["bound", "--theorem", "ppc", *BOUND_X2, "--q", "0"],
        ["bound", "--theorem", "ppc", *BOUND_X2, "--q", "-2"],
        ["bound", "--theorem", "ppc", *BOUND_X2, "--q", "inf"],
        ["bound", "--theorem", "ppc", *BOUND_X2],
        ["sweep", "--theorem", "ppc", *BOUND_X2, "--s-grid", "0.5:1:0.5", "--q", "nan", "--out", "{out}"],
        ["sweep", "--theorem", "ppc", *BOUND_X2, "--s-grid", "0.5:1:0.5", "--out", "{out}"],
    ])
    def test_bad_q_or_tol_is_an_error(self, capsys, tmp_path, argv):
        argv = [arg.format(out=tmp_path / "sweep.csv") for arg in argv]
        assert dispatch(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_usage_error(self, capsys):
        assert dispatch(["nonsense"]) == 2
        assert dispatch(["bound", "--theorem", "se99", "--f", "1*x^2", "--a", "1", "--b", "3"]) == 2

    @pytest.mark.parametrize("spec", ["nonsense", "a:1:0.1", "0.1:1:nan", "0.1:inf:0.5", "nan:1:0.1"])
    def test_bad_grid_spec(self, capsys, tmp_path, spec):
        assert dispatch([
            "sweep", "--theorem", "se2", "--f", "1*x^2", "--a", "1", "--b", "3",
            "--s-grid", spec, "--out", str(tmp_path / "x.csv"),
        ]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "reductions", "--cases", "2", "--out", "{missing}/r.csv"],
        ["sweep", "--theorem", "se2", *BOUND_X2, "--s-grid", "0.5:1:0.5", "--out", "{missing}/x.csv"],
        ["means", "--a", "1", "--b", "2", "--p", "nan"],
        ["means", "--a", "1", "--b", "2", "--p", "inf"],
    ])
    def test_unwritable_out_or_non_finite_p_is_an_error(self, capsys, tmp_path, argv):
        argv = [arg.format(missing=tmp_path / "no" / "such" / "dir") for arg in argv]
        assert dispatch(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


Q_THEOREMS = ("se5", "se6", "s2", "s3", "pp", "ppc", "adk")
HOLDER_THEOREMS = ("se5", "s2")


@settings(max_examples=300, deadline=None)
@given(theorem=st.sampled_from(sorted(THEOREMS)), s=st.floats(), q=st.floats())
def test_bound_exit_code_property(theorem, s, q):
    """Any s and q give exit code 0, 1 or 2, never an exception; a q
    outside its theorem's range is an error (2)."""
    code = dispatch(["bound", "--theorem", theorem, *BOUND_X2, f"--s={s!r}", f"--q={q!r}"])
    assert code in (0, 1, 2)
    if theorem in Q_THEOREMS:
        in_range = q > 1.0 if theorem in HOLDER_THEOREMS else q >= 1.0
        if not (math.isfinite(q) and in_range):
            assert code == 2


def test_python_m_entry_point():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sconvexlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sconvexlab", "means", "--a", "1", "--b", "3"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[0] == "A 2"
