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
from sconvexlab import THEOREMS, OrderedInterval, ParseError, PowerSum, SuiteConfig, evaluate_bound, parse_function_dsl
from sconvexlab import cli
from sconvexlab.cli import _handle_from_expr, _parse_grid, build_parser, dispatch
from sconvexlab.errors import LabError, MissingParam

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

    @pytest.mark.parametrize("text, offset, expected", [
        ("x^2", 0, "number"),
        ("1*x^2 - 3", 6, "'+'"),
        ("1*y^2", 2, "'x'"),
        ("1*x2", 3, "'^'"),
        ("1*x^", 4, "number"),
        ("1*x^2 +", 7, "number"),
        ("   ", 3, "number"),
        ("1 2", 2, "'+'"),
    ])
    def test_error_contract(self, text, offset, expected):
        with pytest.raises(ParseError) as err:
            parse_function_dsl(text)
        assert (err.value.offset, err.value.expected) == (offset, expected)
        assert str(err.value) == f"parse error at offset {offset}: expected {expected}"

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

    @settings(max_examples=500, deadline=None)
    @given(st.lists(
        st.tuples(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0, 5e-324, -1e308])),
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([-1.0, 0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308]),
            ),
        ),
        min_size=1,
        max_size=4,
    ))
    def test_roundtrip_property(self, terms):
        # Finite terms with zeros of either sign, subnormals, huge values and
        # p = -1.  An exponent of -0.0 comes back as 0.0, which compares equal.
        ps = PowerSum(terms)
        assert parse_function_dsl(ps.to_dsl()) == ps

    def test_empty_sum_renders_as_zero_constant(self):
        assert PowerSum([]).to_dsl() == "0.0"
        assert parse_function_dsl("0.0") == PowerSum([(0.0, 0.0)])


class TestCommands:
    def test_defect_prints_value(self, capsys):
        assert dispatch(["defect", "--f", "1*x^2", "--a", "1", "--b", "3"]) == 0
        assert capsys.readouterr().out.strip() == "3.83333333333333"

    def test_defect_of_reciprocal(self, capsys):
        # x^-1 integrates to log(b/a), exactly.
        assert dispatch(["defect", "--f", "1*x^-1", "--a", "1", "--b", "2"]) == 0
        assert capsys.readouterr().out.strip() == "0.390186152773388"

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

    @pytest.mark.parametrize("a, b, mean_a, mean_g", [
        ("1e200", "1e300", "5e+299", "1e+250"),  # a * b overflows
        ("1e-200", "1e-150", "5e-151", "1e-175"),  # a * b underflows to 0
        ("1e308", "1.7e308", "1.35e+308", "1.30384048104053e+308"),  # a + b overflows
        ("1e-200", "1e-120", "5e-121", "1e-160"),  # a * b is subnormal
    ])
    def test_means_far_from_one(self, capsys, a, b, mean_a, mean_g):
        assert dispatch(["means", "--a", a, "--b", b]) == 0
        assert capsys.readouterr().out.splitlines() == [f"A {mean_a}", f"G {mean_g}"]

    @pytest.mark.parametrize("a, b, mean_l", [
        ("1e-300", "1e-299", "5.5e-300"),  # a^2 and b^2 underflow
        ("1e150", "1e160", "5.0000000005e+159"),  # b^2 overflows
    ])
    def test_gen_log_mean_extreme_magnitudes(self, capsys, a, b, mean_l):
        assert dispatch(["means", "--a", a, "--b", b, "--p", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [f"L_p^p {mean_l}", f"L_p {mean_l}"]

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
        ("props", "21785f2b26825db710fbd47180901d86a2005dd31538045f7a0f4fe92e9a7b92"),
    ])
    def test_golden_report_digest(self, tmp_path, capsys, suite, digest):
        # Pinned report bytes: a change meant to keep every report as it is
        # (a speed-up, a refactor) must leave these digests alone.  The props
        # pin runs 200 cases at seed 7331, enough for quadrature calls that
        # bisect up to three times, not only first panels that converge.
        cases, seed = {"props": ("200", "7331")}.get(suite, ("20", "42"))
        out = tmp_path / "report.csv"
        args = ["verify", "--suite", suite, "--cases", cases, "--seed", seed, "--format", "csv", "--out", str(out)]
        assert dispatch(args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("extra, code, digest", [
        # --tol 0 replaces every suite's own tolerance, so statuses move in
        # all four kinds of suite: identity, bounds, reductions and props.
        (["--suite", "all", "--cases", "20", "--seed", "42", "--tol", "0"], 1,
         "088cdfbf675a04f19e8c10181ee9195ac7cac2702c38690019505e53f293d162"),
        # 200 cases per bound suite draw from every instance family,
        # including the s-term swap and the sharp case of the s-power family.
        (["--suite", "bounds", "--cases", "200", "--seed", "7331"], 0,
         "b63ebdb1ed9285b137d8cb4004eeaea56874b2fb1631d34e8d6dea395cc5382b"),
    ], ids=["tol-override", "bound-families"])
    def test_golden_report_digest_more(self, tmp_path, capsys, extra, code, digest):
        out = tmp_path / "report.csv"
        assert dispatch(["verify", *extra, "--format", "csv", "--out", str(out)]) == code
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
        ["defect", "--f", "1*x^-3", "--a", "1e-120", "--b", "1"],
        ["bound", "--theorem", "se5", *BOUND_X2, "--s", "0.5", "--q", "1e308"],
    ])
    def test_overflow_is_an_error(self, capsys, argv):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: floating-point overflow: Numerical result out of range\n"

    @pytest.mark.parametrize("p", ["-1", "0"])
    def test_undefined_mean_prints_only_the_error(self, capsys, p):
        assert dispatch(["means", "--a", "1", "--b", "2", "--p", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: generalized logarithmic mean undefined for p={float(p)}\n"

    def test_negative_p_on_a_one_ulp_interval(self, capsys):
        # L_p^p rounds to 0 on [1, 1 + 2^-52], and 0 has no negative power.
        assert dispatch(["means", "--a", "1", "--b", "1.0000000000000002", "--p", "-0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: L_p^p rounds to 0 on [1.0, 1.0000000000000002] for p=-0.5, so L_p = 0^(1/p) is undefined\n"
        )

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

    def test_negative_seed_is_an_error(self, capsys):
        # random.Random seeds with |seed|, so case i of seed -1 would be
        # case i + 1 of seed 0.
        assert dispatch(["verify", "--suite", "identity", "--cases", "2", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert captured.out == ""

    def test_usage_error(self, capsys):
        assert dispatch(["nonsense"]) == 2
        assert dispatch(["bound", "--theorem", "se99", "--f", "1*x^2", "--a", "1", "--b", "3"]) == 2

    @pytest.mark.parametrize("spec", [
        "nonsense", "a:1:0.1", "0.1:1:nan", "0.1:inf:0.5", "nan:1:0.1",
        "0.1:1:1e-300", "0.1:0.1:1e-300", "1e10:1e10:1e-13",
    ])
    def test_bad_grid_spec(self, capsys, tmp_path, spec):
        assert dispatch([
            "sweep", "--theorem", "se2", "--f", "1*x^2", "--a", "1", "--b", "3",
            "--s-grid", spec, "--out", str(tmp_path / "x.csv"),
        ]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_grid_point_limit(self):
        # The benchmark's sweep grid keeps its 20 values.
        assert _parse_grid("0.05:1.0:0.05") == [min(0.05 + k * 0.05, 1.0) for k in range(20)]
        assert len(_parse_grid("1:10000:1")) == 10_000
        with pytest.raises(LabError):
            _parse_grid("1:10001:1")

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "reductions", "--cases", "2", "--out", "{missing}/r.csv"],
        ["sweep", "--theorem", "se2", *BOUND_X2, "--s-grid", "0.5:1:0.5", "--out", "{missing}/x.csv"],
        ["means", "--a", "1", "--b", "2", "--p", "nan"],
        ["means", "--a", "1", "--b", "2", "--p", "inf"],
        # c * x**p overflows to inf silently: a non-finite side or defect.
        ["bound", "--theorem", "se2", "--f", "1e307*x^2", "--a", "1", "--b", "10", "--s", "1"],
        ["sweep", "--theorem", "se2", "--f", "1e307*x^2", "--a", "1", "--b", "10", "--s-grid", "0.5:1:0.5",
         "--out", "{tmp}/x.csv"],
        ["defect", "--f", "1e307*x^2", "--a", "1", "--b", "10"],
    ])
    def test_unwritable_out_or_non_finite_p_is_an_error(self, capsys, tmp_path, argv):
        argv = [arg.format(missing=tmp_path / "no" / "such" / "dir", tmp=tmp_path) for arg in argv]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        # A failed call prints its error line and nothing on stdout, and
        # writes no file.
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


def _outcome(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """dispatch keeps one parser per process; no call may see another's state."""

    def test_each_call_matches_a_fresh_parser(self, capsys, monkeypatch, tmp_path):
        sweep_out = str(tmp_path / "sweep.csv")
        verify_out = str(tmp_path / "r.json")
        calls = [
            ["bound", "--theorem", "se2", *BOUND_X2, "--s", "0.5"],
            ["nonsense"],
            ["bound", "--theorem", "se5", *BOUND_X2, "--s", "0.5", "--q", "2"],
            ["bound", "--theorem", "se5", *BOUND_X2, "--s", "0.5"],
            ["bound", "--theorem", "se99", *BOUND_X2],
            ["means", "--a", "1", "--b", "3", "--p", "2"],
            ["means", "--a", "1", "--b", "3"],
            ["defect", "--f", "1*x^0.5", "--a", "1", "--b", "4"],
            ["verify", "--suite", "reductions", "--cases", "10", "--seed", "3", "--tol", "1e-30", "--out", verify_out],
            ["verify", "--suite", "reductions", "--cases", "10", "--seed", "3", "--out", verify_out],
            ["sweep", "--theorem", "se2", *BOUND_X2, "--s-grid", "0.2:1.0:0.2", "--out", sweep_out],
            ["defect", "--a", "1", "--b", "4"],
            ["--help"],
            ["bound", "--help"],
        ]
        reused = [_outcome(capsys, argv) for argv in calls]
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = [_outcome(capsys, argv) for argv in calls]
        assert reused == fresh
        # Each usage error (exit 2) is followed by a call that succeeds.
        assert [code for code, _, _ in reused] == [0, 2, 0, 2, 2, 0, 0, 0, 1, 0, 0, 2, 0, 0]

    def test_no_value_leaks_between_calls(self, capsys):
        argv = ["bound", "--theorem", "se5", *BOUND_X2, "--s", "0.5"]
        assert dispatch(argv + ["--q", "2"]) == 0
        capsys.readouterr()
        assert dispatch(argv) == 2
        with pytest.raises(MissingParam) as missing:
            evaluate_bound("se5", _handle_from_expr("1*x^2"), OrderedInterval(1.0, 3.0), s=0.5, q=None)
        assert capsys.readouterr().err == f"error: {missing.value}\n"

    def test_default_tolerances_come_back(self, capsys, monkeypatch, tmp_path):
        seen = []
        run_suites = cli._run_suites
        monkeypatch.setattr(cli, "_run_suites", lambda name, cfg: seen.append(cfg) or run_suites(name, cfg))
        argv = ["verify", "--suite", "reductions", "--cases", "10", "--seed", "3", "--out", str(tmp_path / "r.json")]
        assert dispatch(argv + ["--tol", "1e-30"]) == 1
        assert dispatch(argv) == 0
        assert seen[0] == SuiteConfig(seed=3, cases=10, tol=1e-30)
        assert seen[1] == SuiteConfig(seed=3, cases=10)

    def test_help_and_usage_text(self, capsys):
        assert dispatch(["--help"]) == 0
        assert capsys.readouterr().out == build_parser().format_help()
        assert dispatch(["nonsense"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(build_parser().format_usage())
        assert "invalid choice: 'nonsense'" in err


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


def test_cli_never_imports_numpy_without_the_grid(tmp_path):
    """Proved hypotheses leave numpy unloaded; only the grid fallback needs it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sconvexlab.__file__)))
    script = (
        "import sys\n"
        "from sconvexlab.cli import dispatch\n"
        "from sconvexlab.funcmodel import PowerSum, check_hypothesis, handle_from_power_sum\n"
        "argv = ['verify', '--suite', 'all', '--cases', '20', '--seed', '42', '--format', 'csv', '--out', sys.argv[1]]\n"
        "code = dispatch(argv)\n"
        "rule = check_hypothesis(handle_from_power_sum(PowerSum([(1.0, 2.0)])), 'f', 1.0, None, False, 1.0, 3.0)\n"
        "print('numpy loaded', 'numpy' in sys.modules, 'exit', code, 'rule', rule)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "report.csv")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy loaded False exit 0 rule term"
