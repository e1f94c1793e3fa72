"""CLI: grammar, command output, exit codes, and report determinism."""

import argparse
import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import sconvexlab
from sconvexlab import cli, harness
from sconvexlab.bounds import THEOREMS, evaluate_bound
from sconvexlab.cli import _handle_from_expr, _parse_grid, build_parser, dispatch, parse_function_dsl
from sconvexlab.errors import LabError, MissingParam, ParseError
from sconvexlab.funcmodel import PowerSum
from sconvexlab.harness import SuiteConfig, _csv_lines
from sconvexlab.means import OrderedInterval

BOUND_X2 = ["--f", "1*x^2", "--a", "1", "--b", "3"]


# Terms of the function grammar, and fragments to break them with.
DSL_TERMS = ("1", "-0", "2.5", ".5", "1.", "+3E-2", "1e999", "1*x^2", "-0.5 * x ^ -1", "1e3*x^.5", " 4*x^+0 ")
DSL_JUNK = ("", "1", ".", "e", "E", "-", "+", "*", "x", "^", "y", " ", "\t", "\u0663", "1e", "*x^", "\n", "+ ", "x^2")

# The reference parser for the property test below: the token loop
# parse_function_dsl once fell back to, kept as it was.  Its tokens are
# keyed by the name a ParseError gives as expected.
_TOKEN = {"number": cli._NUMBER, **{f"'{c}'": re.escape(c) for c in "*x^+"}}
_WS = r"\s*"


def _parse_tokens(text: str) -> PowerSum:
    """parse_function_dsl token by token: slower, but a malformed text
    raises a ParseError with the offset and the token expected there."""
    ws = re.compile(_WS)
    pos = ws.match(text).end()

    def take(expected: str) -> str:
        # Match the expected token at pos, then skip the whitespace after it.
        nonlocal pos
        m = re.compile(_TOKEN[expected]).match(text, pos)
        if not m:
            raise ParseError(pos, expected)
        pos = ws.match(text, m.end()).end()
        return m.group()

    terms = []
    while True:
        coeff = float(take("number"))
        exponent = 0.0
        if text.startswith("*", pos):
            take("'*'")
            take("'x'")
            take("'^'")
            exponent = float(take("number"))
        terms.append((coeff, exponent))
        if pos == len(text):
            return PowerSum(terms)
        take("'+'")


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
        ("1*x^+", 4, "number"),
        ("1+", 2, "number"),
        ("", 0, "number"),
        ("1 * y", 4, "'x'"),
        ("1*x 2", 4, "'^'"),
        ("1*x^2 +\t", 8, "number"),
        ("1 + + 2", 4, "number"),
        ("1*x^2*x^3", 5, "'+'"),
        ("1e*x^2", 1, "'+'"),
    ])
    def test_error_contract(self, text, offset, expected):
        with pytest.raises(ParseError) as err:
            parse_function_dsl(text)
        assert (err.value.offset, err.value.expected) == (offset, expected)
        assert str(err.value) == f"parse error at offset {offset}: expected {expected}"

    def test_trailing_newline_and_non_ascii_digits(self):
        assert parse_function_dsl("1*x^2\n").terms == ((1.0, 2.0),)
        assert parse_function_dsl("\u0663*x^2").terms == ((3.0, 2.0),)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_term_scan_agrees_with_the_token_loop(self, data):
        """The term scan gives the reference token loop's terms, bit for
        bit, and raises its error on any text outside the grammar."""
        # Terms and separators, spaced or not, then up to three edits.
        pieces = data.draw(st.lists(st.sampled_from(DSL_TERMS), min_size=1, max_size=4))
        text = data.draw(st.sampled_from(("+", " + ", "+ ", "\t+"))).join(pieces)
        for _ in range(data.draw(st.sampled_from((0, 0, 1, 2, 3)))):
            at = data.draw(st.integers(0, len(text)))
            junk = data.draw(st.sampled_from(DSL_JUNK))
            text = text[:at] + junk + text[at + data.draw(st.integers(0, 1)):]

        def outcome(parse):
            try:
                return repr(parse(text))
            except LabError as exc:
                return type(exc), str(exc)

        assert outcome(parse_function_dsl) == outcome(_parse_tokens)

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
        ("1e-300", "1.0000001e-300", "1.00000005e-300"),  # a^2 and b^2 underflow, b/a - 1 = 1e-7
    ])
    def test_gen_log_mean_extreme_magnitudes(self, capsys, a, b, mean_l):
        assert dispatch(["means", "--a", a, "--b", b, "--p", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [f"L_p^p {mean_l}", f"L_p {mean_l}"]

    @pytest.mark.parametrize("p, mean_pow, mean", [
        ("-2.5", 6.6666666666666661e+149, 1.1760790225246736e-60),
        ("-3", 4.9999999999999995e+299, 1.2599210498948732e-100),
    ])
    def test_gen_log_mean_when_a_over_b_underflows(self, capsys, p, mean_pow, mean):
        # a / b = 1e-600 underflows to 0 and a^(p+1) overflows.
        assert dispatch(["means", "--a", "1e-300", "--b", "1e300", "--p", p]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].startswith("L_p^p ") and lines[3].startswith("L_p ")
        assert float(lines[2].split()[1]) == pytest.approx(mean_pow, rel=1e-12)
        assert float(lines[3].split()[1]) == pytest.approx(mean, rel=1e-12)

    def test_gen_log_mean_when_b_to_the_p_overflows(self, capsys):
        # b^p is about 1.9e310, past the float range; L_p^p (40 digits:
        # 1.325022579370700197e+307) is not.
        assert dispatch(["means", "--a", "1", "--b", "1.000714", "--p", "1e6"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == ["L_p^p 1.3250225793707e+307", "L_p 1.00070742516028"]

    def test_gen_log_mean_on_a_narrow_interval_whose_powers_underflow(self, capsys):
        # a^(p+1) and b^(p+1) underflow and b/a - 1 is about 1.2e-12.  The
        # 80-digit quotient at k = p + 1, added exactly, is
        # 3.71152094157667028e-78, and L_p is 1.57158645165280353e-233.
        a, b = "1.571586451651872e-233", "1.571586451653735e-233"
        assert dispatch(["means", "--a", a, "--b", b, "--p", "0.33259978606580837"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:] == ["L_p^p 3.71152094157667e-78", "L_p 1.57158645165284e-233"]
        assert float(a) <= float(lines[3].split()[1]) <= float(b)

    @pytest.mark.parametrize("p", [["--p", "1e-300"], ["--p=-1e-300"], ["--p", "-1e-300"]],
                             ids=["1e-300", "-1e-300", "spaced--1e-300"])
    def test_gen_log_mean_at_a_tiny_p_is_the_identric_mean(self, capsys, p):
        # L_p^p rounds to 1; L_p tends to the identric mean
        # (b^b / a^a)^(1 / (b - a)) / e = 27^(1/2) / e as p -> 0.  A negative
        # value in exponent notation may follow its option after a space.
        assert dispatch(["means", "--a", "1", "--b", "3", *p]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == ["L_p^p 1", "L_p 1.91155764950695"]

    def test_arithmetic_mean_of_subnormals(self, capsys):
        # (a + b) / 2 is 1.5 steps of 5e-324; it rounds to even, 1e-323.
        # Halving each endpoint first rounds 2.5e-324 down to 0 and gave 5e-324.
        assert dispatch(["means", "--a", "5e-324", "--b", "1e-323"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "A 9.88131291682493e-324"
        assert float(lines[0].split()[1]) == 1e-323

    def test_gen_log_mean_on_subnormal_endpoints(self, capsys):
        # (p + 1)(b - a) underflows to 0; L_p^p (40 digits:
        # 3.727022219294391997e+161) comes from the decimal route.
        assert dispatch(["means", "--a", "5e-324", "--b", "1e-323", "--p", "-0.5"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == ["L_p^p 3.72702221929439e+161", "L_p 4.94065645841247e-324"]

    def test_reciprocal_mean_over_a_wide_window(self, capsys):
        # hi / lo = 1e600 is past the float range; the mean is log(b/a)/(b-a).
        assert dispatch(["bound", "--theorem", "bullen", "--f", "1*x^-1", "--a", "1e-300", "--b", "1e300"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "lhs 1.38155105579643e-297"

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
        ("all", "20a2f1dcdfcba37a211a6b8cc6f4b66dbe1b8042d493417c868bc7820e60b450"),
        ("bounds", "ffd51989734b94b6b2714833f4f7924ede8d6cd1e41f6e6262222f891196fcd4"),
        ("props", "bac70fc2ada1180f84552433775c294293e60aabfabb5a7b954c3a8e0a8e5a0e"),
    ], ids=["all", "bounds", "props"])
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
         "cfe9e73d9fbcb08fa391d7175e0f5f01c64f99742054e808a039fa01bbc2e344"),
        # 200 cases per bound suite draw from every instance family,
        # including the s-term swap and the sharp case of the s-power family.
        (["--suite", "bounds", "--cases", "200", "--seed", "7331"], 0,
         "f43f3677d1b2742decd8c953a2065eb9637f77c0357eca80e10ae1b89c6f354e"),
        # The seed-42 report that every refactor must leave byte for byte.
        (["--suite", "all", "--cases", "1000", "--seed", "42"], 0,
         "9073ad3d747829542f3d8df5cde314d86e36989e764d4a38c2eafa04f79ee8e6"),
    ], ids=["tol-override", "bound-families", "seed-42-oracle"])
    def test_golden_report_digest_more(self, tmp_path, capsys, extra, code, digest):
        out = tmp_path / "report.csv"
        assert dispatch(["verify", *extra, "--format", "csv", "--out", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("suite, digest", [
        ("identity", "18c469ac96f5184d3d473622377bc1c3b6a78aac100ac03d73809d694d1a4af4"),
        ("all", "6d738c77352c4090dd967a236ee171933e9fecee76eaa34283699354b865166d"),
    ], ids=["identity", "all"])
    def test_golden_json_report_digest(self, tmp_path, capsys, suite, digest):
        # Pinned JSON report bytes, one report (an object) and sixteen (an
        # array), with each runtime_ms, the one value that varies from run
        # to run, read as 0.
        out = tmp_path / "report.json"
        args = ["verify", "--suite", suite, "--cases", "50", "--seed", "42", "--format", "json", "--out", str(out)]
        assert dispatch(args) == 0
        masked = re.sub(rb'"runtime_ms": [-+.0-9eE]+', b'"runtime_ms": 0', out.read_bytes())
        assert masked.count(b'"runtime_ms": 0') == (1 if suite == "identity" else 16)
        assert hashlib.sha256(masked).hexdigest() == digest

    @pytest.mark.parametrize("suite", ["props", "all"])
    def test_csv_report_streams_to_stdout(self, capsys, suite):
        # Without --out the report follows the summary lines on stdout, with
        # the bytes _csv_lines gives for the same list of reports.
        assert dispatch(["verify", "--suite", suite, "--cases", "3", "--seed", "11", "--format", "csv"]) == 0
        printed = capsys.readouterr().out
        cfg = SuiteConfig(seed=11, cases=3)
        reports = [r for name, run in harness.SUITES.items() if suite in (name, "all") for r in run(cfg)]
        report = "".join(_csv_lines(reports))
        assert printed.endswith(report)
        summary = printed[: len(printed) - len(report)].splitlines()
        suite_lines = [line for line in summary if line.startswith("suite ")]
        assert len(suite_lines) == len(reports)
        assert all(line.startswith("note: ") for line in summary if line not in suite_lines)

    def test_suite_choices_are_the_suite_table(self):
        # cli cannot import harness when it loads, so the --suite choices
        # are written out in COMMANDS: the table's names, then "all".
        assert cli.COMMANDS["verify"][2]["--suite"][0] == (*harness.SUITES, "all")

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

    @staticmethod
    def _csv_writer_reference(theorem, f, iv, grid, q):
        """The sweep CSV as csv.writer writes it from one report per s."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["theorem", "a", "b", "s", "q", "lhs", "rhs", "margin", "holds"])
        holds = True
        for s in _parse_grid(grid):
            r = evaluate_bound(theorem, f, iv, s=s, q=q)
            holds = holds and r.holds
            writer.writerow((r.theorem_id, r.a, r.b, r.s, r.q, r.lhs, r.rhs, r.margin, "true" if r.holds else "false"))
        return buf.getvalue(), 0 if holds else 1

    @pytest.mark.parametrize("grid", ["0.05:1.0:0.05", "0.5:0.5:0.1"])
    @pytest.mark.parametrize("theorem", sorted(THEOREMS))
    def test_bytes_match_csv_writer(self, tmp_path, capsys, theorem, grid):
        expr, a, b, q = "1*x^2 + 0.5*x^0.5 + -0.25*x^-1", "0.75", "2.5", "2.5"
        out = tmp_path / "sweep.csv"
        code = dispatch(["sweep", "--theorem", theorem, "--f", expr, "--a", a, "--b", b,
                         "--s-grid", grid, "--q", q, "--out", str(out)])
        expected, expected_code = self._csv_writer_reference(
            theorem, _handle_from_expr(expr), OrderedInterval(float(a), float(b)), grid, float(q))
        assert (code, out.read_bytes()) == (expected_code, expected.encode("utf-8"))

    @pytest.mark.parametrize("theorem, evaluations", [("s1", 1), ("hh", 1), ("se2", 10), ("hhs", 10)])
    def test_bound_evaluated_once_unless_it_takes_s(self, tmp_path, capsys, monkeypatch, theorem, evaluations):
        # A theorem that takes no s gives one report for every grid point.
        calls = []
        evaluate = cli.evaluate_bound
        monkeypatch.setattr(cli, "evaluate_bound", lambda *args, **kw: calls.append(kw) or evaluate(*args, **kw))
        out = tmp_path / "sweep.csv"
        assert dispatch(["sweep", "--theorem", theorem, *BOUND_X2, "--s-grid", "0.1:1:0.1", "--out", str(out)]) == 0
        assert len(calls) == evaluations
        assert len(out.read_text().splitlines()) == 1 + 10


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

    @pytest.mark.parametrize("a, b, p", [
        ("5e-324", "1.624800201446007e+124", "-2.842509883017094"),  # L_p^p about 1.65e471
        ("1e-300", "1", "-2.5"),  # L_p^p about 6.7e449
        ("1", "1e300", "3"),  # L_p^p about 2.5e899
        ("1e-200", "1.00000000000001e-200", "-2.5"),  # normal powers, L_p^p about 1e500
    ])
    def test_gen_log_mean_out_of_range_is_an_error(self, capsys, a, b, p):
        assert dispatch(["means", "--a", a, "--b", b, "--p", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: floating-point overflow: L_p^p out of range for p={float(p)} on [{float(a)}, {float(b)}]\n"
        )

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

    def test_more_than_2_to_the_32_cases_is_an_error(self, capsys, monkeypatch):
        # The config is checked before any case runs.
        calls = []
        monkeypatch.setitem(harness.SUITES, "reductions", lambda cfg: calls.append(cfg) or [])
        assert dispatch(["verify", "--suite", "reductions", "--cases", "4294967297"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: suite needs 1 <= cases <= 2^32, got 4294967297\n"
        assert captured.out == ""
        assert calls == []
        # Control: the replaced runner is the one verify calls.
        assert dispatch(["verify", "--suite", "reductions", "--cases", "1"]) == 0
        assert calls == [SuiteConfig(cases=1)]

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

    def test_grid_narrower_than_the_slack_gives_each_point_once(self, capsys, tmp_path):
        # HI - LO is below the 1e-12 slack a wider grid keeps past HI.
        grid = "0.5:0.5000000000001:1e-14"
        assert _parse_grid(grid) == [min(0.5 + k * 1e-14, 0.5000000000001) for k in range(11)]
        out = tmp_path / "sweep.csv"
        assert dispatch(["sweep", "--theorem", "se2", *BOUND_X2, "--s-grid", grid, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 11 and len(set(rows)) == 11

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
    """No call may see another's state."""

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
            ["bound", "--theorem", "se2", *BOUND_X2, "--zz", "1"],
            ["means", "--a=1", "--b=3", "--p=-0.5"],
            ["defect", "--f", "1*x^0.5", "--a", "1", "--b", "4"],
            ["verify", "--suite", "reductions", "--cases", "10", "--seed", "3", "--tol", "1e-30", "--out", verify_out],
            ["verify", "--suite", "reductions", "--cases", "10", "--seed", "3", "--out", verify_out],
            ["sweep", "--theorem", "se2", *BOUND_X2, "--s-grid", "0.2:1.0:0.2", "--out", sweep_out],
            ["defect", "--a", "1", "--b", "4"],
            ["--help"],
            ["bound", "--help"],
        ]
        first = [_outcome(capsys, argv) for argv in calls]
        second = [_outcome(capsys, argv) for argv in calls]
        assert first == second
        # Each usage error (exit 2) is followed by a call that succeeds.
        assert [code for code, _, _ in first] == [0, 2, 0, 2, 2, 0, 0, 2, 0, 0, 1, 0, 0, 2, 0, 0]

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
        run = harness.SUITES["reductions"]
        monkeypatch.setitem(harness.SUITES, "reductions", lambda cfg: seen.append(cfg) or run(cfg))
        argv = ["verify", "--suite", "reductions", "--cases", "10", "--seed", "3", "--out", str(tmp_path / "r.json")]
        assert dispatch(argv + ["--tol", "1e-30"]) == 1
        assert dispatch(argv) == 0
        assert seen == [SuiteConfig(seed=3, cases=10, tol=1e-30), SuiteConfig(seed=3, cases=10)]

    def test_help_and_usage_text(self, capsys):
        assert dispatch(["--help"]) == 0
        assert capsys.readouterr().out == build_parser().format_help()
        assert dispatch(["nonsense"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(build_parser().format_usage())
        assert "invalid choice: 'nonsense'" in err


THEOREM_CHOICES = "{se2,se5,se6,s1,s2,s3,da,pp,ppc,adk,hh,hhs,bullen}"
BOUND_USAGE = f"""\
usage: sconvexlab bound [-h] --theorem
                        {THEOREM_CHOICES} --f
                        F --a A --b B [--s S] [--q Q]
"""
# What the command line prints for help and usage errors on an 80-column
# terminal, written out rather than taken from build_parser().
GOLDEN_TEXT = {
    ("--help",): ("out", """\
usage: sconvexlab [-h] {means,defect,bound,verify,sweep} ...

Verification laboratory for integral inequalities with s-convex derivative
data.

positional arguments:
  {means,defect,bound,verify,sweep}
    means               evaluate means of an interval
    defect              Bullen-type defect of a function
    bound               evaluate one inequality on explicit inputs
    verify              run verification suites and emit a report
    sweep               evaluate one bound over an s grid

options:
  -h, --help            show this help message and exit
"""),
    ("bound", "--help"): ("out", BOUND_USAGE + f"""
options:
  -h, --help            show this help message and exit
  --theorem {THEOREM_CHOICES}
  --f F
  --a A
  --b B
  --s S
  --q Q
"""),
    ("sweep", "--help"): ("out", f"""\
usage: sconvexlab sweep [-h] --theorem
                        {THEOREM_CHOICES} --f
                        F --a A --b B --s-grid S_GRID [--q Q] --out OUT

options:
  -h, --help            show this help message and exit
  --theorem {THEOREM_CHOICES}
  --f F
  --a A
  --b B
  --s-grid S_GRID       LO:HI:STEP
  --q Q
  --out OUT
"""),
    ("bound", "--theorem", "se99", *BOUND_X2): ("err", BOUND_USAGE + (
        "sconvexlab bound: error: argument --theorem: invalid choice: 'se99' (choose from 'se2', 'se5', "
        "'se6', 's1', 's2', 's3', 'da', 'pp', 'ppc', 'adk', 'hh', 'hhs', 'bullen')\n")),
    ("bound", "--theorem", "se2", *BOUND_X2, "--zz", "1"): ("err", BOUND_USAGE + (
        "sconvexlab bound: error: unrecognized arguments: --zz 1\n")),
}


@pytest.mark.parametrize("argv", GOLDEN_TEXT, ids=" ".join)
def test_golden_help_and_usage_text(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    stream, text = GOLDEN_TEXT[argv]
    assert dispatch(list(argv)) == (0 if stream == "out" else 2)
    captured = capsys.readouterr()
    assert {"out": captured.out, "err": captured.err} == {"out": "", "err": "", stream: text}


# Each command's options, with values they accept.
_AB = {"--a": ["1", "1.5", "nan"], "--b": ["3", "1e308", "1_0"]}
_THEOREM = {"--theorem": ["se2", "pp"], "--f": ["1*x^2", ""], **_AB, "--q": ["2", "-0"]}
QUICK_OPTIONS = {
    "means": {**_AB, "--p": ["2", "0.5", "-2.5", "-1e-300"]},
    "defect": {"--f": ["1*x^2", ""], **_AB},
    "bound": {**_THEOREM, "--s": ["0.5", "inf"]},
    "verify": {"--suite": ["all", "props"], "--cases": ["3", "1_0"], "--seed": ["7", "-7"], "--tol": ["1e-9"],
               "--out": ["r.json"], "--format": ["csv", "json"]},
    "sweep": {**_THEOREM, "--s-grid": ["0.5:1:0.5"], "--out": ["s.csv"]},
}
# Tokens argparse reads its own way: abbreviated and "=" options, help, "--",
# negative numbers, a value that starts with "-", values that no type or
# choice accepts, and every option and value above.
QUICK_TOKENS = sorted({token for options in QUICK_OPTIONS.values() for flag, values in options.items()
                       for token in (flag, *values)} | {
    "--the", "--s-g", "--cas", "--form", "--su", "--a=1", "--b=3", "--theorem=se2", "--suite=all", "--f=1*x^2",
    "-h", "--help", "--", "-2.5", "-1e-3", "-.5E+2", "-1e", "-x", "", "se99", "bogus", "1.5.2", " 2 ", "--zz",
})


class TestDirectParse:
    """A known command's arguments are read without argparse or go straight
    to its own parser: the same outcome as the top-level route."""

    @staticmethod
    def _calls(tmp_path):
        sweep = ["sweep", "--theorem", "se2", *BOUND_X2, "--s-grid", "0.5:1:0.5", "--out", str(tmp_path / "s.csv")]
        return [
            # A valid call of each command.
            ["means", "--a", "1", "--b", "3", "--p", "2"],
            ["defect", "--f", "1*x^0.5", "--a", "1", "--b", "4"],
            ["bound", "--theorem", "se2", *BOUND_X2, "--s", "0.5"],
            ["verify", "--suite", "reductions", "--cases", "3", "--seed", "3", "--format", "csv"],
            sweep,
            # --opt=value, an abbreviated option, a repeated option.
            ["bound", "--theorem=se5", *BOUND_X2, "--s=0.5", "--q=2"],
            ["bound", "--the", "se2", *BOUND_X2, "--s", "0.5"],
            ["means", "--a", "1", "--a", "2", "--b", "3"],
            # Negative values, in range and not.
            ["means", "--a", "1", "--b", "3", "--p", "-2.5"],
            ["means", "--a", "-1", "--b", "3"],
            ["bound", "--theorem", "pp", *BOUND_X2, "--q", "-2"],
            # Help, at the top and per command.
            ["-h"],
            ["--help"],
            ["bound", "-h"],
            ["sweep", "--help"],
            # A missing required option, an invalid float or choice.
            ["defect", "--a", "1", "--b", "4"],
            ["bound"],
            ["means", "--a", "x", "--b", "3"],
            ["bound", "--theorem", "se99", *BOUND_X2],
            ["verify", "--suite", "bogus"],
            # An unknown command, an empty argv, an unknown option first.
            ["nonsense"],
            [],
            ["--zz"],
            # "--" ends the options.
            ["bound", "--", "--theorem", "se2"],
            ["means", "--", "--a", "1"],
        ]

    def test_outcomes_match_the_top_level_route(self, capsys, monkeypatch, tmp_path):
        calls = self._calls(tmp_path)
        direct = [_outcome(capsys, argv) for argv in calls]
        # With no plain line read and no command known, dispatch parses every
        # argv with the top-level parser, as build_parser().parse_args(argv) does.
        def top_level_parser():
            parser = build_parser()
            parser.commands = {}
            return parser

        monkeypatch.setattr(cli, "_quick_parse", lambda name, argv: None)
        monkeypatch.setattr(cli, "build_parser", top_level_parser)
        top_level = [_outcome(capsys, argv) for argv in calls]
        assert direct == top_level
        assert {code for code, _, _ in direct} == {0, 2}

    def test_unrecognized_arguments_print_the_command_usage(self, capsys):
        assert dispatch(["bound", "--theorem", "se2", *BOUND_X2, "--zz", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(build_parser().commands["bound"].format_usage())
        assert "sconvexlab bound: error: unrecognized arguments: --zz 1\n" in captured.err

    def test_each_call_parses_once(self, capsys, monkeypatch, tmp_path):
        """A plain command line never reaches argparse, which builds no
        parser for it; any other argv builds one parser and is parsed once,
        a known command's by that command's parser."""
        parsed, built = [], []
        parse_known_args, init = argparse.ArgumentParser.parse_known_args, argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            parsed.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        def counted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        # The progs of one parser: the top-level parser and each command's.
        one_parser = ["sconvexlab", *(f"sconvexlab {name}" for name in cli.COMMANDS)]
        # A valid call of each command, and negative numbers as values.
        for argv in [*self._calls(tmp_path)[:5], ["means", "--a", "1", "--b", "3", "--p", "-2.5"],
                     ["means", "--a", "1", "--b", "3", "--p", "-1e-3"]]:
            del parsed[:], built[:]
            assert dispatch(argv) == 0
            assert parsed == built == []
        # --opt=value, an abbreviated option, a repeated option, and a value
        # starting with "-" that is no negative number.
        for argv, code in (
            (["bound", "--theorem=se5", *BOUND_X2, "--s=0.5", "--q=2"], 0),
            (["bound", "--the", "se2", *BOUND_X2, "--s", "0.5"], 0),
            (["means", "--a", "1", "--a", "2", "--b", "3"], 0),
            (["means", "--a", "1", "--b", "3", "--p", "-inf"], 2),
        ):
            del parsed[:], built[:]
            assert dispatch(argv) == code
            assert parsed == [f"sconvexlab {argv[0]}"]
            assert built == one_parser
        # Help and an unknown command go through the top-level parser.
        for argv, code in ((["--help"], 0), (["nonsense"], 2)):
            del parsed[:], built[:]
            assert dispatch(argv) == code
            assert parsed == ["sconvexlab"]
            assert built == one_parser

    @settings(max_examples=300, deadline=None)
    @given(call=st.data())
    def test_quick_parse_is_argparse_or_none(self, call):
        """Over argv built from valid pairs and from tokens argparse reads
        its own way, _quick_parse gives None or what parse_args gives."""
        command = call.draw(st.sampled_from(sorted(QUICK_OPTIONS)))
        argv = []
        for flag, values in call.draw(st.permutations(list(QUICK_OPTIONS[command].items()))):
            if call.draw(st.sampled_from((True, True, True, False))):
                argv += [flag, call.draw(st.sampled_from(values))]
        # Edits that repeat an option, split a pair, or bring in another token.
        for _ in range(call.draw(st.sampled_from((0, 0, 1, 2, 3)))):
            at = call.draw(st.integers(0, len(argv)))
            token = call.draw(st.sampled_from(QUICK_TOKENS))
            argv[at:at + call.draw(st.integers(0, 1))] = [token]
        quick = cli._quick_parse(command, argv)
        if quick is not None:
            # repr, so that nan equals nan and -0.0 differs from 0.0.
            parser = build_parser().commands[command]
            expected = {name: repr(value) for name, value in vars(parser.parse_args(argv)).items()}
            assert {name: repr(value) for name, value in vars(quick).items()} == expected


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


@settings(max_examples=300, deadline=None)
@given(a=st.floats(), b=st.floats(), p=st.none() | st.floats())
@example(a=5e-324, b=1e-323, p=-0.5)
def test_means_exit_code_property(a, b, p):
    """Any a, b and optional p give exit code 0 or 2, never an exception."""
    argv = ["means", f"--a={a!r}", f"--b={b!r}"] + ([] if p is None else [f"--p={p!r}"])
    assert dispatch(argv) in (0, 2)


# Power sums in the function grammar: signed coefficients from 1e-320 to
# 1e300, and exponents that overflow, underflow or have no antiderivative.
DSL_SUMS = st.lists(
    st.tuples(
        st.sampled_from((1.0, -1.0)), st.floats(1e-320, 1e300),
        st.sampled_from((-1.0, -2.0, 400.0, 1e300, -1e300)) | st.floats(-4.0, 4.0),
    ),
    min_size=1,
    max_size=3,
).map(lambda terms: " + ".join(f"{sign * c!r}*x^{p!r}" for sign, c, p in terms))


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(("defect", "bound", "sweep")),
    theorem=st.sampled_from(sorted(THEOREMS)),
    f=DSL_SUMS,
    # Any two floats, or an ordered positive pair often enough to reach the bounds.
    ab=st.tuples(st.floats(), st.floats())
    | st.lists(st.floats(1e-300, 1e300) | st.floats(0.25, 4.0), min_size=2, max_size=2, unique=True).map(sorted),
    s=st.floats() | st.floats(0.0, 1.0),
    q=st.none() | st.floats() | st.floats(1.0, 10.0),
    grid=st.tuples(st.floats(0.0, 1.0), st.floats(0.05, 1.0)),
)
def test_function_exit_code_property(tmp_path_factory, command, theorem, f, ab, s, q, grid):
    """Any power sum and any a, b give defect, bound and sweep exit code 0,
    1 or 2, never an exception; an exit 0 prints no nan or inf."""
    out_path = str(tmp_path_factory.getbasetemp() / "sweep.csv")
    argv = [command, f"--f={f}", f"--a={ab[0]!r}", f"--b={ab[1]!r}"]
    if command != "defect":
        argv += ["--theorem", theorem] + ([] if q is None else [f"--q={q!r}"])
    if command == "bound":
        argv.append(f"--s={s!r}")
    if command == "sweep":
        argv += [f"--s-grid={grid[0]!r}:1:{grid[1]!r}", "--out", out_path]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 1, 2)
    if code == 0:
        printed = out.getvalue().replace(out_path, "")
        assert "nan" not in printed and "inf" not in printed, printed


def _readme_cli_examples():
    """Each command line of README's CLI block, with the values of the
    `# -> value` lines that follow it."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("# -> "):
            examples[-1][1].append(line[len("# -> "):])
        elif line.startswith(("sconvexlab ", "python -m sconvexlab ")):
            examples.append((shlex.split(line), []))
    return examples


def test_readme_cli_examples(capsys, tmp_path):
    """Every command in README's CLI block exits 0 and prints each value
    annotated under it; --out files go to a temporary directory."""
    examples = _readme_cli_examples()
    assert len(examples) == 8
    for words, expected in examples:
        argv = words[words.index("sconvexlab") + 1:]
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert dispatch(argv) == 0, words
        printed = capsys.readouterr().out.splitlines()
        for value in expected:
            assert value in printed, (words, value)


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


def test_cli_import_loads_neither_csv_nor_dataclasses():
    """The reports are formatted without csv, and no record is a dataclass."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sconvexlab.__file__)))
    script = "import sys, sconvexlab.cli\nprint(sorted({'csv', 'dataclasses'} & set(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _run_fresh(script, *args):
    """Run script in a fresh interpreter on this checkout; its last stdout line."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sconvexlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


_SUITE_MODULES = (
    "loaded = lambda: [m in sys.modules for m in "
    "('sconvexlab.harness', 'sconvexlab.means_bounds', 'sconvexlab.quadrature')]\n"
)


def test_only_verify_loads_the_suite_modules(tmp_path):
    """means, defect, bound and sweep never import harness, means_bounds or
    quadrature; verify imports the first two.  quadrature is imported on the
    first numerical integral, which the bounds and reductions suites never
    make and the identity suite does, and bounds.integrate is then
    quadrature's own function."""
    script = (
        "import sys, sconvexlab.bounds as bounds\n"
        + _SUITE_MODULES
        + "at_import = loaded()\n"
        "import sconvexlab.cli as cli\n"
        "f = ['--f', '1*x^2', '--a', '1', '--b', '3']\n"
        "cli.dispatch(['means', '--a', '1', '--b', '3', '--p', '2'])\n"
        "cli.dispatch(['defect', *f])\n"
        "cli.dispatch(['bound', '--theorem', 'se2', *f, '--s', '0.5'])\n"
        "cli.dispatch(['bound', '--theorem', 'hhs', *f, '--s', '0.5'])\n"
        "cli.dispatch(['sweep', '--theorem', 'se6', *f, '--s-grid', '0.5:1:0.25', '--q', '2', '--out', sys.argv[1]])\n"
        "commands = loaded()\n"
        "cli.dispatch(['verify', '--suite', 'bounds', '--cases', '2', '--out', sys.argv[2]])\n"
        "cli.dispatch(['verify', '--suite', 'reductions', '--cases', '2', '--out', sys.argv[2]])\n"
        "bound_suites = loaded()\n"
        "cli.dispatch(['verify', '--suite', 'identity', '--cases', '2', '--out', sys.argv[2]])\n"
        "from sconvexlab import quadrature\n"
        "print(at_import, commands, bound_suites, loaded(), bounds.integrate is quadrature.integrate)\n"
    )
    last = _run_fresh(script, tmp_path / "sweep.csv", tmp_path / "report.json")
    assert last == (
        "[False, False, False] [False, False, False] [True, True, False] [True, True, True] True"
    )


def test_first_numerical_integral_gives_quadratures_bits():
    """The first mean_value of a handle with no exact integral goes through
    bounds.integrate's stand-in, which imports quadrature then, and gives
    the bits quadrature.integrate gives."""
    script = (
        "import math, sys\n"
        "from sconvexlab import bounds\n"
        "from sconvexlab.funcmodel import FuncHandle\n"
        "f = FuncHandle(value=math.sqrt, derivative=lambda x: 0.5 / math.sqrt(x))\n"
        "before = 'sconvexlab.quadrature' in sys.modules\n"
        "first = bounds.mean_value(f, 1.0, 4.0)\n"
        "from sconvexlab import quadrature\n"
        "direct = quadrature.integrate(math.sqrt, 1.0, 4.0).value / (4.0 - 1.0)\n"
        "print(before, first.hex() == direct.hex(), first.hex())\n"
    )
    before, same_bits, first = _run_fresh(script).split()
    assert (before, same_bits) == ("False", "True")
    assert float.fromhex(first) == pytest.approx(14 / 9, rel=1e-12)


def test_import_footprint():
    """The package root re-exports nothing, so importing it loads no
    submodule, and importing means loads only errors beside it (argparse
    stays unloaded).  An unknown attribute of sconvexlab.cli still raises
    AttributeError."""
    script = (
        "import sys\n"
        "ours = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'sconvexlab')\n"
        "import sconvexlab\n"
        "root = ours()\n"
        "import sconvexlab.means\n"
        "means = ours()\n"
        "argparse_loaded = 'argparse' in sys.modules\n"
        "import sconvexlab.cli\n"
        "print(root, means, argparse_loaded, hasattr(sconvexlab.cli, 'no_such_name'))\n"
    )
    assert _run_fresh(script) == (
        "['sconvexlab'] ['sconvexlab', 'sconvexlab.errors', 'sconvexlab.means'] False False"
    )


def test_names_replaced_in_cli_before_verify_are_the_ones_it_calls(tmp_path):
    """A cli.write_report or cli.SUITES set before the first verify is kept
    when verify reads the harness names; verify runs the bound suites in
    one call."""
    script = (
        "import os, sys, sconvexlab.cli as cli\n"
        "from sconvexlab import harness\n"
        "seen = []\n"
        "def write_report(payload, path, fmt):\n"
        "    seen.append('write ' + fmt)\n"
        "def run_bound_suites(cfg):\n"
        "    reports = harness.run_bound_suites(cfg)\n"
        "    seen.append('bounds ' + str(len(reports)))\n"
        "    return reports\n"
        "cli.write_report, cli.SUITES = write_report, {**harness.SUITES, 'bounds': run_bound_suites}\n"
        "code = cli.dispatch(['verify', '--suite', 'bounds', '--cases', '2', '--format', 'csv', '--out', sys.argv[1]])\n"
        "print(code, seen, cli.write_report is write_report, cli.render_json is harness.render_json,\n"
        "      os.path.exists(sys.argv[1]))\n"
    )
    assert _run_fresh(script, tmp_path / "report.csv") == (
        f"0 ['bounds {len(THEOREMS)}', 'write csv'] True True False"
    )


def test_cli_never_imports_numpy(tmp_path):
    """No library module needs numpy, so a full verify run and a hypothesis
    check leave it unloaded.  No record is a dataclass, so dataclasses
    stays unloaded too."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sconvexlab.__file__)))
    script = (
        "import sys\n"
        "from sconvexlab.cli import dispatch\n"
        "from sconvexlab.funcmodel import PowerSum, check_hypothesis, handle_from_power_sum\n"
        "argv = ['verify', '--suite', 'all', '--cases', '20', '--seed', '42', '--format', 'csv', '--out', sys.argv[1]]\n"
        "code = dispatch(argv)\n"
        "rule = check_hypothesis(handle_from_power_sum(PowerSum([(1.0, 2.0)])), 'f', 1.0, None, False)\n"
        "print('numpy loaded', 'numpy' in sys.modules, 'dataclasses loaded', 'dataclasses' in sys.modules,\n"
        "      'exit', code, 'rule', rule)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "report.csv")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy loaded False dataclasses loaded False exit 0 rule term"


def _package_imports():
    """(file, line, module) for each module each file of the package imports,
    at the top or inside a function, as an absolute name; "from A import B"
    gives both A and A.B, since B may be a module."""
    package = os.path.dirname(os.path.abspath(sconvexlab.__file__))
    for name in sorted(name for name in os.listdir(package) if name.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["sconvexlab" if node.level else "", node.module]))
                imported = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            yield from ((name, node.lineno, m) for m in imported)


def test_no_library_module_imports_numpy():
    """numpy is a test dependency only: no module of the package imports it,
    at the top or inside a function."""
    imports = list(_package_imports())
    found = [(name, line) for name, line, m in imports if m.split(".")[0] == "numpy"]
    assert "funcmodel.py" in {name for name, _, _ in imports} and found == []


def test_only_main_imports_cli():
    """cli is the top of the package: it imports the other modules, and only
    __main__ imports it, so no library module reaches back into the command
    line (a report is written by cli.write_report, not by harness)."""
    importers = {name for name, _, m in _package_imports() if m == "sconvexlab.cli"}
    assert importers == {"__main__.py"}
