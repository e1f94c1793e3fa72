"""Command-line surface.

Commands:

  means   --a A --b B [--p P]         arithmetic/geometric means, and L_p
  defect  --f EXPR --a A --b B        the Bullen-type defect of EXPR
  bound   --theorem ID --f EXPR --a A --b B [--s S] [--q Q]
  verify  --suite {identity|bounds|reductions|props|all} --cases N --seed K
          [--tol T] [--out PATH] [--format {json|csv}]
  sweep   --theorem ID --f EXPR --a A --b B --s-grid LO:HI:STEP [--q Q]
          --out PATH

Functions are written in a tiny coefficient-mandatory grammar:

  expr   := term ("+" term)*
  term   := NUMBER "*x^" NUMBER | NUMBER
  NUMBER := decimal literal, optional sign and exponent

so "1*x^2", "0.5*x^0.5 + 2.5" and "2*x^-1 + -3" are all valid, while a
bare "x^2" is rejected (the mandatory coefficient keeps the grammar LL(1)
with no lookahead ambiguity between names and malformed numbers).

Exit codes: 0 success with no violations, 1 at least one violated
inequality, 2 usage, parse, domain, floating-point overflow or file errors
(an --out path that cannot be written).
A --s-grid may hold at most 10,000 points.
se5 and s2 need a finite q > 1, se6, s3, pp, ppc and adk a finite q >= 1, and
tolerances must be finite and nonnegative; anything else is a domain error.
Numeric output is printed with 15 significant digits, enough for a full
double round trip.  An overflow prints "error: floating-point overflow:
<reason>"; a bound side or defect that is not finite is an error too (a
float power can overflow to inf without raising), and a failing call
prints only its error line.

dispatch builds the argparse parser once per process and reuses it;
build_parser() still returns a fresh one.  numpy is imported only when the
grid fallback of the hypothesis check runs, never by the CLI itself.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import re
import sys
from typing import Optional

from .errors import EvalError, LabError, ParseError
from .funcmodel import FuncHandle, PowerSum, handle_from_power_sum
from .harness import (
    SuiteConfig,
    SuiteReport,
    render_csv,
    render_json,
    run_bound_suite,
    run_identity_suite,
    run_prop_crosscheck_suite,
    run_reduction_suite,
    write_report,
)
from .means import OrderedInterval, arithmetic_mean, gen_log_mean, gen_log_mean_pow, geometric_mean
from .bounds import THEOREMS, bullen_type_defect, evaluate_bound

# The grammar's tokens, keyed by the name a ParseError gives as expected.
_TOKEN = {
    "number": re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"),
    **{f"'{c}'": re.compile(re.escape(c)) for c in "*x^+"},
}
_WS = re.compile(r"\s*")


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def parse_function_dsl(text: str) -> PowerSum:
    """Parse the coefficient-mandatory power-sum grammar into a PowerSum."""
    pos = _WS.match(text).end()

    def take(expected: str) -> str:
        # Match the expected token at pos, then skip the whitespace after it.
        nonlocal pos
        m = _TOKEN[expected].match(text, pos)
        if not m:
            raise ParseError(pos, expected)
        pos = _WS.match(text, m.end()).end()
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


def _handle_from_expr(expr: str) -> FuncHandle:
    return handle_from_power_sum(parse_function_dsl(expr))


def _cmd_means(args) -> int:
    iv = OrderedInterval(args.a, args.b)
    # Every value is computed before any is printed, so a failing call
    # prints only its error line.
    lines = [("A", arithmetic_mean(iv)), ("G", geometric_mean(iv))]
    if args.p is not None:
        lines += [("L_p^p", gen_log_mean_pow(iv, args.p)), ("L_p", gen_log_mean(iv, args.p))]
    for name, value in lines:
        print(f"{name} {_fmt(value)}")
    return 0


def _cmd_defect(args) -> int:
    f = _handle_from_expr(args.f)
    iv = OrderedInterval(args.a, args.b)
    defect = bullen_type_defect(f, iv)
    if not math.isfinite(defect):
        raise EvalError(f"the defect is not finite ({defect!r})")
    print(_fmt(defect))
    return 0


def _cmd_bound(args) -> int:
    f = _handle_from_expr(args.f)
    iv = OrderedInterval(args.a, args.b)
    report = evaluate_bound(args.theorem, f, iv, s=args.s, q=args.q)
    print(f"theorem {report.theorem_id}")
    print(f"lhs {_fmt(report.lhs)}")
    print(f"rhs {_fmt(report.rhs)}")
    print(f"margin {_fmt(report.margin)}")
    print(f"holds {'true' if report.holds else 'false'}")
    return 0 if report.holds else 1


def _run_suites(name: str, cfg: SuiteConfig) -> list[SuiteReport]:
    reports = []
    if name in ("identity", "all"):
        reports.append(run_identity_suite(cfg))
    if name in ("bounds", "all"):
        reports.extend(run_bound_suite(cfg, th) for th in THEOREMS)
    if name in ("reductions", "all"):
        reports.append(run_reduction_suite(cfg))
    if name in ("props", "all"):
        reports.append(run_prop_crosscheck_suite(cfg))
    return reports


def _cmd_verify(args) -> int:
    overrides = {}
    if args.tol is not None:
        overrides = dict(identity_tol=args.tol, bound_tol=args.tol, reduction_tol=args.tol)
    cfg = SuiteConfig(seed=args.seed, cases=args.cases, **overrides)
    reports = _run_suites(args.suite, cfg)
    payload = reports[0] if len(reports) == 1 else reports
    # Write the file before any output, so a failed write prints only its
    # error line.
    if args.out:
        write_report(payload, args.out, args.format)

    total_violations = 0
    for report in reports:
        total_violations += len(report.violations)
        print(
            f"suite {report.suite_id}: cases {report.cases_run}, skipped {report.skipped}, "
            f"violations {len(report.violations)}, warnings {report.warnings}, "
            f"worst_margin {_fmt(report.worst_margin)}"
        )
        for note in report.notes:
            print(f"note: {note}")

    if args.out:
        print(f"report written to {args.out}")
    elif args.format == "csv":
        sys.stdout.write(render_csv(payload))
    else:
        sys.stdout.write(render_json(payload))
    return 0 if total_violations == 0 else 1


_GRID_MAX_POINTS = 10_000


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise LabError(f"grid argument must be LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise LabError(f"grid argument must be three numbers LO:HI:STEP, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)) or step <= 0 or hi < lo:
        raise LabError(f"grid argument must be finite with LO <= HI and STEP > 0, got {text!r}")
    values = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-12:
            break
        values.append(min(v, hi))
        if len(values) > _GRID_MAX_POINTS:
            # Checked in the loop: a step below the float spacing near LO
            # leaves v fixed, which no count taken beforehand would catch.
            raise LabError(f"grid argument {text!r} has more than {_GRID_MAX_POINTS} points")
        k += 1
    return values


def _cmd_sweep(args) -> int:
    f = _handle_from_expr(args.f)
    iv = OrderedInterval(args.a, args.b)
    s_values = _parse_grid(args.s_grid)

    rows = []
    violations = 0
    for s in s_values:
        report = evaluate_bound(args.theorem, f, iv, s=s, q=args.q)
        if not report.holds:
            violations += 1
        rows.append(report)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["theorem", "a", "b", "s", "q", "lhs", "rhs", "margin", "holds"])
        for r in rows:
            writer.writerow((r.theorem_id, r.a, r.b, r.s, r.q, r.lhs, r.rhs, r.margin, "true" if r.holds else "false"))
    worst = min(r.margin for r in rows)
    print(
        f"sweep {args.theorem}: {len(rows)} points, violations {violations}, "
        f"worst_margin {_fmt(worst)}, written to {args.out}"
    )
    return 0 if violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sconvexlab",
        description="Verification laboratory for integral inequalities with s-convex derivative data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("means", help="evaluate means of an interval")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--p", type=float, default=None)
    p.set_defaults(func=_cmd_means)

    p = sub.add_parser("defect", help="Bullen-type defect of a function")
    p.add_argument("--f", required=True, help="function expression, e.g. '1*x^2'")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(func=_cmd_defect)

    p = sub.add_parser("bound", help="evaluate one inequality on explicit inputs")
    p.add_argument("--theorem", required=True, choices=list(THEOREMS))
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify", help="run verification suites and emit a report")
    p.add_argument("--suite", required=True, choices=["identity", "bounds", "reductions", "props", "all"])
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="evaluate one bound over an s grid")
    p.add_argument("--theorem", required=True, choices=list(THEOREMS))
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--s-grid", dest="s_grid", required=True, help="LO:HI:STEP")
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.  Reuse is safe: parse_args builds a fresh
    Namespace per call and every default is immutable."""
    return build_parser()


def dispatch(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except OverflowError as exc:
        # A float ** overflow carries (34, 'Numerical result out of range').
        reason = exc.args[-1] if exc.args else "result out of range"
        print(f"error: floating-point overflow: {reason}", file=sys.stderr)
        return 2
    except (LabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
