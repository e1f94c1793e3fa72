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
se5 and s2 need a finite q > 1, se6, s3, pp, ppc and adk a finite q >= 1,
--tol a finite T >= 0 (it replaces every suite's own tolerance) and --seed
a K >= 0; anything else is a domain error.
Numeric output is printed with 15 significant digits, enough for a full
double round trip.  An overflow prints "error: floating-point overflow:
<reason>"; a bound side or defect that is not finite is an error too (a
float power can overflow to inf without raising), and a failing call
prints only its error line.

dispatch builds the argparse parser once per process and reuses it;
build_parser() still returns a fresh one.  A plain command line, a known
command followed by exact "--option value" pairs that its parser would
accept as they stand, is read without argparse, from the options that
parser declared.  Any other argv of a known command is parsed once, by
the command's own parser, so an unrecognized-arguments error prints the
command's usage line; the top-level parser serves only help, an empty
argv and an unknown command.  argparse alone prints help and usage
errors.  sweep evaluates a theorem that takes no s once and repeats its
line at every grid point; no report is written through csv.

verify is the one command that runs the suites, so harness (and
means_bounds, which it imports) is imported on verify's first call: the
other commands never compile either module.  That call binds the harness
names verify uses into this module, keeping any already replaced here,
and reading one of them from outside (cli.write_report, cli.run_bound_suite)
binds them too, so the object read or replaced is the one verify calls.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from .errors import EvalError, LabError, ParseError
from .funcmodel import FuncHandle, PowerSum, handle_from_power_sum
from .means import OrderedInterval, arithmetic_mean, gen_log_mean, gen_log_mean_pow, geometric_mean
from .bounds import THEOREMS, bullen_type_defect, evaluate_bound

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# The grammar's tokens, keyed by the name a ParseError gives as expected.
_TOKEN = {
    "number": re.compile(_NUMBER),
    **{f"'{c}'": re.compile(re.escape(c)) for c in "*x^+"},
}
_WS = re.compile(r"\s*")
# One term with the whitespace around it and the "+" after it (or the end of
# the text), captured whole, with its coefficient and exponent.
_TERM = re.compile(rf"(\s*({_NUMBER})\s*(?:\*\s*x\s*\^\s*({_NUMBER})\s*)?(?:\+(?!\s*\Z)|\Z))")


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def parse_function_dsl(text: str) -> PowerSum:
    """Parse the coefficient-mandatory power-sum grammar into a PowerSum."""
    terms = _TERM.findall(text)
    # The matches never overlap, so lengths that add up to the text's tile
    # it, and then the text is in the grammar.  No number can run on into
    # the token after it, so these are the token loop's terms.
    if terms and sum(len(term) for term, _, _ in terms) == len(text):
        return PowerSum((c, p or 0.0) for _, c, p in terms)
    return _parse_tokens(text)


def _parse_tokens(text: str) -> PowerSum:
    """parse_function_dsl token by token: slower, but a malformed text
    raises a ParseError with the offset and the token expected there."""
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


# The harness names verify looks up in this module, bound on first use.
_HARNESS_NAMES = (
    "SuiteConfig",
    "_csv_lines",
    "render_json",
    "run_bound_suite",
    "run_identity_suite",
    "run_prop_crosscheck_suite",
    "run_reduction_suite",
    "write_report",
)


def _bind_harness():
    """Import harness and bind its names here, keeping any already bound."""
    from . import harness

    namespace = globals()
    for name in _HARNESS_NAMES:
        namespace.setdefault(name, getattr(harness, name))


def __getattr__(name):
    if name in _HARNESS_NAMES:
        _bind_harness()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _run_suites(name: str, cfg: SuiteConfig) -> list[SuiteReport]:
    _bind_harness()  # also called on its own, not only by verify
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
    _bind_harness()
    cfg = SuiteConfig(seed=args.seed, cases=args.cases, tol=args.tol)
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
        sys.stdout.writelines(_csv_lines(payload))
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
    if THEOREMS[args.theorem].takes_s:
        rows = [evaluate_bound(args.theorem, f, iv, s=s, q=args.q) for s in s_values]
    else:
        # The report does not depend on s: one evaluation serves every point.
        rows = [evaluate_bound(args.theorem, f, iv, q=args.q)] * len(s_values)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("theorem,a,b,s,q,lhs,rhs,margin,holds\n")
        above = None
        for r in rows:
            if r is not above:  # a repeated report repeats its line
                above = r
                s = "" if r.s is None else r.s
                q = "" if r.q is None else r.q
                line = (f"{r.theorem_id},{r.a},{r.b},{s},{q},{r.lhs},{r.rhs},{r.margin},"
                        f"{'true' if r.holds else 'false'}\n")
            fh.write(line)
    violations = sum(not r.holds for r in rows)
    print(
        f"sweep {args.theorem}: {len(rows)} points, violations {violations}, "
        f"worst_margin {_fmt(min(r.margin for r in rows))}, written to {args.out}"
    )
    return 0 if violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sconvexlab",
        description="Verification laboratory for integral inequalities with s-convex derivative data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command's own parser, by name, for dispatch to parse with.
    parser.commands = sub.choices

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        # What _quick_parse reads: func, and each option string's Action.
        p.func, p.options = func, {}
        return p

    def option(p, flag, **kwargs):
        # One flag storing one value, the only kind _quick_parse reads.
        p.options[flag] = p.add_argument(flag, **kwargs)

    p = command("means", _cmd_means, "evaluate means of an interval")
    option(p, "--a", type=float, required=True)
    option(p, "--b", type=float, required=True)
    option(p, "--p", type=float, default=None)

    p = command("defect", _cmd_defect, "Bullen-type defect of a function")
    option(p, "--f", required=True, help="function expression, e.g. '1*x^2'")
    option(p, "--a", type=float, required=True)
    option(p, "--b", type=float, required=True)

    p = command("bound", _cmd_bound, "evaluate one inequality on explicit inputs")
    option(p, "--theorem", required=True, choices=list(THEOREMS))
    option(p, "--f", required=True)
    option(p, "--a", type=float, required=True)
    option(p, "--b", type=float, required=True)
    option(p, "--s", type=float, default=None)
    option(p, "--q", type=float, default=None)

    p = command("verify", _cmd_verify, "run verification suites and emit a report")
    option(p, "--suite", required=True, choices=["identity", "bounds", "reductions", "props", "all"])
    option(p, "--cases", type=int, default=100)
    option(p, "--seed", type=int, default=42)
    option(p, "--tol", type=float, default=None)
    option(p, "--out", default=None)
    option(p, "--format", choices=["json", "csv"], default="json")

    p = command("sweep", _cmd_sweep, "evaluate one bound over an s grid")
    option(p, "--theorem", required=True, choices=list(THEOREMS))
    option(p, "--f", required=True)
    option(p, "--a", type=float, required=True)
    option(p, "--b", type=float, required=True)
    option(p, "--s-grid", dest="s_grid", required=True, help="LO:HI:STEP")
    option(p, "--q", type=float, default=None)
    option(p, "--out", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.  Reuse is safe: parse_args builds a fresh
    Namespace per call and every default is immutable."""
    return build_parser()


def _quick_parse(command: argparse.ArgumentParser, argv) -> argparse.Namespace | None:
    """What command.parse_args(argv) returns, read without argparse, or None
    unless argv is exact "--option value" pairs with each option once, no
    value starting with "-", every value converted by its type and a valid
    choice, and every required option given.  argparse parses every other
    argv, so it alone prints help and usage errors."""
    if len(argv) % 2:
        return None
    values = {}
    for flag, text in zip(argv[::2], argv[1::2]):
        action = command.options.get(flag)
        if action is None or action.dest in values or text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    for action in command.options.values():
        if action.dest not in values:
            if action.required:
                return None
            values[action.dest] = action.default
    return argparse.Namespace(func=command.func, **values)


def dispatch(argv) -> int:
    parser = _parser()
    # A known command goes straight to its own parser, so it is parsed at
    # most once, and a plain command line is not handed to argparse at all.
    command = parser.commands.get(argv[0]) if argv else None
    args = None if command is None else _quick_parse(command, argv[1:])
    if args is None:
        try:
            args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
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
