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
--tol a finite T >= 0 (it replaces every suite's own tolerance), --seed a
K >= 0 and --cases an N from 1 to 2^32; anything else is a domain error.
Numeric output is printed with 15 significant digits, enough for a full
double round trip.  An overflow prints "error: floating-point overflow:
<reason>"; a bound side or defect that is not finite is an error too (a
float power can overflow to inf without raising), and a failing call
prints only its error line.

COMMANDS declares the five commands once: each one's function, help line
and options.  dispatch reads a plain command line, a known command
followed by exact "--option value" pairs that its parser would accept as
they stand (a value may start with "-" only as a negative number), from
that table without argparse.  For any other argv it builds the argparse
parser build_parser() generates from the table, and a known command's
arguments are parsed once, by the command's own parser, so an
unrecognized-arguments error prints the command's usage line; the
top-level parser serves only help, an empty argv and an unknown command.
argparse alone prints help and usage errors.  A negative number, exponent
notation included, may follow its option after a space ("--p -1e-300"):
the plain-line reader and every parser read it with one pattern.  sweep
evaluates a theorem that takes no s once and repeats its line at every grid
point; no report is written through csv.  verify (through write_report)
and sweep write an --out file with write_text: an existing file is
overwritten in place and then cut to length, never truncated first.

verify is the one command that runs the suites, so harness (and
means_bounds, which it imports) is imported on verify's first call: the
other commands never compile either module.  verify runs, in table
order, each runner of harness.SUITES that --suite names (or all of them),
and calls every harness name it uses as an attribute of harness.
quadrature is imported by bounds.integrate on the first numerical
integral, which only verify's identity and props suites make: means,
defect, bound, sweep and verify --suite bounds|reductions never compile it.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import stat
import sys

from .errors import DomainError, EvalError, LabError, ParseError
from .funcmodel import FuncHandle, PowerSum, handle_from_power_sum
from .means import OrderedInterval, arithmetic_mean, gen_log_mean, gen_log_mean_pow, geometric_mean
from .bounds import THEOREMS, bullen_type_defect, evaluate_bound

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# What a parser with no option looking like a negative number takes for a
# negative number, not an option: any negative decimal literal, exponent
# included.  build_parser gives it to every parser it makes, in place of
# argparse's own pattern, which has no exponent.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")
# One term as far as it goes, with the whitespace around each token: a
# token is tried only when every token before it matched.
_TERM = re.compile(rf"\s*(?:({_NUMBER})\s*(?:(\*)\s*(?:(x)\s*(?:(\^)\s*(?:({_NUMBER})\s*)?)?)?)?)?")


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def parse_function_dsl(text: str) -> PowerSum:
    """Parse the coefficient-mandatory power-sum grammar into a PowerSum.

    A malformed text raises a ParseError with the offset of the first token
    that does not match and the token expected there."""
    terms, pos = [], 0
    while True:
        m = _TERM.match(text, pos)
        coeff, star, x, caret, exponent = m.groups()
        pos = m.end()
        if coeff is None or caret and exponent is None:
            raise ParseError(pos, "number")
        if star and not caret:
            raise ParseError(pos, "'^'" if x else "'x'")
        terms.append((coeff, exponent or 0.0))
        if pos == len(text):
            return PowerSum(terms)
        if text[pos] != "+":
            raise ParseError(pos, "'+'")
        pos += 1


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


# Three harness runners, read from harness by __getattr__, that are names
# of this module only because bench/spans.py wraps them here; verify calls
# none of them.
_HARNESS_NAMES = ("run_identity_suite", "run_prop_crosscheck_suite", "run_reduction_suite")


def __getattr__(name):
    if name in _HARNESS_NAMES:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cmd_verify(args) -> int:
    from . import harness

    cfg = harness.SuiteConfig(seed=args.seed, cases=args.cases, tol=args.tol)
    reports = [report for name, run in harness.SUITES.items() if args.suite in (name, "all") for report in run(cfg)]
    # Write the file before any output, so a failed write prints only its
    # error line.
    if args.out:
        write_report(reports, args.out, args.format)

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
    else:
        sys.stdout.writelines(_report_chunks(reports, args.format))
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
    # A point past HI by at most the slack is taken as HI.  The slack is at
    # most half a step, so only one point can be.
    slack = min(1e-12, step / 2)
    values = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + slack:
            break
        v = min(v, hi)
        if values and v == values[-1]:
            raise LabError(f"grid argument {text!r} has a STEP below the float spacing near {v!r}")
        values.append(v)
        if len(values) > _GRID_MAX_POINTS:
            # Counted as the points are made, since lo + k * step rounds; a
            # step that leaves v fixed is caught above, at the second point.
            raise LabError(f"grid argument {text!r} has more than {_GRID_MAX_POINTS} points")
        k += 1
    return values


def _open_in_place(path, flags):
    # open's own "w" flags (O_WRONLY | O_CREAT | O_CLOEXEC ...) and its
    # default mode, without the truncation.
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_text(path, chunks) -> None:
    """Write the strings chunks yields to path, UTF-8 with no newline
    translation, leaving the file exactly as long as what was written.

    open(path, "w") truncates an existing file to length 0 first, and on
    ext4 a file truncated to 0 and then rewritten has its writeback started
    when it is closed (the auto_da_alloc heuristic), which makes a small
    rewrite several times slower than writing the same bytes in place.  So
    an existing regular file is overwritten in place and cut to length
    afterwards, also when chunks or a write raises: the file then holds
    the text written before the raise.  Anything else at path (a FIFO, a
    device such as os.devnull) is written to and never cut.  Without the
    truncate to 0, no writeback starts at close either, so a system crash
    soon after can leave the file at its new length holding old bytes.
    """
    with open(path, "w", encoding="utf-8", newline="", opener=_open_in_place) as fh:
        try:
            fh.writelines(chunks)
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _report_chunks(reports, fmt: str):
    """A JSON report as one string, or a CSV report streamed case by case."""
    from . import harness

    if fmt == "json":
        return (harness.render_json(reports),)
    if fmt == "csv":
        return harness._csv_lines(reports)
    raise DomainError(f"unknown report format {fmt!r}")


def write_report(reports, path: str, fmt: str) -> None:
    """Write a JSON or CSV report to path with write_text."""
    write_text(path, _report_chunks(reports, fmt))


def _cmd_sweep(args) -> int:
    f = _handle_from_expr(args.f)
    iv = OrderedInterval(args.a, args.b)
    s_values = _parse_grid(args.s_grid)
    if THEOREMS[args.theorem].takes_s:
        rows = [evaluate_bound(args.theorem, f, iv, s=s, q=args.q) for s in s_values]
    else:
        # The report does not depend on s: one evaluation serves every point.
        rows = [evaluate_bound(args.theorem, f, iv, q=args.q)] * len(s_values)

    def lines():
        yield "theorem,a,b,s,q,lhs,rhs,margin,holds\n"
        above = None
        for r in rows:
            if r is not above:  # a repeated report repeats its line
                above = r
                s = "" if r.s is None else r.s
                q = "" if r.q is None else r.q
                line = (f"{r.theorem_id},{r.a},{r.b},{s},{q},{r.lhs},{r.rhs},{r.margin},"
                        f"{'true' if r.holds else 'false'}\n")
            yield line

    write_text(args.out, lines())
    violations = sum(not r.holds for r in rows)
    print(
        f"sweep {args.theorem}: {len(rows)} points, violations {violations}, "
        f"worst_margin {_fmt(min(r.margin for r in rows))}, written to {args.out}"
    )
    return 0 if violations == 0 else 1


# An option no command line may leave out.
REQUIRED = object()
# Each command's function, help line and options in usage order: each flag's
# type or tuple of choices, its default or REQUIRED, and its help.
_AB = {"--a": (float, REQUIRED, None), "--b": (float, REQUIRED, None)}
_THEOREM_F_AB = {"--theorem": (tuple(THEOREMS), REQUIRED, None), "--f": (str, REQUIRED, None), **_AB}
COMMANDS = {
    "means": (_cmd_means, "evaluate means of an interval", {**_AB, "--p": (float, None, None)}),
    "defect": (_cmd_defect, "Bullen-type defect of a function",
               {"--f": (str, REQUIRED, "function expression, e.g. '1*x^2'"), **_AB}),
    "bound": (_cmd_bound, "evaluate one inequality on explicit inputs",
              {**_THEOREM_F_AB, "--s": (float, None, None), "--q": (float, None, None)}),
    "verify": (_cmd_verify, "run verification suites and emit a report", {
        "--suite": (("identity", "bounds", "reductions", "props", "all"), REQUIRED, None),
        "--cases": (int, 100, None), "--seed": (int, 42, None), "--tol": (float, None, None),
        "--out": (str, None, None), "--format": (("json", "csv"), "json", None)}),
    "sweep": (_cmd_sweep, "evaluate one bound over an s grid", {
        **_THEOREM_F_AB, "--s-grid": (str, REQUIRED, "LO:HI:STEP"), "--q": (float, None, None),
        "--out": (str, REQUIRED, None)}),
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh argparse parser for COMMANDS, with each command's own parser,
    by name, in its commands attribute."""
    parser = argparse.ArgumentParser(
        prog="sconvexlab",
        description="Verification laboratory for integral inequalities with s-convex derivative data.",
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.set_defaults(func=func)
        for flag, (kind, default, help) in options.items():
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument(flag, type=None if choices else kind, choices=choices, required=default is REQUIRED,
                           default=None if default is REQUIRED else default, help=help)
    parser.commands = sub.choices
    return parser


def _quick_parse(name: str, argv) -> argparse.Namespace | None:
    """What command name's parser returns for argv, read from COMMANDS
    without argparse, or None unless name is a command and argv is exact
    "--option value" pairs with each option once, no value starting with
    "-" but a negative number as argparse reads one, every value converted
    by its type and a valid choice, and every required option given.
    argparse parses every other argv, so it alone prints help and usage
    errors."""
    command = COMMANDS.get(name)
    if command is None or len(argv) % 2:
        return None
    func, _, options = command
    values = {}
    for flag, text in zip(argv[::2], argv[1::2]):
        if flag not in options or flag in values:
            return None
        if text.startswith("-") and not _NEGATIVE_NUMBER.match(text):
            return None
        kind = options[flag][0]
        if isinstance(kind, tuple):
            if text not in kind:
                return None
            values[flag] = text
        else:
            try:
                values[flag] = kind(text)
            except (TypeError, ValueError):
                return None
    for flag, (_, default, _) in options.items():
        if flag not in values:
            if default is REQUIRED:
                return None
            values[flag] = default
    return argparse.Namespace(func=func, **{flag[2:].replace("-", "_"): value for flag, value in values.items()})


def dispatch(argv) -> int:
    args = _quick_parse(argv[0], argv[1:]) if argv else None
    if args is None:
        # A known command goes straight to its own parser, so it is parsed
        # once and a usage error prints the command's usage line.
        parser = build_parser()
        command = parser.commands.get(argv[0]) if argv else None
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
