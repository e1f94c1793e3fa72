"""Deterministic property-test suites over seeded random instances.

Four suites:

* identity    - the signed defect equals the weighted derivative integrals
                (an exact identity, checked to 1e-8);
* bounds      - one sub-suite per inequality; each case establishes the
                hypothesis it needs (|f'| or |f'|^q s-convex, concave, or
                f itself convex) with funcmodel.check_hypothesis, a proof
                from the power-sum terms, before asserting.  Cases that no
                rule proves are skipped and counted;
* reductions  - the s -> 1 and q -> 1 collapses onto the convex-case
                bounds, checked as relative discrepancies;
* props       - the mean-expressed proposition defects against quadrature
                oracles, dominance of the substitution-derived bounds, and
                the documented sign discrepancy of the printed
                reciprocal-family bound.

SUITES maps each --suite name, in report order, to its runner: (cfg) ->
its list of reports.  Every suite runs in one case loop, _run, which seeds,
times and reports.  Case i draws everything from one generator,
random.Random((seed << 32) | i), so identical configs produce identical
reports, and no two (seed, case) pairs share a sub-seed.  Each suite is its
setup plus a per-case generator that yields the case's rows to _run.

SuiteConfig and SuiteReport are named tuples; SuiteConfig checks its
fields in __new__, which _make and _replace skip, so nothing calls those
two on a SuiteConfig.

Report rows are CaseRow named tuples; the CSV columns are "suite" and
CaseRow's fields.  verify passes its list of reports to render_json (one
report is an object) or to _csv_lines, which renders the CSV case by case
for an --out file (cli.write_report, which writes every report) or stdout;
no cell is quoted, since no suite id, row id or status holds a comma, a
quote or a line break.

For bound cases margin is rhs - lhs and bounds.verdict classifies it; for
identity, reduction and cross-check cases margin is the negated (relative)
discrepancy and a case holds when margin >= -tol.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import namedtuple
from typing import NamedTuple, Optional

from .errors import DomainError, SuiteError
from .funcmodel import (
    FuncHandle,
    GenConfig,
    PowerSum,
    check_hypothesis,
    handle_from_power_sum,
    sample_dconvex_instance,
    sample_interval,
)
from .bounds import (
    DEFAULT_BOUND_TOL,
    THEOREMS,
    Theorem,
    bound_s1,
    bound_s2,
    bound_s3,
    bound_se2,
    bound_se5,
    bound_se6,
    bullen_defect_signed,
    bullen_type_defect,
    lemma_identity_rhs,
    verdict,
)
from .means_bounds import FAMILY_DF, PROPOSITIONS, prop_power_lhs, prop_recip_lhs, se4_discrepancy

# The s and q values cases draw from, and the instance sampler's settings.
_S_GRID = (0.25, 0.5, 0.75, 1.0)
_Q_GRID = (1.5, 2.0, 3.0)
_GEN = GenConfig()
_PROP_POWER_S = tuple(round(0.1 * k, 1) for k in range(1, 11))
_PROP_RECIP_S = tuple(round(0.1 * k, 1) for k in range(1, 10))
# Each suite's own tolerance, which SuiteConfig.tol replaces when set; the
# bounds and props suites use bounds.DEFAULT_BOUND_TOL.
_IDENTITY_TOL = 1e-8
_REDUCTION_TOL = 1e-12


class SuiteConfig(namedtuple("SuiteConfig", "seed cases tol")):
    __slots__ = ()

    def __new__(cls, seed: int = 42, cases: int = 100, tol: Optional[float] = None):
        if seed < 0:  # random.Random seeds with abs(seed): -1 would replay seed 0's cases
            raise DomainError(f"seed must be >= 0, got {seed}")
        if not 1 <= cases <= 1 << 32:  # _case_rng's sub-seeds are unique for i < 2^32
            raise DomainError(f"suite needs 1 <= cases <= 2^32, got {cases}")
        if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
            raise DomainError(f"tol must be finite and >= 0, got {tol}")
        return tuple.__new__(cls, (seed, cases, tol))

    def tol_or(self, default: float) -> float:
        return default if self.tol is None else self.tol


class CaseRow(NamedTuple):
    """One report row.  Its fields are the CSV columns after "suite", in
    order, so a report's CSV line is (suite_id,) + row."""

    case: int
    theorem: str
    a: Optional[float]
    b: Optional[float]
    s: Optional[float]
    q: Optional[float]
    lhs: Optional[float]
    rhs: Optional[float]
    margin: Optional[float]
    status: str  # ok | warning | violation | skipped


class SuiteReport(NamedTuple):
    suite_id: str
    seed: int
    cases_run: int
    skipped: int
    rows: tuple[CaseRow, ...]
    violations: tuple[CaseRow, ...]
    warnings: int
    worst_margin: float
    notes: tuple[str, ...]
    runtime_ms: float


def _case_rng(cfg: SuiteConfig, i: int) -> random.Random:
    """Case i's one generator; its sub-seed is unique to (seed, i) for i < 2^32."""
    return random.Random((cfg.seed << 32) | i)


def _run(cfg: SuiteConfig, suite_ids, case) -> list[SuiteReport]:
    """One report per suite id, in order.  For each case i in turn,
    case(i, _case_rng(cfg, i)) yields (j, rows): rows for report j, which
    is charged the time since the previous yield.  So runtime_ms counts a
    report's rows and the seeding and draws it was the first to need.
    Raises SuiteError for a suite whose every case was skipped."""
    rows: list[list[CaseRow]] = [[] for _ in suite_ids]
    seconds = [0.0] * len(suite_ids)
    t = time.perf_counter()
    for i in range(cfg.cases):
        for j, case_rows in case(i, _case_rng(cfg, i)):
            rows[j] += case_rows
            now = time.perf_counter()
            seconds[j] += now - t
            t = now
    reports = []
    for suite_id, suite_rows, sec in zip(suite_ids, rows, seconds):
        evaluated = [r for r in suite_rows if r.status != "skipped"]
        if not evaluated:
            raise SuiteError(f"suite {suite_id}: every case was skipped; nothing was verified")
        violations = tuple(r for r in evaluated if r.status == "violation")
        warnings = sum(1 for r in evaluated if r.status == "warning")
        worst = min(r.margin for r in evaluated)
        reports.append(SuiteReport(suite_id, cfg.seed, cfg.cases, len(suite_rows) - len(evaluated),
                                   tuple(suite_rows), violations, warnings, worst, (), sec * 1000.0))
    return reports


def _bound_row(case: int, theorem: str, a: float, b: float, s, q, lhs: float, rhs: float, tol: float) -> CaseRow:
    return CaseRow(case, theorem, a, b, s, q, lhs, rhs, rhs - lhs, verdict(lhs, rhs, tol))


def _match_row(case: int, theorem: str, iv, s, lhs: float, rhs: float, tol: float) -> CaseRow:
    """Row for an equality check, with no q: margin is the negated relative
    discrepancy."""
    margin = -abs(lhs - rhs) / (1.0 + abs(lhs))
    status = "ok" if margin >= -tol else "violation"
    return CaseRow(case, theorem, iv.a, iv.b, s, None, lhs, rhs, margin, status)


def run_identity_suite(cfg: SuiteConfig) -> list[SuiteReport]:
    """Signed defect versus the weighted derivative integrals, case by case."""
    tol = cfg.tol_or(_IDENTITY_TOL)

    def case(i, rng):
        f, iv = sample_dconvex_instance(rng, _GEN)
        lhs = bullen_defect_signed(f, iv)
        rhs = lemma_identity_rhs(f, iv)
        yield 0, (_match_row(i, "identity", iv, None, lhs, rhs, tol),)

    return _run(cfg, ("identity",), case)


# Case i's instance (f, a, b, s), as each family's draw (i, rng, s, q) gives it.
_Instance = tuple[FuncHandle, float, float, float]


def _base_instance(i: int, rng: random.Random, s: float, q: float) -> _Instance:
    """funcmodel's base family: f' >= 0 and convex, so |f'|^q is s-convex."""
    f, iv = sample_dconvex_instance(rng, _GEN)
    return f, iv.a, iv.b, s


def _convex_f_instance(i: int, rng: random.Random, s: float, q: float) -> _Instance:
    """f with nondecreasing f' (exponents 0 or in [1,3]), so f is convex."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        exponent = 0.0 if rng.random() < 0.3 else rng.uniform(1.0, 3.0)
        terms.append((rng.uniform(0.05, 2.0), exponent))
    iv = sample_interval(rng, _GEN)
    return handle_from_power_sum(PowerSum(terms).antiderivative()), iv.a, iv.b, s


def _concave_power_instance(i: int, rng: random.Random, s: float, q: float) -> _Instance:
    """f' = c x^m with 0 < m q <= 1, so |f'|^q is concave."""
    m = rng.uniform(0.05, 1.0) / q
    c = rng.uniform(0.1, 2.0)
    iv = sample_interval(rng, _GEN)
    return handle_from_power_sum(PowerSum([(c, m)]).antiderivative()), iv.a, iv.b, s


def _s_power_instance(i: int, rng: random.Random, s: float, q: float) -> _Instance:
    """f = c x^sigma with sigma >= s (hence s-convex), on [u, v] with u >= 0.
    Case 0 is the sharp instance x^0.5 on [0, 1] at s = 0.5, where the
    endpoint-average constant is attained."""
    if i == 0:
        return handle_from_power_sum(PowerSum([(1.0, 0.5)])), 0.0, 1.0, 0.5
    sigma = rng.uniform(max(s, 0.3), 1.0)
    c = rng.uniform(0.2, 2.0)
    f = handle_from_power_sum(PowerSum([(c, sigma)]))
    if rng.random() < 0.25:
        return f, 0.0, rng.uniform(_GEN.lo_min, _GEN.hi_max), s
    iv = sample_interval(rng, _GEN)
    return f, iv.a, iv.b, s


def _sconvex_term_instance(i: int, rng: random.Random, s: float, q: float) -> _Instance:
    """On one draw in five f' = c x^s, else a base instance; drawn only when
    s * k >= 1 (k = q for "|f'|^q", else 1): c^k x^(s k) is then convex as
    well as s-convex (ROADMAP item 5)."""
    if rng.random() >= 0.2:
        return _base_instance(i, rng, s, q)
    c = rng.uniform(0.1, 2.0)
    iv = sample_interval(rng, _GEN)
    return handle_from_power_sum(PowerSum([(c, s)]).antiderivative()), iv.a, iv.b, s


def _family(th: Theorem, s: float, q: float):
    """The draw of the instance family whose instances meet th's hypothesis
    at the case's s and q.  Theorems with one family share its instance
    within a case."""
    if th.hypothesis == "f" and th.takes_s:
        return _s_power_instance
    if th.concave:
        return _concave_power_instance
    if th.hypothesis == "f":
        return _convex_f_instance
    if th.takes_s and s * (q if th.uses_q else 1.0) >= 1.0:
        return _sconvex_term_instance
    return _base_instance


def run_bound_suites(cfg: SuiteConfig, theorems=tuple(THEOREMS)) -> list[SuiteReport]:
    """One report per theorem id, in the order given (by default, THEOREMS
    order): its inequality asserted over generated instances, and a case
    skipped when funcmodel.check_hypothesis finds no rule that proves its
    hypothesis.

    A case draws s and q.  Each family (_family) its theorems need is drawn
    once, when a theorem first needs it, from the generator state that
    followed s and q, so a theorem's rows are the same whichever theorems
    share its run.  Each theorem yields its row as soon as it has it.
    """
    ths = []
    for theorem in theorems:
        th = THEOREMS.get(theorem.lower())
        if th is None:
            raise DomainError(f"unknown bound suite {theorem!r}")
        ths.append(th)
    tol = cfg.tol_or(DEFAULT_BOUND_TOL)
    # Each theorem's family at each (s, q) a case can draw.
    plans = {(s, q): [_family(th, s, q) for th in ths] for s in _S_GRID for q in _Q_GRID}

    def case(i, rng):
        s = rng.choice(_S_GRID)
        q = rng.choice(_Q_GRID)
        draws = plans[s, q]
        after_sq = rng.getstate() if len(ths) > 1 else None
        drawn = {}
        for j, (th, draw) in enumerate(zip(ths, draws)):
            instance = drawn.get(draw)
            if instance is None:
                if drawn:
                    rng.setstate(after_sq)
                instance = drawn[draw] = draw(i, rng, s, q)
            f, a, b, s_case = instance
            s_row = s_case if th.takes_s else None
            q_row = q if th.uses_q else None
            s_cert = s_case if th.takes_s else 1.0
            if check_hypothesis(f, th.hypothesis, s_cert, q, th.concave) is None:
                yield j, (CaseRow(i, th.id, a, b, s_row, q_row, None, None, None, "skipped"),)
            else:
                lhs, rhs = th.sides(f, a, b, s_case, q)
                yield j, (_bound_row(i, th.id, a, b, s_row, q_row, lhs, rhs, tol),)

    return _run(cfg, [f"bounds:{th.id}" for th in ths], case)


def run_reduction_suite(cfg: SuiteConfig) -> list[SuiteReport]:
    """The four algebraic collapses, as relative discrepancies on random data."""
    tol = cfg.tol_or(_REDUCTION_TOL)

    def case(i, rng):
        iv = sample_interval(rng, _GEN)
        df_a = rng.uniform(0.0, 3.0)
        df_b = rng.uniform(0.0, 3.0)
        q = rng.choice(_Q_GRID)
        s = rng.choice(_S_GRID)

        pairs = [
            ("se2_s1_vs_s1", 1.0, None, bound_se2(df_a, df_b, iv, 1.0), bound_s1(df_a, df_b, iv)),
            ("se5_s1_vs_s2", 1.0, q, bound_se5(df_a, df_b, iv, 1.0, q), bound_s2(df_a, df_b, iv, q)),
            ("se6_s1_vs_s3", 1.0, q, bound_se6(df_a, df_b, iv, 1.0, q), bound_s3(df_a, df_b, iv, q)),
            ("se6_q1_vs_se2", s, 1.0, bound_se6(df_a, df_b, iv, s, 1.0), bound_se2(df_a, df_b, iv, s)),
        ]
        rows = []
        for name, s_row, q_row, lhs, rhs in pairs:
            scale = max(abs(lhs), abs(rhs))
            rel = abs(lhs - rhs) / scale if scale > 0.0 else 0.0
            status = "ok" if rel <= tol else "violation"
            rows.append(CaseRow(i, name, iv.a, iv.b, s_row, q_row, lhs, rhs, -rel, status))
        yield 0, rows

    return _run(cfg, ("reductions",), case)


def _quadrature_oracle(c: float, p: float) -> FuncHandle:
    """f = c * x^p and f' with no exact integral, so the defect's mean is
    integrated.  f is the one term itself, not PowerSum([(c, p)]): that
    adds the term to 0.0, which changes no bit here, since c > 0 and
    x > 0 make the product at least +0.0."""
    return FuncHandle(value=lambda x: c * x ** p, derivative=PowerSum([(c, p)]).derivative())


def run_prop_crosscheck_suite(cfg: SuiteConfig) -> list[SuiteReport]:
    """Mean-expressed defects against quadrature, and proposition dominance."""
    tol = cfg.tol_or(DEFAULT_BOUND_TOL)
    # Per family: its cross-check row id, mean-form defect, endpoint |f'|,
    # propositions as (id, whether the row carries q, bound), and for each s
    # of its grid the quadrature oracle of the underlying function's one
    # term (c, p): x^s or x^(1-s)/(1-s).  An oracle depends on s alone, so
    # each is built once per suite; the endpoint |f'| depends on the case
    # too, so it is computed once per case and s and shared by the family's
    # propositions.
    families = [
        (xcheck, prop_lhs, FAMILY_DF[family],
         [(pid, carries_q, bound) for pid, (pfamily, carries_q, bound) in PROPOSITIONS.items()
          if pfamily == family],
         [(s, _quadrature_oracle(*term(s))) for s in s_grid])
        for family, xcheck, s_grid, prop_lhs, term in (
            ("power", "prop_power_xcheck", _PROP_POWER_S, prop_power_lhs, lambda s: (1.0, s)),
            ("recip", "prop_recip_xcheck", _PROP_RECIP_S, prop_recip_lhs,
             lambda s: (1.0 / (1.0 - s), 1.0 - s)),
        )
    ]
    negation_hits = printed_negative = 0

    def case(i, rng):
        nonlocal negation_hits, printed_negative
        iv = sample_interval(rng, _GEN)
        q = rng.choice(_Q_GRID)
        rows = []
        for xcheck, prop_lhs, family_df, props, oracles in families:
            for s, oracle in oracles:
                defect = bullen_type_defect(oracle, iv)
                lhs = prop_lhs(iv, s)
                rows.append(_match_row(i, xcheck, iv, s, lhs, defect, tol))
                df_a, df_b = family_df(iv, s)
                for pid, carries_q, bound in props:
                    q_row = q if carries_q else None
                    rhs = bound(df_a, df_b, iv, s, q_row)
                    rows.append(_bound_row(i, pid, iv.a, iv.b, s, q_row, lhs, rhs, tol))

        disc = se4_discrepancy(iv, rng.choice(_PROP_RECIP_S))
        if disc.is_exact_negation:
            negation_hits += 1
        if disc.printed_rhs < disc.substitution_rhs:
            printed_negative += 1
        yield 0, rows

    [report] = _run(cfg, ("props",), case)
    return [report._replace(notes=(
        "se4 as-printed bound: second term is the exact negative of the substitution "
        f"form on {negation_hits}/{cfg.cases} sampled cases "
        f"({printed_negative}/{cfg.cases} printed values fall below the substitution bound); "
        "the printed form is reported for documentation and never asserted.",
    ))]


# Each --suite name's runner, in the order verify --suite all runs them.
SUITES = {"identity": run_identity_suite, "bounds": run_bound_suites,
          "reductions": run_reduction_suite, "props": run_prop_crosscheck_suite}


# ---------------------------------------------------------------------------
# Report serialization


def report_to_dict(report: SuiteReport) -> dict:
    return {
        "suite": report.suite_id,
        "seed": report.seed,
        "cases_run": report.cases_run,
        "skipped": report.skipped,
        "violations": [{k: v for k, v in r._asdict().items() if k != "status"} for r in report.violations],
        "worst_margin": report.worst_margin,
        "warnings": report.warnings,
        "notes": list(report.notes),
        "runtime_ms": report.runtime_ms,
    }


def render_json(reports) -> str:
    """A list of reports as JSON: one report an object, any other number an array."""
    dicts = [report_to_dict(r) for r in reports]
    return json.dumps(dicts[0] if len(dicts) == 1 else dicts, indent=2, sort_keys=True) + "\n"


CSV_HEADER = ("suite",) + CaseRow._fields


def _text(x) -> str:
    return "" if x is None else str(x)


def _csv_lines(reports):
    """The CSV report: the header, then each case's lines as one string.

    Writes what csv.writer writes for these rows: None as an empty field,
    every other cell as str (for a float, its repr), and no quoting.  A
    cell holding the same object as the cell above it reuses that cell's
    text; one object has one str, so no equality of values is relied on.
    A case ends where the case cell's object changes.
    """
    yield ",".join(CSV_HEADER) + "\n"
    for report in reports:
        suite = report.suite_id + ","
        lines = []
        above = (object(),) * 10  # is no cell, so the first row formats every cell
        for row in report.rows:
            case, theorem, a, b, s, q, lhs, rhs, margin, status = row
            c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = above
            if case is not c0 and lines:
                yield "".join(lines)
                lines = []
            t0 = t0 if case is c0 else _text(case)
            t1 = t1 if theorem is c1 else _text(theorem)
            t2 = t2 if a is c2 else _text(a)
            t3 = t3 if b is c3 else _text(b)
            t4 = t4 if s is c4 else _text(s)
            t5 = t5 if q is c5 else _text(q)
            t6 = t6 if lhs is c6 else _text(lhs)
            t7 = t7 if rhs is c7 else _text(rhs)
            t8 = t8 if margin is c8 else _text(margin)
            t9 = t9 if status is c9 else _text(status)
            lines.append(f"{suite}{t0},{t1},{t2},{t3},{t4},{t5},{t6},{t7},{t8},{t9}\n")
            above = row
        if lines:
            yield "".join(lines)
