"""Deterministic property-test suites over certified random instances.

Four suites:

* identity    - the signed defect equals the weighted derivative integrals
                (an exact identity, checked to 1e-8);
* bounds      - one sub-suite per inequality; each case establishes the
                hypothesis it needs (|f'| or |f'|^q s-convex, concave, or
                f itself convex) with funcmodel.check_hypothesis before
                asserting: a proof from the power-sum terms, or the grid
                certifier when no rule applies.  Cases that fail the grid
                are skipped and counted;
* reductions  - the s -> 1 and q -> 1 collapses onto the convex-case
                bounds, checked as relative discrepancies;
* props       - the mean-expressed proposition defects against quadrature
                oracles, dominance of the substitution-derived bounds, and
                the documented sign discrepancy of the printed
                reciprocal-family bound.

Case i draws everything from sub-seed (seed XOR i), so parallel and serial
runs would agree and identical configs produce identical reports.

Report rows are CaseRow named tuples whose fields are the CSV columns
after "suite", in column order.  One line generator renders the CSV
report, both for render_csv and for write_report, which streams it to the
file: floats as repr, formatted once per distinct value within a case,
None as an empty field, and no quoting, since no suite id, row id or
status holds a comma, a quote or a line break.

For bound cases margin is rhs - lhs and bounds.verdict classifies it; for
identity, reduction and cross-check cases margin is the negated (relative)
discrepancy and a case holds when margin >= -tol.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
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
from .means import OrderedInterval
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


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 42
    cases: int = 100
    tol: Optional[float] = None

    def __post_init__(self):
        if self.seed < 0:  # random.Random seeds with abs(seed): -1 would replay seed 0's cases
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.cases < 1:
            raise DomainError("suite needs cases >= 1")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise DomainError(f"tol must be finite and >= 0, got {self.tol}")

    def tol_or(self, default: float) -> float:
        return default if self.tol is None else self.tol


class CaseRow(NamedTuple):
    """One report row.  Its fields are the CSV columns after "suite", in
    order, so render_csv writes (suite_id,) + row."""

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


@dataclass(frozen=True)
class SuiteReport:
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


def _finish(suite_id: str, cfg: SuiteConfig, rows: list[CaseRow], notes: list[str], t0: float) -> SuiteReport:
    evaluated = [r for r in rows if r.status != "skipped"]
    skipped = len(rows) - len(evaluated)
    if not evaluated:
        raise SuiteError(f"suite {suite_id}: every case was skipped; nothing was verified")
    violations = tuple(r for r in evaluated if r.status == "violation")
    warnings = sum(1 for r in evaluated if r.status == "warning")
    worst = min(r.margin for r in evaluated)
    return SuiteReport(
        suite_id=suite_id,
        seed=cfg.seed,
        cases_run=cfg.cases,
        skipped=skipped,
        rows=tuple(rows),
        violations=violations,
        warnings=warnings,
        worst_margin=worst,
        notes=tuple(notes),
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
    )


def _bound_row(case: int, theorem: str, a: float, b: float, s, q, lhs: float, rhs: float, tol: float) -> CaseRow:
    return CaseRow(case, theorem, a, b, s, q, lhs, rhs, rhs - lhs, verdict(lhs, rhs, tol))


def _match_row(case: int, theorem: str, iv, s, q, lhs: float, rhs: float, tol: float) -> CaseRow:
    """Row for an equality check: margin is the negated relative discrepancy."""
    margin = -abs(lhs - rhs) / (1.0 + abs(lhs))
    status = "ok" if margin >= -tol else "violation"
    return CaseRow(case, theorem, iv.a, iv.b, s, q, lhs, rhs, margin, status)


def run_identity_suite(cfg: SuiteConfig) -> SuiteReport:
    """Signed defect versus the weighted derivative integrals, case by case."""
    t0 = time.perf_counter()
    tol = cfg.tol_or(_IDENTITY_TOL)
    rows: list[CaseRow] = []
    for i in range(cfg.cases):
        f, iv = sample_dconvex_instance(random.Random(cfg.seed ^ i), _GEN)
        lhs = bullen_defect_signed(f, iv)
        rhs = lemma_identity_rhs(f, iv)
        rows.append(_match_row(i, "identity", iv, None, None, lhs, rhs, tol))
    return _finish("identity", cfg, rows, [], t0)


def _convex_f_instance(seed: int) -> tuple[FuncHandle, OrderedInterval]:
    """f with nondecreasing f' (exponents 0 or in [1,3]), so f is convex."""
    rng = random.Random(seed)
    terms = []
    for _ in range(rng.randint(1, 3)):
        exponent = 0.0 if rng.random() < 0.3 else rng.uniform(1.0, 3.0)
        terms.append((rng.uniform(0.05, 2.0), exponent))
    dps = PowerSum(terms)
    return handle_from_power_sum(dps.antiderivative()), sample_interval(rng, _GEN)


def _concave_power_instance(seed: int, q: float) -> tuple[FuncHandle, OrderedInterval]:
    """f' = c x^m with 0 < m q <= 1, so |f'|^q is concave."""
    rng = random.Random(seed)
    m = rng.uniform(0.05, 1.0) / q
    c = rng.uniform(0.1, 2.0)
    f = PowerSum([(c, m)]).antiderivative()
    return handle_from_power_sum(f), sample_interval(rng, _GEN)


def _s_power_instance(seed: int, s: float) -> tuple[FuncHandle, float, float]:
    """f = c x^sigma with sigma >= s (hence s-convex), on [u, v] with u >= 0."""
    rng = random.Random(seed)
    sigma = rng.uniform(max(s, 0.3), 1.0)
    c = rng.uniform(0.2, 2.0)
    f = handle_from_power_sum(PowerSum([(c, sigma)]))
    if rng.random() < 0.25:
        u, v = 0.0, rng.uniform(_GEN.lo_min, _GEN.hi_max)
    else:
        iv = sample_interval(rng, _GEN)
        u, v = iv.a, iv.b
    return f, u, v


def _sconvex_term_instance(seed: int, s: float) -> tuple[FuncHandle, OrderedInterval]:
    """f' = c x^s: s-convex but not convex for s < 1."""
    rng = random.Random(seed)
    c = rng.uniform(0.1, 2.0)
    f = PowerSum([(c, s)]).antiderivative()
    return handle_from_power_sum(f), sample_interval(rng, _GEN)


def _draw_instance(th: Theorem, i: int, rng: random.Random, inst_seed: int, s: float,
                   q: float) -> tuple[FuncHandle, float, float, float]:
    """Case i's instance, as (f, a, b, s), from the family that meets the
    theorem's hypothesis."""
    if th.hypothesis == "f" and th.takes_s:
        if i == 0:
            # Sharp instance: the endpoint-average constant is attained.
            return handle_from_power_sum(PowerSum([(1.0, 0.5)])), 0.0, 1.0, 0.5
        f, u, v = _s_power_instance(inst_seed, s)
        return f, u, v, s
    if th.concave:
        f, iv = _concave_power_instance(inst_seed, q)
    elif th.hypothesis == "f":
        f, iv = _convex_f_instance(inst_seed)
    elif th.takes_s and s * (q if th.uses_q else 1.0) >= 1.0 and rng.random() < 0.2:
        f, iv = _sconvex_term_instance(inst_seed, s)
    else:
        f, iv = sample_dconvex_instance(random.Random(inst_seed), _GEN)
    return f, iv.a, iv.b, s


def run_bound_suite(cfg: SuiteConfig, theorem: str) -> SuiteReport:
    """Assert one inequality over certified instances; skip failed hypotheses.

    Each case passes the theorem's hypothesis to funcmodel.check_hypothesis
    on its own window, and is skipped when that returns None: no rule
    proves the hypothesis and the grid does not certify it.
    """
    th = THEOREMS.get(theorem.lower())
    if th is None:
        raise DomainError(f"unknown bound suite {theorem!r}")
    t0 = time.perf_counter()
    tol = cfg.tol_or(DEFAULT_BOUND_TOL)
    rows: list[CaseRow] = []

    for i in range(cfg.cases):
        rng = random.Random(cfg.seed ^ i)
        s = rng.choice(_S_GRID)
        q = rng.choice(_Q_GRID)
        inst_seed = rng.getrandbits(32)
        f, a, b, s = _draw_instance(th, i, rng, inst_seed, s, q)
        s_row = s if th.takes_s else None
        q_row = q if th.uses_q else None
        s_cert = s if th.takes_s else 1.0
        if check_hypothesis(f, th.hypothesis, s_cert, q, th.concave, a, b) is None:
            rows.append(CaseRow(i, th.id, a, b, s_row, q_row, None, None, None, "skipped"))
            continue
        lhs, rhs = th.sides(f, a, b, s, q)
        rows.append(_bound_row(i, th.id, a, b, s_row, q_row, lhs, rhs, tol))

    return _finish(f"bounds:{th.id}", cfg, rows, [], t0)


def run_reduction_suite(cfg: SuiteConfig) -> SuiteReport:
    """The four algebraic collapses, as relative discrepancies on random data."""
    t0 = time.perf_counter()
    tol = cfg.tol_or(_REDUCTION_TOL)
    rows: list[CaseRow] = []
    for i in range(cfg.cases):
        rng = random.Random(cfg.seed ^ i)
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
        for name, s_row, q_row, lhs, rhs in pairs:
            scale = max(abs(lhs), abs(rhs))
            rel = abs(lhs - rhs) / scale if scale > 0.0 else 0.0
            status = "ok" if rel <= tol else "violation"
            rows.append(CaseRow(i, name, iv.a, iv.b, s_row, q_row, lhs, rhs, -rel, status))
    return _finish("reductions", cfg, rows, [], t0)


def _quadrature_oracle(ps: PowerSum) -> FuncHandle:
    """f and f' with no exact integral, so the defect's mean is integrated."""
    return FuncHandle(value=ps, derivative=ps.derivative())


def run_prop_crosscheck_suite(cfg: SuiteConfig) -> SuiteReport:
    """Mean-expressed defects against quadrature, and proposition dominance."""
    t0 = time.perf_counter()
    tol = cfg.tol_or(DEFAULT_BOUND_TOL)
    # Per family: its cross-check row id, mean-form defect, endpoint |f'|,
    # propositions as (id, whether the row carries q, bound), and for each s
    # of its grid the quadrature oracle of the underlying function (x^s or
    # x^(1-s)/(1-s)).  An oracle depends on s alone, so each is built once
    # per suite; the endpoint |f'| depends on the case too, so it is
    # computed once per case and s and shared by the family's propositions.
    families = [
        (xcheck, prop_lhs, FAMILY_DF[family],
         [(pid, carries_q, bound) for pid, (pfamily, carries_q, bound) in PROPOSITIONS.items()
          if pfamily == family],
         [(s, _quadrature_oracle(underlying(s))) for s in s_grid])
        for family, xcheck, s_grid, prop_lhs, underlying in (
            ("power", "prop_power_xcheck", _PROP_POWER_S, prop_power_lhs, lambda s: PowerSum([(1.0, s)])),
            ("recip", "prop_recip_xcheck", _PROP_RECIP_S, prop_recip_lhs,
             lambda s: PowerSum([(1.0 / (1.0 - s), 1.0 - s)])),
        )
    ]
    rows: list[CaseRow] = []
    negation_hits = 0
    printed_negative = 0
    for i in range(cfg.cases):
        rng = random.Random(cfg.seed ^ i)
        iv = sample_interval(rng, _GEN)
        q = rng.choice(_Q_GRID)

        for xcheck, prop_lhs, family_df, props, oracles in families:
            for s, oracle in oracles:
                defect = bullen_type_defect(oracle, iv)
                lhs = prop_lhs(iv, s)
                rows.append(_match_row(i, xcheck, iv, s, None, lhs, defect, tol))
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

    notes = [
        "se4 as-printed bound: second term is the exact negative of the substitution "
        f"form on {negation_hits}/{cfg.cases} sampled cases "
        f"({printed_negative}/{cfg.cases} printed values fall below the substitution bound); "
        "the printed form is reported for documentation and never asserted."
    ]
    return _finish("props", cfg, rows, notes, t0)


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
    if isinstance(reports, SuiteReport):
        payload = report_to_dict(reports)
    else:
        payload = [report_to_dict(r) for r in reports]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


CSV_HEADER = ("suite", "case", "theorem", "a", "b", "s", "q", "lhs", "rhs", "margin", "status")


def _csv_lines(reports):
    """The CSV report line by line: the header, then (suite_id,) + row.

    Writes what csv.writer writes for these rows: floats as repr, None as
    an empty field, anything else as str, and no quoting, since no suite
    id, row id or status holds a comma, a quote or a line break.  A case's
    rows repeat its a, b, s, q and lhs, so each distinct float is formatted
    once per case.  Zeros skip the memo (-0.0 == 0.0 but their reprs
    differ), and so does every other type (1 == 1.0).
    """
    if isinstance(reports, SuiteReport):
        reports = (reports,)
    yield ",".join(CSV_HEADER) + "\n"
    reprs: dict[float, str] = {}
    case = None
    for report in reports:
        head = report.suite_id + ","
        for row in report.rows:
            if row.case != case:
                case = row.case
                reprs.clear()
            cells = []
            for x in row:
                if type(x) is float and x:
                    text = reprs.get(x)
                    if text is None:
                        text = reprs[x] = repr(x)
                elif x is None:
                    text = ""
                elif isinstance(x, float):
                    text = repr(x)
                else:
                    text = str(x)
                cells.append(text)
            yield head + ",".join(cells) + "\n"


def render_csv(reports) -> str:
    return "".join(_csv_lines(reports))


def write_report(reports, path: str, fmt: str = "json"):
    """Write a JSON or CSV report to path; a CSV report is streamed."""
    if fmt == "json":
        chunks = (render_json(reports),)
    elif fmt == "csv":
        chunks = _csv_lines(reports)
    else:
        raise DomainError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)
