"""Benchmark for sconvexlab: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload bounds-certified --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each was chosen):

  bounds-certified  in-process ``verify --suite bounds`` over all 13 bound
                    suites; hypothesis certification does most of the work.
  props-quadrature  ``verify`` of the identity, props and reductions suites;
                    no certification, adaptive quadrature and CSV output.
  interactive-cli   a closed loop with one client making ``defect``,
                    ``bound``, ``sweep`` and ``means`` calls one at a time.

All three drive the program through ``sconvexlab.cli.dispatch`` in this
process, one call at a time.  Work is done in rounds: round k of a run is a
fixed set of calls whose inputs come from (seed, k) alone, so the same seed
gives the same inputs.  Rounds repeat until ``--seconds`` have passed.
Every call's exit code and output are checked (batch reports: no violation,
no suite wholly skipped; interactive calls: every printed value equals the
library's own result for the same inputs).

``--trace 0`` prints the end-to-end metrics.  Times are scaled to a fixed
machine speed with bench/yardstick.py, timed between calls; the raw medians
are printed too.  ``--trace 1`` alternates an untraced and a traced copy of
each round, checks that both give the same output, and prints the
per-layer metrics from bench/spans.py (raw times).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Set-up time is measured in fresh interpreters: each imports sconvexlab and
makes the workload's first small calls.  It is the cost a user pays before
the first result, and the median of several such starts is reported.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from yardstick import IMPORT_REFERENCE_S, REFERENCE_S, import_yardstick, yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
TRACE_DIR = ROOT / ".bench_out"

# Generator grids of the harness suites, fixed here so that the inputs do
# not change when the program's defaults do.
S_GRID = (0.25, 0.5, 0.75, 1.0)
Q_GRID = (1.5, 2.0, 3.0)
P_CHOICES = (None, -2.5, -0.5, 0.5, 2.0, 3.0)
THEOREMS = ("se2", "se5", "se6", "s1", "s2", "s3", "da", "pp", "ppc", "adk", "hh", "hhs", "bullen")
SWEEP_GRID = "0.05:1.0:0.05"
SWEEP_POINTS = tuple(min(0.05 + k * 0.05, 1.0) for k in range(20))
CSV_HEADER = ["suite", "case", "theorem", "a", "b", "s", "q", "lhs", "rhs", "margin", "status"]

SETUP_STARTS = 7


def import_program():
    """Import sconvexlab from this checkout's src/, never from elsewhere."""
    package = SRC / "sconvexlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no program sources at {package}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import sconvexlab
    from sconvexlab import cli

    if Path(sconvexlab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported sconvexlab from {sconvexlab.__file__}, not from {package}")
    return cli


def same(printed: str, expected) -> bool:
    """A printed number equals the library's value at the CLI's precision."""
    if expected is None:
        return printed == ""
    try:
        value = float(printed)
    except ValueError:
        return False
    return value == expected or value == float(f"{expected:.15g}")


# ---------------------------------------------------------------------------
# Calls and their outcomes


@dataclass
class Call:
    argv: list
    kind: str
    out: str | None = None  # file the call writes, read back after the round
    rows: int | None = 1  # evaluated rows; None: the data rows of the CSV it writes
    spec: dict = field(default_factory=dict)


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    seconds: float
    digest: str = ""  # sha256 of the exit code, the output and the written file
    file_digest: str = ""  # sha256 of the written file alone
    newlines: int = 0  # in the written file

    def rows(self, call: "Call") -> int:
        return call.rows if call.rows is not None else self.newlines - 1


def execute(cli, call: Call) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.dispatch(call.argv)
        except Exception as exc:  # an escaped error is a failed call, not a crash of the benchmark
            rc = None
            err.write(f"uncaught {type(exc).__name__}: {exc}")
        t1 = perf_counter()
    return Outcome(rc, out.getvalue(), err.getvalue(), t1 - t0)


def subseed(workload: str, seed: int, k: int) -> int:
    return random.Random(f"{workload}:{seed}:{k}").getrandbits(31)


# ---------------------------------------------------------------------------
# Batch workloads: verify reports written as CSV


class BatchWorkload:
    """Each round runs every suite ``repeats`` times, each time on a new seed."""

    def __init__(self, name: str, suites: dict, cases: int, repeats: int = 1):
        self.name = name
        self.suites = suites  # --suite value -> suite ids its report must hold
        self.cases = cases
        self.repeats = repeats

    def _calls(self, seed: int, cases: int, tmp: str, tag: str) -> list:
        calls = []
        for j, (suite, ids) in enumerate(self.suites.items()):
            path = os.path.join(tmp, f"{tag}-{j}.csv")
            argv = ["verify", "--suite", suite, "--cases", str(cases), "--seed", str(seed),
                    "--format", "csv", "--out", path]
            calls.append(Call(argv, "verify", out=path, rows=None, spec={"ids": ids, "cases": cases}))
        return calls

    def make_round(self, lib, seed: int, k: int, tmp: str) -> list:
        return [
            call
            for r in range(self.repeats)
            for call in self._calls(subseed(self.name, seed, k * self.repeats + r), self.cases, tmp, f"round{r}")
        ]

    def warmup(self, lib, tmp: str) -> list:
        return self._calls(1, 2, tmp, "warmup")

    def check(self, lib, call: Call, outcome: Outcome) -> list:
        if outcome.rc != 0:
            return [f"exit code {outcome.rc}: {outcome.stderr.strip()[:200]}"]
        if not os.path.exists(call.out):
            return ["report not written"]
        per_suite: dict = {}
        errors = []
        with open(call.out, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)  # row by row, so the check holds no copy of the report
            if next(rows, None) != CSV_HEADER:
                return ["report has no CSV header"]
            for row in rows:
                total, skipped = per_suite.get(row[0], (0, 0))
                per_suite[row[0]] = (total + 1, skipped + (row[10] == "skipped"))
                if row[10] not in ("ok", "warning", "skipped"):
                    errors.append(f"{row[0]} case {row[1]} {row[2]}: {row[10]}")
        for suite_id in call.spec["ids"]:
            total, skipped = per_suite.get(suite_id, (0, 0))
            if total < call.spec["cases"]:
                errors.append(f"{suite_id}: {total} rows for {call.spec['cases']} cases")
            elif skipped == total:
                errors.append(f"{suite_id}: every case skipped")
        return errors[:5]


# ---------------------------------------------------------------------------
# Interactive workload: single CLI calls, checked against the library


class InteractiveWorkload:
    name = "interactive-cli"

    def _instance(self, lib, rng):
        handle, iv = lib.funcmodel.sample_dconvex_instance(rng, lib.funcmodel.GenConfig())
        return handle.value, iv

    def _bound(self, lib, rng, theorem):
        ps, iv = self._instance(lib, rng)
        s, q = rng.choice(S_GRID), rng.choice(Q_GRID)
        argv = ["bound", "--theorem", theorem, "--f", ps.to_dsl(), "--a", repr(iv.a), "--b", repr(iv.b),
                "--s", repr(s), "--q", repr(q)]
        return Call(argv, "bound", spec=dict(ps=ps, iv=iv, theorem=theorem, s=s, q=q))

    def _defect(self, lib, rng):
        ps, iv = self._instance(lib, rng)
        argv = ["defect", "--f", ps.to_dsl(), "--a", repr(iv.a), "--b", repr(iv.b)]
        return Call(argv, "defect", spec=dict(ps=ps, iv=iv))

    def _means(self, lib, rng):
        iv = lib.funcmodel.sample_interval(rng, lib.funcmodel.GenConfig())
        p = rng.choice(P_CHOICES)
        argv = ["means", "--a", repr(iv.a), "--b", repr(iv.b)] + ([] if p is None else ["--p", repr(p)])
        return Call(argv, "means", spec=dict(iv=iv, p=p))

    def _sweep(self, lib, rng, theorem, path):
        ps, iv = self._instance(lib, rng)
        q = rng.choice(Q_GRID)
        argv = ["sweep", "--theorem", theorem, "--f", ps.to_dsl(), "--a", repr(iv.a), "--b", repr(iv.b),
                "--s-grid", SWEEP_GRID, "--q", repr(q), "--out", path]
        return Call(argv, "sweep", out=path, rows=len(SWEEP_POINTS), spec=dict(ps=ps, iv=iv, theorem=theorem, q=q))

    def make_round(self, lib, seed: int, k: int, tmp: str) -> list:
        """34 calls: each theorem once through bound, 13 defects, 4 means, 4 sweeps."""
        rng = random.Random(subseed(self.name, seed, k))
        calls = []
        for theorem in THEOREMS:
            calls.append(self._bound(lib, rng, theorem))
            calls.append(self._defect(lib, rng))
        calls.extend(self._means(lib, rng) for _ in range(4))
        for j in range(4):
            theorem = THEOREMS[(4 * k + j) % len(THEOREMS)]
            calls.append(self._sweep(lib, rng, theorem, os.path.join(tmp, f"round-sweep{j}.csv")))
        order = list(range(len(calls)))
        rng.shuffle(order)
        return [calls[i] for i in order]

    def warmup(self, lib, tmp: str) -> list:
        rng = random.Random(0)
        return [self._bound(lib, rng, "se2"), self._defect(lib, rng), self._means(lib, rng),
                self._sweep(lib, rng, "se6", os.path.join(tmp, "warmup-sweep.csv"))]

    def check(self, lib, call: Call, outcome: Outcome) -> list:
        if outcome.rc not in (0, 1):
            return [f"{call.kind}: exit code {outcome.rc}: {outcome.stderr.strip()[:200]}"]
        spec = call.spec
        lines = outcome.stdout.splitlines()
        if call.kind == "means":
            iv, p = spec["iv"], spec["p"]
            expected = [("A", lib.means.arithmetic_mean(iv)), ("G", lib.means.geometric_mean(iv))]
            if p is not None:
                expected += [("L_p^p", lib.means.gen_log_mean_pow(iv, p)), ("L_p", lib.means.gen_log_mean(iv, p))]
            return self._compare(call, lines, expected, outcome.rc, 0)
        handle = lib.funcmodel.handle_from_power_sum(spec["ps"])
        if call.kind == "defect":
            expected = [(None, lib.bounds.bullen_type_defect(handle, spec["iv"]))]
            return self._compare(call, lines, expected, outcome.rc, 0)
        if call.kind == "bound":
            rep = lib.bounds.evaluate_bound(spec["theorem"], handle, spec["iv"], s=spec["s"], q=spec["q"])
            expected = [("theorem", rep.theorem_id), ("lhs", rep.lhs), ("rhs", rep.rhs), ("margin", rep.margin),
                        ("holds", "true" if rep.holds else "false")]
            return self._compare(call, lines, expected, outcome.rc, 0 if rep.holds else 1)
        return self._check_sweep(lib, call, handle, outcome)

    def _compare(self, call, lines, expected, rc, expected_rc) -> list:
        """Every expected ``key value`` line (key None: a bare number) must be printed."""
        errors = [] if rc == expected_rc else [f"{call.kind}: exit code {rc}, library says {expected_rc}"]
        if expected[0][0] is None:
            printed = {None: lines[0].strip() if lines else None}
        else:
            printed = dict(line.rpartition(" ")[::2] for line in lines)
        for key, value in expected:
            got = printed.get(key)
            ok = got is not None and (got == value if isinstance(value, str) else same(got, value))
            if not ok:
                errors.append(f"{call.kind} {' '.join(call.argv[1:])}: printed {key} {got!r}, library gives {value!r}")
        return errors

    def _check_sweep(self, lib, call, handle, outcome) -> list:
        spec = call.spec
        if not os.path.exists(call.out):
            return ["sweep: report not written"]
        with open(call.out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != len(SWEEP_POINTS) + 1:
            return [f"sweep: {len(rows) - 1} rows, expected {len(SWEEP_POINTS)}"]
        errors, violations = [], 0
        for row, s in zip(rows[1:], SWEEP_POINTS):
            rep = lib.bounds.evaluate_bound(spec["theorem"], handle, spec["iv"], s=s, q=spec["q"])
            violations += not rep.holds
            expected = (rep.theorem_id, rep.a, rep.b, rep.s, rep.q, rep.lhs, rep.rhs, rep.margin)
            ok = row[0] == expected[0] and all(same(c, v) for c, v in zip(row[1:8], expected[1:]))
            if not ok or row[8] != ("true" if rep.holds else "false"):
                errors.append(f"sweep {spec['theorem']} s={s}: row {row} differs from the library")
        expected_rc = 0 if violations == 0 else 1
        if outcome.rc != expected_rc:
            errors.append(f"sweep: exit code {outcome.rc}, library says {expected_rc}")
        return errors[:5]


WORKLOADS = {
    "bounds-certified": BatchWorkload(
        "bounds-certified", {"bounds": [f"bounds:{t}" for t in THEOREMS]}, cases=5, repeats=8
    ),
    "props-quadrature": BatchWorkload(
        "props-quadrature",
        {"identity": ["identity"], "props": ["props"], "reductions": ["reductions"]},
        cases=200,
    ),
    "interactive-cli": InteractiveWorkload(),
}


class Library:
    """The modules the checks and the interactive inputs use."""

    def __init__(self):
        from sconvexlab import bounds, funcmodel, means

        self.bounds, self.funcmodel, self.means = bounds, funcmodel, means


# ---------------------------------------------------------------------------
# Measurement


def read_outputs(calls, outcomes, tmp: str) -> str:
    """Hash each call's exit code, output and written file; return the digest of them all.

    The run's temp dir is masked in the output.  Files are read in chunks and
    not kept, so the benchmark's own memory stays below the program's.
    """
    whole = hashlib.sha256()
    for call, outcome in zip(calls, outcomes):
        head = f"{outcome.rc}\n{outcome.stdout.replace(tmp, '<tmp>')}\n".encode()
        mine, written = hashlib.sha256(head), hashlib.sha256()
        whole.update(head)
        if call.out is not None and outcome.rc is not None and os.path.exists(call.out):
            with open(call.out, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 16), b""):
                    for h in (mine, written, whole):
                        h.update(chunk)
                    outcome.newlines += chunk.count(b"\n")
        outcome.digest, outcome.file_digest = mine.hexdigest(), written.hexdigest()
    return whole.hexdigest()


class Tally:
    """Attempted and failed calls, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, errors: list):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages.extend(errors[: max(0, 10 - len(self.messages))])


@dataclass
class RoundTimes:
    """One round's times; ``scaled`` ones are at the yardstick's reference speed."""

    raw: float = 0.0  # seconds spent in calls
    scaled: float = 0.0
    cpu: float = 0.0  # user + system seconds, scaled
    sys: float = 0.0  # system seconds
    minflt: int = 0
    latencies: list = field(default_factory=list)  # scaled, one per call


def run_round(cli, calls, yard: float):
    """Run the calls one at a time, timing the yardstick after each.

    A call's times are scaled by the mean of the yardstick times just
    before and just after it.  Returns the outcomes, the round's times and
    the last yardstick time.
    """
    times = RoundTimes()
    outcomes = []
    for call in calls:
        before = resource.getrusage(resource.RUSAGE_SELF)
        outcome = execute(cli, call)
        after = resource.getrusage(resource.RUSAGE_SELF)
        next_yard = yardstick()
        scale = 2.0 * REFERENCE_S / (yard + next_yard)
        yard = next_yard
        outcomes.append(outcome)
        times.raw += outcome.seconds
        times.scaled += outcome.seconds * scale
        times.latencies.append(outcome.seconds * scale)
        times.cpu += (after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime) * scale
        times.sys += after.ru_stime - before.ru_stime
        times.minflt += after.ru_minflt - before.ru_minflt
    return outcomes, times, yard


def setup_seconds(name: str) -> list:
    """Time to import sconvexlab and finish the first small calls, per fresh interpreter.

    Returns (raw seconds, scale) pairs; the scale comes from the numpy
    import yardstick timed just before each start.
    """
    times = []
    for _ in range(SETUP_STARTS):
        scale = IMPORT_REFERENCE_S / import_yardstick(ROOT)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append((float(proc.stdout.strip().splitlines()[-1]), scale))
    return times


def setup_probe(name: str) -> int:
    """Print the seconds to import sconvexlab and make the warm-up calls (checked by the parent)."""
    t0 = perf_counter()
    cli = import_program()
    lib = Library()
    SCRATCH.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=SCRATCH)
    try:
        for call in WORKLOADS[name].warmup(lib, tmp):
            execute(cli, call)
        t1 = perf_counter()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(repr(t1 - t0))
    return 0


def quantile(values, q: int) -> float:
    """The q-th percentile (1..99) by the inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def traced_round(cli, calls, recorder, instrumentation, tmp: str):
    """Run the calls again with every target wrapped; the round's summary and traced time.

    The traced time is the time spent in ``dispatch``, as in an untraced
    round.  The wrappers' cost is measured right after the calls, so that
    it is taken at the speed the machine ran them.
    """
    from spans import wrapper_cost

    gc.collect()
    missing = instrumentation.install()
    try:
        outcomes = [execute(cli, call) for call in calls]
    finally:
        instrumentation.remove()
    read_outputs(calls, outcomes, tmp)
    summary = recorder.finish_round(*wrapper_cost())
    return outcomes, sum(o.seconds for o in outcomes), dict(summary, missing=missing)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = import_program()
    lib = Library()
    workload = WORKLOADS[name]
    tally = Tally()
    SCRATCH.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=SCRATCH)
    try:
        warm = workload.warmup(lib, tmp)
        warm_out = [execute(cli, call) for call in warm]
        read_outputs(warm, warm_out, tmp)
        for call, outcome in zip(warm, warm_out):
            tally.record(workload.check(lib, call, outcome))
        setup = None if trace else setup_seconds(name)
        if trace:
            from spans import Instrumentation, SpanRecorder

            recorder = SpanRecorder()
            instrumentation = Instrumentation(recorder)
        rounds, traced_rounds = [], []  # traced_rounds: (traced time, wrappers' cost) per round
        rows, digests, csv_digests = 0, [], []
        first_round, min_self = None, 0.0
        yard = yardstick()
        deadline = perf_counter() + seconds
        k = 0
        while k == 0 or perf_counter() < deadline:
            calls = workload.make_round(lib, seed, k, tmp)
            # Every round starts from an empty collector, so the pauses it sees come
            # from its own calls, not from the benchmark's heap or earlier rounds.
            gc.collect()
            if trace:
                yard = yardstick()  # the traced copy of the last round ran since
            outcomes, times, yard = run_round(cli, calls, yard)
            rounds.append(times)
            digests.append(read_outputs(calls, outcomes, tmp))
            for call, outcome in zip(calls, outcomes):
                errors = workload.check(lib, call, outcome)
                tally.record(errors)
                rows += 0 if errors else outcome.rows(call)
            if k == 0:
                csv_digests = [o.file_digest for c, o in zip(calls, outcomes) if c.kind == "verify"]
            if trace:
                traced, traced_wall, summary = traced_round(cli, calls, recorder, instrumentation, tmp)
                traced_rounds.append((traced_wall, summary["overhead_s"]))
                min_self = min(min_self, summary["min_self_s"])
                for outcome, traced_outcome in zip(outcomes, traced):
                    same_output = outcome.digest == traced_outcome.digest
                    tally.record([] if same_output else ["traced call gave a different output"])
                if first_round is None:
                    first_round = dict(summary, counts=dict(recorder.counts))
            k += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = [
        f"rounds {len(rounds)}, calls {sum(len(t.latencies) for t in rounds)}, rows {rows}",
        f"round0_sha256 {digests[0]}",
    ] + [f"round0_csv_sha256 {d}" for d in csv_digests]
    report = {"lines": lines, "tally": tally}
    if not trace:
        report["metrics"] = end_to_end_metrics(rounds, rows, setup, tally, lines)
        return report

    from spans import write_spans

    report["metrics"] = layer_metrics(recorder, first_round, rounds, traced_rounds)
    if first_round["missing"]:
        lines.append("unwrapped (not found): " + ", ".join(first_round["missing"]))
    path = TRACE_DIR / f"trace-{name}.npz"
    write_spans(str(path), first_round["spans"])
    lines.append(f"round-0 spans ({len(first_round['spans']['layer'])}) written to {path.relative_to(ROOT)}")
    lines.append(f"wrappers' cost {sum(c for _, c in traced_rounds):.6f} s of {sum(w for w, _ in traced_rounds):.6f} s traced")
    report["self_check"] = {
        "raw_self_sum_s": recorder.raw_self_s,
        "traced_wall_s": sum(w for w, _ in traced_rounds),
        "traced_calls": sum(len(t.latencies) for t in rounds),  # every round is traced too
        "missing": first_round["missing"],
        "min_self_s": min_self,
    }
    return report


def end_to_end_metrics(rounds, rows, setup, tally, lines) -> dict:
    """Times at the yardstick's reference speed; raw medians go to the log lines."""
    latencies = [x for t in rounds for x in t.latencies]
    busy = sum(t.scaled for t in rounds)
    p95, p99 = quantile(latencies, 95), quantile(latencies, 99)
    lines += [
        f"latency samples {len(latencies)}: beyond p95 {sum(1 for x in latencies if x > p95)}, "
        f"beyond p99 {sum(1 for x in latencies if x > p99)}; call_p99_ms {1e3 * p99:.6g} (log only)",
        f"raw: wall_s median {statistics.median(t.raw for t in rounds):.6f}, "
        f"setup_s median {statistics.median(raw for raw, _ in setup):.6f}",
        f"yardstick scale: median {statistics.median(t.scaled / t.raw for t in rounds):.4f} "
        f"(reference {REFERENCE_S} s); set-up scales " + " ".join(f"{f:.3f}" for _, f in setup),
        "setup_s starts (raw) " + " ".join(f"{raw:.4f}" for raw, _ in setup),
    ]
    return {
        "setup_s": (statistics.median(raw * f for raw, f in setup), "s"),
        "wall_s": (statistics.median(t.scaled for t in rounds), "s"),
        "rows_per_s": (rows / busy, "1/s"),
        "calls_per_s": (len(latencies) / busy, "1/s"),
        "call_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "call_p95_ms": (1e3 * p95, "ms"),
        "cpu_s": (statistics.mean(t.cpu for t in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_frac": ((tally.attempted - tally.failed) / max(tally.attempted, 1), "ratio"),
    }


def layer_metrics(recorder, first, rounds, traced_rounds) -> dict:
    """Per-layer metrics: counts from round 0 (exact), times over all traced rounds.

    Self times and shares are net of the wrappers' cost; a share is of the
    traced time less that cost.
    """
    from spans import LAYERS

    counts, calls = first["counts"], first["calls"]
    net_total = sum(wall - cost for wall, cost in traced_rounds)
    metrics = {}
    for layer, total in zip(LAYERS, recorder.self_s.tolist()):
        metrics[f"{layer}.self_s"] = (total / recorder.rounds, "s")
        metrics[f"{layer}.self_frac"] = (total / net_total, "ratio")
    for layer in ("cli", "funcmodel.gen", "funcmodel.certify", "funcmodel.phi", "quadrature",
                  "bounds.lhs", "bounds.rhs", "means_bounds", "means"):
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    certify_calls = calls["funcmodel.certify"]
    quad_calls = calls["quadrature"]
    rows = counts.get("harness.rows", 0)
    metrics.update({
        "funcmodel.certify.samples": (counts.get("funcmodel.certify.samples", 0), "count"),
        "funcmodel.certify.pass_ratio": (
            counts.get("funcmodel.certify.certified", 0) / certify_calls if certify_calls else 0.0, "ratio"),
        "funcmodel.phi.points": (counts.get("funcmodel.phi.points", 0), "count"),
        "quadrature.evals": (counts.get("quadrature.evals", 0), "count"),
        "quadrature.evals_per_call": (counts.get("quadrature.evals", 0) / quad_calls if quad_calls else 0.0, "count"),
        "harness.rows": (rows, "count"),
        "harness.skip_ratio": (counts.get("harness.skipped", 0) / rows if rows else 0.0, "ratio"),
        "harness.render.bytes": (counts.get("harness.render.bytes", 0), "bytes"),
        "process.sys_s": (statistics.mean(t.sys for t in rounds), "s"),
        "process.minflt": (statistics.mean(t.minflt for t in rounds), "count"),
        "trace.overhead_frac": (
            statistics.median(wall / t.raw for (wall, _), t in zip(traced_rounds, rounds)) - 1.0, "ratio"),
        "trace.net_ratio": (
            statistics.median((wall - cost) / t.raw for (wall, cost), t in zip(traced_rounds, rounds)), "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    tally = report["tally"]
    for line in report["lines"]:
        print(line)
    for message in tally.messages:
        print(f"FAILED: {message}")
    for name, (value, unit) in report["metrics"].items():
        print(f"{name:32s} {value:14.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
