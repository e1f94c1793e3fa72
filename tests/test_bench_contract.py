"""The library surface that the benchmark in bench/ relies on.

bench/ changes only together with the benchmark, so a refactor that renames
a function, a field or a CLI option the benchmark uses would otherwise
fail only when the benchmark runs.  These tests make the calls bench/run.py
makes, read the fields bench/spans.py's counters read, and run a round of
each workload through the benchmark's own checks.
"""

import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from sconvexlab import bounds, cli, funcmodel, harness, means, quadrature
from sconvexlab.cli import parse_function_dsl
from sconvexlab.funcmodel import PowerSum
from sconvexlab.harness import SuiteConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    """Import bench/<name>.py as bench_<name>, with bench/ importable for
    its own imports."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


run = _load("run")
spans = _load("spans")

# Wrap targets that bench/spans.py names but the library no longer has
# (ROADMAP, bench upkeep).  No other target may go missing.  verify runs
# the 13 bound suites in one call of run_bound_suites, so cli no longer
# binds run_bound_suite; a traced run counts that time as cli's.  The
# funcmodel.certify layer is left out as a whole: the library has no grid
# certifier, since every hypothesis is proved from the power-sum terms or
# not at all, so no target of that layer exists.
STALE_TARGETS = {
    "sconvexlab.harness.trapezoid_defect",
    "sconvexlab.harness.mean_value",
    "sconvexlab.harness.hadamard_triple",
    "sconvexlab.harness.hadamard_s_triple",
    "sconvexlab.bounds.hadamard_triple",
    "sconvexlab.harness.bound_ms",
    "sconvexlab.harness.bound_prior",
    "sconvexlab.harness.bullen_classic_rhs",
    "sconvexlab.bounds.bound_ms",
    "sconvexlab.bounds.bound_prior",
    "sconvexlab.bounds.bullen_classic_rhs",
    "sconvexlab.harness.prop_rhs",
    "sconvexlab.cli.run_bound_suite",
}


def test_generator_and_function_calls():
    rng = random.Random(101)
    handle, iv = funcmodel.sample_dconvex_instance(rng, funcmodel.GenConfig())
    assert isinstance(handle.value, PowerSum) and 0.0 < iv.a < iv.b
    window = funcmodel.sample_interval(rng, funcmodel.GenConfig())
    assert 0.0 < window.a < window.b
    ps = handle.value
    assert parse_function_dsl(ps.to_dsl()) == ps
    rebuilt = funcmodel.handle_from_power_sum(ps)
    assert bounds.bullen_type_defect(rebuilt, iv) == pytest.approx(bounds.bullen_type_defect(handle, iv))


def test_bound_report_fields():
    handle = funcmodel.handle_from_power_sum(PowerSum([(1.0, 2.0)]))
    iv = funcmodel.sample_interval(random.Random(7), funcmodel.GenConfig())
    rep = bounds.evaluate_bound("se5", handle, iv, s=0.5, q=2.0)
    fields = (rep.theorem_id, rep.a, rep.b, rep.s, rep.q, rep.lhs, rep.rhs, rep.margin, rep.holds)
    assert fields[:5] == ("se5", iv.a, iv.b, 0.5, 2.0)
    assert rep.margin == rep.rhs - rep.lhs and rep.holds is True


@pytest.mark.parametrize("p", run.P_CHOICES)
def test_means_calls(p):
    iv = funcmodel.sample_interval(random.Random(3), funcmodel.GenConfig())
    values = [means.arithmetic_mean(iv), means.geometric_mean(iv)]
    if p is not None:
        values += [means.gen_log_mean_pow(iv, p), means.gen_log_mean(iv, p)]
    assert all(v > 0.0 for v in values)


def test_counter_fields():
    counts = Counter()
    report = harness.run_bound_suites(SuiteConfig(seed=1, cases=3), ("se2",))[0]
    spans._count_suite(counts, (), {}, report)
    spans._count_quadrature(counts, (), {}, quadrature.integrate(lambda x: x * x, 0.0, 1.0))
    assert counts["harness.rows"] == len(report.rows) == 3 and counts["harness.skipped"] == report.skipped == 0
    assert counts["quadrature.evals"] == 15


def test_csv_header():
    assert list(harness.CSV_HEADER) == run.CSV_HEADER


def test_theorem_ids():
    assert set(run.THEOREMS) == set(bounds.THEOREMS)


def test_wrap_targets_resolve():
    missing = set()
    for module, dotted, layer, _ in spans.TARGETS:
        if layer == "funcmodel.certify":
            continue
        owner, attr = spans._resolve(module, dotted)
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            missing.add(f"{module}.{dotted}")
    assert missing <= STALE_TARGETS, sorted(missing - STALE_TARGETS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_round_passes_its_checks(workload, tmp_path):
    """Warm-up and round 0 at seed 101: every call exits as the benchmark
    expects and prints what the library computes."""
    w, lib = run.WORKLOADS[workload], run.Library()
    calls = w.warmup(lib, str(tmp_path)) + w.make_round(lib, 101, 0, str(tmp_path))
    for call in calls:
        outcome = run.execute(cli, call)
        assert w.check(lib, call, outcome) == [], call.argv
