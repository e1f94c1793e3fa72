"""Tiny-size self-test of the benchmark.

Run from the root of a checkout:

    python3 bench/selftest.py

For every workload, at a few cases per suite and at most two seconds of
measurement, it checks that

* the untraced run prints every end-to-end metric of BENCHMARK.json, and
  the traced run every per-layer metric, each with its declared unit;
* every call is checked and none fails, and every wrapper target exists;
* the raw traced self times of all layers add up to the traced time spent
  in ``dispatch``, within the cost of the one wrapper outside each call's
  outermost span (so a missing ``dispatch`` wrapper, or spans that do not
  nest, show), and no span's self time is negative;
* once the wrappers' measured cost is taken off, the traced time comes
  within a quarter of the untraced time (``trace.net_ratio``);
* the round-0 counters and report digests repeat exactly at one seed;
* bench/layers.json maps every per-layer metric to end-to-end metrics and
  workloads that exist.

It also runs the command line once and checks the last line of output, and
checks that the benchmark fails without printing a result in a directory
that holds only BENCHMARK.json and bench/.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import wrapper_cost  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT = ("quadrature.evals", "funcmodel.certify.samples", "harness.rows", "harness.render.bytes")


def tiny_workloads():
    run.WORKLOADS["bounds-certified"].cases = 3
    run.WORKLOADS["props-quadrature"].cases = 4


def check_metrics(report, declared, failures, where):
    for entry in declared:
        got = report["metrics"].get(entry["name"])
        if got is None:
            failures.append(f"{where}: metric {entry['name']} not printed")
        elif got[1] != entry["unit"]:
            failures.append(f"{where}: {entry['name']} printed in {got[1]}, declared {entry['unit']}")
    extra = set(report["metrics"]) - {e["name"] for e in declared}
    if extra:
        failures.append(f"{where}: undeclared metrics {sorted(extra)}")


def check_workload(name, failures):
    plain = run.measure(name, seed=3, seconds=0.3, trace=False)
    check_metrics(plain, SPEC["end_to_end"], failures, f"{name} trace 0")
    for metric, (value, _) in plain["metrics"].items():
        if not value > 0:
            failures.append(f"{name}: end-to-end metric {metric} is {value}")

    # Long enough for a few rounds: the net ratio is a median over rounds.
    traced = run.measure(name, seed=3, seconds=2.0, trace=True)
    again = run.measure(name, seed=3, seconds=0.0, trace=True)
    check_metrics(traced, SPEC["per_layer"], failures, f"{name} trace 1")
    for report, label in ((plain, "trace 0"), (traced, "trace 1")):
        if report["tally"].failed or not report["tally"].attempted:
            failures.append(f"{name} {label}: {report['tally'].failed} of {report['tally'].attempted} calls failed")

    for metric in EXACT:
        if traced["metrics"][metric][0] != again["metrics"][metric][0]:
            failures.append(f"{name}: {metric} differs between two runs at one seed")
    digests = [line for line in plain["lines"] if "sha256" in line]
    if digests != [line for line in again["lines"] if "sha256" in line]:
        failures.append(f"{name}: round-0 digests differ between two runs at one seed")

    check = traced["self_check"]
    if check["missing"]:
        failures.append(f"{name}: wrapper targets not found: {', '.join(check['missing'])}")
    # The wrapper of a call's outermost span runs cold, several times slower
    # than in wrapper_cost's loop; dispatch's own self time per call is far more.
    slack = check["traced_calls"] * 10 * sum(wrapper_cost()) + 1e-4
    gap = check["traced_wall_s"] - check["raw_self_sum_s"]
    if not 0.0 <= gap <= slack:
        failures.append(
            f"{name}: self times sum to {check['raw_self_sum_s']:.6f} s, traced time {check['traced_wall_s']:.6f} s")
    if check["min_self_s"] < -1e-9:
        failures.append(f"{name}: a span has negative self time {check['min_self_s']}")
    net = traced["metrics"]["trace.net_ratio"][0]
    if not 0.75 <= net <= 1.25:
        failures.append(f"{name}: traced time less the wrappers' cost is {net:.3f} of the untraced time")
    print(f"{name}: self times sum to traced time within {gap:.2e} s (allowed {slack:.2e} s); net ratio {net:.3f}")


def check_layer_map(failures):
    groups = json.loads((BENCH / "layers.json").read_text())["groups"]
    e2e = {e["name"] for e in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    mapped = [m for g in groups for m in g["layer_metrics"]]
    per_layer = [e["name"] for e in SPEC["per_layer"]]
    if sorted(mapped) != sorted(per_layer):
        failures.append(f"layers.json maps {sorted(set(mapped) ^ set(per_layer))} differently from BENCHMARK.json")
    for g in groups:
        for move in g["moves"]:
            if move["metric"] not in e2e or move["workload"] not in workloads:
                failures.append(f"layers.json: unknown target {move}")
        if not set(g["no_change_expected"]) <= workloads:
            failures.append(f"layers.json: unknown workload in {g['no_change_expected']}")


def check_command_line(failures):
    cmd = SPEC["command"] + ["--workload", "interactive-cli", "--seed", "5", "--seconds", "0.2", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"command line: exit {proc.returncode}, last line {proc.stdout.strip()[-200:]!r}")

    run.SCRATCH.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.SCRATCH))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"without the program: exit {proc.returncode}, output {proc.stdout.strip()[-200:]!r}")


def main() -> int:
    tiny_workloads()
    failures = []
    check_layer_map(failures)
    for name in run.WORKLOADS:
        check_workload(name, failures)
    check_command_line(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest ok" if not failures else f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
