"""A fixed pure-Python task that gauges how fast the machine runs right now.

On a shared machine the speed of one core drifts by half or more over tens
of seconds, as other tenants load the same physical cores.  A raw call
time then says as much about the neighbours as about the program.  The
benchmark therefore times this task between calls and reports each call's
time scaled by ``REFERENCE_S`` over the mean of the task's times just
before and just after the call: seconds at the speed at which this task
takes ``REFERENCE_S``.  The task does nothing the program does, so a change
to the program cannot move it, and it mixes the kinds of interpreter work
the workloads do: float arithmetic in a loop, a heap of tuples, CSV
rendering and argparse.  The garbage collector is off while it runs, so
the size of the program's heap does not move it.

Set-up runs in fresh interpreters, whose cost is mostly loading modules
and touching new memory, which drifts differently from the loop above.
It is scaled instead by ``IMPORT_REFERENCE_S`` over the time a fresh
interpreter takes to import numpy, timed just before each start.
"""

from __future__ import annotations

import argparse
import csv
import gc
import heapq
import io
import math
import subprocess
import sys
from time import perf_counter

REFERENCE_S = 0.005
IMPORT_REFERENCE_S = 0.15


def _floats() -> float:
    total = 0.0
    for i in range(1, 8000):
        total += (i * 0.5) ** 1.5 % 7.0
    return total


def _heap() -> float:
    panels = []
    for k in range(300):
        lo = k * 0.01
        centre, half = lo + 0.005, 0.005
        acc = 0.0
        for x in (0.99, 0.94, 0.86, 0.74, 0.58, 0.40, 0.20):
            acc += (centre - half * x + 0.3) ** 1.7 + (centre + half * x + 0.3) ** 1.7
        heapq.heappush(panels, (-acc, lo, lo + 0.01))
    return math.fsum(p[0] for p in panels)


def _csv() -> int:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i in range(600):
        x = i * 0.37
        writer.writerow(["props", i, "se3", repr(x), repr(x + 1.0), "", repr(x * 0.5), "ok"])
    return len(buf.getvalue())


def _argparse():
    parser = argparse.ArgumentParser(prog="yardstick")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c", "d"):
        p = sub.add_parser(name)
        p.add_argument("--f")
        p.add_argument("--a", type=float)
        p.add_argument("--b", type=float)
    return parser.parse_args(["b", "--f", "1*x^2", "--a", "1.5", "--b", "2"])


def yardstick() -> float:
    """Seconds the fixed task takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _floats()
        _heap()
        _csv()
        _argparse()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def import_yardstick(cwd) -> float:
    """Seconds a fresh interpreter takes to import numpy."""
    code = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)
