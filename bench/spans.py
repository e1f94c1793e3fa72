"""In-memory span recorder and the instrumentation that feeds it.

The traced run replaces public functions of sconvexlab with wrappers, in
the namespace that looks each one up at call time (for example
``sconvexlab.harness.certify_s_convex``, which is the name
``run_bound_suite`` calls), and puts the originals back afterwards.  Each
wrapper opens a span on entry and closes it on exit.  Spans are kept in
flat arrays (layer id, parent index, start, end), so a round of a million
spans costs about 24 MB, and are reduced to per-layer self time and call
counts when the round ends.

A layer's self time is its span durations minus the durations of their
direct children.  Every span of a round nests inside a ``cli.dispatch``
span, so the raw self times of all layers add up to the time spent in
``dispatch``.

A wrapper costs time of its own: a little inside its span (charged to the
wrapped layer) and more outside it (charged to the caller's layer).  With
about 100,000 scalar ``PowerSum`` calls a round that would make callers of
``PowerSum`` look far slower than they are, so ``wrapper_cost`` measures
both parts on a no-op, and ``finish_round`` takes them off each span and
its parent.  The corrected self times add up to the traced time minus the
wrappers' cost, which should come close to the untraced time.

Counters come from the values the wrapped calls return
(``CertResult.samples_checked``/``.certified``, ``QuadResult.evaluations``,
``SuiteReport.rows``/``.skipped``) and from the arguments they receive
(points passed to ``PowerSum.__call__``, the size of the file
``write_report`` wrote).
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = (
    "cli",
    "cli.parse",
    "harness",
    "harness.render",
    "funcmodel.gen",
    "funcmodel.certify",
    "funcmodel.phi",
    "quadrature",
    "bounds.lhs",
    "bounds.rhs",
    "means_bounds",
    "means",
)


def _count_certify(counts, args, kwargs, result):
    counts["funcmodel.certify.samples"] += result.samples_checked
    counts["funcmodel.certify.certified"] += int(result.certified)


def _count_phi(counts, args, kwargs, result):
    # An array's size, 1 for a scalar; np.size would cost more than the call.
    counts["funcmodel.phi.points"] += getattr(args[1], "size", 1)


def _count_quadrature(counts, args, kwargs, result):
    counts["quadrature.evals"] += result.evaluations


def _count_suite(counts, args, kwargs, result):
    counts["harness.rows"] += len(result.rows)
    counts["harness.skipped"] += result.skipped


def _count_render(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["harness.render.bytes"] += os.path.getsize(path)


_LHS = (
    "bullen_defect_signed",
    "bullen_type_defect",
    "lemma_identity_rhs",
    "trapezoid_defect",
    "mean_value",
    "hadamard_triple",
    "hadamard_s_triple",
)
_RHS = ("bound_se2", "bound_se5", "bound_se6", "bound_ms", "bound_prior", "bullen_classic_rhs")
# The means functions each module imports.
_MEANS = {
    "sconvexlab.cli": ("arithmetic_mean", "geometric_mean", "gen_log_mean", "gen_log_mean_pow"),
    "sconvexlab.bounds": ("arithmetic_mean", "gen_log_mean"),
    "sconvexlab.means_bounds": ("arithmetic_mean", "geometric_mean", "gen_log_mean_pow", "power_diff_quotient"),
}

# (module, dotted attribute, layer, counter hook).  A name is wrapped in every
# namespace that calls it, so calls made inside the library are seen too.
TARGETS = (
    [
        ("sconvexlab.cli", "dispatch", "cli", None),
        ("sconvexlab.cli", "build_parser", "cli.parse", None),
        ("sconvexlab.cli", "argparse.ArgumentParser.parse_args", "cli.parse", None),
        ("sconvexlab.cli", "parse_function_dsl", "cli.parse", None),
        ("sconvexlab.cli", "_parse_grid", "cli.parse", None),
        ("sconvexlab.cli", "write_report", "harness.render", _count_render),
        ("sconvexlab.funcmodel", "PowerSum.__call__", "funcmodel.phi", _count_phi),
        ("sconvexlab.bounds", "integrate", "quadrature", _count_quadrature),
    ]
    + [
        ("sconvexlab.cli", name, "harness", _count_suite)
        for name in ("run_identity_suite", "run_bound_suite", "run_reduction_suite", "run_prop_crosscheck_suite")
    ]
    + [("sconvexlab.harness", name, "funcmodel.certify", _count_certify) for name in ("certify_s_convex", "certify_concave")]
    + [
        ("sconvexlab.harness", name, "funcmodel.gen", None)
        for name in (
            "sample_dconvex_instance",
            "sample_interval",
            "_convex_f_instance",
            "_concave_power_instance",
            "_s_power_instance",
            "_sconvex_term_instance",
        )
    ]
    + [("sconvexlab.harness", name, "bounds.lhs", None) for name in _LHS]
    + [("sconvexlab.bounds", name, "bounds.lhs", None) for name in _LHS]
    + [("sconvexlab.cli", "bullen_type_defect", "bounds.lhs", None)]
    + [(mod, name, "bounds.rhs", None) for mod in ("sconvexlab.harness", "sconvexlab.bounds") for name in _RHS]
    + [("sconvexlab.means_bounds", name, "bounds.rhs", None) for name in ("bound_se2", "bound_se5", "bound_se6")]
    + [
        ("sconvexlab.harness", name, "means_bounds", None)
        for name in ("prop_power_lhs", "prop_recip_lhs", "prop_rhs", "se4_discrepancy")
    ]
    + [(mod, name, "means", None) for mod, names in _MEANS.items() for name in names]
)


class SpanRecorder:
    """Spans of the current round in flat arrays; totals across rounds."""

    def __init__(self):
        self.layer_id = {name: i for i, name in enumerate(LAYERS)}
        self.counts: Counter = Counter()
        self.self_s = np.zeros(len(LAYERS))  # corrected for the wrappers' cost
        self.raw_self_s = 0.0  # uncorrected, all layers
        self.overhead_s = 0.0
        self.rounds = 0
        self._clear()

    def _clear(self):
        self.layer = array("h")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def open(self, layer: int) -> int:
        idx = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def spans(self) -> dict:
        """The current round's spans as numpy arrays."""
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def finish_round(self, cost_in: float, cost_out: float) -> dict:
        """Fold the round's spans into per-layer totals and start afresh.

        ``cost_in`` and ``cost_out`` are a wrapper's cost inside and outside
        its span (see ``wrapper_cost``); each span's self time loses
        ``cost_in`` and ``cost_out`` per direct child.  Returns the round's
        corrected per-layer self time, the wrappers' total cost, and the
        outermost call counts (a call nested in a span of its own layer is
        not counted again).
        """
        sp = self.spans()
        if len(self._stack) != 1:
            raise RuntimeError("a span was left open at the end of a round")
        n = len(sp["layer"])
        dur = sp["end"] - sp["start"]
        nested = sp["parent"] >= 0
        child = np.bincount(sp["parent"][nested], weights=dur[nested], minlength=n)
        children = np.bincount(sp["parent"][nested], minlength=n)
        raw = dur - child
        own = raw - cost_in - children * cost_out
        self_t = np.bincount(sp["layer"], weights=own, minlength=len(LAYERS))
        parent_layer = np.where(nested, sp["layer"][np.where(nested, sp["parent"], 0)], -1)
        outer = np.bincount(sp["layer"][parent_layer != sp["layer"]], minlength=len(LAYERS))
        overhead = n * (cost_in + cost_out)
        self.self_s += self_t
        self.raw_self_s += float(raw.sum())
        self.overhead_s += overhead
        self.rounds += 1
        self._clear()
        return {
            "spans": sp,
            "overhead_s": overhead,
            "calls": dict(zip(LAYERS, outer.tolist())),
            "min_self_s": float(raw.min()) if n else 0.0,
        }


def _wrap(rec: SpanRecorder, fn, layer: int, hook):
    counts = rec.counts

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(counts, args, kwargs, result)
        return result

    return traced


def _noop(*args, **kwargs):
    return None


def wrapper_cost() -> tuple[float, float]:
    """Seconds a wrapper adds to one call: (inside its own span, outside it).

    Measured on a no-op with the ``PowerSum`` counter hook and a scalar
    argument, the most frequent span.  Inside is the span's duration less a
    plain call's cost; outside is the rest of the wrapped call's extra time.
    """
    rec = SpanRecorder()
    traced = _wrap(rec, _noop, 0, _count_phi)
    n, x = 20000, 0.5
    t0 = perf_counter()
    for _ in range(n):
        pass
    t1 = perf_counter()
    for _ in range(n):
        _noop(None, x)
    t2 = perf_counter()
    for _ in range(n):
        traced(None, x)
    t3 = perf_counter()
    call = (t2 - t1 - (t1 - t0)) / n
    extra = (t3 - t2 - (t2 - t1)) / n
    sp = rec.spans()
    inside = min(max(float(np.mean(sp["end"] - sp["start"])) - call, 0.0), extra)
    return inside, max(extra - inside, 0.0)


def _resolve(module: str, dotted: str):
    """(owner, attribute name) for a target, or (None, name) when its owner is gone."""
    *path, attr = dotted.split(".")
    try:
        owner = importlib.import_module(module)
    except ModuleNotFoundError:
        return None, attr
    for part in path:
        owner = getattr(owner, part, None)
    return owner, attr


class Instrumentation:
    """Wraps every target that exists; ``remove`` restores the originals."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved = []

    def install(self) -> list[str]:
        """Wrap the targets; return the ones that do not exist."""
        missing = []
        for module, dotted, layer, hook in TARGETS:
            owner, attr = _resolve(module, dotted)
            if isinstance(owner, type):
                original = owner.__dict__.get(attr)
            else:
                original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module}.{dotted}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.recorder, original, self.recorder.layer_id[layer], hook))
        return missing

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def write_spans(path: str, spans: dict):
    """Write one round's spans (name, start, end, parent) as a compressed npz."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, names=np.array(LAYERS), **spans)
