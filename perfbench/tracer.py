"""Span recorder for the traced benchmark run.

The recorder wraps public treecast functions from outside the package.
treecast modules bind imported names at import time (``from .atoms import
grid_merge``), so a function is replaced in every treecast module whose
namespace binds it: ``evolution.grid_merge``, ``sampling.llr_step``,
``threshold.evolve`` and so on.  Each call becomes a span with a parent
link; spans stay in memory and are written as JSON lines when the run
ends.  A span's self time is its duration minus the durations of its child
spans (calls run on one thread, so children never overlap).
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self, spans: list) -> float:
        return self.duration - sum(spans[c].duration for c in self.children)


# a counter gets the call's arguments bound to their parameter names, so
# it does not depend on whether the caller passed them by position or name
def _grid_merge_counts(arg, out):
    return {"atoms_in": int(np.size(arg["values"])), "atoms_out": int(np.size(out[0])),
            "tol": float(arg["tol"])}


def _llr_step_counts(arg, out):
    return {"values_in": int(np.size(arg["x"]))}


def _population_counts(arg, out):
    return {"samples_out": int(out.size)}


def _coupling_counts(arg, out):
    return {"pairs_out": int(len(out.weight))}


def _text_counts(arg, out):
    return {"bytes_out": len(out.encode())}


def _decision_counts(arg, out):
    return {"inconclusive": int(out.verdict == "inconclusive")}


# (module, attribute, layer name, counter); the function found there is
# replaced in every treecast module that binds it
TARGETS = [
    ("atoms", "grid_merge", "atoms.grid_merge", _grid_merge_counts),
    ("channels", "llr_step", "channels.llr_step", _llr_step_counts),
    ("evolution", "evolve", "evolution.evolve", None),
    ("evolution", "base_pair", "evolution.base_pair", None),
    ("evolution", "diagnostics", "evolution.diagnostics", None),
    ("sampling", "population_from_pair", "sampling.population_from_pair", None),
    ("sampling", "population_evolve_anchored", "sampling.population_evolve_anchored",
     _population_counts),
    ("sampling", "estimate_diagnostics", "sampling.estimate_diagnostics", None),
    ("threshold", "decide_reconstruction", "threshold.decide_reconstruction",
     _decision_counts),
    ("conditioning", "build_coupling", "conditioning.build_coupling", _coupling_counts),
    ("serialize", "curve_csv", "serialize.curve_csv", _text_counts),
    ("serialize", "report_json", "serialize.report_json", _text_counts),
    ("cli", "main", "cli.main", None),
]

MODULES = ["atoms", "channels", "evolution", "conditioning", "sampling",
           "threshold", "serialize", "cli"]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, counter=None):
        """Return ``fn`` wrapped so each call records a span named ``name``."""
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if counter is not None else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(id=len(spans), name=name, parent=parent,
                        start=time.perf_counter())
            spans.append(span)
            if parent is not None:
                spans[parent].children.append(span.id)
            stack.append(span.id)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(signature.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    def install(self) -> None:
        """Replace every target in each treecast namespace that binds it."""
        mods = {name: sys.modules[f"treecast.{name}"] for name in MODULES}
        for home, attr, layer, counter in TARGETS:
            original = getattr(mods[home], attr)
            wrapped = self.wrap(original, layer, counter)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        coupling = mods["conditioning"].Coupling
        coupling.marginal_residuals = self.wrap(
            coupling.marginal_residuals, "conditioning.Coupling.marginal_residuals")

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end,
                                     "self_s": s.self_time(self.spans),
                                     "error": s.error, "counts": s.counts}) + "\n")


def per_call_overhead(calls: int = 20_000) -> float:
    """Seconds one traced call, counter included, adds over a plain call."""
    probe = Tracer()

    def plain(x):
        return x

    traced = probe.wrap(plain, "probe", lambda arg, out: {"x": arg["x"]})
    t0 = time.perf_counter()
    for i in range(calls):
        plain(i)
    t1 = time.perf_counter()
    for i in range(calls):
        traced(i)
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _evolve_attempts(spans: list, evolve: Span) -> tuple[int, int, int]:
    """Merge-grid attempts of one exact step: (attempts, useful, wasted_atoms_in).

    Every attempt starts with a new merge width, so consecutive
    ``grid_merge`` children of the step that share a ``tol`` form one
    attempt.  All attempts but the last raised a caught ``AtomExplosion``;
    the last one succeeded unless the step itself raised.
    """
    groups = []  # [tol, atoms_in]
    for cid in evolve.children:
        child = spans[cid]
        if child.name != "atoms.grid_merge":
            continue
        if not groups or groups[-1][0] != child.counts["tol"]:
            groups.append([child.counts["tol"], 0])
        groups[-1][1] += child.counts["atoms_in"]
    if not groups:
        return 0, 0, 0
    useful = 0 if evolve.error else 1
    wasted = sum(n for _, n in groups[:-1]) + (groups[-1][1] if evolve.error else 0)
    return len(groups), useful, wasted


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals named ``<module>.<function>.<stat>``."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(s.self_time(spans) for s in group(name))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in group(name))

    m = {}
    for name in ("atoms.grid_merge", "evolution.evolve", "channels.llr_step",
                 "sampling.population_evolve_anchored", "threshold.decide_reconstruction",
                 "conditioning.build_coupling"):
        m[f"{name}.calls"] = len(group(name))
    for name in ("atoms.grid_merge", "evolution.evolve", "evolution.base_pair",
                 "evolution.diagnostics", "channels.llr_step",
                 "sampling.population_evolve_anchored", "sampling.estimate_diagnostics",
                 "sampling.population_from_pair", "conditioning.build_coupling",
                 "conditioning.Coupling.marginal_residuals", "serialize.curve_csv",
                 "serialize.report_json", "cli.main"):
        m[f"{name}.self_s"] = self_s(name)
    m["atoms.grid_merge.atoms_in"] = total("atoms.grid_merge", "atoms_in")
    m["atoms.grid_merge.atoms_out"] = total("atoms.grid_merge", "atoms_out")
    m["channels.llr_step.values_in"] = total("channels.llr_step", "values_in")
    m["sampling.population_evolve_anchored.samples_out"] = total(
        "sampling.population_evolve_anchored", "samples_out")
    m["conditioning.build_coupling.pairs_out"] = total("conditioning.build_coupling",
                                                       "pairs_out")
    m["serialize.curve_csv.bytes_out"] = total("serialize.curve_csv", "bytes_out")
    m["serialize.report_json.bytes_out"] = total("serialize.report_json", "bytes_out")

    attempts = useful = wasted = 0
    for s in group("evolution.evolve"):
        a, u, w = _evolve_attempts(spans, s)
        attempts, useful, wasted = attempts + a, useful + u, wasted + w
    m["evolution.evolve.attempts"] = attempts
    m["evolution.evolve.wasted_atoms_in"] = wasted
    m["evolution.evolve.useful_ratio"] = useful / attempts if attempts else 0.0

    decisions = sorted(s.duration for s in group("threshold.decide_reconstruction"))
    if decisions:
        m["threshold.decide_reconstruction.p50_s"] = statistics.median(decisions)
        m["threshold.decide_reconstruction.p95_s"] = float(
            np.percentile(decisions, 95, method="inverted_cdf"))
    else:
        m["threshold.decide_reconstruction.p50_s"] = 0.0
        m["threshold.decide_reconstruction.p95_s"] = 0.0
    m["threshold.decide_reconstruction.inconclusive"] = total(
        "threshold.decide_reconstruction", "inconclusive")
    m["trace.spans"] = len(spans)
    return m
