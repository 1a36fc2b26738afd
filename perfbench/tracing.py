"""Span tracing of the tourney_lab package from outside it.

The program is not edited: ``installed`` swaps each traced public function
for a wrapper that records a span (name, start, end, parent), in every
module namespace that binds the function, and puts the originals back on
exit.  A layer's self time is its spans' duration minus the part covered by
their child spans.

Run as a script, this file executes CLI invocations in-process, once each,
with tracing on or off, and writes their wall times and span totals as JSON:

    python3 perfbench/tracing.py SPEC.json RESULT.json

SPEC holds ``{"src": ..., "trace": bool, "invocations": [argv, ...]}``.
Each call runs in a fresh interpreter, so every measurement starts with the
same cold caches a CLI user pays for.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
from collections import defaultdict
from typing import NamedTuple

# Traced functions per module; dotted names are methods patched on the class.
TARGETS = {
    "core": (
        "sample_null",
        "sample_planted",
        "sample_planted_uniform",
        "RngStream.generator",
        "Tournament.upper_signs",
        "Tournament.to_matrix",
        "Tournament.scores",
        "Ranking.upper_pairwise_signs",
        "kendall_tau",
        "spearman_footrule",
        "alignment",
    ),
    "detection": ("wedge_statistic", "spectral_statistic"),
    "recovery": ("ranking_by_wins", "pessimistic_error_statistic", "brute_force_mle"),
    "fourier": ("chi2_exact", "chi2_fourier", "tv_exact"),
    "experiments": ("run_sweep", "summarize", "write_summary"),
    "cli": ("main",),
}

PACKAGE = "tourney_lab"

# Functions that return a freshly drawn tournament; sample_planted_uniform
# draws through sample_planted, so counting it too would count twice.
SAMPLERS = ("core.sample_null", "core.sample_planted")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top


class Tracer:
    """Records spans in memory and counts the edges of sampled tournaments."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.edges_sampled = 0
        self._stack: list = []

    def wrap(self, name: str, fn):
        clock, spans, stack = self.clock, self.spans, self._stack
        counts_edges = name in SAMPLERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = Span(name, start, clock(), parent)
                stack.pop()
            if counts_edges:
                self.edges_sampled += result.num_edges
            return result

        return traced


def _covered(intervals: list, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list) -> dict:
    """Per span name: {"calls": count, "self_s": seconds outside child spans}."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    totals: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for index, span in enumerate(spans):
        entry = totals[span.name]
        entry["calls"] += 1
        entry["self_s"] += span.end - span.start - _covered(children[index], span.start, span.end)
    return dict(totals)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every function in TARGETS wherever the package binds it."""
    importlib.import_module(f"{PACKAGE}.cli")  # load every module first
    namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == PACKAGE]
    undo = []
    try:
        for module_name, qualnames in TARGETS.items():
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            for qualname in qualnames:
                name = f"{module_name}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, tracer.wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = tracer.wrap(name, original)
                for namespace in namespaces:
                    for binding, value in list(vars(namespace).items()):
                        if value is original:
                            undo.append((namespace, binding, original))
                            setattr(namespace, binding, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def run_invocations(invocations: list, trace: bool) -> dict:
    """Call the CLI in-process on each argv; return wall times and span totals."""
    from tourney_lab import cli

    tracer = Tracer()
    results = []
    with installed(tracer) if trace else contextlib.nullcontext():
        for argv in invocations:
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            results.append(
                {"argv": argv, "wall_s": time.perf_counter() - start, "code": code, "stdout": out.getvalue()}
            )
    return {
        "invocations": results,
        "functions": self_times(tracer.spans),
        "edges_sampled": tracer.edges_sampled,
    }


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    result = run_invocations(spec["invocations"], spec["trace"])
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
