"""Span tracer for the traced run.

Spans are recorded from the benchmark's side only: `install` replaces
public entcheck functions at the module attributes their callers look
them up through (for example `entcheck.pipeline.sum_test`, which the
pipeline calls, and `entcheck.bipartite.sum_test`, which the sign-flip
scan calls) and `uninstall` puts the originals back.  Nothing inside
entcheck is edited.

A span is `[name, start, end, parent, call]`: `parent` is the index of
the enclosing span (-1 at top level) and `call` is the id of the
benchmark call that caused it.  A layer's self time is its span time
minus the time its direct child spans cover.

Some boundaries are counters only, not spans, so that their time stays
in the enclosing layer's self time: the sum tests inside the sign-flip
scan, `numeric_rank` inside the oracle, and `unfold` inside factor
extraction.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

MB = 1e6

# Span names whose per-pass self time is reported, in report order.
SELF_TIMES = (
    "pipeline.analyze",
    "bipartite.sum_test",
    "bipartite.sign_flip_recover",
    "phase.magnitude_phase_test",
    "multipartite.multiparty_sum_test",
    "oracle.unfolding_ranks",
    "pipeline.normalize_factors",
    "pipeline.render_report",
    "cli.main",
    "io.loads.dense",
    "io.loads.sparse",
    "io.dumps.dense",
    "io.dumps.sparse",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.call = -1
        self._stack = []
        self._patches = []

    # --- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.call]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self.counts[name + ".calls"] += 1
        record[1] = time.perf_counter()
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, *, named=None, probe=None):
        """Wrap `fn` in a span.  `named(args, kwargs)` may pick the span
        name per call; `probe(tracer, args, kwargs, result)` adds counts."""

        def wrapper(*args, **kwargs):
            record = self._open(named(args, kwargs) if named else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return wrapper

    def counter(self, key, fn, probe=None):
        """Wrap `fn` to count its calls under `key` without opening a span."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[key] += 1
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return wrapper

    def patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # --- derivation --------------------------------------------------------

    def self_times(self, first=0, last=None):
        """Self time per span name over spans[first:last]."""
        spans = self.spans[first:last]
        covered = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                covered[parent] += end - start
        out = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(spans, start=first):
            out[name] += (end - start) - covered[k]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, call in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "call": call}) + "\n")


def _fmt(args, kwargs):
    return kwargs.get("format", args[1] if len(args) > 1 else "dense")


def _count_loads(tracer, args, kwargs, result):
    tracer.counts["io.loads.bytes"] += len(args[0])


def _count_rank(tracer, args, kwargs, result):
    tracer.counts["oracle.elimination_steps"] += int(result)
    tracer.counts["oracle.unfold_bytes"] += int(args[0].nbytes)


def _count_inner_sum_test(tracer, args, kwargs, result):
    tracer.counts["bipartite.sum_test.calls"] += 1


def install(tracer, ec):
    """Wrap the layer boundaries of the imported entcheck package `ec`."""
    pipeline, bipartite, oracle, io, cli = ec.pipeline, ec.bipartite, ec.oracle, ec.io, ec.cli
    span, counter, patch = tracer.span, tracer.counter, tracer.patch
    patch(ec, "analyze", span("pipeline.analyze", ec.analyze))
    patch(cli, "main", span("cli.main", cli.main))
    patch(cli, "analyze", span("pipeline.analyze", cli.analyze))
    patch(cli, "render_report", span("pipeline.render_report", cli.render_report))
    patch(pipeline, "sum_test", span("bipartite.sum_test", pipeline.sum_test))
    patch(pipeline, "sign_flip_recover",
          span("bipartite.sign_flip_recover", pipeline.sign_flip_recover))
    patch(pipeline, "magnitude_phase_test",
          span("phase.magnitude_phase_test", pipeline.magnitude_phase_test))
    patch(pipeline, "multiparty_sum_test",
          span("multipartite.multiparty_sum_test", pipeline.multiparty_sum_test))
    patch(pipeline, "unfolding_ranks", span("oracle.unfolding_ranks", pipeline.unfolding_ranks))
    patch(pipeline, "normalize_factors",
          span("pipeline.normalize_factors", pipeline.normalize_factors))
    patch(pipeline, "unfold", counter("pipeline.unfold.calls", pipeline.unfold))
    patch(bipartite, "sum_test", counter("bipartite.sign_flip.attempts", bipartite.sum_test,
                                         _count_inner_sum_test))
    patch(oracle, "numeric_rank",
          counter("oracle.numeric_rank.calls", oracle.numeric_rank, _count_rank))
    patch(io, "loads", span("io.loads", io.loads,
                            named=lambda a, k: "io.loads." + _fmt(a, k), probe=_count_loads))
    patch(io, "dumps", span("io.dumps", io.dumps, named=lambda a, k: "io.dumps." + _fmt(a, k)))


def layer_metrics(self_by_pass, counts, untraced_pass_s, traced_pass_s, traced_peak_bytes):
    """Per-layer metrics from the traced passes.

    `self_by_pass` is one {span name: self seconds} mapping per traced
    pass; self times are reported as the median over passes, in seconds
    per pass.  `counts` are the counts of one pass.
    """
    metrics = {}
    for name in SELF_TIMES:
        metrics[name + ".self_s"] = (statistics.median(p.get(name, 0.0) for p in self_by_pass), "s")
    sign_flips = counts["bipartite.sign_flip_recover.calls"]
    loads_s = metrics["io.loads.dense.self_s"][0] + metrics["io.loads.sparse.self_s"][0]
    metrics.update({
        "bipartite.sum_test.calls": (counts["bipartite.sum_test.calls"], "count"),
        "bipartite.sign_flip_recover.calls": (sign_flips, "count"),
        "bipartite.sign_flip.attempts_per_call": (
            counts["bipartite.sign_flip.attempts"] / sign_flips if sign_flips else 0.0, "ratio"),
        "phase.magnitude_phase_test.calls": (counts["phase.magnitude_phase_test.calls"], "count"),
        "oracle.numeric_rank.calls": (counts["oracle.numeric_rank.calls"], "count"),
        "oracle.elimination_steps": (counts["oracle.elimination_steps"], "count"),
        "oracle.unfold_mb": (counts["oracle.unfold_bytes"] / MB, "MB"),
        "pipeline.analyze.calls": (counts["pipeline.analyze.calls"], "count"),
        "pipeline.unfold.calls": (counts["pipeline.unfold.calls"], "count"),
        "io.loads.mb": (counts["io.loads.bytes"] / MB, "MB"),
        "io.parse_mb_per_s": (counts["io.loads.bytes"] / MB / loads_s if loads_s else 0.0, "MB/s"),
        "traced_peak_mb": (traced_peak_bytes / MB, "MB"),
        "tracing_overhead_frac": (
            statistics.median(traced_pass_s) / statistics.median(untraced_pass_s) - 1.0, "ratio"),
    })
    return metrics
