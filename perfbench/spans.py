"""Span recording, self-time arithmetic and per-layer metrics.

A span is one call of a wrapped function: ``{"id", "name", "parent",
"start", "end", "counters"}``.  A span's self time is its duration minus the
part of its interval that its child spans cover.  This module knows nothing
about hashscope; ``tracer.py`` decides what to wrap.
"""

from __future__ import annotations

import functools
import time

# per-layer self-time metric -> span name it sums
SELF_TIME_METRICS = {
    "cli.uncovered_s": "cli.main",
    "synth.generate_s": "synth.generate",
    "corpus.save_s": "corpus.save",
    "corpus.load_s": "corpus.load",
    "corpus.share_counts_s": "corpus.share_counts",
    "corpus.bucket_series_s": "corpus.bucket_series",
    "corpus.posts_in_year_s": "corpus.posts_in_year",
    "corpus.user_hashtags_s": "corpus.user_hashtags",
    "corpus.top_k_s": "corpus.top_k",
    "reports.stats_s": "reports.stats",
    "reports.render_s": "reports.render",
    "temporal.profiles_s": "temporal.profiles",
    "temporal.select_k_s": "temporal.select_k",
    "temporal.kmeans_s": "temporal.kmeans",
    "temporal.silhouette_s": "temporal.silhouette",
    "temporal.label_s": "temporal.label",
    "temporal.export_s": "temporal.export",
    "spatial.propensity_s": "spatial.propensity",
    "spatial.export_s": "spatial.export",
    "drift.analysis_self_s": "drift.analysis",
    "drift.train_yearly_s": "drift.train_yearly",
    "drift.align_s": "drift.align",
    "drift.export_s": "drift.export",
    "embedding.skipgram_s": "embedding.skipgram",
    "embedding.cbow_s": "embedding.cbow",
    "social.score_self_s": "social.eval",
    "social.graph_s": "social.graph",
    "social.walks_s": "social.walks",
    "social.profiles_self_s": "social.profiles",
    "social.strangers_s": "social.strangers",
    "social.auc_s": "social.auc",
    "social.export_s": "social.export",
    "trace.count_s": "trace.count",
}

# counters summed over spans, reported as they are
COUNT_METRICS = (
    "corpus.load_posts",
    "corpus.share_counts_calls",
    "temporal.kmeans_runs",
    "temporal.kmeans_iters",
    "temporal.silhouette_points",
    "drift.align_calls",
    "embedding.skipgram_examples",
    "embedding.cbow_examples",
    "embedding.epoch_examples",
    "embedding.vocab_size",
    "social.walk_tokens",
    "social.pairs_scored",
    "social.friend_pairs_used",
    "social.friend_pairs_skipped",
)

# ratio metric -> (unit, numerator metrics, denominator metrics); each base is
# itself reported
RATIO_METRICS = {
    "corpus.load_posts_per_s": ("1/s", ("corpus.load_posts",), ("corpus.load_s",)),
    "embedding.examples_per_s": (
        "1/s", ("embedding.epoch_examples",),
        ("embedding.skipgram_s", "embedding.cbow_s"),
    ),
    "social.usable_pair_ratio": (
        "ratio", ("social.friend_pairs_used",),
        ("social.friend_pairs_used", "social.friend_pairs_skipped"),
    ),
}


class Recorder:
    """Collects spans from wrapped calls in one thread, in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": self.clock(),
            "end": None,
            "counters": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name, count=None):
        """``fn`` recording one span per call.

        ``name`` is a string or a function of ``(args, kwargs)``.  ``count``,
        if given, maps ``(args, kwargs, result)`` to the span's counters; it
        runs after the span closes, inside a ``trace.count`` span of its own,
        so counting never adds to a layer's self time.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                counting = self._open("trace.count")
                try:
                    span["counters"] = count(args, kwargs, result)
                finally:
                    self._close(counting)
            return result

        return wrapper


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        kids = [(max(c["start"], lo), min(c["end"], hi))
                for c in children.get(span["id"], [])]
        out[span["id"]] = (hi - lo) - _covered(kids)
    return out


def merge(span_lists: list[list[dict]]) -> list[dict]:
    """Spans of several processes as one list with distinct ids."""
    merged: list[dict] = []
    for spans in span_lists:
        offset = len(merged)
        for span in spans:
            parent = span["parent"]
            merged.append(dict(span, id=span["id"] + offset,
                               parent=None if parent is None else parent + offset))
    return merged


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from the spans of one traced run.

    Layers absent from the run report 0.  Every span name must be one of
    ``SELF_TIME_METRICS``.
    """
    known = {span_name: metric for metric, span_name in SELF_TIME_METRICS.items()}
    values = {metric: 0.0 for metric in SELF_TIME_METRICS}
    counts = {metric: 0 for metric in COUNT_METRICS}
    for span_id, seconds in self_times(spans).items():
        span = spans[span_id]
        values[known[span["name"]]] += seconds
        for key, n in span["counters"].items():
            counts[key] += n
    out = {metric: (value, "s") for metric, value in values.items()}
    out.update({metric: (n, "count") for metric, n in counts.items()})
    for metric, (unit, num, den) in RATIO_METRICS.items():
        top = sum(out[m][0] for m in num)
        bottom = sum(out[m][0] for m in den)
        out[metric] = (top / bottom if bottom else 0.0, unit)
    return out


def wrap_cost(calls: int = 20000) -> float:
    """Seconds a ``Recorder`` wrapper adds to one call, measured here."""
    def bare():
        return None

    wrapped = Recorder().wrap(bare, "trace.count")
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        bare()
    mid = clock()
    for _ in range(calls):
        wrapped()
    end = clock()
    return max((end - mid) - (mid - start), 0.0) / calls
