"""Self-checks for the benchmark code itself; needs no hashscope run.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import csv
import json
import tempfile
import unittest
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import run
import tracer
import workloads
from spans import SELF_TIME_METRICS, Recorder, layer_metrics, merge, self_times, wrap_cost
from tracer import window_pairs
from workloads import CheckFailed, Spec

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def span(id_, name, parent, start, end, **counters):
    return {"id": id_, "name": name, "parent": parent, "start": start, "end": end,
            "counters": counters}


class SelfTime(unittest.TestCase):
    def test_nested(self):
        spans = [
            span(0, "cli.main", None, 0.0, 10.0),
            span(1, "drift.analysis", 0, 1.0, 9.0),
            span(2, "drift.train_yearly", 1, 2.0, 6.0),
            span(3, "embedding.skipgram", 2, 2.5, 5.5),
            span(4, "drift.align", 1, 7.0, 8.0),
        ]
        self.assertEqual(self_times(spans), {0: 2.0, 1: 3.0, 2: 1.0, 3: 3.0, 4: 1.0})

    def test_overlapping_children_counted_once(self):
        spans = [span(0, "a", None, 0.0, 10.0), span(1, "b", 0, 1.0, 5.0),
                 span(2, "c", 0, 4.0, 6.0), span(3, "d", 0, 9.0, 12.0)]
        self.assertAlmostEqual(self_times(spans)[0], 10.0 - 5.0 - 1.0)

    def test_self_times_add_up_to_roots(self):
        spans = [span(0, "cli.main", None, 0.0, 4.0), span(1, "corpus.load", 0, 0.5, 3.0),
                 span(2, "cli.main", None, 5.0, 6.0)]
        self.assertAlmostEqual(sum(self_times(spans).values()), 5.0)

    def test_merge_keeps_parents_within_each_process(self):
        first = [span(0, "cli.main", None, 0, 3), span(1, "corpus.load", 0, 1, 2)]
        second = [span(0, "cli.main", None, 0, 5), span(1, "temporal.select_k", 0, 1, 4)]
        merged = merge([first, second])
        self.assertEqual([s["id"] for s in merged], [0, 1, 2, 3])
        self.assertEqual(merged[3]["parent"], 2)
        self.assertEqual(self_times(merged)[2], 2)

    def test_recorder_nesting_and_counting(self):
        ticks = count()
        rec = Recorder(clock=lambda: float(next(ticks)))
        inner = rec.wrap(lambda x: x + 1, "embedding.cbow",
                         count=lambda a, k, r: {"embedding.cbow_examples": r})
        outer = rec.wrap(lambda x: inner(x) * 2, "social.profiles")
        self.assertEqual(outer(3), 8)
        names = [(s["name"], s["parent"]) for s in rec.spans]
        self.assertEqual(names, [("social.profiles", None), ("embedding.cbow", 0),
                                 ("trace.count", 0)])
        self.assertEqual(rec.spans[1]["counters"], {"embedding.cbow_examples": 4})
        metrics = layer_metrics(rec.spans)
        # the counting span is its own self time, not the caller's
        self.assertEqual(metrics["trace.count_s"], (1.0, "s"))
        self.assertEqual(metrics["social.profiles_self_s"], (5.0 - 0.0 - 1.0 - 1.0, "s"))
        self.assertEqual(metrics["embedding.cbow_examples"], (4, "count"))

    def test_recorder_closes_span_on_error(self):
        rec = Recorder()

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            rec.wrap(boom, "corpus.load")()
        self.assertIsNotNone(rec.spans[0]["end"])
        self.assertEqual(rec._stack, [])

    def test_ratio_with_zero_base_is_zero(self):
        self.assertEqual(layer_metrics([])["corpus.load_posts_per_s"], (0.0, "1/s"))

    def test_unknown_span_name_is_an_error(self):
        with self.assertRaises(KeyError):
            layer_metrics([span(0, "corpus.unlisted", None, 0.0, 1.0)])

    def test_every_traced_name_has_a_metric(self):
        names = set()
        for _, _, name, _ in tracer.PATCHES:
            if callable(name):
                names |= {name((None, SimpleNamespace(mode=mode)), {})
                          for mode in ("skipgram", "cbow")}
            else:
                names.add(name)
        names.add("trace.count")
        self.assertEqual(names - set(SELF_TIME_METRICS.values()), set())

    def test_wrap_cost_is_small(self):
        self.assertLess(wrap_cost(calls=2000), 1e-3)


class Counters(unittest.TestCase):
    def test_window_pairs_matches_enumeration(self):
        for length in range(0, 12):
            for window in range(1, 14):
                brute = sum(1 for i in range(length) for j in range(length)
                            if i != j and abs(i - j) <= window)
                self.assertEqual(window_pairs(length, window), brute, (length, window))


TINY = Spec(users=4, hashtags=12, posts=40, periodic=1, meteor=1)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def tiny_all_output(out: Path) -> None:
    """An ``all`` output directory for TINY that meets every planted check."""
    names = list(workloads.ALL_ARTIFACTS)
    (out / "manifest.json").write_text(json.dumps({"command": "all", "artifacts": names}))
    (out / "stats.json").write_text(json.dumps({"n_posts": 40, "n_users": 4}))
    tags = [f"drift{i:03d}" for i in range(9)] + ["periodic000", "meteor000", "tag0000"]
    labels = {"periodic000": "Periodic", "meteor000": "Meteor", "tag0000": "Stable"}
    _write_csv(out / "temporal_clusters.csv", ["hashtag", "cluster", "label"],
               [[t, 0, labels.get(t, "Rising")] for t in tags])
    (out / "temporal_centroids.json").write_text(json.dumps({"k": 4}))
    _write_csv(out / "spatial_propensity.csv", ["category", "delta"],
               [["park", "0.1"], ["bar", "-0.08"], ["office", "-0.05"]])
    (out / "drift_summary.json").write_text(json.dumps(
        {"hashtags_analyzed": 12, "entropy_correlation": -0.4}))
    _write_csv(out / "drift_displacement.csv", ["hashtag", "overall_displacement"],
               [[t, 1.0 / (i + 1)] for i, t in enumerate(tags)])
    _write_csv(out / "drift_scatter.csv", ["hashtag", "entropy"], [["drift000", "0.5"]])
    (out / "social_summary.json").write_text(json.dumps({
        "auc": {"profile": 0.76, "common": 0.75, "jaccard": 0.75, "preferential": 0.5},
        "n_friend_pairs": 2, "n_stranger_pairs": 2}))
    _write_csv(out / "social_pairs.csv", ["user_a", "label"],
               [["u0", "friend"], ["u1", "friend"], ["u2", "stranger"], ["u3", "stranger"]])


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.out = Path(self._tmp.name)
        tiny_all_output(self.out)

    def tearDown(self):
        self._tmp.cleanup()

    def check(self):
        quality = {}
        workloads.check_all(self.out, TINY, quality)
        return quality

    def test_good_output_passes(self):
        quality = self.check()
        self.assertEqual(quality["temporal_labels"], 4)
        self.assertEqual(quality["drift_planted_top10"], 9)
        self.assertEqual(quality["profile_auc"], 0.76)

    def assertFails(self, fragment):
        with self.assertRaises(CheckFailed) as ctx:
            self.check()
        self.assertIn(fragment, str(ctx.exception))

    def test_missing_artifact(self):
        (self.out / "drift_scatter.csv").unlink()
        self.assertFails("missing artifact drift_scatter.csv")

    def test_unparseable_artifact(self):
        (self.out / "social_summary.json").write_text("{not json")
        self.assertFails("social_summary.json: unreadable")

    def test_planted_drift_missed(self):
        _write_csv(self.out / "drift_displacement.csv", ["hashtag", "overall_displacement"],
                   [["tag0000", 1.0]] * 5 + [[f"drift{i:03d}", 0.1] for i in range(5)])
        self.assertFails("5 planted drift hashtags")

    def test_entropy_correlation_sign(self):
        (self.out / "drift_summary.json").write_text(json.dumps(
            {"hashtags_analyzed": 12, "entropy_correlation": 0.1}))
        self.assertFails("is not negative")

    def test_profile_not_above_preferential(self):
        summary = json.loads((self.out / "social_summary.json").read_text())
        summary["auc"]["profile"] = 0.4
        (self.out / "social_summary.json").write_text(json.dumps(summary))
        self.assertFails("not above preferential")

    def test_averse_category_not_negative(self):
        _write_csv(self.out / "spatial_propensity.csv", ["category", "delta"],
                   [["bar", "0.01"], ["office", "-0.05"]])
        self.assertFails("share-averse category bar")

    def test_planted_periodic_not_recalled(self):
        rows = [[t, 0, "Stable"] for t in ("periodic000", "meteor000")]
        rows[1][2] = "Meteor"
        _write_csv(self.out / "temporal_clusters.csv", ["hashtag", "cluster", "label"],
                   rows + [[f"t{i}", 1, "Rising"] for i in range(10)])
        self.assertFails("0 of 1 planted periodic hashtags")

    def test_planted_hashtag_outside_top_k(self):
        _write_csv(self.out / "temporal_clusters.csv", ["hashtag", "cluster", "label"],
                   [["periodic000", 0, "Periodic"]] + [[f"t{i}", 1, "Stable"] for i in range(11)])
        self.assertFails("0 of 1 planted meteor hashtags in the temporal output")

    def test_planted_class_split_when_labels_not_recovered(self):
        spec = Spec(users=4, hashtags=12, posts=40, periodic=2, meteor=1)
        rows = [["periodic000", 0, "Stable"], ["periodic001", 1, "Stable"], ["meteor000", 0, "Stable"]]
        _write_csv(self.out / "temporal_clusters.csv", ["hashtag", "cluster", "label"],
                   rows + [[f"t{i}", 1, "Stable"] for i in range(9)])
        with self.assertRaises(CheckFailed) as ctx:
            workloads.check_temporal(self.out, 12, spec, {}, labels_recovered=False)
        self.assertIn("planted periodic hashtags split over 2 clusters", str(ctx.exception))
        rows[1][1] = 0
        _write_csv(self.out / "temporal_clusters.csv", ["hashtag", "cluster", "label"],
                   rows + [[f"t{i}", 1, "Stable"] for i in range(9)])
        workloads.check_temporal(self.out, 12, spec, {}, labels_recovered=False)

    def test_unknown_label(self):
        _write_csv(self.out / "temporal_clusters.csv", ["hashtag", "cluster", "label"],
                   [[f"t{i}", 0, "Stable" if i else "Flat"] for i in range(12)])
        self.assertFails("unknown temporal labels")

    def test_quality_recorded_before_a_check_fails(self):
        (self.out / "social_summary.json").write_text(json.dumps({"auc": {"profile": 0.3}}))
        quality = {}
        with self.assertRaises(CheckFailed):
            workloads.check_all(self.out, TINY, quality)
        self.assertEqual(quality["drift_planted_top10"], 9)
        self.assertEqual(quality["profile_auc"], 0.3)

    def test_wrong_post_count(self):
        (self.out / "stats.json").write_text(json.dumps({"n_posts": 39, "n_users": 4}))
        self.assertFails("n_posts 39")

    def test_skipped_pipeline_on_stderr(self):
        workloads.check_stderr("warning: something\n")
        with self.assertRaises(CheckFailed):
            workloads.check_stderr("drift: skipped (need at least 2 years)\n")


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.declared = json.loads(BENCHMARK.read_text())

    def per_layer_emitted(self):
        return set(layer_metrics([])) | set(run.TRACE_ONLY_UNITS)

    def test_syntax(self):
        declared = [m["name"] for m in self.declared["end_to_end"] + self.declared["per_layer"]]
        declared += [w["name"] for w in self.declared["workloads"]]
        self.assertEqual(len(declared), len(set(declared)))
        for name in declared + sorted(self.per_layer_emitted()):
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def test_declared_metrics_are_the_emitted_ones(self):
        self.assertEqual({m["name"] for m in self.declared["end_to_end"]},
                         set(run.END_TO_END_UNITS))
        self.assertEqual({m["name"] for m in self.declared["per_layer"]},
                         self.per_layer_emitted())
        units = dict(run.END_TO_END_UNITS)
        units.update({k: u for k, (v, u) in layer_metrics([]).items()})
        units.update(run.TRACE_ONLY_UNITS)
        for metric in self.declared["end_to_end"] + self.declared["per_layer"]:
            self.assertEqual(metric["unit"], units[metric["name"]], metric["name"])

    def test_workloads_declared(self):
        self.assertEqual({w["name"] for w in self.declared["workloads"]},
                         set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
