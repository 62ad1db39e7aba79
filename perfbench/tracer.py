"""Run one hashscope CLI command in-process with every layer traced.

Usage: python3 perfbench/tracer.py SPANS_JSON -- CLI_ARGS...

Wraps the public functions of each ``hashscope`` module where their caller
looks them up, calls ``hashscope.cli.main(CLI_ARGS)``, writes the recorded
spans to SPANS_JSON and exits with the command's exit code.  Nothing inside
``src/hashscope`` changes.  Work counters come from the wrapped calls'
arguments and return values only.
"""

from __future__ import annotations

import importlib
import json
import sys

from spans import Recorder


def window_pairs(length: int, window: int) -> int:
    """Ordered (center, context) pairs within ``window`` in one sequence."""
    if length < 2:
        return 0
    if window >= length - 1:
        return length * (length - 1)
    return 2 * window * length - window * (window + 1)


def _train_name(args, kwargs) -> str:
    config = args[1] if len(args) > 1 else kwargs["config"]
    return f"embedding.{config.mode}"


def _count_training(args, kwargs, table) -> dict:
    """Training examples as ``train`` builds them: in-vocabulary tokens of
    each input sequence, sequences shorter than 2 dropped."""
    sentences = args[0] if args else kwargs["sentences"]
    config = args[1] if len(args) > 1 else kwargs["config"]
    index = table.vocab.index
    examples = 0
    for sentence in sentences:
        length = sum(1 for token in sentence if token in index)
        if length < 2:
            continue
        examples += window_pairs(length, config.window) if config.mode == "skipgram" else length
    counters = {
        f"embedding.{config.mode}_examples": examples,
        "embedding.epoch_examples": examples * config.epochs,
    }
    if config.mode == "skipgram":
        counters["embedding.vocab_size"] = len(table.vocab)
    return counters


def _one(name: str):
    return lambda args, kwargs, result: {name: 1}


def _loaded(args, kwargs, result):
    return {"corpus.load_posts": len(result.posts)}


def _kmeans_run(args, kwargs, run):
    return {"temporal.kmeans_runs": 1, "temporal.kmeans_iters": len(run.sse_history)}


def _silhouette_points(args, kwargs, result):
    return {"temporal.silhouette_points": len(args[0])}


def _walk_tokens(args, kwargs, walks):
    return {"social.walk_tokens": sum(len(w) for w in walks)}


def _scored_pairs(args, kwargs, report):
    return {
        "social.pairs_scored": report.n_friend_pairs + report.n_stranger_pairs,
        "social.friend_pairs_used": report.n_friend_pairs,
        "social.friend_pairs_skipped": len(report.skipped_friend_pairs),
    }


# (owner in hashscope, attribute, span name or naming function, counters)
PATCHES = [
    ("cli", "main", "cli.main", None),
    ("cli", "generate_synthetic", "synth.generate", None),
    ("cli", "save_corpus", "corpus.save", None),
    ("cli", "save_friendships", "corpus.save", None),
    ("cli", "save_location_categories", "corpus.save", None),
    ("cli", "load_corpus", "corpus.load", _loaded),
    ("cli", "report_stats", "reports.stats", None),
    ("cli", "render_stats", "reports.render", None),
    ("corpus.Corpus", "share_counts", "corpus.share_counts",
     _one("corpus.share_counts_calls")),
    ("corpus.Corpus", "posts_in_year", "corpus.posts_in_year", None),
    ("corpus.Corpus", "user_hashtags", "corpus.user_hashtags", None),
    ("temporal", "bucket_share_series", "corpus.bucket_series", None),
    ("temporal", "top_k_hashtags", "corpus.top_k", None),
    ("drift", "top_k_hashtags", "corpus.top_k", None),
    ("reports", "top_k_hashtags", "corpus.top_k", None),
    ("temporal", "build_profiles", "temporal.profiles", None),
    ("temporal", "select_k", "temporal.select_k", None),
    ("temporal", "kmeans", "temporal.kmeans", _kmeans_run),
    ("temporal", "silhouette", "temporal.silhouette", _silhouette_points),
    ("temporal", "label_clusters", "temporal.label", None),
    ("temporal", "export_csv", "temporal.export", None),
    ("temporal", "export_centroid_series", "temporal.export", None),
    ("spatial", "category_propensity", "spatial.propensity", None),
    ("spatial", "export_csv", "spatial.export", None),
    ("drift", "drift_analysis", "drift.analysis", None),
    ("drift", "train_yearly", "drift.train_yearly", None),
    ("drift", "train", _train_name, _count_training),
    ("drift", "procrustes_align", "drift.align", _one("drift.align_calls")),
    ("drift", "export_csv", "drift.export", None),
    ("drift", "export_scatter", "drift.export", None),
    ("social", "friendship_eval", "social.eval", _scored_pairs),
    ("social", "build_graph", "social.graph", None),
    ("social", "random_walks", "social.walks", _walk_tokens),
    ("social", "learn_profiles", "social.profiles", None),
    ("social", "train", _train_name, _count_training),
    ("social", "sample_strangers", "social.strangers", None),
    ("social", "auc", "social.auc", None),
    ("social", "export_csv", "social.export", None),
    ("social", "export_summary", "social.export", None),
]


def install(rec: Recorder) -> None:
    for owner_path, attr, name, count in PATCHES:
        module, _, cls = owner_path.partition(".")
        owner = importlib.import_module(f"hashscope.{module}")
        if cls:
            owner = getattr(owner, cls)
        setattr(owner, attr, rec.wrap(getattr(owner, attr), name, count))


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- CLI_ARGS...")
    rec = Recorder()
    install(rec)
    from hashscope import cli
    code = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(rec.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
