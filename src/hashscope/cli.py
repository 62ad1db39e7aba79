"""Command-line front end for the analysis pipelines.

Each subcommand reads a corpus (or generates a synthetic one), runs one
pipeline, and writes its artifacts plus a manifest into the output
directory.  Settings resolve in three layers: built-in defaults, then a flat
key=value config file, then explicit command-line flags.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .corpus import (
    Corpus, CorpusFormatError, QuarterBucket, load_corpus,
    save_corpus, save_friendships, save_location_categories, write_json,
)
from .embedding import TrainConfig, TrainingDivergedError
from .reports import StatsReport, render_stats, report_stats
from .synth import SyntheticSpec, SynthesisError, generate_synthetic
from . import drift as drift_mod
from . import social as social_mod
from . import spatial as spatial_mod
from . import temporal as temporal_mod

# config keys understood in config files and mirrored by flags; each key's
# value is parsed with its default's type
DEFAULTS = {
    "seed": 0,
    "top_k": 1000,
    # synthetic generation
    "users": 300, "hashtags": 185, "posts": 30000, "years_span": 4,
    "periodic": 30, "rising": 90, "stable": 40, "meteor": 15,
    "communities": 8, "drifted": 10,
    "homophily": 0.6, "located_rate": 0.5, "zipf_exponent": 0.7,
    # temporal clustering
    "k_min": 2, "k_max": 8, "restarts": 10,
    "bucket_start_year": 2012, "bucket_end_year": 2015,
    # per-year embedding training
    "dimension": 100, "window": 30, "epochs": 5, "negatives": 5,
    "learning_rate": 0.025, "min_count": 2, "batch_size": 1024,
    "years": "",
    # friendship prediction
    "walk_times": 10, "walk_length": 40, "profile_dim": 64,
    "context_radius": 10, "social_epochs": 5, "social_negatives": 5,
    # spatial
    "categories_top_n": 10,
}


def parse_config_file(path: str | Path) -> dict:
    """Flat key=value lines; blank lines and # comments ignored."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[key] = type(DEFAULTS[key])(value)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad value {value!r} for {key}"
                ) from None
    return out


def _add_key_flags(parser: argparse.ArgumentParser, keys: list[str]) -> None:
    for key in keys:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key,
                            type=type(DEFAULTS[key]), default=None)


def _add_common(parser: argparse.ArgumentParser, needs_input: bool) -> None:
    if needs_input:
        parser.add_argument("--input", required=False, help="corpus posts file")
        parser.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
        parser.add_argument("--friends", help="friendship CSV")
        parser.add_argument("--locations", help="location-category CSV")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--strict", action="store_true",
                        help="reproducible mode: manifest omits timing")
    _add_key_flags(parser, ["seed"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hashscope",
        description="Batch analytics over hashtag-annotated post corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True, help="output corpus JSONL path")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--strict", action="store_true")
    _add_key_flags(p, ["seed", "users", "hashtags", "posts", "years_span",
                       "periodic", "rising", "stable", "meteor", "communities",
                       "drifted", "homophily", "located_rate", "zipf_exponent"])

    p = sub.add_parser("stats", help="descriptive corpus statistics")
    _add_common(p, needs_input=True)
    _add_key_flags(p, ["top_k"])

    p = sub.add_parser("temporal", help="temporal pattern clustering")
    _add_common(p, needs_input=True)
    _add_key_flags(p, ["top_k", "k_min", "k_max", "restarts",
                       "bucket_start_year", "bucket_end_year"])

    p = sub.add_parser("spatial", help="location-category sharing propensity")
    _add_common(p, needs_input=True)
    _add_key_flags(p, ["categories_top_n"])

    p = sub.add_parser("drift", help="year-over-year semantic displacement")
    _add_common(p, needs_input=True)
    _add_key_flags(p, ["top_k", "years", "dimension", "window", "epochs",
                       "negatives", "learning_rate", "min_count", "batch_size"])

    p = sub.add_parser("social", help="hashtag-based friendship prediction")
    _add_common(p, needs_input=True)
    _add_key_flags(p, ["walk_times", "walk_length", "profile_dim",
                       "context_radius", "social_epochs", "social_negatives"])

    p = sub.add_parser("all", help="run every pipeline")
    _add_common(p, needs_input=True)
    _add_key_flags(p, [k for k in DEFAULTS if k != "seed"])
    return parser


def resolve_settings(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _load_input(args: argparse.Namespace) -> Corpus:
    if not args.input:
        raise ValueError("--input is required for this command")
    return load_corpus(
        args.input,
        format=args.format,
        friendships_path=args.friends,
        locations_path=args.locations,
    )


def _spec_from_settings(cfg: dict) -> SyntheticSpec:
    return SyntheticSpec(
        users=cfg["users"], hashtags=cfg["hashtags"], posts=cfg["posts"],
        years=cfg["years_span"],
        periodic=cfg["periodic"], rising=cfg["rising"],
        stable=cfg["stable"], meteor=cfg["meteor"],
        communities=cfg["communities"], drifted=cfg["drifted"],
        homophily=cfg["homophily"], located_rate=cfg["located_rate"],
        zipf_exponent=cfg["zipf_exponent"], seed=cfg["seed"],
    )


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        mode="skipgram",
        dimension=cfg["dimension"], window=cfg["window"],
        negatives=cfg["negatives"], epochs=cfg["epochs"],
        learning_rate=cfg["learning_rate"], min_count=cfg["min_count"],
        batch_size=cfg["batch_size"], seed=cfg["seed"],
    )


def _walk_config(cfg: dict) -> social_mod.WalkConfig:
    return social_mod.WalkConfig(
        walk_times=cfg["walk_times"], walk_length=cfg["walk_length"],
        dimension=cfg["profile_dim"], context_radius=cfg["context_radius"],
        negatives=cfg["social_negatives"], epochs=cfg["social_epochs"],
        seed=cfg["seed"],
    )


def _parse_years(cfg: dict, corpus: Corpus) -> list[int]:
    text = cfg["years"].strip()
    if text:
        if "-" in text:
            lo, hi = text.split("-", 1)
            return list(range(int(lo), int(hi) + 1))
        return sorted(int(y) for y in text.split(","))
    return corpus.years()


def write_manifest(out_dir: Path, command: str, cfg: dict, strict: bool,
                   artifacts: list[str], started: float,
                   skipped: dict[str, str] | None = None) -> None:
    payload = {
        "command": command,
        "settings": {k: cfg[k] for k in sorted(cfg)},
        "strict": strict,
        "versions": {
            "hashscope": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "artifacts": sorted(artifacts),
    }
    if skipped:
        payload["skipped"] = skipped
    if not strict:
        payload["wall_time_s"] = round(time.perf_counter() - started, 3)
    write_json(out_dir / "manifest.json", payload)


def _save_synthetic(corpus: Corpus, posts: Path, stem: str) -> list[str]:
    """Write posts, ``<stem>.friends.csv`` and, if any locations were planted,
    ``<stem>.locations.csv`` side by side; returns the file names."""
    save_corpus(corpus, posts, format="jsonl")
    names = [posts.name, f"{stem}.friends.csv"]
    save_friendships(corpus.friendships, posts.parent / names[1])
    if corpus.location_categories:
        names.append(f"{stem}.locations.csv")
        save_location_categories(corpus.location_categories, posts.parent / names[2])
    return names


def cmd_synth(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    cfg = resolve_settings(args)
    corpus = generate_synthetic(_spec_from_settings(cfg))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    artifacts = _save_synthetic(corpus, out, out.name)
    write_manifest(out.parent, "synth", cfg, args.strict, artifacts, started)
    print(f"wrote {len(corpus.posts)} posts for {len(corpus.users)} users to {out}")
    return 0


# a pipeline that raises one of these is skipped by `all`, not fatal to it
SKIPPABLE = (ValueError, ArithmeticError, TrainingDivergedError)


def _compute_stats(corpus: Corpus, cfg: dict) -> StatsReport:
    return report_stats(corpus, top_k=min(cfg["top_k"], 50))


def _write_stats(report: StatsReport, cfg: dict, out_dir: Path) -> list[str]:
    report.save_json(out_dir / "stats.json")
    print(render_stats(report))
    return ["stats.json"]


def _compute_temporal(corpus: Corpus, cfg: dict):
    bucket_range = (
        QuarterBucket(cfg["bucket_start_year"], 1),
        QuarterBucket(cfg["bucket_end_year"], 4),
    )
    profiles = temporal_mod.build_profiles(corpus, top_k=cfg["top_k"],
                                           bucket_range=bucket_range)
    if not profiles:
        raise ValueError("no hashtags with in-range shares")
    points = np.stack([p.features for p in profiles])
    names = [p.hashtag for p in profiles]
    result = temporal_mod.select_k(
        points, range(cfg["k_min"], cfg["k_max"] + 1),
        seed=cfg["seed"], names=names, restarts=cfg["restarts"],
    )
    return temporal_mod.label_clusters(result, profiles), profiles


def _write_temporal(report, cfg: dict, out_dir: Path) -> list[str]:
    result, profiles = report
    temporal_mod.export_csv(result, profiles, out_dir / "temporal_clusters.csv")
    temporal_mod.export_centroid_series(result, profiles,
                                        out_dir / "temporal_centroids.json")
    print(f"temporal: k={result.k} silhouette={result.silhouette:.3f} "
          f"labels={[result.labels[c] for c in sorted(result.labels)]}")
    return ["temporal_clusters.csv", "temporal_centroids.json"]


def _compute_spatial(corpus: Corpus, cfg: dict) -> list[spatial_mod.CategoryStats]:
    return spatial_mod.category_propensity(corpus, cfg["categories_top_n"])


def _write_spatial(stats: list[spatial_mod.CategoryStats], cfg: dict,
                   out_dir: Path) -> list[str]:
    spatial_mod.export_csv(stats, out_dir / "spatial_propensity.csv")
    for s in stats:
        print(f"spatial: {s.category}: visits {s.visit_share:.3f} "
              f"hashtags {s.hashtag_share:.3f} delta {s.delta:+.3f}")
    return ["spatial_propensity.csv"]


def _compute_drift(corpus: Corpus, cfg: dict) -> drift_mod.DisplacementReport:
    return drift_mod.drift_analysis(
        corpus, _parse_years(cfg, corpus), top_k=cfg["top_k"],
        config=_train_config(cfg),
    )


def _write_drift(report: drift_mod.DisplacementReport, cfg: dict,
                 out_dir: Path) -> list[str]:
    drift_mod.export_csv(report, out_dir / "drift_displacement.csv")
    drift_mod.export_scatter(report, out_dir / "drift_scatter.csv")
    write_json(out_dir / "drift_summary.json", {
        "years": report.years,
        "hashtags_analyzed": len(report.overall),
        "entropy_correlation": report.entropy_correlation,
        "frequency_correlation": report.frequency_correlation,
    })
    print(f"drift: {len(report.overall)} hashtags over {report.years}, "
          f"entropy corr {report.entropy_correlation}")
    return ["drift_displacement.csv", "drift_scatter.csv", "drift_summary.json"]


def _compute_social(corpus: Corpus, cfg: dict) -> social_mod.PredictionReport:
    return social_mod.friendship_eval(corpus, _walk_config(cfg))


def _write_social(report: social_mod.PredictionReport, cfg: dict,
                  out_dir: Path) -> list[str]:
    social_mod.export_csv(report, out_dir / "social_pairs.csv")
    social_mod.export_summary(report, _walk_config(cfg), out_dir / "social_summary.json")
    print("social: AUC " + " ".join(
        f"{k}={v:.3f}" for k, v in sorted(report.auc_scores.items())
    ))
    return ["social_pairs.csv", "social_summary.json"]


# name -> (compute, write): compute returns the pipeline's report and prints
# and writes nothing; write puts the report's artifacts in the output
# directory, prints its stdout line and returns the artifact names
PIPELINES = {
    "stats": (_compute_stats, _write_stats),
    "temporal": (_compute_temporal, _write_temporal),
    "spatial": (_compute_spatial, _write_spatial),
    "drift": (_compute_drift, _write_drift),
    "social": (_compute_social, _write_social),
}


def cmd_pipeline(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    cfg = resolve_settings(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = _load_input(args)
    compute, write = PIPELINES[args.command]
    artifacts = write(compute(corpus, cfg), cfg, out_dir)
    write_manifest(out_dir, args.command, cfg, args.strict, artifacts, started)
    return 0


def _outcome(step, *args) -> tuple[object, str | None]:
    """``(step(*args), None)``, or ``(None, reason)`` if the step failed in a
    way that skips the pipeline."""
    try:
        return step(*args), None
    except SKIPPABLE as exc:
        return None, str(exc)


def _send_outcome(conn, compute, corpus: Corpus, cfg: dict) -> None:
    """Body of the forked worker: compute, then send the outcome back."""
    with conn:
        conn.send(_outcome(compute, corpus, cfg))


@contextmanager
def _in_worker(compute, corpus: Corpus, cfg: dict):
    """Yield a function that returns ``_outcome(compute, corpus, cfg)``.

    Where ``os.fork`` exists and this process may run on more than one CPU,
    the compute starts at once in a worker process created by ``fork``, and
    the function waits for it.  Elsewhere a worker would only compete with
    this process, so the function computes in-process when called.  The
    worker inherits ``corpus`` through the fork, as a ``Process`` argument,
    so the corpus is never pickled; only the outcome comes back pickled.
    Forking is safe here because no other thread runs at that point
    (``hashscope`` pins BLAS to one thread).  A worker that exits without
    sending one gives a skipping failure, not a wait forever.
    """
    one_cpu = not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
    if one_cpu or not hasattr(os, "fork"):
        yield lambda: _outcome(compute, corpus, cfg)
        return
    import multiprocessing
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    worker = context.Process(target=_send_outcome, args=(writer, compute, corpus, cfg))
    worker.start()
    writer.close()

    def outcome() -> tuple[object, str | None]:
        try:
            return reader.recv()
        except (EOFError, OSError):
            worker.join()
            return None, f"worker process exited with code {worker.exitcode} without a result"

    try:
        yield outcome
    except BaseException:
        worker.terminate()  # its result is no longer wanted
        raise
    finally:
        reader.close()
        worker.join()


def cmd_all(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    cfg = resolve_settings(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: list[str] = []
    if args.input:
        corpus = _load_input(args)
    else:
        corpus = generate_synthetic(_spec_from_settings(cfg))
    # drift shares nothing with the other pipelines but the corpus, so where
    # a second CPU is free it trains in a worker while this process saves the
    # corpus and computes the rest; every report is then written in the usual
    # order
    with _in_worker(PIPELINES["drift"][0], corpus, cfg) as drift_outcome:
        if not args.input:
            artifacts += _save_synthetic(corpus, out_dir / "corpus.jsonl", "corpus")
        outcomes = {name: _outcome(compute, corpus, cfg)
                    for name, (compute, _) in PIPELINES.items() if name != "drift"}
        outcomes["drift"] = drift_outcome()
    skipped: dict[str, str] = {}
    for name, (_, write) in PIPELINES.items():
        report, reason = outcomes[name]
        if reason is None:
            written, reason = _outcome(write, report, cfg, out_dir)
        if reason is None:
            artifacts += written
        else:
            print(f"{name}: skipped ({reason})", file=sys.stderr)
            skipped[name] = reason
    write_manifest(out_dir, "all", cfg, args.strict, artifacts, started, skipped)
    return 1 if skipped else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "all":
            return cmd_all(args)
        return cmd_pipeline(args)
    except (FileNotFoundError, CorpusFormatError, SynthesisError) + SKIPPABLE as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
