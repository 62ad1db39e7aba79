"""The benchmark's workloads: how each makes its inputs, which CLI commands
it runs, and how each run's outputs are checked.

Every input comes from the benchmark seed; the program sees only the
generated files and the ``--seed`` flag.  The output checks are planted-truth
properties the seed program meets on each workload's spec (see README.md
for the seeds they were confirmed on).
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LABELS = {"Stable", "Rising", "Periodic", "Meteor"}
SKIPPED = re.compile(r"^\w+: skipped \(", re.MULTILINE)
# location categories the synthetic generator plants as share-averse
AVERSE_CATEGORIES = ("bar", "office")
# planted drift hashtags among the 10 most displaced; the seed program put
# 8-10 there at the demo spec, a broken trainer about 0.5
MIN_PLANTED_TOP10 = 6

ALL_ARTIFACTS = (
    "manifest.json", "stats.json", "temporal_clusters.csv", "temporal_centroids.json",
    "spatial_propensity.csv", "drift_displacement.csv", "drift_scatter.csv",
    "drift_summary.json", "social_pairs.csv", "social_summary.json",
)


class CheckFailed(Exception):
    """An output does not hold what the workload's spec plants."""


@dataclass(frozen=True)
class Spec:
    """The synthetic corpus a workload runs on: CLI defaults plus overrides."""

    users: int = 300
    hashtags: int = 185
    posts: int = 30000
    periodic: int = 30  # planted class sizes, as the CLI defaults
    meteor: int = 15

    def synth_flags(self) -> list[str]:
        return ["--users", str(self.users), "--hashtags", str(self.hashtags),
                "--posts", str(self.posts)]


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Spec
    # (seed, input dir) -> list of CLI argument lists that make the inputs
    setup_commands: Callable[[int, Path], list[list[str]]]
    # (seed, input dir, output root) -> list of CLI argument lists
    commands: Callable[[int, Path, Path], list[list[str]]]
    # (output root, spec, quality) fills quality figures as it reads them;
    # raises CheckFailed
    check: Callable[[Path, Spec, dict], None]
    # input files converted to CSV after the setup commands ran
    csv_inputs: bool = False
    # set-ups made before each invocation; setup_s is their median
    setup_repeats: int = 1


# ---- output readers -------------------------------------------------------

def _json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: unreadable ({exc})") from None


def _csv(path: Path) -> list[dict]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, csv.Error) as exc:
        raise CheckFailed(f"{path.name}: unreadable ({exc})") from None
    if not rows:
        raise CheckFailed(f"{path.name}: no rows")
    return rows


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_manifest(out: Path, command: str, required: tuple[str, ...]) -> None:
    manifest = _json(out / "manifest.json")
    _expect(manifest.get("command") == command,
            f"manifest command {manifest.get('command')!r}, expected {command!r}")
    listed = set(manifest.get("artifacts", []))
    for name in required:
        if name != "manifest.json":
            _expect(name in listed, f"manifest does not list {name}")
    for name in listed | set(required):
        _expect((out / name).is_file(), f"missing artifact {name}")


def check_stats(out: Path, spec: Spec) -> None:
    stats = _json(out / "stats.json")
    _expect(stats.get("n_posts") == spec.posts,
            f"stats n_posts {stats.get('n_posts')}, expected {spec.posts}")
    _expect(stats.get("n_users") == spec.users,
            f"stats n_users {stats.get('n_users')}, expected {spec.users}")


def _recalled(rows: list[dict], label: str, prefix: str) -> tuple[int, int]:
    """(hashtags given ``label``, how many of them are planted ``prefix`` tags)."""
    tags = [r["hashtag"] for r in rows if r["label"] == label]
    return len(tags), sum(t.startswith(prefix) for t in tags)


def check_temporal(out: Path, n_hashtags: int, spec: Spec, quality: dict,
                   labels_recovered: bool = True) -> None:
    """Every planted periodic and meteor hashtag ranks inside the top-k, so
    each must have a row.  Where the workload's spec lets the seed program
    recover the planted labels, at least 80% of the planted periodic and of
    the planted meteor hashtags must carry their label; elsewhere each
    planted class must at least fall into a single cluster."""
    rows = _csv(out / "temporal_clusters.csv")
    labels = {r["label"] for r in rows}
    periodic, periodic_planted = _recalled(rows, "Periodic", "periodic")
    meteor, meteor_planted = _recalled(rows, "Meteor", "meteor")
    quality.update(
        temporal_labels=len(labels),
        periodic_labelled=periodic,
        periodic_planted_recalled=periodic_planted,
        meteor_labelled=meteor,
        meteor_planted_recalled=meteor_planted,
    )
    _expect(len(rows) == n_hashtags,
            f"temporal clustered {len(rows)} hashtags, expected {n_hashtags}")
    _expect(labels <= LABELS, f"unknown temporal labels {labels - LABELS}")
    centroids = _json(out / "temporal_centroids.json")
    _expect(2 <= centroids.get("k", 0) <= 8, f"temporal k={centroids.get('k')}")
    for prefix, planted in (("periodic", spec.periodic), ("meteor", spec.meteor)):
        clusters = {r["cluster"] for r in rows if r["hashtag"].startswith(prefix)}
        found = sum(r["hashtag"].startswith(prefix) for r in rows)
        _expect(found == planted,
                f"{found} of {planted} planted {prefix} hashtags in the temporal output")
        _expect(labels_recovered or len(clusters) == 1,
                f"planted {prefix} hashtags split over {len(clusters)} clusters")
    _expect(not labels_recovered or periodic_planted >= 0.8 * spec.periodic,
            f"{periodic_planted} of {spec.periodic} planted periodic hashtags labelled Periodic")
    _expect(not labels_recovered or meteor_planted >= 0.8 * spec.meteor,
            f"{meteor_planted} of {spec.meteor} planted meteor hashtags labelled Meteor")


def check_spatial(out: Path) -> None:
    rows = {r["category"]: float(r["delta"]) for r in _csv(out / "spatial_propensity.csv")}
    for category in AVERSE_CATEGORIES:
        _expect(category in rows, f"spatial output lacks category {category}")
        _expect(rows[category] < 0,
                f"planted share-averse category {category} has delta {rows[category]:+.3f}")


def check_drift(out: Path, n_hashtags: int, quality: dict) -> None:
    summary = _json(out / "drift_summary.json")
    ranked = _csv(out / "drift_displacement.csv")
    top10 = sum(r["hashtag"].startswith("drift") for r in ranked[:10])
    quality.update(drift_planted_top10=top10,
                   entropy_correlation=summary.get("entropy_correlation"))
    _expect(summary.get("hashtags_analyzed") == n_hashtags,
            f"drift analysed {summary.get('hashtags_analyzed')} hashtags, expected {n_hashtags}")
    corr = summary.get("entropy_correlation")
    _expect(isinstance(corr, float) and corr < 0,
            f"entropy-displacement correlation {corr} is not negative")
    _expect(top10 >= MIN_PLANTED_TOP10,
            f"{top10} planted drift hashtags in the displacement top 10, "
            f"expected at least {MIN_PLANTED_TOP10}")
    _csv(out / "drift_scatter.csv")


def check_social(out: Path, quality: dict) -> None:
    summary = _json(out / "social_summary.json")
    auc = summary.get("auc", {})
    quality.update(profile_auc=auc.get("profile"), preferential_auc=auc.get("preferential"))
    _expect(set(auc) == {"profile", "common", "jaccard", "preferential"},
            f"social AUC methods {sorted(auc)}")
    _expect(auc["profile"] > auc["preferential"],
            f"profile AUC {auc['profile']:.3f} not above preferential "
            f"attachment {auc['preferential']:.3f}")
    _expect(summary["n_friend_pairs"] > 0
            and summary["n_friend_pairs"] == summary["n_stranger_pairs"],
            "social scored no friend pairs or unequal stranger pairs")
    rows = _csv(out / "social_pairs.csv")
    _expect(len(rows) == 2 * summary["n_friend_pairs"], "social_pairs.csv row count")


def check_all(out: Path, spec: Spec, quality: dict) -> None:
    check_manifest(out, "all", ALL_ARTIFACTS)
    check_stats(out, spec)
    check_temporal(out, spec.hashtags, spec, quality)
    check_spatial(out)
    check_drift(out, spec.hashtags, quality)
    check_social(out, quality)


# ---- workloads ------------------------------------------------------------

DEMO = Spec()
WIDE = Spec(users=1000, hashtags=3000, posts=40_000)
WIDE_TOP_K = 2000


def _start_only(seed: int, inputs: Path) -> list[list[str]]:
    """The program generates its own corpus; set-up is one CLI start, so
    ``setup_s`` here is interpreter start plus the CLI's imports."""
    return [["--help"]]


def _wide_setup(seed: int, inputs: Path) -> list[list[str]]:
    return [["synth", "--seed", str(seed), *WIDE.synth_flags(),
             "--out", str(inputs / "corpus.jsonl")]]


def _demo_commands(seed, inputs, out):
    return [["all", "--seed", str(seed), "--strict", "--out", str(out)]]


def _demo_check(out, spec, quality):
    check_all(out, spec, quality)
    check_manifest(out, "all", ("corpus.jsonl", "corpus.friends.csv", "corpus.locations.csv"))


def _wide_commands(seed, inputs, out):
    common = ["--input", str(inputs / "corpus.csv"), "--format", "csv",
              "--seed", str(seed), "--strict"]
    locations = str(inputs / "corpus.jsonl.locations.csv")
    return [
        ["stats", *common, "--out", str(out / "stats")],
        ["temporal", *common, "--top-k", str(WIDE_TOP_K), "--out", str(out / "temporal")],
        ["spatial", *common, "--locations", locations, "--out", str(out / "spatial")],
    ]


def _wide_check(out, spec, quality):
    check_manifest(out / "stats", "stats", ("manifest.json", "stats.json"))
    check_stats(out / "stats", spec)
    check_manifest(out / "temporal", "temporal",
                   ("temporal_clusters.csv", "temporal_centroids.json"))
    # at this spec the seed program labels no planted periodic hashtag
    # Periodic, and on some seeds no planted meteor hashtag Meteor (README.md,
    # findings), so only the clustering of the planted classes is required
    check_temporal(out / "temporal", WIDE_TOP_K, spec, quality, labels_recovered=False)
    check_manifest(out / "spatial", "spatial", ("spatial_propensity.csv",))
    check_spatial(out / "spatial")


WORKLOADS = {
    w.name: w for w in (
        # a CLI start is short and noisy, so it is sampled more often
        Workload("demo-all", DEMO, _start_only, _demo_commands, _demo_check,
                 setup_repeats=3),
        Workload("wide-cli", WIDE, _wide_setup, _wide_commands, _wide_check,
                 csv_inputs=True),
    )
}


def jsonl_to_csv(src: Path, dst: Path) -> None:
    """The post file in the CLI's CSV format (header user,time,hashtags,location)."""
    with open(src, encoding="utf-8") as fh, open(dst, "w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["user", "time", "hashtags", "location"])
        for line in fh:
            post = json.loads(line)
            writer.writerow([post["user"], post["time"], ";".join(post["hashtags"]),
                             post["location"] or ""])


def check_stderr(text: str) -> None:
    match = SKIPPED.search(text)
    if match:
        line = text[match.start():].splitlines()[0]
        raise CheckFailed(f"pipeline skipped: {line}")
