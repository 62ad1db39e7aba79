"""Temporal pattern analysis over quarterly share series.

Each hashtag's share-proportion series is summarized into a 13-value feature
vector, feature-standardized, clustered with k-means, and the cluster count
is picked by silhouette.  Clusters are then labeled Stable, Rising, Periodic,
or Meteor from their members' series statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .corpus import (Corpus, QuarterBucket, bucket_share_series, top_k_hashtags,
                     DEFAULT_BUCKET_RANGE, write_csv, write_json)

SERIES_LENGTH = 16
N_FEATURES = 13

FEATURE_NAMES = [
    "series_std",
    "top1", "top2", "top3",
    "top3_mean", "top3_std", "top3_index_std",
    "bottom1", "bottom2", "bottom3",
    "bottom3_mean", "bottom3_std", "bottom3_index_std",
]

LABELS = ("Stable", "Rising", "Periodic", "Meteor")

# scratch budget for one block of silhouette distance rows; no n x n matrix
# is ever built.  A block keeps at most SILHOUETTE_LIVE_ROWS arrays of
# rows x n floats alive: the distance kernel's 8 partial sums, its newest
# term and the difference squared into it, then the distances and their
# permuted copies.
SILHOUETTE_BLOCK_BYTES = 1_500_000
SILHOUETTE_LIVE_ROWS = 10


@dataclass(frozen=True)
class LabelThresholds:
    """Cutoffs for the cluster labeling heuristics."""

    periodic_autocorr: float = 0.3    # lag-4 autocorrelation of detrended series
    rising_slope: float = 0.005       # linear-fit slope per quarter
    meteor_peak_mass: float = 0.5     # largest single-bucket share


@dataclass
class TemporalProfile:
    hashtag: str
    series: np.ndarray     # 16 share proportions, sum 1
    features: np.ndarray   # 13 derived values


@dataclass
class ClusterResult:
    k: int
    assignment: dict[str, int]
    centroids: np.ndarray            # k x n_features, in standardized space
    silhouette: float
    labels: dict[int, str] = field(default_factory=dict)
    sse: float = 0.0
    sse_history: list[float] = field(default_factory=list)


def extract_features(series: np.ndarray) -> np.ndarray:
    """13 ordered summary features of each 16-quarter share series.

    ``series`` holds one series on its last axis, or a stack of them; the
    features take the place of that axis.  Order: overall std; the 3 largest
    values (descending); their mean, std, and index std; the 3 smallest
    values (ascending); their mean, std, and index std.  Population std
    throughout; value ties resolve to the lowest index.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim == 0 or series.shape[-1] != SERIES_LENGTH:
        raise ValueError(f"series must have length {SERIES_LENGTH}, got shape {series.shape}")
    # a stable sort keeps tied values in index order
    desc = np.argsort(-series, axis=-1, kind="stable")[..., :3]
    asc = np.argsort(series, axis=-1, kind="stable")[..., :3]
    top_vals = np.take_along_axis(series, desc, axis=-1)
    bot_vals = np.take_along_axis(series, asc, axis=-1)
    return np.stack([
        series.std(axis=-1),
        top_vals[..., 0], top_vals[..., 1], top_vals[..., 2],
        top_vals.mean(axis=-1), top_vals.std(axis=-1), desc.astype(np.float64).std(axis=-1),
        bot_vals[..., 0], bot_vals[..., 1], bot_vals[..., 2],
        bot_vals.mean(axis=-1), bot_vals.std(axis=-1), asc.astype(np.float64).std(axis=-1),
    ], axis=-1)


def build_profiles(
    corpus: Corpus,
    top_k: int = 1000,
    bucket_range: tuple[QuarterBucket, QuarterBucket] = DEFAULT_BUCKET_RANGE,
) -> list[TemporalProfile]:
    """Profiles for the top-k most shared hashtags with in-range activity."""
    series_map = bucket_share_series(corpus, bucket_range)
    tags = [tag for tag in top_k_hashtags(corpus, top_k) if tag in series_map]
    if not tags:
        return []
    series = np.stack([series_map[tag] for tag in tags])
    features = extract_features(series)
    return [TemporalProfile(tag, s, f) for tag, s, f in zip(tags, series, features)]


def standardize(points: np.ndarray) -> np.ndarray:
    """Z-score per feature; constant features pass through unscaled."""
    points = np.asarray(points, dtype=np.float64)
    mean = points.mean(axis=0)
    std = points.std(axis=0)
    std[std == 0.0] = 1.0
    return (points - mean) / std


def _sq_distances(a_t: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the columns of two feature-major
    operands: ``a_t`` is features x m, ``b_t`` features x n, the result m x n.

    One m x n term is built per feature, and the terms are added in the
    order numpy's pairwise ``sum`` uses over a contiguous axis of up to 128
    values: in sequence below 8 terms; otherwise 8 partial sums, each later
    full group of 8 terms added into them, combined as a tree, then the
    remainder in sequence.  So the result has the bits of
    ``((a[:, None] - b) ** 2).sum(-1)`` for ``a = a_t.T`` and ``b = b_t.T``,
    without that expression's m x n x features tensor.
    """
    terms = (np.square(a[:, None] - b) for a, b in zip(a_t, b_t))
    if len(a_t) < 8:
        total = next(terms)
    else:
        p = [next(terms) for _ in range(8)]
        for _ in range(len(a_t) // 8 - 1):
            for partial in p:
                partial += next(terms)
        # ((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7)), in place
        for i, j in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
            p[i] += p[j]
        total = p[0]
    for term in terms:
        total += term
    return total


def _kmeans_pp_init(points: np.ndarray, points_t: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = _sq_distances(centroids[:1].T, points_t)[0]
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[i] = points[rng.integers(n)]
            continue
        r = rng.random() * total
        centroids[i] = points[np.searchsorted(np.cumsum(d2), r)]
        d2 = np.minimum(d2, _sq_distances(centroids[i:i + 1].T, points_t)[0])
    return centroids


@dataclass
class KMeansRun:
    assignment: np.ndarray
    centroids: np.ndarray
    sse_history: list[float]
    repairs: int

    @property
    def sse(self) -> float:
        return self.sse_history[-1]


def kmeans(points: np.ndarray, k: int, seed: int = 0, max_iter: int = 300) -> KMeansRun:
    """Lloyd's iteration with k-means++ seeding.

    An empty cluster is repaired by reseeding its centroid at the point
    farthest from its assigned centroid; the within-cluster SSE is checked
    to be non-increasing on every iteration.  A centroid is the mean of its
    members, summed in point order as ``members.mean(axis=0)`` sums them.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("points must be a non-empty 2-D array")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n, f = points.shape
    if k > n:
        raise ValueError(f"k={k} exceeds number of points {n}")
    points_t = np.ascontiguousarray(points.T)
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, points_t, k, rng)
    assignment = np.zeros(n, dtype=np.int64)
    sse_history: list[float] = []
    repairs = 0
    for _ in range(max_iter):
        d2 = _sq_distances(centroids.T, points_t)
        new_assignment = d2.argmin(axis=0)
        dist_own = d2[new_assignment, np.arange(n)]
        sizes = np.bincount(new_assignment, minlength=k)
        if not sizes.all():
            # a repair can empty the cluster it takes its point from
            for c in range(k):
                if sizes[c]:
                    continue
                far = int(dist_own.argmax())
                centroids[c] = points[far]
                sizes[new_assignment[far]] -= 1
                sizes[c] += 1
                new_assignment[far] = c
                dist_own[far] = 0.0
                repairs += 1
        sse = float(dist_own.sum())

        if sse_history and sse > sse_history[-1] * (1 + 1e-12) + 1e-12:
            raise AssertionError(f"k-means SSE increased: {sse_history[-1]} -> {sse}")
        sse_history.append(sse)
        converged = (new_assignment == assignment).all() and len(sse_history) > 1
        assignment = new_assignment
        # value j of a point in cluster c goes to bin c * f + j
        sums = np.bincount((assignment[:, None] * f + np.arange(f)).ravel(),
                           weights=points.ravel(), minlength=k * f).reshape(k, f)
        filled = sizes > 0
        centroids[filled] = sums[filled] / sizes[filled, None]
        if converged:
            break
    return KMeansRun(assignment=assignment, centroids=centroids,
                     sse_history=sse_history, repairs=repairs)


def _block_rows(n: int) -> int:
    """Points per silhouette block: the block's few live rows x n distance
    terms stay within SILHOUETTE_BLOCK_BYTES."""
    return max(1, SILHOUETTE_BLOCK_BYTES // (8 * n * SILHOUETTE_LIVE_ROWS))


def silhouette(points: np.ndarray, assignments) -> list[float]:
    """Mean silhouette value of each assignment, with Euclidean distances.

    Points in singleton clusters contribute 0.  Every assignment needs at
    least two non-empty clusters.  Distance rows are computed once, a block
    of points at a time, and shared by all assignments.  Each block is
    permuted by a stable sort of the assignment, so a cluster's distances
    form one contiguous slice holding the same values in the same order as a
    boolean mask selects them, and every sum has the bits of a per-point,
    per-assignment loop.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    points_t = np.ascontiguousarray(points.T)
    layouts = []
    for assignment in assignments:
        cluster_ids, owner, sizes = np.unique(
            assignment, return_inverse=True, return_counts=True)
        if len(cluster_ids) < 2:
            raise ValueError("silhouette requires at least 2 clusters")
        order = np.argsort(owner, kind="stable")
        layouts.append((order, np.cumsum(sizes)[:-1], owner, sizes))
    scores = np.zeros((len(layouts), n))
    rows = _block_rows(n)
    for start in range(0, n, rows):
        dist = np.sqrt(_sq_distances(points_t[:, start:start + rows], points_t))
        for score, (order, cuts, owner, sizes) in zip(scores, layouts):
            # dist[:, order] is not C-contiguous, and its row sums would round
            # differently from a 1-D sum; the copy makes every row contiguous
            by_cluster = np.split(np.ascontiguousarray(dist[:, order]), cuts, axis=1)
            sums = np.stack([part.sum(axis=1) for part in by_cluster], axis=1)
            own = owner[start:start + rows]
            kept = np.flatnonzero(sizes[own] > 1)
            own = own[kept]
            a = sums[kept, own] / (sizes[own] - 1)
            means = sums[kept] / sizes
            means[np.arange(len(kept)), own] = np.inf
            b = means.min(axis=1)
            score[start + kept] = (b - a) / np.maximum(a, b)
    return [float(score.mean()) for score in scores]


def select_k(
    points: np.ndarray,
    k_range: range | list[int],
    seed: int = 0,
    names: list[str] | None = None,
    restarts: int = 10,
) -> ClusterResult:
    """Cluster at each k (best SSE of several restarts) and keep the k with
    the highest silhouette.  Input features are standardized here.
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("empty k range")
    if any(k < 2 or k > 10 for k in ks):
        raise ValueError(f"k range must lie within [2, 10], got {ks}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if ks[-1] > len(points):
        raise ValueError(f"k range reaches {ks[-1]} but there are only {len(points)} "
                         f"points to cluster; lower --k-max")
    pts = standardize(points)
    if names is None:
        names = [str(i) for i in range(len(pts))]
    runs: list[KMeansRun] = []
    for k in ks:
        run_best: KMeansRun | None = None
        for r in range(restarts):
            run = kmeans(pts, k, seed=seed * 1000 + k * 37 + r)
            if run_best is None or run.sse < run_best.sse:
                run_best = run
        runs.append(run_best)
    scores = silhouette(pts, [run.assignment for run in runs])
    best: ClusterResult | None = None
    for k, run, score in zip(ks, runs, scores):
        if best is None or score > best.silhouette:
            best = ClusterResult(
                k=k,
                assignment={names[i]: int(c) for i, c in enumerate(run.assignment)},
                centroids=run.centroids,
                silhouette=score,
                sse=run.sse,
                sse_history=run.sse_history,
            )
    return best


def _detrended_lag4_autocorr(x: np.ndarray, slope: float, intercept: float) -> float:
    """Lag-4 autocorrelation of ``x`` less its linear fit."""
    r = x - (slope * np.arange(len(x)) + intercept)
    denom = (r ** 2).sum()
    # a (near-)perfect linear fit leaves only float noise; call that zero
    if denom <= 1e-12 * max(((x - x.mean()) ** 2).sum(), 1e-300):
        return 0.0
    return float((r[:-4] * r[4:]).sum() / denom)


def label_clusters(
    result: ClusterResult,
    profiles: list[TemporalProfile],
    thresholds: LabelThresholds = LabelThresholds(),
) -> ClusterResult:
    """Attach a temporal label to every cluster.

    Per-member series statistics are averaged within each cluster: lag-4
    autocorrelation of the detrended series marks Periodic, a dominant
    positive slope marks Rising, a dominant single bucket marks Meteor, and
    anything else falls back to Stable.
    """
    by_tag = {p.hashtag: p for p in profiles}
    stats: dict[int, list[np.ndarray]] = {}
    for tag, cluster in result.assignment.items():
        series = np.asarray(by_tag[tag].series, dtype=np.float64)
        # one fit per series: a batched 2-D polyfit rounds differently
        slope, intercept = np.polyfit(np.arange(len(series)), series, 1)
        row = np.array([
            _detrended_lag4_autocorr(series, slope, intercept),
            slope,
            float(np.max(series)),
        ])
        stats.setdefault(cluster, []).append(row)
    labels: dict[int, str] = {}
    for cluster, rows in stats.items():
        autocorr, slope, peak = np.mean(rows, axis=0)
        if autocorr > thresholds.periodic_autocorr:
            labels[cluster] = "Periodic"
        elif slope > thresholds.rising_slope:
            labels[cluster] = "Rising"
        elif peak > thresholds.meteor_peak_mass:
            labels[cluster] = "Meteor"
        else:
            labels[cluster] = "Stable"
    return replace(result, labels=labels)


def export_csv(result: ClusterResult, profiles: list[TemporalProfile],
               path: str | Path) -> None:
    """hashtag, 16 series values, 13 features, cluster id, label."""
    write_csv(path, ["hashtag"] + [f"q{i}" for i in range(SERIES_LENGTH)]
              + FEATURE_NAMES + ["cluster", "label"],
              ([p.hashtag]
               + [repr(float(x)) for x in p.series]
               + [repr(float(x)) for x in p.features]
               + [result.assignment[p.hashtag],
                  result.labels.get(result.assignment[p.hashtag], "")]
               for p in sorted(profiles, key=lambda p: p.hashtag)))


def export_centroid_series(result: ClusterResult, profiles: list[TemporalProfile],
                           path: str | Path) -> None:
    """JSON plot data: mean share series per cluster."""
    by_tag = {p.hashtag: p for p in profiles}
    series: dict[int, list[np.ndarray]] = {}
    for tag, cluster in result.assignment.items():
        series.setdefault(cluster, []).append(by_tag[tag].series)
    write_json(path, {
        "k": result.k,
        "silhouette": result.silhouette,
        "clusters": [
            {
                "cluster": c,
                "label": result.labels.get(c, ""),
                "size": len(series[c]),
                "mean_series": [float(x) for x in np.mean(series[c], axis=0)],
            }
            for c in sorted(series)
        ],
    })
