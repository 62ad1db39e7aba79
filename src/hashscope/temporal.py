"""Temporal pattern analysis over quarterly share series.

Each hashtag's share-proportion series is summarized into a 13-value feature
vector, feature-standardized, clustered with k-means, and the cluster count
is picked by silhouette.  Clusters are then labeled Stable, Rising, Periodic,
or Meteor from their members' series statistics.

Distances run on BLAS Gram products.  k-means screens each assignment with
``|c|^2 - 2<c, x>`` and decides again from exact distances wherever rounding
could decide differently, so its results are bit-identical to an argmin over
exact distances; the silhouette takes its distances from the Gram form and
recomputes the pairs where that form cancels.  An exact squared distance is
numpy's own pairwise sum over a C-contiguous row of squared differences, so
it has the bits of ``((a[:, None] - b) ** 2).sum(-1)``; k-means sums its
centroids with one ``np.bincount`` per feature.
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

# scratch budget for each of a silhouette block's two rows x n buffers; no
# n x n matrix is ever built
SILHOUETTE_BLOCK_BYTES = 131_072
# k-means screening: a point whose two lowest Gram estimates lie within
# SCREEN_SAFETY * 4 (f + 2) 2**-53 (|x| + max|c|)**2 of each other is assigned
# again from exact distances (see _assign)
SCREEN_SAFETY = 64.0
# silhouette: a pair whose Gram estimate is at most this share of
# |x|**2 + |y|**2 has its distance recomputed from the differences
SILHOUETTE_ZONE = 1.0 / 16


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


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator,
                    work: np.ndarray) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    diff = np.subtract(points, centroids[0], out=work)
    d2 = np.square(diff, out=diff).sum(-1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[i] = points[rng.integers(n)]
            continue
        r = rng.random() * total
        centroids[i] = points[np.searchsorted(np.cumsum(d2), r)]
        diff = np.subtract(points, centroids[i], out=work)
        d2 = np.minimum(d2, np.square(diff, out=diff).sum(-1))
    return centroids


def _assign(centroids: np.ndarray, points: np.ndarray, points_t: np.ndarray,
            norms: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest centroid and its squared distance to it, with the
    bits of ``d2.argmin(axis=1)`` and ``d2[arange(n), argmin]`` for
    ``d2 = np.square(points[:, None] - centroids).sum(-1)``; ``points`` is
    C-contiguous, ``points_t`` its transpose, also C-contiguous, ``norms``
    each point's Euclidean norm and ``work`` an n x f scratch array.

    The assignment is screened with one BLAS product: for a point x and
    centroid c, ``|c|^2 - 2<c, x>`` is their squared distance less
    ``|x|^2``, which no argmin over centroids depends on.  That estimate and
    the exact value (numpy's pairwise sum over a contiguous row of squared
    differences) each lie within about ``(f + 2) 2**-53 (|x| + |c|)^2`` of
    the true distance for f features, so where the two lowest estimates of a
    point differ by more than ``4 (f + 2) 2**-53 (|x| + max|c|)^2``, the
    lowest is the exact argmin, and that argmin is unique.  The margin is
    that bound times SCREEN_SAFETY.  Every point within it takes the argmin
    of its exact distances, which resolves ties to the lowest centroid
    index.  The own distances are exact too: each point's row of squared
    differences from its centroid, built in ``work`` and summed by numpy.
    """
    n, f = points.shape
    cols = np.arange(n)
    sq_c = np.square(centroids).sum(axis=1)
    est = (-2.0 * centroids) @ points_t
    est += sq_c[:, None]
    assignment = est.argmin(axis=0)
    lowest = est[assignment, cols]
    est[assignment, cols] = np.inf
    margin = SCREEN_SAFETY * 4 * (f + 2) * 2.0 ** -53 * np.square(norms + np.sqrt(sq_c.max()))
    unsure = np.flatnonzero(est.min(axis=0) - lowest <= margin)
    if len(unsure):
        assignment[unsure] = np.square(points[unsure, None] - centroids).sum(-1).argmin(axis=1)
    # mode="clip" fills ``work`` directly; "raise" would buffer a copy
    diff = np.subtract(points, np.take(centroids, assignment, axis=0, out=work, mode="clip"),
                       out=work)
    return assignment, np.square(diff, out=diff).sum(-1)


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
    members, summed in point order as ``members.mean(axis=0)`` sums them:
    one ``np.bincount`` per feature adds each cluster's values in sequence.

    Each step assigns the points through ``_assign``, whose results have
    the bits of an argmin over ``np.square(points[:, None] -
    centroids).sum(-1)``.
    """
    # numpy sums a contiguous last axis pairwise but a strided one in
    # sequence: C order gives every exact distance below the same bits
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("points must be a non-empty 2-D array")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(points)
    if k > n:
        raise ValueError(f"k={k} exceeds number of points {n}")
    points_t = np.ascontiguousarray(points.T)
    rng = np.random.default_rng(seed)
    # one n x f scratch array serves the seeding and every own distance: a
    # fresh one per call would be paged in anew whenever glibc trims its heap
    work = np.empty_like(points)
    centroids = _kmeans_pp_init(points, k, rng, work)
    assignment = np.zeros(n, dtype=np.int64)
    sse_history: list[float] = []
    repairs = 0
    norms = np.sqrt(np.square(points).sum(axis=1))
    for _ in range(max_iter):
        new_assignment, dist_own = _assign(centroids, points, points_t, norms, work)
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
        sums = np.column_stack([np.bincount(assignment, weights=x, minlength=k)
                                for x in points_t])
        filled = sizes > 0
        centroids[filled] = sums[filled] / sizes[filled, None]
        if converged:
            break
    return KMeansRun(assignment=assignment, centroids=centroids,
                     sse_history=sse_history, repairs=repairs)


def _block_rows(n: int) -> int:
    """Points per silhouette block: a rows x n array of doubles stays within
    SILHOUETTE_BLOCK_BYTES."""
    return max(1, SILHOUETTE_BLOCK_BYTES // (8 * n))


def silhouette(points: np.ndarray, assignments) -> list[float]:
    """Mean silhouette value of each assignment, with Euclidean distances.

    Points in singleton clusters contribute 0.  Every assignment needs at
    least two non-empty clusters.  Distance rows are computed once, a block
    of points at a time, and shared by all assignments.  A block's squared
    distances come from one BLAS product, as ``|x|^2 + |y|^2 - 2<x, y>``.
    Where that is at most SILHOUETTE_ZONE times ``|x|^2 + |y|^2``,
    cancellation may have eaten its digits, so those pairs (every self pair
    and every duplicate point among them) are recomputed from the feature
    differences; outside that zone the relative error of a squared distance
    stays below ``2 (f + 3) 2**-53 / SILHOUETTE_ZONE`` for f features.  One
    product of the distances with a 0/1 membership matrix, a column per
    cluster of every assignment, then gives every cluster's distance sum.
    """
    # numpy sums a contiguous last axis pairwise but a strided one in
    # sequence: C order gives the recomputed distances the same bits
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = len(points)
    points_t = np.ascontiguousarray(points.T)
    # each assignment's clusters get membership columns from starts[t] on;
    # own[i, t] is the column of point i's cluster in assignment t
    own, sizes, starts = [], [], []
    width = 0
    for assignment in assignments:
        cluster_ids, owner, counts = np.unique(
            assignment, return_inverse=True, return_counts=True)
        if len(cluster_ids) < 2:
            raise ValueError("silhouette requires at least 2 clusters")
        own.append(width + owner)
        sizes.append(counts)
        starts.append(width)
        width += len(counts)
    own = np.stack(own, axis=1)
    sizes = np.concatenate(sizes)
    own_size = sizes[own]
    member = np.zeros((n, width))
    member[np.arange(n)[:, None], own] = 1.0
    sq = np.square(points).sum(axis=1)
    scores = np.zeros((len(starts), n))
    rows = _block_rows(n)
    # two rows x n buffers serve every block
    d2_buf, scale_buf = np.empty((2, min(rows, n), n))
    for start in range(0, n, rows):
        block = slice(start, min(start + rows, n))
        d2 = np.matmul(points[block], points_t, out=d2_buf[:block.stop - start])
        d2 *= -2.0
        scale = np.add(sq[block, None], sq, out=scale_buf[:block.stop - start])
        d2 += scale
        scale *= SILHOUETTE_ZONE
        near_i, near_j = np.nonzero(d2 <= scale)
        d2[near_i, near_j] = np.square(points[start + near_i] - points[near_j]).sum(-1)
        sums = np.sqrt(d2, out=d2) @ member
        # a: mean distance to the rest of the own cluster; b: the least mean
        # distance to another cluster; points in singletons score 0
        at = np.arange(len(d2))[:, None], own[block]
        a = sums[at] / np.maximum(own_size[block] - 1, 1)
        means = sums / sizes
        means[at] = np.inf
        b = np.minimum.reduceat(means, starts, axis=1)
        scores[:, block] = np.divide(b - a, np.maximum(a, b), out=np.zeros_like(a),
                                     where=own_size[block] > 1).T
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


def _series_stats(series: np.ndarray) -> np.ndarray:
    """Per row of ``series``: the lag-4 autocorrelation of the series less
    its least-squares line over x = 0, 1, ..., the line's slope, and the
    largest value.

    The line is the closed form ``slope = sum((x - mx)(y - my)) /
    sum((x - mx)^2)``, ``intercept = my - slope * mx``, for every row at
    once.
    """
    x = np.arange(series.shape[1], dtype=np.float64)
    xc = x - x.mean()
    mean = series.mean(axis=1)
    yc = series - mean[:, None]
    slope = (yc * xc).sum(axis=1) / np.square(xc).sum()
    intercept = mean - slope * x.mean()
    r = series - (slope[:, None] * x + intercept[:, None])
    denom = np.square(r).sum(axis=1)
    # a (near-)perfect linear fit leaves only float noise; call that zero
    fitted = denom <= 1e-12 * np.maximum(np.square(yc).sum(axis=1), 1e-300)
    lagged = (r[:, :-4] * r[:, 4:]).sum(axis=1)
    autocorr = np.divide(lagged, denom, out=np.zeros_like(denom), where=~fitted)
    return np.column_stack([autocorr, slope, series.max(axis=1)])


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
    stats = _series_stats(np.stack([
        np.asarray(by_tag[tag].series, dtype=np.float64) for tag in result.assignment]))
    clusters = np.array(list(result.assignment.values()))
    labels: dict[int, str] = {}
    for cluster in dict.fromkeys(clusters.tolist()):
        autocorr, slope, peak = stats[clusters == cluster].mean(axis=0)
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
