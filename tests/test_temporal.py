import numpy as np
import pytest

from hashscope import temporal
from hashscope.synth import SyntheticSpec, generate_synthetic
from hashscope.temporal import (
    ClusterResult,
    LabelThresholds,
    TemporalProfile,
    build_profiles,
    extract_features,
    kmeans,
    label_clusters,
    select_k,
    silhouette,
    standardize,
    _assign,
    _block_rows,
    _series_stats,
)


def make_blobs(centers, n_per, spread, seed=0):
    rng = np.random.default_rng(seed)
    points, labels = [], []
    for i, c in enumerate(centers):
        points.append(rng.normal(0, spread, (n_per, len(c))) + np.asarray(c))
        labels += [i] * n_per
    return np.vstack(points), np.array(labels)


class TestExtractFeatures:
    def test_uniform_series(self):
        series = np.full(16, 1 / 16)
        f = extract_features(series)
        # independent oracle: population std of tie-broken indices {0,1,2}
        idx_std = np.std([0, 1, 2])
        expected = np.array([
            0.0,
            1 / 16, 1 / 16, 1 / 16,
            1 / 16, 0.0, idx_std,
            1 / 16, 1 / 16, 1 / 16,
            1 / 16, 0.0, idx_std,
        ])
        assert np.allclose(f, expected, atol=1e-12)

    def test_point_mass(self):
        series = np.zeros(16)
        series[0] = 1.0
        f = extract_features(series)
        assert np.allclose(f[1:4], [1.0, 0.0, 0.0])
        assert f[4] == pytest.approx(1 / 3)

    def test_periodic_peak_index_std(self):
        series = np.zeros(16)
        series[[0, 4, 8]] = 1 / 3
        f = extract_features(series)
        assert f[6] == pytest.approx(np.std([0, 4, 8]))
        assert f[6] == pytest.approx(3.2659, abs=1e-4)

    def test_value_ties_take_lowest_index(self):
        series = np.full(16, 1 / 16)
        f = extract_features(series)
        assert f[6] == pytest.approx(np.std([0, 1, 2]))
        assert f[12] == pytest.approx(np.std([0, 1, 2]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length 16"):
            extract_features(np.ones(12) / 12)

    def test_permutation_changes_only_index_features(self):
        rng = np.random.default_rng(3)
        series = rng.random(16)
        series /= series.sum()
        perm = rng.permutation(16)
        f1 = extract_features(series)
        f2 = extract_features(series[perm])
        value_slots = [0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11]
        assert np.allclose(f1[value_slots], f2[value_slots])


def reference_extract_features(series):
    """The per-series lexsort version that ran before features were
    computed for a stack of series at once; kept as the bit-exact reference."""
    series = np.asarray(series, dtype=np.float64)
    idx = np.arange(16)
    desc = np.lexsort((idx, -series))[:3]
    asc = np.lexsort((idx, series))[:3]
    top_vals = series[desc]
    bot_vals = series[asc]
    return np.array([
        series.std(),
        top_vals[0], top_vals[1], top_vals[2],
        top_vals.mean(), top_vals.std(), desc.astype(np.float64).std(),
        bot_vals[0], bot_vals[1], bot_vals[2],
        bot_vals.mean(), bot_vals.std(), asc.astype(np.float64).std(),
    ])


class TestStackedFeaturesMatchReference:
    def series_with_ties(self, rng, n):
        series = rng.random((n, 16))
        series[::3, 4:9] = series[::3, :1]          # a run of tied values
        series[1::5] = np.round(series[1::5], 1)    # ties scattered by rounding
        series[::7] = 1.0                           # every value tied
        series[2::11, 5:] = 0.0                     # many tied zeros
        return series / series.sum(axis=1, keepdims=True)

    def test_stack_matches_per_series_lexsort(self):
        series = self.series_with_ties(np.random.default_rng(31), 500)
        expected = np.stack([reference_extract_features(s) for s in series])
        assert np.array_equal(extract_features(series), expected)

    def test_one_series_matches(self):
        for s in self.series_with_ties(np.random.default_rng(32), 40):
            assert np.array_equal(extract_features(s), reference_extract_features(s))

    def test_build_profiles_rows_match(self, clustered):
        _, profiles = clustered
        for p in profiles:
            assert np.array_equal(p.features, reference_extract_features(p.series))


class TestSqDistances:
    """Every exact squared distance is numpy's own sum over a C-contiguous
    row of squared differences, whatever the layout of the input."""

    @staticmethod
    def spread_points(rng, n, n_features):
        # magnitudes spread over six decades, so a changed summation order
        # shows in the last bits
        scale = 10.0 ** rng.uniform(-3, 3, n_features)
        return rng.normal(size=(n, n_features)) * scale

    @pytest.mark.parametrize("n_features", [1, 2, 7, 8, 9, 13, 15, 16, 17, 24, 40])
    def test_matches_numpy_sum(self, n_features):
        rng = np.random.default_rng(n_features)
        a = self.spread_points(rng, 6, n_features)
        b = self.spread_points(rng, 300, n_features)
        expected = ((b[:, None] - a) ** 2).sum(-1)
        nearest = expected.argmin(axis=1)
        assignment, own = _assign(a, b, np.ascontiguousarray(b.T),
                                  np.sqrt(np.square(b).sum(axis=1)), np.empty_like(b))
        assert np.array_equal(assignment, nearest)
        assert own.tobytes() == expected[np.arange(300), nearest].tobytes()

    def test_strided_operands(self):
        # C-ordered, Fortran-ordered and column-strided copies of one point set
        points = self.spread_points(np.random.default_rng(13), 300, 13)
        wide = np.zeros((300, 26))
        wide[:, ::2] = points
        layouts = [points, np.asfortranarray(points), wide[:, ::2]]
        for k in (2, 5, 9):
            runs = [kmeans(p, k, seed=k) for p in layouts]
            for run in runs[1:]:
                assert run.assignment.tobytes() == runs[0].assignment.tobytes()
                assert run.centroids.tobytes() == runs[0].centroids.tobytes()
                assert (np.array(run.sse_history).tobytes()
                        == np.array(runs[0].sse_history).tobytes())
                assert run.repairs == runs[0].repairs
        assignments = random_assignments(np.random.default_rng(14), 300, range(2, 11))
        scores = [silhouette(p, assignments) for p in layouts]
        for score in scores[1:]:
            assert np.array(score).tobytes() == np.array(scores[0]).tobytes()


class TestKMeans:
    def test_two_blobs_recovered_exactly(self):
        points, truth = make_blobs([[0, 0, 0], [10, 10, 10]], 30, 0.5)
        run = kmeans(points, 2, seed=1)
        same = (run.assignment == truth).mean()
        assert same in (0.0, 1.0)  # up to cluster id swap
        if same == 0.0:
            assert ((1 - run.assignment) == truth).all()

    def test_k_equals_n_zero_sse(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(8, 3))
        run = kmeans(points, 8, seed=0)
        assert run.sse == pytest.approx(0.0, abs=1e-20)
        assert len(set(run.assignment.tolist())) == 8

    def test_identical_points_trigger_repair(self):
        points = np.tile([1.0, 2.0], (10, 1))
        run = kmeans(points, 2, seed=0)
        assert run.repairs >= 1
        assert run.sse == 0.0

    def test_sse_monotone_nonincreasing(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(200, 6))
        run = kmeans(points, 5, seed=2)
        diffs = np.diff(run.sse_history)
        assert (diffs <= 1e-9).all()

    def test_bad_inputs(self):
        points = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeans(points, 0)
        with pytest.raises(ValueError):
            kmeans(points, 4)
        with pytest.raises(ValueError):
            kmeans(np.zeros((0, 2)), 1)


def reference_kmeans(points, k, seed=0, max_iter=300):
    """The Lloyd loop that ran before the feature-major distance kernel, with
    its n x k x features difference tensor and per-cluster means; kept as
    the bit-exact reference.  Returns (assignment, centroids, sse_history,
    repairs)."""
    points = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[i] = points[rng.integers(n)]
            continue
        r = rng.random() * total
        centroids[i] = points[np.searchsorted(np.cumsum(d2), r)]
        d2 = np.minimum(d2, ((points - centroids[i]) ** 2).sum(axis=1))
    assignment = np.zeros(n, dtype=np.int64)
    sse_history = []
    repairs = 0
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = d2.argmin(axis=1)
        dist_own = d2[np.arange(n), new_assignment]
        for c in range(k):
            if (new_assignment == c).any():
                continue
            far = int(dist_own.argmax())
            centroids[c] = points[far]
            new_assignment[far] = c
            dist_own[far] = 0.0
            repairs += 1
        sse_history.append(float(dist_own.sum()))
        converged = (new_assignment == assignment).all() and len(sse_history) > 1
        assignment = new_assignment
        for c in range(k):
            members = points[assignment == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        if converged:
            break
    return assignment, centroids, sse_history, repairs


class TestKMeansMatchesReference:
    def assert_matches(self, points, k, seed):
        run = kmeans(points, k, seed=seed)
        assignment, centroids, sse_history, repairs = reference_kmeans(points, k, seed)
        assert np.array_equal(run.assignment, assignment)
        assert np.array_equal(run.centroids, centroids)
        assert run.sse_history == sse_history
        assert run.repairs == repairs
        return run

    @pytest.mark.parametrize("n_features", [2, 13])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_random_points(self, k, n_features):
        rng = np.random.default_rng(40 + n_features)
        points = standardize(rng.normal(size=(120, n_features)) * rng.uniform(0.1, 5, n_features))
        for seed in range(3):
            self.assert_matches(points, k, seed)

    @pytest.mark.parametrize("n_features", [2, 13])
    def test_duplicate_points(self, n_features):
        rng = np.random.default_rng(50 + n_features)
        points = rng.normal(size=(90, n_features))
        points[::3] = points[1]
        points[::4] = points[2]
        for k in range(1, 9):
            self.assert_matches(points, k, seed=k)

    @pytest.mark.parametrize("n_features", [2, 13])
    def test_empty_cluster_repairs(self, n_features):
        # three distinct positions: with k > 3, two centroids start on one
        # position and one of them is left empty
        rng = np.random.default_rng(60 + n_features)
        points = rng.normal(size=(3, n_features))[rng.integers(0, 3, 60)]
        for k in range(4, 9):
            run = self.assert_matches(points, k, seed=k)
            assert run.repairs > 0


class TestAssignScreening:
    """Inputs where the Gram estimate ``|c|^2 - 2<c, x>`` decides least
    reliably; the assignment and own distances must still have the bits of
    ``np.square(points[:, None] - centroids).sum(-1)``."""

    def assert_exact(self, centroids, points, monkeypatch):
        rechecked = []

        class SpyNumpy:
            """numpy as ``temporal`` sees it, counting the points of each
            exact recheck: the only square it takes of a points x centroids
            x features array."""

            def __getattr__(self, name):
                return getattr(np, name)

            def square(self, x, *args, **kwargs):
                if np.ndim(x) == 3:
                    rechecked.append(len(x))
                return np.square(x, *args, **kwargs)

        monkeypatch.setattr(temporal, "np", SpyNumpy())
        points_t = np.ascontiguousarray(points.T)
        norms = np.sqrt(np.square(points).sum(axis=1))
        assignment, dist_own = _assign(centroids, points, points_t, norms,
                                       np.empty_like(points))
        d2 = np.square(points[:, None] - centroids).sum(-1)
        expected = d2.argmin(axis=1)
        assert np.array_equal(assignment, expected)
        assert dist_own.tobytes() == d2[np.arange(len(points)), expected].tobytes()
        return sum(rechecked)

    @pytest.mark.parametrize("n_features", [2, 13])
    def test_points_on_the_bisector(self, n_features, monkeypatch):
        rng = np.random.default_rng(70 + n_features)
        mid = rng.normal(size=n_features)
        half = rng.normal(size=n_features)
        along = rng.normal(size=(400, n_features))
        along -= np.outer(along @ half / (half @ half), half)   # orthogonal to half
        # on the bisector, and off it by a few units in the last place and more
        offsets = np.repeat([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 0.0], 50)
        points = mid + along + offsets[:, None] * half
        centroids = np.stack([mid - half, mid + half, mid + 50 * half])
        assert self.assert_exact(centroids, points, monkeypatch) > 0

    @pytest.mark.parametrize("n_features", [2, 13])
    def test_duplicate_centroids(self, n_features, monkeypatch):
        # an exact tie goes to the lowest centroid index
        rng = np.random.default_rng(80 + n_features)
        points = rng.normal(size=(300, n_features))
        centroids = points[[3, 7, 3, 11, 7]]
        assert self.assert_exact(centroids, points, monkeypatch) > 0

    @pytest.mark.parametrize("offset", [1e5, 1e6, 1e8])
    def test_large_common_offset(self, offset, monkeypatch):
        # |x|^2 far above the distances: the estimate loses most of its digits
        rng = np.random.default_rng(int(np.log10(offset)))
        points = offset + rng.normal(size=(500, 13))
        centroids = offset + rng.normal(size=(6, 13))
        assert self.assert_exact(centroids, points, monkeypatch) > 0

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_kmeans_with_large_common_offset_matches_reference(self, offset):
        rng = np.random.default_rng(90)
        points = offset + rng.normal(size=(150, 13))
        for k in (2, 5):
            run = kmeans(points, k, seed=k)
            assignment, centroids, sse_history, repairs = reference_kmeans(points, k, k)
            assert np.array_equal(run.assignment, assignment)
            assert np.array_equal(run.centroids, centroids)
            assert run.sse_history == sse_history
            assert run.repairs == repairs


class TestSilhouette:
    def test_tight_far_blobs_above_09(self):
        points, labels = make_blobs([[0, 0], [100, 100]], 40, 1.0)
        assert silhouette(points, [labels])[0] > 0.9

    def test_uniform_random_near_zero(self):
        rng = np.random.default_rng(7)
        points = rng.random((200, 4))
        labels = rng.integers(0, 2, 200)
        assert abs(silhouette(points, [labels])[0]) < 0.2

    def test_matches_brute_force_definition(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(50, 3))
        labels = rng.integers(0, 3, 50)
        # independent O(n^2) implementation
        def brute():
            n = len(points)
            total = 0.0
            for i in range(n):
                own = labels[i]
                own_others = [j for j in range(n) if labels[j] == own and j != i]
                if not own_others:
                    continue
                a = np.mean([np.linalg.norm(points[i] - points[j]) for j in own_others])
                b = min(
                    np.mean([np.linalg.norm(points[i] - points[j])
                             for j in range(n) if labels[j] == c])
                    for c in set(labels.tolist()) if c != own
                )
                total += (b - a) / max(a, b)
            return total / n
        assert silhouette(points, [labels])[0] == pytest.approx(brute(), abs=1e-12)

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            silhouette(np.zeros((5, 2)), [np.zeros(5, dtype=int)])

    def test_range_bounds(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            points = rng.normal(size=(30, 2))
            labels = rng.integers(0, 4, 30)
            if len(set(labels.tolist())) < 2:
                continue
            s = silhouette(points, [labels])[0]
            assert -1.0 <= s <= 1.0


def reference_silhouette(points, assignment):
    """The per-point loop that scored one assignment per call before the
    one-pass version; kept as the bit-exact reference."""
    points = np.asarray(points, dtype=np.float64)
    assignment = np.asarray(assignment)
    cluster_ids = np.unique(assignment)
    n = len(points)
    scores = np.zeros(n)
    masks = {c: assignment == c for c in cluster_ids}
    sizes = {c: int(m.sum()) for c, m in masks.items()}
    for i in range(n):
        own = assignment[i]
        if sizes[own] == 1:
            continue
        dist = np.sqrt(((points[i] - points) ** 2).sum(axis=1))
        a = dist[masks[own]].sum() / (sizes[own] - 1)
        b = min(
            dist[masks[c]].mean() for c in cluster_ids if c != own
        )
        scores[i] = (b - a) / max(a, b)
    return float(scores.mean())


def random_assignments(rng, n, ks):
    """One assignment per k, each using every cluster id in 0..k-1."""
    out = []
    for k in ks:
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        out.append(rng.permutation(labels))
    return out


class TestSilhouetteMatchesReference:
    def assert_matches(self, points, assignments):
        scores = silhouette(points, assignments)
        assert len(scores) == len(assignments)
        for score, assignment in zip(scores, assignments):
            assert score == pytest.approx(reference_silhouette(points, assignment), abs=1e-12)

    def test_every_k_up_to_ten(self):
        rng = np.random.default_rng(21)
        points = standardize(rng.normal(size=(150, 13)))
        self.assert_matches(points, random_assignments(rng, 150, range(2, 11)))

    def test_singleton_clusters(self):
        rng = np.random.default_rng(22)
        points = rng.normal(size=(60, 13))
        labels = rng.integers(0, 3, 60)
        labels[[5, 17]] = [3, 4]            # two singleton clusters
        only_two = np.zeros(60, dtype=int)
        only_two[0] = 1                     # a singleton beside one big cluster
        self.assert_matches(points, [labels, only_two])

    def test_non_contiguous_cluster_ids(self):
        rng = np.random.default_rng(23)
        points = rng.normal(size=(80, 13))
        ids = np.array([0, 3, 7])
        self.assert_matches(points, [ids[rng.integers(0, 3, 80)],
                                     np.array([9, 2])[rng.integers(0, 2, 80)]])

    def test_duplicate_points(self):
        rng = np.random.default_rng(24)
        centers = rng.normal(size=(4, 13))
        labels = rng.integers(0, 4, 70)
        points = centers[labels]            # every distance inside a cluster is 0
        points[::7] += 0.5                  # a few distinct points among the copies
        self.assert_matches(points, [labels, labels % 2])

    def test_n_below_one_block(self):
        rng = np.random.default_rng(25)
        points = rng.normal(size=(40, 13))
        assert _block_rows(40) > 40
        self.assert_matches(points, random_assignments(rng, 40, [2, 5, 8]))

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_n_not_a_multiple_of_the_block(self, monkeypatch, rows):
        n, d = 101, 13
        monkeypatch.setattr(temporal, "SILHOUETTE_BLOCK_BYTES", rows * 8 * n)
        assert _block_rows(n) == rows
        assert rows == 1 or n % rows
        rng = np.random.default_rng(26)
        points = standardize(rng.normal(size=(n, d)))
        self.assert_matches(points, random_assignments(rng, n, [2, 4, 9]))

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_large_common_offset(self, offset):
        # |x|^2 + |y|^2 far above every distance: each pair is in the zone
        # where the Gram form cancels, and is recomputed from the differences
        rng = np.random.default_rng(29)
        points = offset + rng.normal(size=(60, 13))
        points[::5] = points[1]
        self.assert_matches(points, random_assignments(rng, 60, [2, 3, 6]))

    def test_every_assignment_needs_two_clusters(self):
        rng = np.random.default_rng(27)
        points = rng.normal(size=(20, 3))
        with pytest.raises(ValueError, match="at least 2 clusters"):
            silhouette(points, [rng.integers(0, 2, 20), np.full(20, 4)])


class TestSelectK:
    def test_two_blobs_choose_two(self):
        points, _ = make_blobs([[0] * 5, [50] * 5], 40, 1.0)
        result = select_k(points, range(2, 7), seed=0)
        assert result.k == 2

    def test_singleton_range(self):
        points, _ = make_blobs([[0, 0], [50, 50], [100, 0]], 20, 1.0)
        result = select_k(points, [5], seed=0)
        assert result.k == 5

    def test_invalid_range(self):
        points = np.zeros((30, 2))
        with pytest.raises(ValueError):
            select_k(points, [1, 2], seed=0)
        with pytest.raises(ValueError):
            select_k(points, [], seed=0)

    def test_k_above_point_count_rejected_before_fitting(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("kmeans ran before the k range was checked")
        monkeypatch.setattr(temporal, "kmeans", no_fit)
        points, _ = make_blobs([[0] * 5, [50] * 5], 2, 1.0)
        with pytest.raises(ValueError, match="only 4 points.*--k-max"):
            select_k(points, range(2, 6), seed=0)

    def test_zero_restarts_rejected(self):
        points, _ = make_blobs([[0] * 5, [50] * 5], 10, 1.0)
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            select_k(points, [2], seed=0, restarts=0)


def profile_from_series(tag, series):
    series = np.asarray(series, dtype=np.float64)
    return TemporalProfile(tag, series, extract_features(series))


def single_cluster_result(profiles):
    return ClusterResult(
        k=len(profiles),
        assignment={p.hashtag: i for i, p in enumerate(profiles)},
        centroids=np.zeros((len(profiles), 13)),
        silhouette=0.0,
    )


def reference_series_stats(series):
    """The per-series ``np.polyfit`` loop that labelled clusters before the
    closed-form fit over every series at once; kept as the reference."""
    rows = []
    t = np.arange(16)
    for s in series:
        slope, intercept = np.polyfit(t, s, 1)
        r = s - (slope * t + intercept)
        denom = (r ** 2).sum()
        if denom <= 1e-12 * max(((s - s.mean()) ** 2).sum(), 1e-300):
            autocorr = 0.0
        else:
            autocorr = (r[:-4] * r[4:]).sum() / denom
        rows.append([autocorr, slope, s.max()])
    return np.array(rows)


class TestSeriesStats:
    def test_matches_per_series_polyfit(self):
        rng = np.random.default_rng(34)
        series = rng.random((300, 16)) ** 3
        series[::10] = 1.0 - 0.05 * np.arange(16)    # straight lines, whose
        series[4::10] = 0.7 + 0.11 * np.arange(16)   # residuals are float noise
        series[1::10] = 1.0                          # flat
        series[2::10] = np.tile([5.0, 1, 1, 1], 4)   # periodic
        series[3::10] = 0.0
        series[3::10, 7] = 1.0                       # one peak
        series /= series.sum(axis=1, keepdims=True)
        expected = reference_series_stats(series)
        got = _series_stats(series)
        assert np.array_equal(got[::10, 0], np.zeros(30))
        assert np.array_equal(got[4::10, 0], np.zeros(30))
        assert np.array_equal(got[:, 2], expected[:, 2])
        assert np.allclose(got, expected, rtol=0, atol=1e-12)


class TestLabelClusters:
    def test_periodic_high_lag4_autocorrelation(self):
        series = np.tile([0.19, 0.02, 0.02, 0.02], 4)
        series /= series.sum()
        # oracle: detrended lag-4 autocorrelation from the definition
        t = np.arange(16)
        slope, intercept = np.polyfit(t, series, 1)
        r = series - slope * t - intercept
        autocorr = (r[:-4] * r[4:]).sum() / (r ** 2).sum()
        assert autocorr > 0.3
        profiles = [profile_from_series("p", series)]
        labeled = label_clusters(single_cluster_result(profiles), profiles)
        assert labeled.labels[0] == "Periodic"

    def test_strictly_increasing_is_rising(self):
        series = np.arange(1.0, 17.0)
        series /= series.sum()
        profiles = [profile_from_series("r", series)]
        labeled = label_clusters(single_cluster_result(profiles), profiles)
        assert labeled.labels[0] == "Rising"

    def test_dominant_bucket_is_meteor(self):
        series = np.full(16, 0.2 / 15)
        series[7] = 0.8
        profiles = [profile_from_series("m", series)]
        labeled = label_clusters(single_cluster_result(profiles), profiles)
        assert labeled.labels[0] == "Meteor"

    def test_flat_is_stable(self):
        series = np.full(16, 1 / 16)
        profiles = [profile_from_series("s", series)]
        labeled = label_clusters(single_cluster_result(profiles), profiles)
        assert labeled.labels[0] == "Stable"

    def test_thresholds_configurable(self):
        series = np.full(16, 0.2 / 15)
        series[7] = 0.8
        profiles = [profile_from_series("m", series)]
        strict = LabelThresholds(meteor_peak_mass=0.95)
        labeled = label_clusters(single_cluster_result(profiles), profiles, strict)
        assert labeled.labels[0] == "Stable"


@pytest.fixture(scope="module")
def clustered():
    spec = SyntheticSpec(users=300, hashtags=130, posts=30000, years=4,
                         periodic=30, rising=30, stable=30, meteor=30,
                         communities=0, zipf_exponent=0.6,
                         mean_extra_tags=2.0, seed=7)
    corpus = generate_synthetic(spec)
    profiles = build_profiles(corpus, top_k=120)
    points = np.stack([p.features for p in profiles])
    names = [p.hashtag for p in profiles]
    result = select_k(points, range(2, 9), seed=0, names=names)
    return label_clusters(result, profiles), profiles


class TestPlantedPatterns:
    def test_four_clusters_selected(self, clustered):
        result, _ = clustered
        assert result.k == 4

    def test_all_four_labels_present(self, clustered):
        result, _ = clustered
        assert set(result.labels.values()) == {"Stable", "Rising", "Periodic", "Meteor"}

    def test_planted_classes_recovered(self, clustered):
        result, _ = clustered
        for cls, label in (("periodic", "Periodic"), ("rising", "Rising"),
                           ("stable", "Stable"), ("meteor", "Meteor")):
            tags = [t for t in result.assignment if t.startswith(cls)]
            hit = np.mean([result.labels[result.assignment[t]] == label for t in tags])
            assert hit >= 0.9, f"{cls}: {hit}"

    def test_cluster_size_ordering_matches_planted_rates(self):
        # rising planted largest, meteor smallest
        spec = SyntheticSpec(users=300, hashtags=190, posts=40000, years=4,
                             periodic=27, rising=108, stable=36, meteor=9,
                             communities=0, zipf_exponent=0.6,
                             mean_extra_tags=2.0, seed=8)
        corpus = generate_synthetic(spec)
        profiles = build_profiles(corpus, top_k=180)
        points = np.stack([p.features for p in profiles])
        names = [p.hashtag for p in profiles]
        result = label_clusters(select_k(points, [4], seed=1, names=names), profiles)
        sizes = {}
        for tag, cluster in result.assignment.items():
            label = result.labels[cluster]
            sizes[label] = sizes.get(label, 0) + 1
        assert max(sizes, key=sizes.get) == "Rising"
        assert min(sizes, key=sizes.get) == "Meteor"


class TestStandardize:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        points = rng.normal(5, 3, (100, 4))
        z = standardize(points)
        assert np.allclose(z.mean(axis=0), 0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1, atol=1e-12)

    def test_constant_feature_passes_through(self):
        points = np.ones((10, 2))
        points[:, 1] = np.arange(10)
        z = standardize(points)
        assert np.allclose(z[:, 0], 0)
