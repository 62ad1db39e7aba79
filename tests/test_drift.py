import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashscope.corpus import Corpus, PostRecord
from hashscope.drift import (
    drift_analysis,
    entropy_from_counts,
    hashtag_entropy,
    overall_displacement,
    pearson,
    procrustes_align,
)
from hashscope.embedding import TrainConfig, cosine_distance
from hashscope.synth import SyntheticSpec, generate_synthetic

from conftest import ts


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


class TestProcrustes:
    def test_identity_when_target_equals_source(self):
        rng = np.random.default_rng(0)
        source = rng.normal(size=(6, 20))
        alignment = procrustes_align(source, source)
        assert np.linalg.norm(alignment.apply(source) - source) < 1e-8

    def test_recovers_random_orthogonal_map(self):
        rng = np.random.default_rng(1)
        source = rng.normal(size=(8, 30))
        q = random_orthogonal(8, rng)
        target = q @ source
        alignment = procrustes_align(source, target)
        assert np.linalg.norm(alignment.apply(source) - target) < 1e-8

    def test_2x2_rotation_closed_form(self):
        source = np.eye(2)
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])  # 90 degrees
        alignment = procrustes_align(source, rotation @ source)
        assert np.allclose(alignment.matrix, rotation, atol=1e-12)

    def test_orthogonality_residual_every_call(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            source = rng.normal(size=(5, 12))
            target = rng.normal(size=(5, 12))
            alignment = procrustes_align(source, target)
            assert alignment.orthogonality_residual() < 1e-8

    def test_never_beaten_by_random_orthogonal(self):
        rng = np.random.default_rng(3)
        source = rng.normal(size=(3, 5))
        target = rng.normal(size=(3, 5))
        alignment = procrustes_align(source, target)
        best = np.linalg.norm(alignment.apply(source) - target)
        for _ in range(1000):
            r = random_orthogonal(3, rng)
            assert best <= np.linalg.norm(r @ source - target) + 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            procrustes_align(np.zeros((3, 4)), np.zeros((3, 5)))


class TestDisplacement:
    def test_identical_vectors_zero(self):
        v = np.array([0.3, -1.2, 0.7])
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_global_rotation_absorbed_by_alignment(self):
        rng = np.random.default_rng(4)
        source = rng.normal(size=(10, 40))
        q = random_orthogonal(10, rng)
        target = q @ source
        alignment = procrustes_align(source, target)
        aligned = alignment.apply(source)
        for col in range(source.shape[1]):
            assert cosine_distance(aligned[:, col], target[:, col]) < 1e-6

    def test_displacement_invariant_to_common_orthogonal_transform(self):
        rng = np.random.default_rng(5)
        source = rng.normal(size=(6, 25))
        target = rng.normal(size=(6, 25))
        q = random_orthogonal(6, rng)
        base = procrustes_align(source, target)
        rotated = procrustes_align(q @ source, target)
        d1 = [cosine_distance(base.apply(source)[:, i], target[:, i])
              for i in range(25)]
        d2 = [cosine_distance(rotated.apply(q @ source)[:, i], target[:, i])
              for i in range(25)]
        assert np.allclose(d1, d2, atol=1e-9)

    def test_overall_is_mean(self):
        assert overall_displacement([0.2, 0.4]) == pytest.approx(0.3)
        assert overall_displacement([0.5]) == pytest.approx(0.5)
        assert overall_displacement([0.0, 0.0]) == 0.0

    def test_overall_empty_rejected(self):
        with pytest.raises(ValueError):
            overall_displacement([])


def corpus_with_shares(counts: dict[str, int], tag="h", year=2013) -> Corpus:
    posts = []
    i = 0
    for user, n in counts.items():
        for _ in range(n):
            posts.append(PostRecord(user, ts(year) + i, frozenset({tag})))
            i += 1
    return Corpus(posts=posts)


class TestHashtagEntropy:
    def test_uniform_sharing_gives_log_n(self):
        for n in (2, 4, 16):
            corpus = corpus_with_shares({f"u{i}": 1 for i in range(n)})
            assert abs(hashtag_entropy(corpus, "h", 2013) - math.log(n)) < 1e-12

    def test_single_user_zero(self):
        corpus = corpus_with_shares({"solo": 7})
        assert hashtag_entropy(corpus, "h", 2013) == 0.0

    def test_2_1_1_counts(self):
        corpus = corpus_with_shares({"a": 2, "b": 1, "c": 1})
        # independent direct-sum oracle
        probs = [0.5, 0.25, 0.25]
        oracle = -sum(p * math.log(p) for p in probs)
        value = hashtag_entropy(corpus, "h", 2013)
        assert abs(value - oracle) < 1e-12
        assert abs(value - 1.0397) < 1e-4

    def test_unshared_rejected(self):
        corpus = corpus_with_shares({"a": 1})
        with pytest.raises(ValueError, match="unshared"):
            hashtag_entropy(corpus, "h", 2014)
        with pytest.raises(ValueError, match="unshared"):
            hashtag_entropy(corpus, "other", 2013)

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_entropy_bounds(self, counts):
        h = entropy_from_counts(counts)
        assert -1e-12 <= h <= math.log(len(counts)) + 1e-12

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_uniform_attains_upper_bound(self, n, c):
        assert entropy_from_counts([c] * n) == pytest.approx(math.log(n), abs=1e-12)


class TestPearson:
    def test_positive_affine_is_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_negation_is_minus_one(self):
        x = np.array([1.0, 5.0, 2.0])
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_hand_computed_half(self):
        assert pearson([1, 2, 3], [2, 1, 3]) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        x, y = rng.random(20), rng.random(20)
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-12)

    @given(st.floats(min_value=0.1, max_value=10), st.floats(min_value=-5, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_positive_affine_maps(self, scale, shift):
        rng = np.random.default_rng(7)
        x, y = rng.random(15), rng.random(15)
        assert pearson(scale * x + shift, y) == pytest.approx(pearson(x, y), abs=1e-9)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0])


def duplicate_across_years(corpus: Corpus, year_a: int, year_b: int) -> Corpus:
    shift = int(datetime(year_b, 1, 1, tzinfo=timezone.utc).timestamp()) \
        - int(datetime(year_a, 1, 1, tzinfo=timezone.utc).timestamp())
    copies = [PostRecord(p.user, p.time + shift, p.hashtags, p.location)
              for p in corpus.posts]
    return Corpus(posts=list(corpus.posts) + copies, users=corpus.users,
                  friendships=corpus.friendships)


class TestDriftAnalysis:
    def test_planted_drift_dominates_top_ranks(self):
        spec = SyntheticSpec(users=200, hashtags=200, posts=30000, years=2,
                             communities=8, drifted=10, zipf_exponent=0.5,
                             mean_extra_tags=1.8, seed=21)
        corpus = generate_synthetic(spec)
        config = TrainConfig(mode="skipgram", dimension=64, window=30, epochs=5,
                             learning_rate=0.04, min_count=3, seed=21)
        report = drift_analysis(corpus, [2012, 2013], top_k=200, config=config)
        ranked = sorted(report.overall, key=lambda t: -report.overall[t])
        drifted = set(spec.drifted_tags())
        assert sum(1 for t in ranked[:10] if t in drifted) >= 8

    def test_identical_years_give_zero_displacement(self):
        # 2013 and 2014 are both non-leap, so a rigid shift lines up exactly
        spec = SyntheticSpec(users=100, hashtags=150, posts=6000, years=1,
                             start_year=2013, communities=6,
                             zipf_exponent=0.5, seed=22)
        corpus = duplicate_across_years(generate_synthetic(spec), 2013, 2014)
        config = TrainConfig(mode="skipgram", dimension=32, window=30, epochs=2,
                             learning_rate=0.04, min_count=3, seed=9)
        report = drift_analysis(corpus, [2013, 2014], top_k=150, config=config)
        assert report.overall
        assert max(report.overall.values()) < 0.05

    def test_requires_two_years(self):
        corpus = corpus_with_shares({"a": 3, "b": 2})
        with pytest.raises(ValueError, match="2 years"):
            drift_analysis(corpus, [2013])

    def test_report_contents(self):
        spec = SyntheticSpec(users=100, hashtags=120, posts=10000, years=2,
                             communities=6, zipf_exponent=0.5, seed=23)
        corpus = generate_synthetic(spec)
        config = TrainConfig(mode="skipgram", dimension=32, window=30, epochs=2,
                             learning_rate=0.04, min_count=3, seed=1)
        report = drift_analysis(corpus, [2012, 2013], top_k=50, config=config)
        assert report.years == [2012, 2013]
        assert len(report.hashtags) <= 50
        for tag in report.hashtags:
            assert (2012, 2013) in report.single[tag]
            assert 0.0 <= report.overall[tag] <= 2.0
        assert report.entropy_correlation is None or -1 <= report.entropy_correlation <= 1
