import numpy as np
import pytest
from scipy.stats import ks_2samp

from hashscope.corpus import QuarterBucket, save_corpus
from hashscope.social import sample_strangers
from hashscope.synth import SynthesisError, SyntheticSpec, demo_spec, generate_synthetic


class TestDeterminism:
    def test_same_seed_equal_corpora(self):
        spec = SyntheticSpec(users=50, hashtags=80, posts=3000, communities=4,
                             homophily=0.5, located_rate=0.4, seed=1)
        c1 = generate_synthetic(spec)
        c2 = generate_synthetic(spec)
        assert c1.posts == c2.posts
        assert c1.friendships == c2.friendships
        assert c1.location_categories == c2.location_categories

    def test_same_seed_byte_identical_files(self, tmp_path):
        spec = SyntheticSpec(users=40, hashtags=60, posts=2000, seed=1)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(generate_synthetic(spec), p1)
        save_corpus(generate_synthetic(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self):
        base = dict(users=40, hashtags=60, posts=2000)
        c1 = generate_synthetic(SyntheticSpec(**base, seed=1))
        c2 = generate_synthetic(SyntheticSpec(**base, seed=2))
        assert c1.posts != c2.posts


class TestValidation:
    def test_planted_exceeding_hashtags(self):
        with pytest.raises(SynthesisError, match="exceed"):
            generate_synthetic(SyntheticSpec(hashtags=10, periodic=8, rising=8))

    def test_drift_requires_communities(self):
        with pytest.raises(SynthesisError, match="communities"):
            generate_synthetic(SyntheticSpec(hashtags=50, drifted=5, communities=0))

    def test_probability_out_of_range(self):
        with pytest.raises(SynthesisError, match="homophily"):
            generate_synthetic(SyntheticSpec(homophily=1.5))

    def test_drifted_owner_feasibility(self):
        with pytest.raises(SynthesisError, match="owners"):
            generate_synthetic(SyntheticSpec(users=20, hashtags=200, drifted=30,
                                             communities=4))

    def test_planted_sets_disjoint(self):
        spec = SyntheticSpec(hashtags=100, periodic=10, rising=10, stable=10,
                             meteor=10, drifted=5, communities=4, users=100)
        groups = [set(spec.planted_tags(c)) for c in
                  ("periodic", "rising", "stable", "meteor")] + [set(spec.drifted_tags())]
        for i, a in enumerate(groups):
            for b in groups[i + 1:]:
                assert not (a & b)


class TestPlantedTemporal:
    def test_periodic_concentrates_in_designated_quarter(self):
        spec = SyntheticSpec(users=120, hashtags=80, posts=20000, years=4,
                             periodic=16, zipf_exponent=0.5, seed=3)
        corpus = generate_synthetic(spec)
        for tag in spec.planted_tags("periodic"):
            target = spec.periodic_quarter(tag)
            in_peak = total = 0
            for post in corpus.posts:
                if tag in post.hashtags:
                    total += 1
                    if QuarterBucket.from_timestamp(post.time).quarter - 1 == target:
                        in_peak += 1
            assert total > 0
            assert in_peak / total >= 0.8, f"{tag}: {in_peak}/{total}"

    def test_heavy_tailed_frequencies(self):
        corpus = generate_synthetic(SyntheticSpec(users=60, hashtags=200,
                                                  posts=10000, seed=4))
        counts = sorted(corpus.share_counts().tolist(), reverse=True)
        assert counts[0] >= 5 * counts[len(counts) // 2]


class TestHomophily:
    def test_zero_homophily_friend_stranger_jaccard_indistinguishable(self):
        spec = SyntheticSpec(users=300, hashtags=400, posts=12000, communities=8,
                             homophily=0.0, friends_per_user=8.0, seed=5)
        corpus = generate_synthetic(spec)
        user_tags = corpus.user_hashtags()

        def jaccard(a, b):
            ha, hb = user_tags[a], user_tags[b]
            union = len(ha | hb)
            return len(ha & hb) / union if union else 0.0

        friends = sorted(corpus.friendships)[:500]
        strangers = sample_strangers(corpus, 500, seed=6)
        stat = ks_2samp([jaccard(*p) for p in friends],
                        [jaccard(*p) for p in strangers]).statistic
        assert stat < 0.1

    def test_high_homophily_friends_share_communities(self):
        spec = SyntheticSpec(users=200, hashtags=300, posts=5000, communities=10,
                             homophily=0.8, seed=6)
        corpus = generate_synthetic(spec)
        same = [
            int(a[1:]) % 10 == int(b[1:]) % 10
            for a, b in corpus.friendships
        ]
        assert np.mean(same) > 0.7


class TestStructure:
    def test_no_hashtag_posts_retained(self):
        spec = SyntheticSpec(users=40, hashtags=60, posts=3000,
                             no_hashtag_rate=0.5, seed=7)
        corpus = generate_synthetic(spec)
        empty = sum(1 for p in corpus.posts if not p.hashtags)
        assert 0.4 < empty / len(corpus.posts) < 0.6

    def test_hashtag_cap_respected(self):
        spec = SyntheticSpec(users=30, hashtags=100, posts=2000,
                             mean_extra_tags=12.0, seed=8)
        corpus = generate_synthetic(spec)
        assert max(len(p.hashtags) for p in corpus.posts) <= 30

    def test_posts_sorted_by_time(self):
        corpus = generate_synthetic(SyntheticSpec(users=30, hashtags=50,
                                                  posts=1000, seed=9))
        times = [p.time for p in corpus.posts]
        assert times == sorted(times)

    def test_locations_mapped_to_categories(self):
        spec = SyntheticSpec(users=40, hashtags=60, posts=3000,
                             located_rate=0.6, seed=10)
        corpus = generate_synthetic(spec)
        located = [p for p in corpus.posts if p.location is not None]
        assert located
        for post in located:
            assert post.location in corpus.location_categories

    def test_drifted_tags_switch_community_context(self):
        spec = SyntheticSpec(users=200, hashtags=200, posts=20000, years=2,
                             communities=8, drifted=4, zipf_exponent=0.5, seed=11)
        corpus = generate_synthetic(spec)
        drift_year = spec.effective_drift_year
        for tag in spec.drifted_tags():
            before_c, after_c = spec.drift_communities(tag)
            for year, expected in ((drift_year - 1, before_c), (drift_year, after_c)):
                mates = {}
                for post in corpus.posts_in_year(year):
                    if tag in post.hashtags:
                        for other in post.hashtags - {tag}:
                            mates[other] = mates.get(other, 0) + 1
                assert mates, f"{tag} unused in {year}"
                comm_votes = {}
                pool_index = {t: i for i, t in enumerate(spec.pool_tags())}
                for other, n in mates.items():
                    if other in pool_index:
                        c = pool_index[other] % spec.n_communities
                        comm_votes[c] = comm_votes.get(c, 0) + n
                assert max(comm_votes, key=comm_votes.get) == expected

    def test_drifted_tags_owner_dominated(self):
        spec = SyntheticSpec(users=200, hashtags=200, posts=20000, years=2,
                             communities=8, drifted=4, zipf_exponent=0.5, seed=12)
        corpus = generate_synthetic(spec)
        drift_year = spec.effective_drift_year
        for tag in spec.drifted_tags():
            owner_before, _ = spec.drift_owners(tag)
            counts = {}
            for post in corpus.posts_in_year(drift_year - 1):
                if tag in post.hashtags:
                    counts[post.user] = counts.get(post.user, 0) + 1
            assert max(counts, key=counts.get) == owner_before
            assert counts[owner_before] / sum(counts.values()) > 0.5


class TestDemoSpec:
    def test_generates(self):
        corpus = generate_synthetic(demo_spec(seed=2))
        assert len(corpus.posts) == 30000
        assert corpus.friendships
        assert corpus.location_categories
