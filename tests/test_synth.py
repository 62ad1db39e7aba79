import hashlib
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from hashscope import cli, synth
from hashscope.corpus import QuarterBucket, save_corpus
from hashscope.social import sample_strangers
from hashscope.synth import (
    SynthesisError, SyntheticSpec, _approx_keys, _exact_order, _gumbel_top_m,
    _near_tie_rows, _nonzero_uniforms, generate_synthetic,
)


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
        # the spec that `hashscope all` generates when given no input
        corpus = generate_synthetic(cli._spec_from_settings(dict(cli.DEFAULTS, seed=2)))
        assert len(corpus.posts) == 30000
        assert corpus.friendships
        assert corpus.location_categories


def corpus_digest(corpus):
    """sha256 over a corpus's column arrays, name tables, friendships and
    location categories."""
    h = hashlib.sha256()
    for name in ("user_ids", "times", "location_ids", "tag_offsets", "tag_ids"):
        h.update(np.ascontiguousarray(getattr(corpus, name)).tobytes())
    for lines in (corpus.user_names, corpus.tag_names, corpus.location_names,
                  [f"{a},{b}" for a, b in sorted(corpus.friendships)],
                  [f"{k},{v}" for k, v in sorted(corpus.location_categories.items())]):
        h.update("\n".join(lines).encode() + b"\0")
    return h.hexdigest()


# Generator paths that the CLI cannot reach (it has no pair_affinity or
# adoption_growth key), pinned by digest so that a refactor of the generator
# cannot change their corpora unnoticed. A deliberate output change that is
# logged in CHANGES.md updates these digests.
@pytest.mark.parametrize("spec, digest", [
    # a fractional affinity: some rerolls keep the drawn variant; rows of
    # mixed sizes, with drift injections after the pool draws
    (SyntheticSpec(users=80, hashtags=120, posts=4000, communities=6, pair_affinity=0.4,
                   mean_extra_tags=3.0, drifted=2, seed=21),
     "bf4141a20906b5a4df719e653a106c7e4c1e987aeac9a4af674b56af5393772c"),
    (SyntheticSpec(users=60, hashtags=90, posts=3000, communities=4, adoption_growth=True,
                   located_rate=0.6, seed=22),
     "d92ac5957477f5659f0f57ca6d3e52d3cc9d536fa113145ae06a6d68a4899fe7"),
    (SyntheticSpec(users=50, hashtags=200, posts=3000, communities=1, periodic=5, meteor=3,
                   seed=23),
     "3ddf80d33aec3e042c48445b8fbc1e8bb38f553919fc6a2603fbef6d010133e5"),
], ids=["pair-affinity-0.4", "adoption-growth-located", "one-community"])
def test_pinned_corpus_digest(spec, digest):
    assert corpus_digest(generate_synthetic(spec)) == digest


def ref_gumbel_top_m(rng, log_w, sizes):
    """The sampler the generator used before it computed keys only for
    columns that can win: every column's Gumbel key, then the first m of an
    ``argpartition`` prefix. numpy does not specify that prefix's order; it
    came out in key order in every row tried at sizes below 25, and a row
    whose prefix is out of order gets a wrong top m."""
    n, m_max = len(sizes), int(sizes.max())
    picks = []
    chunk = max(1, 2_000_000 // max(len(log_w), 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        keys = log_w[None, :] + rng.gumbel(size=(hi - lo, len(log_w)))
        top = np.argpartition(-keys, min(m_max, len(log_w) - 1), axis=1)[:, :m_max]
        for r, size in enumerate(sizes[lo:hi]):
            picks.append(top[r, :size])
    return picks


def pool_log_w(v, zipf_exponent, seed):
    """Log weights as the generator builds them: Zipf over a popularity rank,
    times a per-column profile, in no particular column order."""
    rng = np.random.default_rng(seed)
    ranks = rng.permutation(v) + 1
    return -zipf_exponent * np.log(ranks) + np.log(rng.uniform(0.1, 3.0, v))


def post_sizes(v, rows, seed):
    """Row sizes as the generator draws them: 1 + Poisson(2), at most v."""
    return np.minimum(1 + np.random.default_rng(seed).poisson(2.0, rows), v)


def same_picks(rows, picks, sizes):
    """Whether the flat ``picks`` of rows of ``sizes`` are ``rows``, row by row."""
    if len(picks) != sum(sizes):
        return False
    split = np.split(picks, np.cumsum(sizes)[:-1])
    return len(rows) == len(split) and all(np.array_equal(x, y) for x, y in zip(rows, split))


class ScriptedRng:
    """A generator stand-in whose ``random(n)`` returns the next n of ``values``."""

    def __init__(self, values):
        self.values, self.taken = list(values), 0

    def random(self, n):
        out = self.values[self.taken:self.taken + n]
        self.taken += n
        return np.array(out, dtype=np.float64)


class TestGumbelTopM:
    @pytest.mark.parametrize("zipf_exponent", [0.0, 0.8])
    @pytest.mark.parametrize("v", [1, 2, 22, 175, 375, 3000])
    def test_matches_reference_sampler(self, v, zipf_exponent):
        log_w = pool_log_w(v, zipf_exponent, seed=v) if zipf_exponent else np.zeros(v)
        # 1500 rows of 3000 columns span 18 of the sampler's 2**18 // v row
        # blocks, the last one ragged, and three of the reference's
        # 2_000_000 // v blocks
        sizes = post_sizes(v, 1500 if v == 3000 else 400, seed=v)
        if v <= 22:
            sizes[::5] = v
        old, new = np.random.default_rng(7), np.random.default_rng(7)
        assert same_picks(ref_gumbel_top_m(old, log_w, sizes), _gumbel_top_m(new, log_w, sizes),
                          sizes)
        assert old.bit_generator.state == new.bit_generator.state

    @pytest.mark.parametrize("v", [175, 3000])
    def test_picks_are_top_keys_in_key_order(self, v):
        # at sizes up to the generator's cap of 28 the reference sampler's
        # argpartition prefix can be out of order; here the picks are checked
        # against a full stable sort of the same Gumbel keys instead
        log_w = pool_log_w(v, 0.8, seed=102)
        sizes = post_sizes(v, 1500 if v == 3000 else 400, seed=v)
        sizes[::7] = 28
        # the Gumbel draws do not depend on the block size, so any will do
        ranked, rng = [], np.random.default_rng(2)
        chunk = 2_000_000 // v
        for lo in range(0, len(sizes), chunk):
            keys = log_w + rng.gumbel(size=(len(sizes[lo:lo + chunk]), v))
            ranked.extend(np.argsort(-keys, axis=1, kind="stable"))
        new = np.random.default_rng(2)
        picks = _gumbel_top_m(new, log_w, sizes)
        assert same_picks([r[:m] for r, m in zip(ranked, sizes)], picks, sizes)
        assert new.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("spec", [
        # test_acceptance.py's criterion 8 spec: pair-affinity swaps are drawn
        # per pick, so they follow the pick order
        SyntheticSpec(users=300, hashtags=168, posts=30000, years=1, start_year=2013,
                      communities=24, community_mix=0.92, pair_affinity=1.0,
                      zipf_exponent=0.8, mean_extra_tags=2.5, seed=17),
        # one community: every post draws from the whole pool, in one loop
        SyntheticSpec(users=200, hashtags=1200, posts=8000, periodic=10, meteor=5,
                      communities=1, located_rate=0.3, seed=4),
    ], ids=["pair-affinity", "one-community"])
    def test_generator_matches_reference_sampler(self, spec, monkeypatch):
        new = generate_synthetic(spec)
        monkeypatch.setattr(synth, "_gumbel_top_m",
                            lambda *args: np.concatenate(ref_gumbel_top_m(*args)))
        old = generate_synthetic(spec)
        assert new.posts == old.posts
        assert new.friendships == old.friendships
        assert new.location_categories == old.location_categories

    def test_zero_draws_are_redrawn_in_order(self):
        rng = ScriptedRng([0.5, 0.0, 0.25, 0.0, 0.0, 0.75, 0.125, 0.9])
        u = _nonzero_uniforms(rng, 4)
        assert u.tolist() == [0.5, 0.25, 0.75, 0.125]
        # rng.gumbel takes the same seven doubles for four variates
        assert rng.taken == 7

    def test_math_log_reproduces_gumbel_bits(self):
        g = np.random.default_rng(11).gumbel(size=100_000)
        u = np.random.default_rng(11).random(100_000)
        exact = np.array([0.0 - math.log(-math.log(1.0 - x)) for x in u.tolist()])
        assert np.array_equal(g.view(np.int64), exact.view(np.int64))

    def test_exact_order_follows_gumbel_bits_through_near_ties(self):
        # log weights that cancel numpy's keys leave keys a few ulps apart,
        # so only exact arithmetic orders them
        u = np.random.default_rng(5).random(200)
        log_w = 3.0 - _approx_keys(np.zeros(200), u)
        keys = log_w + np.random.default_rng(5).gumbel(size=200)
        assert len(np.unique(keys)) > 1
        expected = np.lexsort((np.arange(200), -keys))
        cols = np.random.default_rng(6).permutation(200)
        assert np.array_equal(_exact_order(log_w, u, cols), expected)
        # and the sampler, whose one row draws the same doubles, falls back to it
        picks = _gumbel_top_m(np.random.default_rng(5), log_w, np.array([200]))
        assert np.array_equal(picks, expected)

    def test_exact_order_breaks_equal_keys_by_column(self):
        # a smaller double gives a larger key
        u = np.array([0.3, 0.7, 0.3, 0.5])
        assert _exact_order(np.zeros(4), u, np.array([3, 2, 1, 0])).tolist() == [0, 2, 3, 1]

    def test_near_tie_rows(self):
        rows = np.array([0, 0, 0, 1, 1, 1, 2, 3, 3])
        keys = np.array([9.0, 5.0, 5.0 - 1e-13,   # last pick ties the next key
                         7.0, 6.0, 6.0,           # a tie past the picks
                         2.0,                     # equal to the next row's first
                         2.0, 2.0 - 1e-9])        # apart by more than 1e-12
        picked = np.array([True, True, False, True, False, False, True, True, False])
        assert _near_tie_rows(rows, keys, picked) == [0]

    def test_equal_keys_pick_in_column_order(self):
        rng = ScriptedRng([0.5] * 100)
        picks = _gumbel_top_m(rng, np.zeros(50), np.array([3, 50]))
        assert picks.tolist() == [0, 1, 2] + list(range(50))
