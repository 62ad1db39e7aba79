import hashlib
import itertools
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare, ks_2samp

from conftest import cli_env
from hashscope import cli, synth
from hashscope.corpus import QuarterBucket, save_corpus
from hashscope.social import sample_strangers
from hashscope.synth import (
    SynthesisError, SyntheticSpec, _successive_picks, generate_synthetic,
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
     "4f6d07fbc8dc644f19cb814e39ceac4f25d0d6a3455e819deb85763c2c0343f9"),
    (SyntheticSpec(users=60, hashtags=90, posts=3000, communities=4, adoption_growth=True,
                   located_rate=0.6, seed=22),
     "5bf0982237f016edebcff3b47101e0b5563f5ea1f83dc83d1c90c37d85fc5ed9"),
    (SyntheticSpec(users=50, hashtags=200, posts=3000, communities=1, periodic=5, meteor=3,
                   seed=23),
     "fe84d98d0846fd551b1de145d73036a733a6bcb9b16a5c9d5e24115c9d7a9637"),
], ids=["pair-affinity-0.4", "adoption-growth-located", "one-community"])
def test_pinned_corpus_digest(spec, digest):
    assert corpus_digest(generate_synthetic(spec)) == digest


def ref_gumbel_top_m(rng, log_w, sizes):
    """The generator's former sampler, kept as the reference law: each row
    takes the ``size`` columns of largest Gumbel key ``log_w + g`` (Kool et
    al. 2019), from an ``argpartition`` prefix (whose order numpy does not
    specify, so only the set of a row's picks is compared)."""
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


def picks_by_row(log_weights, group, sizes, seed):
    """``_successive_picks`` as one array of picks per input row, each
    local to its row's pool and in pick order."""
    rows, picks = _successive_picks(np.random.default_rng(seed), log_weights, group, sizes)
    lengths = np.array([len(lw) for lw in log_weights])
    first = np.cumsum(lengths) - lengths
    assert np.array_equal(np.bincount(rows, minlength=len(sizes)), sizes)
    order = np.argsort(rows, kind="stable")
    local = picks[order] - first[group[rows[order]]]
    return np.split(local, np.cumsum(sizes)[:-1])


def ref_successive_picks(rng, log_weights, group, sizes):
    """``_successive_picks`` through the reference sampler, group by group."""
    lengths = np.array([len(lw) for lw in log_weights])
    first = np.cumsum(lengths) - lengths
    rows, picks = [], []
    for g, log_w in enumerate(log_weights):
        r = np.flatnonzero(group == g)
        rows.append(np.repeat(r, sizes[r]))
        picks.append(first[g] + np.concatenate(ref_gumbel_top_m(rng, log_w, sizes[r])))
    return np.concatenate(rows), np.concatenate(picks)


def binned(counts, expected_min=5.0):
    """The 2 x v table ``counts`` with the columns whose cells would expect
    fewer than ``expected_min`` merged into one column, so that the
    chi-square approximation holds."""
    rare = counts.sum(axis=0) < expected_min * len(counts)
    merged = counts[:, rare].sum(axis=1, keepdims=True)
    return np.hstack([counts[:, ~rare], merged]) if merged.any() else counts[:, ~rare]


def same_law(ref, new, v):
    """The p-value of a two-sample chi-square test that the column indices
    ``ref`` and ``new`` (each in range(v)) come from one distribution."""
    table = binned(np.array([np.bincount(ref, minlength=v), np.bincount(new, minlength=v)]))
    return chi2_contingency(table).pvalue


def tag_quarter_counts(corpus):
    counts = Counter()
    for post in corpus.posts:
        quarter = QuarterBucket.from_timestamp(post.time).index
        counts.update((tag, quarter) for tag in post.hashtags)
    return counts


class ScriptedRng:
    """A generator stand-in whose ``random(n)`` returns the next n of ``values``."""

    def __init__(self, values):
        self.values, self.taken = list(values), 0

    def random(self, n):
        out = self.values[self.taken:self.taken + n]
        self.taken += n
        return np.array(out, dtype=np.float64)


class TestGumbelTopM:
    """The sampler against the law of the reference Gumbel-top-m sampler.
    Every test draws with fixed seeds, so its p-value is fixed too."""

    @pytest.mark.parametrize("zipf_exponent", [0.0, 0.8])
    @pytest.mark.parametrize("v", [1, 2, 22, 175, 375, 3000])
    def test_matches_reference_sampler(self, v, zipf_exponent):
        # how often each column is picked, rows of mixed sizes, some of them
        # as large as the pool
        log_w = pool_log_w(v, zipf_exponent, seed=v) if zipf_exponent else np.zeros(v)
        sizes = post_sizes(v, 3000, seed=v)
        if v <= 22:
            sizes[::5] = v
        ref = np.concatenate(ref_gumbel_top_m(np.random.default_rng(7), log_w, sizes))
        new = np.concatenate(picks_by_row([log_w], np.zeros(len(sizes), dtype=np.int64), sizes,
                                          seed=7))
        assert same_law(ref, new, v) > 0.001

    @pytest.mark.parametrize("m", [1, 3, 10])
    @pytest.mark.parametrize("v", [22, 375, 2990])
    def test_inclusion_matches_reference(self, v, m):
        log_w = pool_log_w(v, 0.8, seed=v + m)
        rows = 3000 if v == 2990 else 6000
        sizes = np.full(rows, m)
        ref = np.concatenate(ref_gumbel_top_m(np.random.default_rng(v), log_w, sizes))
        new = np.concatenate(picks_by_row([log_w], np.zeros(rows, dtype=np.int64), sizes,
                                          seed=v))
        assert same_law(ref, new, v) > 0.001

    @pytest.mark.parametrize("v", [175, 3000])
    def test_picks_are_top_keys_in_key_order(self, v):
        # the j-th pick against the column of the j-th largest Gumbel key
        log_w = pool_log_w(v, 0.8, seed=102)
        rows, rng = 4000, np.random.default_rng(2)
        ref = np.concatenate([np.argsort(-(log_w + rng.gumbel(size=(500, v))), axis=1)[:, :3]
                              for _ in range(rows // 500)])
        new = np.array(picks_by_row([log_w], np.zeros(rows, dtype=np.int64),
                                    np.full(rows, 3), seed=2))
        for j in range(3):
            assert same_law(ref[:, j], new[:, j], v) > 0.001, j

    @pytest.mark.parametrize("spec", [
        # test_acceptance.py's criterion 8 spec: synonym swaps after the picks
        SyntheticSpec(users=300, hashtags=168, posts=30000, years=1, start_year=2013,
                      communities=24, community_mix=0.92, pair_affinity=1.0,
                      zipf_exponent=0.8, mean_extra_tags=2.5, seed=17),
        # one community: every post draws from the whole pool
        SyntheticSpec(users=200, hashtags=1200, posts=8000, periodic=10, meteor=5,
                      communities=1, located_rate=0.3, seed=4),
    ], ids=["pair-affinity", "one-community"])
    def test_generator_matches_reference_sampler(self, spec, monkeypatch):
        # the whole generator, its group weights and swaps included, against
        # itself on the reference sampler: how often each hashtag is used in
        # each quarter
        new = tag_quarter_counts(generate_synthetic(spec))
        monkeypatch.setattr(synth, "_successive_picks", ref_successive_picks)
        old = tag_quarter_counts(generate_synthetic(spec))
        keys = sorted(old.keys() | new.keys())
        table = binned(np.array([[old[k] for k in keys], [new[k] for k in keys]]))
        assert chi2_contingency(table).pvalue > 0.001


class TestSuccessivePicks:
    def test_first_picks_follow_the_weights(self):
        # a first pick is one inverse-CDF draw: frequency w / W exactly
        log_w = pool_log_w(22, 0.8, seed=1)
        rows = 20000
        firsts = [r[0] for r in picks_by_row([log_w], np.zeros(rows, dtype=np.int64),
                                             np.full(rows, 3), seed=2)]
        w = np.exp(log_w)
        stat = chisquare(np.bincount(firsts, minlength=22), rows * w / w.sum())
        assert stat.pvalue > 0.001, stat

    @pytest.mark.parametrize("rounds", [0, 8])
    def test_orders_follow_plackett_luce(self, rounds, monkeypatch):
        # every ordered pick of 3 of 5 hashtags against its exact
        # Plackett-Luce probability; with no rejection rounds every repeat
        # goes to the remaining-weights draw, so that draw's law is tested
        monkeypatch.setattr(synth, "REJECTION_ROUNDS", rounds)
        w = np.array([8.0, 4.0, 2.0, 1.0, 1.0])
        rows = 20000
        picks = picks_by_row([np.log(w)], np.zeros(rows, dtype=np.int64),
                             np.full(rows, 3), seed=3)
        orders = list(itertools.permutations(range(5), 3))
        seen = dict.fromkeys(orders, 0)
        for r in picks:
            seen[tuple(r.tolist())] += 1
        expected = [w[a] / w.sum() * w[b] / (w.sum() - w[a]) * w[c] / (w.sum() - w[a] - w[b])
                    for a, b, c in orders]
        stat = chisquare(list(seen.values()), rows * np.array(expected))
        assert stat.pvalue > 0.001, stat

    def test_rows_get_their_sizes_in_distinct_picks(self, monkeypatch):
        # pools of 1, 4, 30 and 375 hashtags, rows as large as their pool
        # among them, weights as skewed as Zipf exponent 10, and blocks of 7
        # rows, so that rows of one group span blocks
        monkeypatch.setattr(synth, "PICK_BLOCK", 7)
        log_weights = [np.zeros(1), -10 * np.log(np.arange(1, 5)), pool_log_w(30, 0.8, 4),
                       pool_log_w(375, 2.0, 5)]
        lengths = np.array([len(lw) for lw in log_weights])
        rng = np.random.default_rng(6)
        group = rng.integers(0, 4, 500)
        sizes = np.minimum(post_sizes(28, 500, seed=7), lengths[group])
        sizes[::5] = lengths[group[::5]]
        for r, size, g in zip(picks_by_row(log_weights, group, sizes, seed=8), sizes,
                              group):
            assert len(r) == size
            assert len(np.unique(r)) == size
            assert r.min() >= 0 and r.max() < lengths[g]

    def test_underflowing_weights_still_give_distinct_picks(self):
        # exp(-1000) is 0.0 in doubles; such weights are floored, not lost
        log_w = np.array([0.0, -1000.0, -2000.0, -3000.0])
        for r in picks_by_row([log_w], np.zeros(50, dtype=np.int64), np.full(50, 4), seed=9):
            assert sorted(r.tolist()) == [0, 1, 2, 3]

    def test_draw_rounding_up_to_the_next_group_stays_in_its_group(self):
        # group 1's draw 1 + u rounds to 2.0, the start of group 2's CDF
        u = 1.0 - 2.0 ** -53
        assert 1.0 + u == 2.0
        rows, picks = _successive_picks(ScriptedRng([u]), [np.zeros(3)] * 3,
                                        np.array([1]), np.array([1]))
        assert rows.tolist() == [0] and picks.tolist() == [5]

    def test_extreme_weights_finish(self, tmp_path):
        # Zipf exponent 10 over pools of 3 or 4 hashtags: most rows want
        # hashtags of relative weight 1e-10 and less, which redraws alone
        # would take about 1e10 tries to reach
        out = subprocess.run(
            [sys.executable, "-c", "import sys; from hashscope.cli import main; sys.exit(main())",
             "synth", "--seed", "1", "--users", "100", "--hashtags", "30", "--periodic", "0",
             "--rising", "0", "--stable", "0", "--meteor", "0", "--drifted", "0",
             "--communities", "8", "--zipf-exponent", "10", "--posts", "2000",
             "--out", str(tmp_path / "corpus.jsonl")],
            capture_output=True, text=True, env=cli_env(), timeout=60)
        assert out.returncode == 0, out.stderr

