import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from hashscope.corpus import Corpus, PostRecord
from hashscope.embedding import TrainConfig, cosine_distance, init_vectors, build_vocab
from hashscope.social import (
    BipartiteGraph,
    GraphError,
    WalkConfig,
    auc,
    baselines,
    build_graph,
    friendship_eval,
    learn_profiles,
    random_walks,
    sample_strangers,
    _alias_tables,
)
from hashscope.synth import SyntheticSpec, generate_synthetic

from conftest import ts


def posts_for(user_tag_counts, friendships=()):
    posts = []
    i = 0
    for user, tag_counts in user_tag_counts.items():
        for tag, n in tag_counts.items():
            for _ in range(n):
                posts.append(PostRecord(user, ts(2013) + i, frozenset({tag})))
                i += 1
    return Corpus(posts=posts, friendships=set(friendships))


class TestBuildGraph:
    def test_edge_weight_is_share_count(self):
        corpus = posts_for({"u": {"a": 3}})
        graph = build_graph(corpus)
        u, a = 0, len(graph.users) + graph.hashtags.index("a")
        lo, hi = graph.offsets[u], graph.offsets[u + 1]
        assert list(graph.neighbors[lo:hi]) == [a]
        assert list(graph.weights[lo:hi]) == [3.0]

    def test_isolated_user_excluded_but_reported(self):
        posts = [
            PostRecord("active", ts(2013), frozenset({"a"})),
            PostRecord("silent", ts(2013) + 1, frozenset()),
        ]
        graph = build_graph(Corpus(posts=posts))
        assert graph.users == ["active"]
        assert graph.excluded_users == ["silent"]

    def test_edge_weights_sum_to_hashtag_instances(self):
        corpus = generate_synthetic(SyntheticSpec(users=50, hashtags=80,
                                                  posts=3000, seed=1))
        graph = build_graph(corpus)
        instances = sum(len(p.hashtags) for p in corpus.posts)
        assert graph.weights.sum() / 2 == instances  # each edge is stored twice

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_csr_matches_per_node_reference(self, seed):
        corpus = generate_synthetic(SyntheticSpec(users=60, hashtags=90, posts=3000,
                                                  communities=4, seed=seed))
        graph = build_graph(corpus)
        # reference: every node's neighbours in ascending node id, weight = shares
        shares = {}
        for post in corpus.posts:
            for tag in post.hashtags:
                shares[post.user, tag] = shares.get((post.user, tag), 0) + 1
        ids = {name: i for i, name in enumerate(graph.users + graph.hashtags)}
        rows = [[] for _ in ids]
        for (user, tag), n in shares.items():
            rows[ids[user]].append((ids[tag], n))
            rows[ids[tag]].append((ids[user], n))
        rows = [sorted(row) for row in rows]
        assert graph.users == sorted({u for u, _ in shares})
        assert graph.hashtags == sorted({t for _, t in shares})
        assert np.array_equal(graph.offsets, np.cumsum([0] + [len(r) for r in rows]))
        assert np.array_equal(graph.neighbors, [i for row in rows for i, _ in row])
        assert np.array_equal(graph.weights, [float(n) for row in rows for _, n in row])
        assert graph.neighbors.dtype == np.int64 and graph.weights.dtype == np.float64

    def test_empty_graph_rejected(self):
        posts = [PostRecord("u", ts(2013), frozenset())]
        with pytest.raises(GraphError):
            build_graph(Corpus(posts=posts))


def ref_alias_tables(graph):
    """The alias-table construction on numpy scalars and arrays that the
    list-based loop replaced."""
    accept = np.zeros(len(graph.weights))
    alias = np.zeros(len(graph.weights), dtype=np.int64)
    for node in range(graph.n_nodes):
        lo, hi = graph.offsets[node], graph.offsets[node + 1]
        w = graph.weights[lo:hi]
        n = len(w)
        scaled = w * n / w.sum()
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        acc = np.ones(n)
        ali = np.arange(n)
        while small and large:
            s = small.pop()
            l = large.pop()
            acc[s] = scaled[s]
            ali[s] = l
            scaled[l] -= 1.0 - scaled[s]
            (small if scaled[l] < 1.0 else large).append(l)
        accept[lo:hi] = acc
        alias[lo:hi] = ali
    return accept, alias


def weighted_graph(rows):
    """A graph whose node i has the edge weights ``rows[i]`` (neighbours are
    not read by the alias tables)."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    weights = np.concatenate([np.asarray(r, dtype=np.float64) for r in rows])
    return BipartiteGraph(users=[f"u{i}" for i in range(len(rows))], hashtags=[],
                          offsets=offsets, neighbors=np.zeros(len(weights), dtype=np.int64),
                          weights=weights, excluded_users=[])


class TestAliasTables:
    """The alias tables equal the numpy-scalar construction byte for byte."""

    def assert_matches_reference(self, graph):
        accept, alias = _alias_tables(graph)
        ref_accept, ref_alias = ref_alias_tables(graph)
        assert accept.dtype == ref_accept.dtype and alias.dtype == ref_alias.dtype
        assert accept.tobytes() == ref_accept.tobytes()
        assert alias.tobytes() == ref_alias.tobytes()

    def test_shaped_weights(self):
        rng = np.random.default_rng(8)
        # uniform, one-hot, degree 1, a scaled weight of exactly 1.0 (which
        # must go to the large list), extremes, then random weights
        rows = [[3.0] * 7, [0.0, 0.0, 5.0, 0.0], [1.0], [2.0], [1.0, 2.0, 3.0],
                [1.0, 1e-12, 1e12], rng.integers(1, 40, 50), rng.random(13),
                rng.random(1000) ** 4, np.arange(1.0, 11.0)]
        self.assert_matches_reference(weighted_graph(rows))

    def test_synthetic_graph(self):
        corpus = generate_synthetic(SyntheticSpec(users=60, hashtags=80, posts=4000, seed=3))
        self.assert_matches_reference(build_graph(corpus))

    def test_dangling_node_rejected(self):
        with pytest.raises(GraphError, match="dangling node 1"):
            _alias_tables(weighted_graph([[1.0, 2.0], [], [3.0]]))


class TestRandomWalks:
    def test_star_graph_alternates(self):
        corpus = posts_for({"u": {"a": 2}})
        graph = build_graph(corpus)
        walks = random_walks(graph, WalkConfig(walk_times=2, walk_length=6, seed=0))
        for walk in walks:
            assert walk[::2] == ["u:u"] * 4
            assert walk[1::2] == ["h:a"] * 3

    def test_walk_count_exact(self):
        corpus = generate_synthetic(SyntheticSpec(users=20, hashtags=40,
                                                  posts=1000, seed=2))
        graph = build_graph(corpus)
        config = WalkConfig(walk_times=7, walk_length=5, seed=0)
        walks = random_walks(graph, config)
        assert len(walks) == len(graph.users) * 7
        assert all(len(w) == 6 for w in walks)

    def test_first_step_follows_edge_weights(self):
        corpus = posts_for({"u": {"heavy": 9, "light": 1}, "v": {"heavy": 1}})
        graph = build_graph(corpus)
        walks = random_walks(graph, WalkConfig(walk_times=10000, walk_length=1, seed=3))
        first = [w[1] for w in walks if w[0] == "u:u"]
        freq = first.count("h:heavy") / len(first)
        assert abs(freq - 0.9) <= 0.02

    def test_transition_frequencies_chi_square(self):
        corpus = posts_for({"u": {"a": 5, "b": 3, "c": 2}, "v": {"a": 1}})
        graph = build_graph(corpus)
        walks = random_walks(graph, WalkConfig(walk_times=10000, walk_length=1, seed=4))
        first = [w[1] for w in walks if w[0] == "u:u"]
        observed = [first.count("h:a"), first.count("h:b"), first.count("h:c")]
        expected = [len(first) * 0.5, len(first) * 0.3, len(first) * 0.2]
        assert chisquare(observed, expected).pvalue > 0.001

    def test_deterministic_under_seed(self):
        corpus = generate_synthetic(SyntheticSpec(users=15, hashtags=30,
                                                  posts=800, seed=5))
        graph = build_graph(corpus)
        config = WalkConfig(walk_times=3, walk_length=10, seed=9)
        assert random_walks(graph, config) == random_walks(graph, config)

    def test_tokens_of_one_node_are_one_string(self):
        corpus = generate_synthetic(SyntheticSpec(users=15, hashtags=30,
                                                  posts=800, seed=6))
        walks = random_walks(build_graph(corpus), WalkConfig(walk_times=2, walk_length=9,
                                                             seed=1))
        first: dict[str, str] = {}
        for token in (t for walk in walks for t in walk):
            assert first.setdefault(token, token) is token
        assert len(first) < sum(map(len, walks))

    def test_partitions_alternate(self):
        corpus = generate_synthetic(SyntheticSpec(users=15, hashtags=30,
                                                  posts=800, seed=6))
        graph = build_graph(corpus)
        walks = random_walks(graph, WalkConfig(walk_times=2, walk_length=9, seed=1))
        for walk in walks:
            for i, node in enumerate(walk):
                assert node.startswith("u:" if i % 2 == 0 else "h:")


def two_community_corpus():
    users_a = [f"a{i}" for i in range(6)]
    users_b = [f"b{i}" for i in range(6)]
    counts = {}
    for i, u in enumerate(users_a):
        counts[u] = {f"x{j}": 2 for j in range(4)}
    for i, u in enumerate(users_b):
        counts[u] = {f"y{j}": 2 for j in range(4)}
    return posts_for(counts)


class TestLearnProfiles:
    def test_disjoint_communities_separate(self):
        corpus = two_community_corpus()
        graph = build_graph(corpus)
        config = WalkConfig(walk_times=20, walk_length=20, dimension=16,
                            context_radius=5, epochs=5, learning_rate=0.05, seed=2)
        profiles = learn_profiles(random_walks(graph, config), config)
        intra, inter = [], []
        users = sorted(profiles)
        for i, u in enumerate(users):
            for v in users[i + 1:]:
                d = cosine_distance(profiles[u], profiles[v])
                (intra if u[0] == v[0] else inter).append(d)
        assert np.mean(intra) < np.mean(inter)

    def test_zero_learning_rate_keeps_initialization(self):
        corpus = two_community_corpus()
        graph = build_graph(corpus)
        config = WalkConfig(walk_times=2, walk_length=6, dimension=8,
                            context_radius=3, epochs=1, learning_rate=0.0,
                            min_learning_rate=0.0, seed=3)
        walks = random_walks(graph, config)
        profiles = learn_profiles(walks, config)
        train_config = TrainConfig(mode="cbow", dimension=8, window=3,
                                   negatives=config.negatives, epochs=1,
                                   learning_rate=0.0, min_learning_rate=0.0,
                                   min_count=1, seed=3)
        vocab = build_vocab(walks, 1)
        init = init_vectors(vocab, train_config)
        for user, vec in profiles.items():
            assert np.array_equal(vec, init[vocab.index["u:" + user]])

    def test_deterministic(self):
        corpus = two_community_corpus()
        graph = build_graph(corpus)
        config = WalkConfig(walk_times=4, walk_length=8, dimension=8,
                            context_radius=3, epochs=2, seed=5)
        walks = random_walks(graph, config)
        p1 = learn_profiles(walks, config)
        p2 = learn_profiles(walks, config)
        for user in p1:
            assert np.array_equal(p1[user], p2[user])

    def test_hashtag_vectors_dropped(self):
        corpus = two_community_corpus()
        graph = build_graph(corpus)
        config = WalkConfig(walk_times=2, walk_length=6, dimension=8,
                            context_radius=3, epochs=1, seed=1)
        profiles = learn_profiles(random_walks(graph, config), config)
        assert set(profiles) == set(graph.users)


class TestBaselines:
    def test_table_definitions(self):
        corpus = posts_for({"u": {"a": 1, "b": 1, "c": 1},
                            "v": {"b": 1, "c": 1, "d": 1}})
        scores = baselines(corpus, ("u", "v"))
        assert scores == {"common": 2.0, "jaccard": 0.5, "preferential": 9.0}

    def test_disjoint_sets(self):
        corpus = posts_for({"u": {"a": 1, "b": 1}, "v": {"x": 1, "y": 1, "z": 1}})
        scores = baselines(corpus, ("u", "v"))
        assert scores == {"common": 0.0, "jaccard": 0.0, "preferential": 6.0}

    def test_identical_sets_jaccard_one(self):
        corpus = posts_for({"u": {"a": 2, "b": 1}, "v": {"a": 1, "b": 3}})
        assert baselines(corpus, ("u", "v"))["jaccard"] == 1.0

    def test_empty_sets_jaccard_zero(self):
        posts = [PostRecord("u", ts(2013), frozenset()),
                 PostRecord("v", ts(2013) + 1, frozenset())]
        corpus = Corpus(posts=posts)
        assert baselines(corpus, ("u", "v"))["jaccard"] == 0.0


class TestSampleStrangers:
    def test_complete_friendship_graph_rejected(self):
        users = ["a", "b", "c"]
        posts = [PostRecord(u, ts(2013), frozenset({"t"})) for u in users]
        friendships = {("a", "b"), ("a", "c"), ("b", "c")}
        corpus = Corpus(posts=posts, friendships=friendships)
        with pytest.raises(ValueError, match="stranger pairs"):
            sample_strangers(corpus, 1, seed=0)

    def test_zero_returns_empty(self):
        corpus = posts_for({"u": {"a": 1}, "v": {"a": 1}})
        assert sample_strangers(corpus, 0, seed=0) == []

    def test_samples_avoid_friends(self):
        spec = SyntheticSpec(users=60, hashtags=50, posts=1500,
                             friends_per_user=5.0, seed=7)
        corpus = generate_synthetic(spec)
        pairs = sample_strangers(corpus, 200, seed=1)
        assert len(pairs) == 200
        assert len(set(pairs)) == 200
        assert not (set(pairs) & corpus.friendships)

    def test_deterministic(self):
        corpus = generate_synthetic(SyntheticSpec(users=40, hashtags=40,
                                                  posts=1000, seed=8))
        assert sample_strangers(corpus, 50, seed=5) == sample_strangers(corpus, 50, seed=5)

    def test_every_stranger_pair_drawn_exactly_once(self):
        users = [f"u{i}" for i in range(7)]
        friends = {("u0", "u1"), ("u2", "u5"), ("u3", "u6")}
        corpus = posts_for({u: {"a": 1} for u in users}, friendships=friends)
        complement = {(a, b) for i, a in enumerate(users) for b in users[i + 1:]} - friends
        pairs = sample_strangers(corpus, len(complement), seed=3)
        assert len(pairs) == len(complement) == 18
        assert set(pairs) == complement
        assert pairs == sample_strangers(corpus, len(complement), seed=3)
        assert pairs != sample_strangers(corpus, len(complement), seed=4)

    def test_dense_request_stays_in_the_user_pool(self):
        users = [f"u{i}" for i in range(8)]
        friends = {("u0", "u7"), ("u1", "u2")}
        corpus = posts_for({u: {"a": 1} for u in users}, friendships=friends)
        pool = users[1:]                    # 21 pairs, one of them friends
        pairs = sample_strangers(corpus, 20, seed=1, users=pool)
        assert len(pairs) == 20
        assert set(pairs) == {(a, b) for i, a in enumerate(pool) for b in pool[i + 1:]} - friends


def brute_force_auc(pos, neg):
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_separation(self):
        assert auc([2.0, 3.0], [0.0, 1.0]) == 1.0

    def test_identical_constants_half(self):
        assert auc([1.0] * 5, [1.0] * 7) == 0.5

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pos = rng.integers(0, 10, 200).astype(float)
            neg = rng.integers(0, 10, 200).astype(float)
            assert abs(auc(pos, neg) - brute_force_auc(pos, neg)) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auc([], [1.0])

    @given(st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_increasing_transform(self, scale):
        rng = np.random.default_rng(10)
        pos = rng.random(50)
        neg = rng.random(60)
        base = auc(pos, neg)
        assert auc(np.exp(scale * pos), np.exp(scale * neg)) == pytest.approx(base, abs=1e-12)

    def test_shuffled_labels_near_half(self):
        rng = np.random.default_rng(11)
        scores = rng.random(1000)
        labels = rng.random(1000) < 0.5
        value = auc(scores[labels], scores[~labels])
        assert 0.45 <= value <= 0.55


@pytest.fixture(scope="module")
def report():
    spec = SyntheticSpec(users=200, hashtags=800, posts=4000, years=2,
                         communities=8, community_mix=0.85, homophily=0.8,
                         zipf_exponent=0.5, friends_per_user=6.0,
                         mean_extra_tags=1.3, seed=11)
    corpus = generate_synthetic(spec)
    config = WalkConfig(walk_times=10, walk_length=40, dimension=32,
                        context_radius=10, epochs=4, learning_rate=0.05, seed=11)
    return friendship_eval(corpus, config)


class TestFriendshipEval:
    def test_equal_friend_and_stranger_counts(self, report):
        assert report.n_friend_pairs == report.n_stranger_pairs
        friends = sum(1 for r in report.pairs if r.label == "friend")
        strangers = sum(1 for r in report.pairs if r.label == "stranger")
        assert friends == report.n_friend_pairs
        assert strangers == report.n_stranger_pairs

    def test_profile_beats_chance_under_homophily(self, report):
        assert report.auc_scores["profile"] > 0.7

    def test_all_methods_reported(self, report):
        assert set(report.auc_scores) == {"profile", "common", "jaccard", "preferential"}
        for value in report.auc_scores.values():
            assert 0.0 <= value <= 1.0

    def test_distances_within_cosine_range(self, report):
        for r in report.pairs:
            assert 0.0 <= r.distance <= 2.0

    def test_too_few_friend_pairs_rejected(self):
        corpus = posts_for({"u": {"a": 1}, "v": {"a": 1}}, friendships=[("u", "v")])
        with pytest.raises(ValueError, match="friend pairs"):
            friendship_eval(corpus, WalkConfig(walk_times=1, walk_length=2, seed=0))
