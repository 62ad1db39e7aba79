"""Hashtag-based friendship scoring.

Users and hashtags form a weighted bipartite graph (edge weight = the user's
share count of the hashtag).  Weight-proportional random walks over the graph
feed a CBOW trainer; the learned per-user vectors are hashtag profiles, and
two users are scored by their profiles' cosine distance.  Evaluation compares
that score against set-overlap baselines with a rank-based AUC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, sorted_distinct, write_csv, write_json
from .embedding import TrainConfig, cosine_distance, train

USER_PREFIX = "u:"
TAG_PREFIX = "h:"


class GraphError(ValueError):
    """The corpus cannot produce a usable bipartite graph."""


@dataclass
class WalkConfig:
    walk_times: int = 80
    walk_length: int = 120
    dimension: int = 512
    context_radius: int = 10
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.05
    min_learning_rate: float = 1e-4
    seed: int = 0

    def validate(self) -> None:
        if min(self.walk_times, self.walk_length, self.dimension,
               self.context_radius, self.negatives, self.epochs) < 1:
            raise ValueError("all walk configuration values must be positive")


@dataclass
class BipartiteGraph:
    """Weighted user-hashtag graph in CSR form over a combined node space.

    Node ids 0..len(users)-1 are users, the rest are hashtags.  Node names
    carry a partition prefix so user and hashtag labels can never collide.
    """

    users: list[str]
    hashtags: list[str]
    offsets: np.ndarray       # len(nodes)+1
    neighbors: np.ndarray     # flat neighbor node ids
    weights: np.ndarray       # flat edge weights, aligned with neighbors
    excluded_users: list[str]

    @property
    def n_nodes(self) -> int:
        return len(self.users) + len(self.hashtags)


def build_graph(corpus: Corpus) -> BipartiteGraph:
    """Weighted bipartite graph from share counts.

    Users with no hashtags are left out of the graph and listed in
    ``excluded_users``.
    """
    pair_users, pair_tags, counts = corpus.user_tag_pairs
    if not len(counts):
        raise GraphError("corpus has no hashtag-bearing posts")

    sharers = sorted(sorted_distinct(pair_users).tolist(), key=corpus.user_names.__getitem__)
    users = [corpus.user_names[u] for u in sharers]
    excluded = sorted(corpus.users - set(users))
    # user nodes in name order, then one hashtag node per hashtag id (every
    # id of the table is shared, so none dangles)
    node = np.empty(len(corpus.user_names), dtype=np.int64)
    node[sharers] = np.arange(len(sharers))
    u, t = node[pair_users], len(users) + pair_tags
    # each edge once per direction, every row's neighbours ascending
    src, dst = np.concatenate([u, t]), np.concatenate([t, u])
    order = np.lexsort((dst, src))
    offsets = np.zeros(len(users) + len(corpus.tag_names) + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=len(offsets) - 1), out=offsets[1:])
    weights = np.concatenate([counts, counts])[order].astype(np.float64)
    return BipartiteGraph(
        users=users, hashtags=list(corpus.tag_names), offsets=offsets,
        neighbors=dst[order], weights=weights, excluded_users=excluded,
    )


def _alias_tables(graph: BipartiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per-node alias tables (flat, same layout as the CSR arrays).  Vose's
    pairing runs on Python floats, which round as numpy's float64 does."""
    accept = np.zeros(len(graph.weights))
    alias = np.zeros(len(graph.weights), dtype=np.int64)
    offsets = graph.offsets.tolist()
    for node in range(graph.n_nodes):
        lo, hi = offsets[node], offsets[node + 1]
        w = graph.weights[lo:hi]
        n = len(w)
        if n == 0:
            raise GraphError(f"dangling node {node} with degree 0")
        scaled = (w * n / w.sum()).tolist()
        small = [i for i, x in enumerate(scaled) if x < 1.0]
        large = [i for i, x in enumerate(scaled) if x >= 1.0]
        acc = [1.0] * n
        ali = list(range(n))
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


def random_walks(graph: BipartiteGraph, config: WalkConfig) -> list[list[str]]:
    """walk_times weight-proportional walks from every user node.

    A walk is its start node plus walk_length sampled steps; partitions
    alternate by construction.  Deterministic under the config seed.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    accept, alias = _alias_tables(graph)
    starts = np.repeat(np.arange(len(graph.users)), config.walk_times)
    n_walks = len(starts)
    trace = np.zeros((n_walks, config.walk_length + 1), dtype=np.int64)
    trace[:, 0] = starts
    cur = starts.copy()
    for step in range(1, config.walk_length + 1):
        deg = graph.offsets[cur + 1] - graph.offsets[cur]
        slot = (rng.random(n_walks) * deg).astype(np.int64)
        flat = graph.offsets[cur] + slot
        keep = rng.random(n_walks) < accept[flat]
        chosen = np.where(keep, slot, alias[flat])
        cur = graph.neighbors[graph.offsets[cur] + chosen]
        trace[:, step] = cur
    # one str per node, so every token of a node is that one object
    names = np.array([USER_PREFIX + u for u in graph.users]
                     + [TAG_PREFIX + h for h in graph.hashtags], dtype=object)
    return names[trace].tolist()


def learn_profiles(walks: list[list[str]], config: WalkConfig) -> dict[str, np.ndarray]:
    """CBOW over walk traces; the learned vector of each user node, by user
    (hashtag-node vectors are dropped)."""
    config.validate()
    if not walks:
        raise ValueError("no walks to learn from")
    train_config = TrainConfig(
        mode="cbow",
        dimension=config.dimension,
        window=config.context_radius,
        negatives=config.negatives,
        epochs=config.epochs,
        learning_rate=config.learning_rate,
        min_learning_rate=config.min_learning_rate,
        batch_size=1024,
        min_count=1,
        seed=config.seed,
    )
    table = train(walks, train_config)
    return {
        token[len(USER_PREFIX):]: table.vectors[i]
        for i, token in enumerate(table.vocab.tokens)
        if token.startswith(USER_PREFIX)
    }


def baselines(corpus: Corpus, pair: tuple[str, str],
              user_tags: dict[str, set[str]] | None = None) -> dict[str, float]:
    """Set-overlap link scores: common hashtags, Jaccard index, and
    preferential attachment (product of set sizes)."""
    if user_tags is None:
        user_tags = corpus.user_hashtags()
    a, b = pair
    ha = user_tags.get(a, set())
    hb = user_tags.get(b, set())
    inter = len(ha & hb)
    union = len(ha | hb)
    return {
        "common": float(inter),
        "jaccard": inter / union if union else 0.0,
        "preferential": float(len(ha) * len(hb)),
    }


def sample_strangers(
    corpus: Corpus,
    n: int,
    seed: int = 0,
    users: list[str] | None = None,
) -> list[tuple[str, str]]:
    """n distinct unordered non-friend pairs, uniform without replacement."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return []
    pool = sorted(users) if users is not None else sorted(corpus.users)
    pool_set = set(pool)
    friends = {p for p in corpus.friendships if p[0] in pool_set and p[1] in pool_set}
    max_pairs = len(pool) * (len(pool) - 1) // 2 - len(friends)
    if n > max_pairs:
        raise ValueError(f"only {max_pairs} stranger pairs available, need {n}")
    rng = np.random.default_rng(seed)
    out: set[tuple[str, str]] = set()
    ordered: list[tuple[str, str]] = []
    while len(ordered) < n:
        i = int(rng.integers(len(pool)))
        j = int(rng.integers(len(pool)))
        if i == j:
            continue
        pair = (pool[i], pool[j]) if pool[i] < pool[j] else (pool[j], pool[i])
        if pair in friends or pair in out:
            continue
        out.add(pair)
        ordered.append(pair)
    return ordered


def auc(scores_pos, scores_neg) -> float:
    """Rank-based AUC with ties counted one half.

    Equals the probability a random positive outscores a random negative.
    """
    pos = np.asarray(scores_pos, dtype=np.float64)
    neg = np.asarray(scores_neg, dtype=np.float64)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("both score lists must be non-empty")
    # average ranks (1-based), ties sharing the mean of the ranks they span
    _, inverse, counts = np.unique(np.concatenate([pos, neg]),
                                   return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[inverse]
    rank_sum = ranks[: len(pos)].sum()
    return float((rank_sum - len(pos) * (len(pos) + 1) / 2) / (len(pos) * len(neg)))


@dataclass
class PairScore:
    user_a: str
    user_b: str
    distance: float
    label: str               # "friend" or "stranger"
    common: float
    jaccard: float
    preferential: float


@dataclass
class PredictionReport:
    pairs: list[PairScore]
    auc_scores: dict[str, float]
    zero_common_auc: float | None
    n_friend_pairs: int
    n_stranger_pairs: int
    skipped_friend_pairs: list[tuple[str, str]] = field(default_factory=list)
    excluded_users: list[str] = field(default_factory=list)


def friendship_eval(corpus: Corpus, walk_config: WalkConfig | None = None) -> PredictionReport:
    """End-to-end evaluation: graph, walks, profiles, then AUC of the profile
    distance against the three set-overlap baselines.

    Uses every friend pair whose users both have profiles plus an equal
    number of sampled stranger pairs (sampling seed derived from the walk
    seed), and also reports the profile AUC restricted to pairs sharing no
    common hashtag.
    """
    if walk_config is None:
        walk_config = WalkConfig()
    if len(corpus.friendships) < 10:
        raise ValueError("need at least 10 friend pairs to evaluate")
    graph = build_graph(corpus)
    walks = random_walks(graph, walk_config)
    profiles = learn_profiles(walks, walk_config)

    friend_pairs = sorted(corpus.friendships)
    usable = [p for p in friend_pairs if p[0] in profiles and p[1] in profiles]
    usable_set = set(usable)
    skipped = [p for p in friend_pairs if p not in usable_set]
    if not usable:
        raise ValueError("no friend pair has profiles on both sides")
    strangers = sample_strangers(
        corpus, len(usable), seed=walk_config.seed + 1,
        users=sorted(profiles),
    )

    user_tags = corpus.user_hashtags()
    rows: list[PairScore] = []
    for label, pair_list in (("friend", usable), ("stranger", strangers)):
        for a, b in pair_list:
            base = baselines(corpus, (a, b), user_tags)
            rows.append(PairScore(
                user_a=a, user_b=b,
                distance=cosine_distance(profiles[a], profiles[b]),
                label=label,
                common=base["common"], jaccard=base["jaccard"],
                preferential=base["preferential"],
            ))

    def method_auc(score_of) -> float:
        pos = [score_of(r) for r in rows if r.label == "friend"]
        neg = [score_of(r) for r in rows if r.label == "stranger"]
        return auc(pos, neg)

    auc_scores = {
        "profile": method_auc(lambda r: -r.distance),
        "common": method_auc(lambda r: r.common),
        "jaccard": method_auc(lambda r: r.jaccard),
        "preferential": method_auc(lambda r: r.preferential),
    }
    zero = [r for r in rows if r.common == 0]
    zero_pos = [-r.distance for r in zero if r.label == "friend"]
    zero_neg = [-r.distance for r in zero if r.label == "stranger"]
    zero_auc = auc(zero_pos, zero_neg) if zero_pos and zero_neg else None

    return PredictionReport(
        pairs=rows,
        auc_scores=auc_scores,
        zero_common_auc=zero_auc,
        n_friend_pairs=len(usable),
        n_stranger_pairs=len(strangers),
        skipped_friend_pairs=skipped,
        excluded_users=graph.excluded_users,
    )


def export_csv(report: PredictionReport, path: str | Path) -> None:
    write_csv(path, ["user_a", "user_b", "distance", "label",
                     "common", "jaccard", "preferential"],
              ([r.user_a, r.user_b, repr(r.distance), r.label,
                repr(r.common), repr(r.jaccard), repr(r.preferential)] for r in report.pairs))


def export_summary(report: PredictionReport, config: WalkConfig,
                   path: str | Path) -> None:
    write_json(path, {
        "auc": {k: report.auc_scores[k] for k in sorted(report.auc_scores)},
        "zero_common_hashtag_auc": report.zero_common_auc,
        "n_friend_pairs": report.n_friend_pairs,
        "n_stranger_pairs": report.n_stranger_pairs,
        "n_skipped_friend_pairs": len(report.skipped_friend_pairs),
        "n_excluded_users": len(report.excluded_users),
        "walk_config": {
            "walk_times": config.walk_times,
            "walk_length": config.walk_length,
            "dimension": config.dimension,
            "context_radius": config.context_radius,
            "negatives": config.negatives,
            "epochs": config.epochs,
            "seed": config.seed,
        },
    })
