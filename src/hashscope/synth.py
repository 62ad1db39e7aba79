"""Synthetic corpus generation with planted ground truth.

The generator plants four kinds of structure that the analysis pipelines are
expected to recover:

* temporal classes (periodic / rising / stable / meteor share profiles),
* synonym communities of hashtags that co-occur within posts,
* drifted hashtags that switch co-occurrence community at a chosen year and
  are dominated by a single sharer in each period,
* friendship homophily (friends tend to live in the same hashtag community).

Everything is a pure function of the spec, including its seed: the same spec
always yields a byte-identical corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .corpus import Corpus, MAX_HASHTAGS_PER_POST, post_columns

TEMPORAL_CLASSES = ("periodic", "rising", "stable", "meteor")

CATEGORIES = (
    "park", "cafe", "restaurant", "bar", "office",
    "museum", "gym", "theater", "hotel", "market",
)
# relative propensity to attach hashtags at each category; bar and office suppressed
CATEGORY_TAG_RATES = (1.3, 1.1, 1.0, 0.35, 0.5, 1.2, 1.0, 1.1, 0.9, 1.0)

LOCATIONS_PER_CATEGORY = 3

DRIFT_OWNER_RATE = 0.8   # per-post chance a drifted hashtag's current owner attaches it
DRIFT_COMM_RATE = 0.002  # the same for any other member of its current community
# hashtag-bearing share of posts at the corpus's start and end under adoption_growth
ADOPTION_START, ADOPTION_END = 0.15, 0.9


class SynthesisError(ValueError):
    """The requested spec cannot be generated."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a planted-ground-truth corpus.

    Counts for the four temporal classes plant that many hashtags with the
    corresponding share profile; ``communities`` partitions all non-drifted
    hashtags (and all users) round-robin into co-occurrence groups;
    ``drifted`` hashtags switch community at ``drift_year`` and are mostly
    shared by one owner user per period; ``homophily`` is the probability a
    sampled friend pair is drawn from within a single community.
    """

    users: int = 200
    hashtags: int = 400
    posts: int = 20000
    start_year: int = 2012
    years: int = 4

    periodic: int = 0
    rising: int = 0
    stable: int = 0
    meteor: int = 0

    communities: int = 0
    community_mix: float = 0.85
    pair_affinity: float = 0.0

    drifted: int = 0
    drift_year: int | None = None

    homophily: float = 0.0
    friends_per_user: float = 6.0

    zipf_exponent: float = 0.8
    mean_extra_tags: float = 2.0
    no_hashtag_rate: float = 0.35
    adoption_growth: bool = False

    located_rate: float = 0.0

    seed: int = 0

    # ---- derived ground truth -------------------------------------------

    @property
    def n_quarters(self) -> int:
        return 4 * self.years

    @property
    def n_communities(self) -> int:
        return max(self.communities, 1)

    @property
    def effective_drift_year(self) -> int:
        if self.drift_year is not None:
            return self.drift_year
        return self.start_year + self.years // 2

    def planted_tags(self, cls: str) -> list[str]:
        count = getattr(self, cls)
        return [f"{cls}{i:03d}" for i in range(count)]

    def drifted_tags(self) -> list[str]:
        return [f"drift{i:03d}" for i in range(self.drifted)]

    def pool_tags(self) -> list[str]:
        """Non-drifted hashtags in popularity-rank order (planted classes first)."""
        queues = [list(self.planted_tags(cls)) for cls in TEMPORAL_CLASSES]
        interleaved: list[str] = []
        while any(queues):
            for q in queues:
                if q:
                    interleaved.append(q.pop(0))
        n_filler = self.hashtags - self.drifted - len(interleaved)
        filler = [f"tag{i:04d}" for i in range(n_filler)]
        return interleaved + filler

    def all_tags(self) -> list[str]:
        return self.pool_tags() + self.drifted_tags()

    def user_names(self) -> list[str]:
        return [f"u{i:04d}" for i in range(self.users)]

    def periodic_quarter(self, tag: str) -> int:
        """Designated quarter-of-year (0..3) of a planted periodic hashtag."""
        return int(tag.removeprefix("periodic")) % 4

    def meteor_quarter(self, tag: str) -> int:
        """Absolute quarter index of a planted meteor hashtag's spike."""
        return int(tag.removeprefix("meteor")) % self.n_quarters

    def synonym_pairs(self) -> list[tuple[str, str]]:
        """Within-community tag pairs treated as interchangeable variants.

        Members of each community pair up in popularity-rank order; tags
        carrying a planted temporal class and trailing odd members stay
        unpaired.
        """
        pool = self.pool_tags()
        c = self.n_communities
        pairs = []
        for comm in range(c):
            members = [t for i, t in enumerate(pool)
                       if i % c == comm and _class_of(t) is None]
            for j in range(0, len(members) - 1, 2):
                pairs.append((members[j], members[j + 1]))
        return pairs

    def drift_communities(self, tag: str) -> tuple[int, int]:
        """(community before drift year, community after)."""
        i = int(tag.removeprefix("drift"))
        c = self.n_communities
        before = i % c
        return before, (before + max(c // 2, 1)) % c

    def drift_owners(self, tag: str) -> tuple[str, str]:
        """(dominant sharer before drift year, dominant sharer after)."""
        i = int(tag.removeprefix("drift"))
        before_c, after_c = self.drift_communities(tag)
        c = self.n_communities
        names = self.user_names()
        return names[before_c + c * (i + 1)], names[after_c + c * (i + 1)]

    def validate(self) -> None:
        if min(self.users, self.hashtags, self.posts, self.years) < 1:
            raise SynthesisError("users, hashtags, posts, and years must be positive")
        planted = self.periodic + self.rising + self.stable + self.meteor
        if planted + self.drifted > self.hashtags:
            raise SynthesisError(
                f"{planted} planted + {self.drifted} drifted hashtags exceed "
                f"hashtag count {self.hashtags}"
            )
        for name in ("community_mix", "homophily", "no_hashtag_rate", "located_rate",
                     "pair_affinity"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SynthesisError(f"{name} must be in [0, 1], got {value}")
        if self.drifted > 0:
            if self.n_communities < 2:
                raise SynthesisError("drifted hashtags require at least 2 communities")
            y = self.effective_drift_year
            if not self.start_year < y < self.start_year + self.years:
                raise SynthesisError(f"drift year {y} outside corpus years")
            for tag in self.drifted_tags():
                i = int(tag.removeprefix("drift"))
                if max(self.drift_communities(tag)) + self.n_communities * (i + 1) >= self.users:
                    raise SynthesisError(
                        f"not enough users to assign distinct owners for {self.drifted} "
                        "drifted hashtags"
                    )


def _class_of(tag: str) -> str | None:
    for cls in TEMPORAL_CLASSES:
        if tag.startswith(cls):
            return cls
    return None


def _temporal_profiles(spec: SyntheticSpec, pool: list[str]) -> np.ndarray:
    """Per-tag per-quarter draw multipliers, mean 1 per row.

    Rows are share-mass vectors scaled by the quarter count, so a tag's total
    expected frequency stays proportional to its popularity weight.
    """
    q = spec.n_quarters
    profiles = np.ones((len(pool), q))
    for row, tag in enumerate(pool):
        cls = _class_of(tag)
        if cls is None:
            continue
        mass = np.empty(q)
        if cls == "periodic":
            peak = spec.periodic_quarter(tag)
            peaks = np.arange(q) % 4 == peak
            mass[peaks] = 0.9 / peaks.sum()
            mass[~peaks] = 0.1 / (~peaks).sum()
        elif cls == "rising":
            ramp = (np.arange(q, dtype=np.float64) + 1.0) ** 2
            mass = ramp / ramp.sum()
        elif cls == "stable":
            shape = np.ones(q)
            shape[:4] = [0.5, 0.72, 0.88, 1.0]
            mass = shape / shape.sum()
        else:  # meteor
            spike = spec.meteor_quarter(tag)
            mass[:] = 0.05 / (q - 1)
            mass[spike] = 0.95
        profiles[row] = mass * q
    return profiles


# rows drawn together by _successive_picks (its draws, and so every corpus,
# depend on it), and doubles per block of _remaining_picks (2 MB)
PICK_BLOCK = 2 ** 13
FALLBACK_BLOCK = 2 ** 18
# redraws of a repeated pick before a row draws from its remaining weights
REJECTION_ROUNDS = 8


def _remaining_picks(rng: np.random.Generator, w: np.ndarray, first: np.ndarray,
                     lengths: np.ndarray, picked: np.ndarray) -> np.ndarray:
    """One pick per row from its pool ``w[first:first + length]`` with the
    row's ``picked`` indices (into ``w``) weighted 0: the law that redrawing
    until no repeat samples. Every weight is positive and ``u * total`` stays
    below the total, so the pick is new."""
    width = int(lengths.max())
    cols = np.arange(width)
    out = np.empty(len(first), dtype=np.int32)
    step = max(1, FALLBACK_BLOCK // width)
    for lo in range(0, len(first), step):
        f, n = first[lo:lo + step, None], lengths[lo:lo + step, None]
        rest = np.where(cols < n, w.take(f + cols, mode="clip"), 0.0)
        np.put_along_axis(rest, picked[lo:lo + step] - f, 0.0, axis=1)
        cdf = np.cumsum(rest, axis=1)
        x = rng.random(len(f)) * cdf[:, -1]
        out[lo:lo + step] = f[:, 0] + (cdf <= x[:, None]).sum(axis=1)
    return out


def _successive_picks(rng: np.random.Generator, log_weights: list[np.ndarray],
                      group: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row r, ``sizes[r]`` distinct indices into pool ``group[r]``
    (at most its length), drawn with probability ~ ``exp(log_weights[group[r]])``.

    Successive sampling without replacement: each pick is an inverse-CDF
    draw over the pool, drawn again while it repeats one of the row's
    earlier picks, up to REJECTION_ROUNDS times, and then drawn from the
    row's remaining weights. So each pick follows the weights renormalised
    over the hashtags not yet picked: the Plackett-Luce law of Gumbel-top-m
    sampling (Kool et al. 2019), order of picks included.

    The CDFs, each shifted by its group index g, form one sorted array, so
    one ``searchsorted`` of ``g + u`` draws for every group; a ``g + u``
    that rounds up to ``g + 1`` takes the group's last index. Weights are
    scaled to a largest of 1 and floored at the smallest normal double, so
    none is 0. Rows go in blocks of PICK_BLOCK, by descending size within a
    block, so the rows still drawing are a prefix. Returns ``(rows, picks)``,
    one entry per pick; ``picks`` index the concatenated pools.
    """
    w, cdf = [], []
    for g, lw in enumerate(log_weights):
        w.append(np.maximum(np.exp(lw - lw.max()), np.finfo(np.float64).tiny))
        c = np.cumsum(w[-1])
        cdf.append(c / c[-1] + g)
    w, cdf = np.concatenate(w), np.concatenate(cdf)
    lengths = np.array(list(map(len, log_weights)))
    first = np.cumsum(lengths) - lengths
    rows, picks = [], []
    for lo in range(0, len(sizes), PICK_BLOCK):
        order = lo + np.argsort(-sizes[lo:lo + PICK_BLOCK], kind="stable")
        size, g = sizes[order], group[order]
        block = np.empty((len(order), size[0]), dtype=np.int32)
        for j in range(size[0]):
            todo = np.arange(np.count_nonzero(size > j))
            for _ in range(1 + REJECTION_ROUNDS):
                u = g[todo] + rng.random(len(todo))
                block[todo, j] = np.minimum(np.searchsorted(cdf, u, side="right"),
                                            first[g[todo]] + lengths[g[todo]] - 1)
                todo = todo[(block[todo, :j] == block[todo, j, None]).any(axis=1)]
                if not len(todo):
                    break
            else:
                block[todo, j] = _remaining_picks(rng, w, first[g[todo]], lengths[g[todo]],
                                                  block[todo, :j])
        rows.append(np.repeat(order, size))
        picks.append(block[np.arange(size[0]) < size[:, None]])
    return np.concatenate(rows), np.concatenate(picks)


def _sample_distinct_pair(rng: np.random.Generator, pool: np.ndarray) -> tuple[int, int]:
    a = int(pool[rng.integers(len(pool))])
    while True:
        b = int(pool[rng.integers(len(pool))])
        if b != a:
            return a, b


def _sample_friendships(spec: SyntheticSpec, rng: np.random.Generator) -> set[tuple[str, str]]:
    names = spec.user_names()
    target = int(round(spec.users * spec.friends_per_user / 2))
    max_pairs = spec.users * (spec.users - 1) // 2
    if target > max_pairs:
        raise SynthesisError(f"cannot place {target} friendships among {spec.users} users")
    members = [np.arange(c, spec.users, spec.n_communities) for c in range(spec.n_communities)]
    everyone = np.arange(spec.users)
    pairs: set[tuple[str, str]] = set()
    attempts = 0
    while len(pairs) < target:
        attempts += 1
        if attempts > 50 * target + 1000:
            raise SynthesisError("friendship sampling failed to reach target; spec infeasible")
        if rng.random() < spec.homophily:
            group = members[int(rng.integers(spec.n_communities))]
            if len(group) < 2:
                continue
            a, b = _sample_distinct_pair(rng, group)
        else:
            a, b = _sample_distinct_pair(rng, everyone)
        pairs.add((names[a], names[b]) if a < b else (names[b], names[a]))
    return pairs


def _pool_pairs(spec: SyntheticSpec, rng: np.random.Generator, post_comm: np.ndarray,
                post_quarter: np.ndarray, m_comm: np.ndarray,
                m_glob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every post's pool hashtags as flat (post, hashtag) arrays: ``m_comm``
    picks from its community's pool and ``m_glob`` from the whole pool
    (cross-community noise), weighted by Zipf rank times the temporal
    profile of the post's quarter."""
    pool = spec.pool_tags()
    n_pool, n_comm = len(pool), spec.n_communities
    log_zipf = -spec.zipf_exponent * np.log(np.arange(1, n_pool + 1))
    log_profiles = np.log(_temporal_profiles(spec, pool))

    # the draw groups, community pools by (community, quarter) first, then
    # the whole pool by quarter: their pools, weights, posts and sizes
    pools, log_w, posts, sizes = [], [], [], []

    def add_group(tags, q, rows, m):
        if len(rows) and len(tags):
            pools.append(tags)
            log_w.append(log_zipf[tags] + log_profiles[tags, q])
            posts.append(rows)
            sizes.append(np.minimum(m[rows], len(tags)))

    for c in range(n_comm):
        for q in range(spec.n_quarters):
            add_group(np.arange(c, n_pool, n_comm), q,
                      np.flatnonzero((post_comm == c) & (post_quarter == q) & (m_comm > 0)), m_comm)
    comm_end = sum(map(len, pools))  # picks below this index are community picks
    if n_comm > 1:
        for q in range(spec.n_quarters):
            add_group(np.arange(n_pool), q, np.flatnonzero((post_quarter == q) & (m_glob > 0)),
                      m_glob)
    if not pools:
        return (np.empty(0, dtype=np.int64),) * 2
    group = np.repeat(np.arange(len(pools)), list(map(len, posts)))
    rows, picks = _successive_picks(rng, log_w, group, np.concatenate(sizes))
    chosen = np.concatenate(pools)[picks]

    # synonym pairs: a community pick of a pair member is re-rolled uniformly
    # between the two variants with probability pair_affinity (so swapped
    # with half that), making the variants interchangeable
    if spec.pair_affinity > 0:
        partner = np.full(n_pool, -1)
        pool_index = {t: i for i, t in enumerate(pool)}
        for a, b in spec.synonym_pairs():
            partner[pool_index[a]], partner[pool_index[b]] = pool_index[b], pool_index[a]
        swap = ((picks < comm_end) & (partner[chosen] >= 0)
                & (rng.random(len(chosen)) < spec.pair_affinity / 2))
        chosen = np.where(swap, partner[chosen], chosen)
    return np.concatenate(posts)[rows], chosen


def _draw_posts(spec: SyntheticSpec, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Every draw of the posts, in generation order: each post's user, time
    and location index (-1 for none), then its hashtags as flat (post,
    hashtag) arrays, hashtags indexing ``spec.all_tags()``, repeats allowed."""
    n, n_comm = spec.posts, spec.n_communities
    n_pool = spec.hashtags - spec.drifted
    start_ts = int(datetime(spec.start_year, 1, 1, tzinfo=timezone.utc).timestamp())
    end_ts = int(datetime(spec.start_year + spec.years, 1, 1, tzinfo=timezone.utc).timestamp())

    post_user = rng.integers(0, spec.users, n)
    post_ts = rng.integers(start_ts, end_ts, n)
    months = (post_ts.astype("datetime64[s]").astype("datetime64[M]")
              - np.datetime64(f"{spec.start_year}-01", "M")).astype(int)
    post_comm = post_user % n_comm  # user u is in community u % n_comm

    # hashtag adoption; optionally growing over time, suppressed at some
    # categories of location, whose popularity decays linearly with rank
    if spec.adoption_growth:
        frac = (post_ts - start_ts) / max(end_ts - start_ts, 1)
        p_tags = ADOPTION_START + (ADOPTION_END - ADOPTION_START) * frac
    else:
        p_tags = np.full(n, 1.0 - spec.no_hashtag_rate)
    post_loc_idx = np.full(n, -1)
    if spec.located_rate > 0:
        located = rng.random(n) < spec.located_rate
        cat_w = np.arange(len(CATEGORIES), 0, -1).astype(float)
        cats = rng.choice(len(CATEGORIES), size=int(located.sum()), p=cat_w / cat_w.sum())
        post_loc_idx[located] = cats * LOCATIONS_PER_CATEGORY + rng.integers(
            0, LOCATIONS_PER_CATEGORY, len(cats)
        )
        p_tags[located] = np.clip(p_tags[located] * np.array(CATEGORY_TAG_RATES)[cats], 0.0, 1.0)
    has_tags = rng.random(n) < p_tags

    sizes = np.zeros(n, dtype=np.int64)
    tagged = np.flatnonzero(has_tags)
    sizes[tagged] = 1 + rng.poisson(spec.mean_extra_tags, len(tagged))
    sizes = np.minimum(sizes, min(MAX_HASHTAGS_PER_POST - 2, n_pool))
    m_comm = rng.binomial(sizes, spec.community_mix) if n_comm > 1 else sizes
    pairs = [_pool_pairs(spec, rng, post_comm, months // 3, m_comm, sizes - m_comm)]

    # drifted-hashtag injection: owner-dominated, community-bound per period
    before = months < 12 * (spec.effective_drift_year - spec.start_year)
    user_index = {u: i for i, u in enumerate(spec.user_names())}
    for d, tag in enumerate(spec.drifted_tags()):
        comm_b, comm_a = spec.drift_communities(tag)
        owner_b, owner_a = (user_index[u] for u in spec.drift_owners(tag))
        is_owner = np.where(before, post_user == owner_b, post_user == owner_a)
        in_comm = np.where(before, post_comm == comm_b, post_comm == comm_a)
        p = np.where(is_owner, DRIFT_OWNER_RATE, np.where(in_comm, DRIFT_COMM_RATE, 0.0))
        hits = np.flatnonzero(has_tags & (rng.random(n) < p))
        pairs.append((hits, np.full(len(hits), n_pool + d)))
    return (post_user, post_ts, post_loc_idx, *map(np.concatenate, zip(*pairs)))


def generate_synthetic(spec: SyntheticSpec) -> Corpus:
    """Generate a corpus realizing the spec's planted structure.

    Deterministic under the spec's seed.  Raises SynthesisError on
    infeasible specs.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    post_user, post_ts, post_loc_idx, pair_posts, pair_tags = _draw_posts(spec, rng)

    loc_names = [f"loc{i:04d}" for i in range(len(CATEGORIES) * LOCATIONS_PER_CATEGORY)]
    location_categories = {
        name: CATEGORIES[i // LOCATIONS_PER_CATEGORY] for i, name in enumerate(loc_names)
    } if spec.located_rate > 0 else {}

    order = np.lexsort((post_user, post_ts))
    rank = np.empty(spec.posts, dtype=np.int64)
    rank[order] = np.arange(spec.posts)
    columns = post_columns(post_user[order], post_ts[order], post_loc_idx[order],
                           rank[pair_posts], pair_tags, spec.user_names(), spec.all_tags(),
                           loc_names)
    return Corpus(columns=columns, friendships=_sample_friendships(spec, rng),
                  location_categories=location_categories)
