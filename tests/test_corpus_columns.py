"""The columnar corpus against list-walking reference code.

Each ``ref_*`` function below is the per-post loop the aggregate replaced,
kept here as the oracle.  Random small corpora cover mixed-case and repeated
hashtags, posts without hashtags, exact duplicate posts, posts with and
without a location, and times at the year-1 and year-9999 bounds.
"""

import csv
import json
import logging
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashscope import corpus as corpus_module
from hashscope.corpus import (
    MAX_TIME, MIN_TIME, Corpus, PostRecord, QuarterBucket, bucket_share_series,
    load_corpus, quarter_range, save_corpus,
)
from hashscope.reports import StatsReport, _log_bins, report_stats
from hashscope.social import GraphError, build_graph
from hashscope.spatial import CategoryStats, category_propensity
from hashscope.synth import SyntheticSpec, generate_synthetic

from conftest import ts

# ---- reference code --------------------------------------------------------


def ref_post_quarters(posts):
    return [QuarterBucket.from_timestamp(p.time).index for p in posts]


def ref_posts_in_year(posts, year):
    return [p for p in posts if QuarterBucket.from_timestamp(p.time).year == year]


def ref_share_counts(posts):
    counts = Counter()
    for p in posts:
        counts.update(p.hashtags)
    return counts


def ref_user_tag_counts(posts):
    counts = {}
    for p in posts:
        if p.hashtags:
            counts.setdefault(p.user, Counter()).update(p.hashtags)
    return counts


def ref_sharers_in_year(posts, year):
    sharers = {}
    for p in ref_posts_in_year(posts, year):
        for tag in p.hashtags:
            sharers.setdefault(tag, Counter())[p.user] += 1
    return sharers


def ref_bucket_share_series(posts, bucket_range):
    n = len(quarter_range(*bucket_range))
    counts = {}
    in_range_posts = 0
    for quarter, post in zip(ref_post_quarters(posts), posts):
        pos = quarter - bucket_range[0].index
        if not 0 <= pos < n:
            continue
        in_range_posts += 1
        for tag in post.hashtags:
            vec = counts.get(tag)
            if vec is None:
                vec = counts[tag] = np.zeros(n)
            vec[pos] += 1.0
    if in_range_posts == 0:
        raise ValueError(f"corpus has no posts within {bucket_range[0]}..{bucket_range[1]}")
    return {tag: vec / vec.sum() for tag, vec in counts.items()}


def ref_report_stats(posts, n_users, n_friendships, top_k=10):
    if not posts:
        raise ValueError("empty corpus")
    counts = ref_share_counts(posts)
    hist = Counter(len(p.hashtags) for p in posts)
    tag_users = Counter(tag for per_user in ref_user_tag_counts(posts).values()
                        for tag in per_user)
    quarters_of = ref_post_quarters(posts)
    first = min(quarters_of)
    quarters = quarter_range(QuarterBucket.from_index(first),
                             QuarterBucket.from_index(max(quarters_of)))
    pos = [q - first for q in quarters_of]
    tagged = [qi for qi, p in zip(pos, posts) if p.hashtags]
    active = {(qi, p.user) for qi, p in zip(pos, posts)}
    sharing = {(qi, p.user) for qi, p in zip(pos, posts) if p.hashtags}
    posts_q, tagged_q, users_q, sharing_q = (
        np.bincount(q, minlength=len(quarters))
        for q in (pos, tagged, [qi for qi, _ in active], [qi for qi, _ in sharing]))
    adoption = [
        {"quarter": str(q), "posts": int(posts_q[i]),
         "post_proportion": float(tagged_q[i] / posts_q[i]),
         "user_proportion": float(sharing_q[i] / users_q[i])}
        for i, q in enumerate(quarters) if posts_q[i]
    ]
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:top_k]
    return StatsReport(
        n_posts=len(posts),
        n_users=n_users,
        n_hashtags=len(counts),
        n_hashtag_instances=int(sum(counts.values())),
        n_friendships=n_friendships,
        hashtag_count_histogram={k: hist[k] / len(posts) for k in sorted(hist)},
        share_count_bins=_log_bins(list(counts.values())),
        user_count_bins=_log_bins(list(tag_users.values())),
        top_hashtags=ranked,
        adoption=adoption,
    )


def ref_category_propensity(posts, location_categories):
    visits, instances = {}, {}
    for post in posts:
        if post.location is None:
            continue
        category = location_categories.get(post.location)
        if category is None:
            continue
        visits[category] = visits.get(category, 0) + 1
        instances[category] = instances.get(category, 0) + len(post.hashtags)
    if not visits:
        raise ValueError("corpus has no posts at category-mapped locations")
    total_visits = sum(visits.values())
    total_instances = sum(instances.values())
    if total_instances == 0:
        raise ValueError("no hashtags shared at category-mapped locations")
    out = []
    for category in sorted(visits, key=lambda c: (-visits[c], c)):
        v_share = visits[category] / total_visits
        h_share = instances[category] / total_instances
        out.append(CategoryStats(category, visits[category], instances[category],
                                 v_share, h_share, h_share - v_share))
    return out


def ref_yearly_sentences(posts, year):
    return [sorted(p.hashtags) for p in ref_posts_in_year(posts, year)
            if len(p.hashtags) >= 2]


def ref_save(posts, path, format):
    with open(path, "w", encoding="utf-8", newline="" if format == "csv" else None) as fh:
        if format == "jsonl":
            for p in posts:
                fh.write(json.dumps({"user": p.user, "time": p.time,
                                     "hashtags": sorted(p.hashtags),
                                     "location": p.location}) + "\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(["user", "time", "hashtags", "location"])
            for p in posts:
                writer.writerow([p.user, p.time, ";".join(sorted(p.hashtags)),
                                 p.location or ""])


def ref_duplicates(posts):
    seen, warned = set(), []
    for p in posts:
        if p in seen:
            warned.append((p.user, p.time))
        seen.add(p)
    return warned


# ---- strategies ------------------------------------------------------------

TIMES = st.one_of(
    st.sampled_from([MIN_TIME, MIN_TIME + 1, MAX_TIME - 1, MAX_TIME]),
    st.integers(ts(2011), ts(2017)),
    st.integers(MIN_TIME, MAX_TIME),
)
ROWS = st.tuples(
    st.sampled_from(["u1", "u2", "U1", "wé"]),
    TIMES,
    st.lists(st.sampled_from(["Sun", "sun", "SUN", "sea", "Ski", "a,b", "x\"y", "été"]),
             max_size=5),
    st.one_of(st.none(), st.sampled_from(["l1", "l2", "L1", "l 3"])),
)


@st.composite
def row_lists(draw):
    rows = draw(st.lists(ROWS, max_size=20))
    if rows:
        repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
        for i in repeats:
            rows.insert(draw(st.integers(0, len(rows))), rows[i])
    return rows


def check_graph(corpus, tag_counts, users):
    """``build_graph``'s CSR against the reference share counts: users by
    name, then hashtags by name, every node's neighbours ascending."""
    if not tag_counts:
        with pytest.raises(GraphError):
            build_graph(corpus)
        return
    graph = build_graph(corpus)
    assert graph.users == sorted(tag_counts)
    assert graph.hashtags == sorted({t for per_user in tag_counts.values() for t in per_user})
    assert graph.excluded_users == sorted(users - set(tag_counts))
    user_node = {u: i for i, u in enumerate(graph.users)}
    tag_node = {t: len(graph.users) + i for i, t in enumerate(graph.hashtags)}
    rows = [[] for _ in range(graph.n_nodes)]
    for user, per_user in tag_counts.items():
        for tag, n in per_user.items():
            rows[user_node[user]].append((tag_node[tag], n))
            rows[tag_node[tag]].append((user_node[user], n))
    rows = [sorted(row) for row in rows]
    assert graph.offsets.tolist() == np.cumsum([0] + [len(r) for r in rows]).tolist()
    assert graph.neighbors.tolist() == [v for row in rows for v, _ in row]
    assert graph.weights.dtype == np.float64
    assert graph.weights.tolist() == [float(n) for row in rows for _, n in row]


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def as_records(rows):
    return [PostRecord(user, time, tags, location) for user, time, tags, location in rows]


# ---- properties ------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(rows=row_lists(), extra_users=st.sets(st.sampled_from(["u1", "x9"])),
       categories=st.dictionaries(st.sampled_from(["l1", "l2", "L1", "l 3"]),
                                  st.sampled_from(["park", "bar"])))
def test_columnar_aggregates_match_reference(rows, extra_users, categories):
    posts = as_records(rows)
    corpus = Corpus(posts=posts, users=extra_users, location_categories=categories)
    users = {p.user for p in posts} | extra_users

    assert corpus.posts == posts
    assert corpus.users == users
    assert corpus.post_quarters.tolist() == ref_post_quarters(posts)
    years = sorted({QuarterBucket.from_timestamp(p.time).year for p in posts})
    assert corpus.years() == years
    for year in years + [2000]:
        assert corpus.posts_in_year(year) == ref_posts_in_year(posts, year)
        assert corpus.year_sentences(year) == ref_yearly_sentences(posts, year)
        tags, offsets, counts = corpus.sharers_in_year(year)
        expected = ref_sharers_in_year(posts, year)
        assert [corpus.tag_names[t] for t in tags] == sorted(expected)
        assert offsets[0] == 0 and len(offsets) == len(tags) + 1
        for tag, lo, hi in zip(tags.tolist(), offsets.tolist(), offsets[1:].tolist()):
            # per-user counts in first-share order
            assert counts[lo:hi].tolist() == list(expected[corpus.tag_names[tag]].values())
    assert dict(zip(corpus.tag_names, corpus.share_counts().tolist())) == ref_share_counts(posts)
    tag_counts = ref_user_tag_counts(posts)
    pair_users, pair_tags, pair_counts = corpus.user_tag_pairs
    pairs = list(zip(pair_users.tolist(), pair_tags.tolist()))
    assert pairs == sorted(set(pairs))
    assert {(corpus.user_names[u], corpus.tag_names[t]): n
            for (u, t), n in zip(pairs, pair_counts.tolist())} == {
        (user, tag): n for user, per_user in tag_counts.items() for tag, n in per_user.items()}
    assert corpus.user_hashtags() == {u: set(tag_counts.get(u, ())) for u in users}
    check_graph(corpus, tag_counts, users)

    for bucket_range in ((QuarterBucket(2012, 1), QuarterBucket(2015, 4)),
                         (QuarterBucket(1, 1), QuarterBucket(1, 2)),
                         (QuarterBucket(9999, 3), QuarterBucket(9999, 4))):
        series = outcome(bucket_share_series, corpus, bucket_range)
        expected = outcome(ref_bucket_share_series, posts, bucket_range)
        if isinstance(expected, tuple):
            assert series == expected
        else:
            assert list(series) == sorted(expected)
            for tag, vec in expected.items():
                assert series[tag].tobytes() == vec.tobytes()

    stats = outcome(report_stats, corpus)
    expected = outcome(ref_report_stats, posts, len(users), 0)
    if isinstance(expected, StatsReport):
        assert stats.to_dict() == expected.to_dict()
    else:
        assert stats == expected
    assert (outcome(category_propensity, corpus)
            == outcome(ref_category_propensity, posts, categories))


class RecordWarnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=100, deadline=None)
@given(rows=row_lists())
def test_jsonl_and_csv_loads_give_equal_columns(rows):
    with tempfile.TemporaryDirectory() as tmp:
        jsonl, csv_path = Path(tmp) / "c.jsonl", Path(tmp) / "c.csv"
        with open(jsonl, "w", encoding="utf-8") as fh:
            for user, time, tags, location in rows:
                fh.write(json.dumps({"user": user, "time": time, "hashtags": tags,
                                     "location": location}) + "\n")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user", "time", "hashtags", "location"])
            for user, time, tags, location in rows:
                writer.writerow([user, time, ";".join(tags), location or ""])

        handler = RecordWarnings()
        logger = logging.getLogger("hashscope.corpus")
        logger.addHandler(handler)
        try:
            with pytest.MonkeyPatch.context() as mp:
                def refuse(self):
                    raise AssertionError("load_corpus built a PostRecord")

                mp.setattr(PostRecord, "__post_init__", refuse)
                from_jsonl = load_corpus(jsonl, format="jsonl")
                from_csv = load_corpus(csv_path, format="csv")
        finally:
            logger.removeHandler(handler)

        posts = as_records(rows)
        for format in ("jsonl", "csv"):
            saved, expected = Path(tmp) / f"saved.{format}", Path(tmp) / f"ref.{format}"
            save_corpus(from_jsonl, saved, format=format)
            ref_save(posts, expected, format)
            assert saved.read_bytes() == expected.read_bytes()

    from_records = Corpus(posts=posts)
    warned = [f"duplicate post for user {u} at time {t}" for u, t in ref_duplicates(posts)]
    assert handler.messages == warned + warned
    for name in ("user_ids", "times", "location_ids", "tag_offsets", "tag_ids"):
        column = getattr(from_jsonl, name)
        assert column.dtype == getattr(from_records, name).dtype
        assert np.array_equal(column, getattr(from_csv, name))
        assert np.array_equal(column, getattr(from_records, name))
    for name in ("user_names", "tag_names", "location_names"):
        assert getattr(from_jsonl, name) == getattr(from_csv, name)
        assert getattr(from_jsonl, name) == getattr(from_records, name)
    assert from_jsonl.tag_names == sorted(from_jsonl.tag_names)
    assert from_jsonl.posts == posts


@pytest.mark.parametrize("format", ["jsonl", "csv"])
@pytest.mark.parametrize("block", [1, 7, 10_000])
def test_save_in_blocks_matches_reference(tmp_path, monkeypatch, format, block):
    # one post a block, ragged blocks of 7 over 500 posts, and one block
    corpus = generate_synthetic(SyntheticSpec(users=30, hashtags=40, posts=500,
                                              located_rate=0.5, seed=3))
    monkeypatch.setattr(corpus_module, "SAVE_BLOCK", block)
    save_corpus(corpus, tmp_path / "saved", format=format)
    ref_save(corpus.posts, tmp_path / "ref", format)
    assert (tmp_path / "saved").read_bytes() == (tmp_path / "ref").read_bytes()
