import json
import logging
from functools import cached_property

import numpy as np
import pytest

from hashscope.corpus import (
    Corpus,
    CorpusFormatError,
    MAX_HASHTAGS_PER_POST,
    PostRecord,
    QuarterBucket,
    bucket_share_series,
    load_corpus,
    load_friendships,
    load_location_categories,
    post_columns,
    quarter_range,
    save_corpus,
    save_friendships,
    save_location_categories,
    sorted_distinct,
    top_k_hashtags,
)
from hashscope.social import build_graph
from hashscope.synth import SyntheticSpec, generate_synthetic

from conftest import ts


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestLoadCorpus:
    def test_three_rows_two_users(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"user": "a", "time": ts(2012, 3), "hashtags": ["x"], "location": None},
            {"user": "a", "time": ts(2012, 4), "hashtags": ["x", "y"], "location": "l1"},
            {"user": "b", "time": ts(2012, 5), "hashtags": [], "location": None},
        ])
        corpus = load_corpus(path, format="jsonl")
        assert len(corpus.posts) == 3
        assert corpus.users == {"a", "b"}

    def test_31_hashtags_rejected_with_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"user": "a", "time": ts(2012), "hashtags": ["ok"], "location": None},
            {"user": "a", "time": ts(2012), "hashtags": [f"t{i}" for i in range(31)],
             "location": None},
        ])
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(path, format="jsonl")

    def test_30_hashtags_accepted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"user": "a", "time": ts(2012), "hashtags": [f"t{i}" for i in range(30)],
             "location": None},
        ])
        corpus = load_corpus(path, format="jsonl")
        assert len(corpus.posts[0].hashtags) == 30

    def test_missing_timestamp_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"user": "a", "hashtags": ["x"], "location": None}])
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(path, format="jsonl")

    @pytest.mark.parametrize("raw_time, message", [
        ("1.5", "not a whole number"),
        ("Infinity", "not a whole number"),
        ("NaN", "not a whole number"),
        ("10000000000000", "outside years 1..9999"),
        ("253402300800", "outside years 1..9999"),
        ("-62135596801", "outside years 1..9999"),
    ])
    def test_unusable_timestamp_rejected_with_line(self, tmp_path, raw_time, message):
        path = tmp_path / "c.jsonl"
        path.write_text('{"user": "a", "time": 1, "hashtags": []}\n'
                        f'{{"user": "a", "time": {raw_time}, "hashtags": []}}\n')
        with pytest.raises(CorpusFormatError, match=f"line 2: .*{message}"):
            load_corpus(path, format="jsonl")

    def test_whole_float_and_extreme_timestamps_accepted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"user": "a", "time": 1356998400.0, "hashtags": ["x"]},
            {"user": "a", "time": -62135596800, "hashtags": ["x"]},
            {"user": "a", "time": 253402300799, "hashtags": ["x"]},
        ])
        corpus = load_corpus(path, format="jsonl")
        assert [p.time for p in corpus.posts] == [1356998400, -62135596800, 253402300799]
        assert corpus.years() == [1, 2013, 9999]

    def test_csv_fractional_timestamp_rejected_with_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("user,time,hashtags,location\na,1400000000,x,\na,1400000000.5,x,\n")
        with pytest.raises(CorpusFormatError, match="line 3"):
            load_corpus(path, format="csv")

    def test_invalid_json_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"user": "a", "time": 1, "hashtags": []}\nnot json\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(path, format="jsonl")

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"user": "a", "time": 1, "hashtags": []}])
        with pytest.raises(CorpusFormatError, match="unknown format"):
            load_corpus(path, format="parquet")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope.jsonl", format="jsonl")

    def test_duplicate_post_warns_but_keeps(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        row = {"user": "a", "time": ts(2012), "hashtags": ["x"], "location": None}
        write_jsonl(path, [row, row])
        with caplog.at_level(logging.WARNING):
            corpus = load_corpus(path, format="jsonl")
        assert len(corpus.posts) == 2
        assert any("duplicate post" in r.message for r in caplog.records)

    def test_hashtags_lowercased(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"user": "a", "time": 1, "hashtags": ["SuN", "sun"],
                            "location": None}])
        corpus = load_corpus(path, format="jsonl")
        assert corpus.posts[0].hashtags == frozenset({"sun"})

    def test_jsonl_non_string_location_rejected_with_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"user": "a", "time": 1, "hashtags": [], "location": "123"},
            {"user": "a", "time": 1, "hashtags": [], "location": 123},
        ])
        with pytest.raises(CorpusFormatError, match="line 2: location must be a string"):
            load_corpus(path, format="jsonl")

    def test_jsonl_empty_hashtag_dropped_as_in_csv(self, tmp_path):
        jsonl, csv_path = tmp_path / "c.jsonl", tmp_path / "c.csv"
        write_jsonl(jsonl, [{"user": "a", "time": 1, "hashtags": ["", "Sun"]}])
        csv_path.write_text("user,time,hashtags,location\na,1,;Sun,\n")
        for corpus in (load_corpus(jsonl, format="jsonl"), load_corpus(csv_path, format="csv")):
            assert corpus.posts[0].hashtags == frozenset({"sun"})
            assert corpus.tag_names == ["sun"]
            assert corpus.share_counts().tolist() == [1]

    def test_jsonl_hashtag_with_separator_rejected_with_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"user": "a", "time": 1, "hashtags": ["a"]},
            {"user": "a", "time": 1, "hashtags": ["a;b"]},
        ])
        with pytest.raises(CorpusFormatError, match="line 2: .*';'"):
            load_corpus(path, format="jsonl")

    def test_friendship_symmetric_dedup(self, tmp_path):
        posts = tmp_path / "c.jsonl"
        write_jsonl(posts, [{"user": "a", "time": 1, "hashtags": [], "location": None}])
        friends = tmp_path / "f.csv"
        friends.write_text("user_a,user_b\na,b\nb,a\n")
        corpus = load_corpus(posts, format="jsonl", friendships_path=friends)
        assert corpus.friendships == {("a", "b")}

    def test_self_friendship_rejected(self, tmp_path):
        friends = tmp_path / "f.csv"
        friends.write_text("user_a,user_b\na,b\na,a\n")
        with pytest.raises(CorpusFormatError, match="line 3: self-friendship for user 'a'"):
            load_friendships(friends)

    @pytest.mark.parametrize("row", ["x,", ",x", ","])
    def test_empty_friend_id_rejected_with_line(self, tmp_path, row):
        friends = tmp_path / "f.csv"
        friends.write_text(f"user_a,user_b\na,b\n{row}\n")
        with pytest.raises(CorpusFormatError, match="line 3: invalid user id ''"):
            load_friendships(friends)

    @pytest.mark.parametrize("row", [",park", "l2,", ","])
    def test_empty_location_or_category_rejected_with_line(self, tmp_path, row):
        locations = tmp_path / "l.csv"
        locations.write_text(f"location,category\nl1,bar\n{row}\n")
        with pytest.raises(CorpusFormatError, match="line 3: empty location or category"):
            load_location_categories(locations)

    def test_location_listed_twice_rejected_with_line(self, tmp_path):
        locations = tmp_path / "l.csv"
        locations.write_text("location,category\nl1,bar\nl2,park\nl1,bar\n")
        with pytest.raises(CorpusFormatError, match="line 4: location 'l1' listed twice"):
            load_location_categories(locations)

    def test_csv_round_trip(self, tmp_path, three_post_corpus):
        path = tmp_path / "c.csv"
        save_corpus(three_post_corpus, path, format="csv")
        loaded = load_corpus(path, format="csv")
        assert loaded.posts == three_post_corpus.posts
        assert loaded.users == three_post_corpus.users

    def test_jsonl_round_trip(self, tmp_path, three_post_corpus):
        path = tmp_path / "c.jsonl"
        save_corpus(three_post_corpus, path, format="jsonl")
        loaded = load_corpus(path, format="jsonl")
        assert loaded.posts == three_post_corpus.posts

    def test_side_table_round_trips(self, tmp_path):
        friends = {("a", "b"), ("b", "c")}
        cats = {"l1": "park", "l2": "bar"}
        fp, lp = tmp_path / "f.csv", tmp_path / "l.csv"
        save_friendships(friends, fp)
        save_location_categories(cats, lp)
        assert load_friendships(fp) == friends
        assert load_location_categories(lp) == cats


# each CSV reader with its header and two valid rows
CSV_READERS = [
    pytest.param(lambda path: load_corpus(path, format="csv"),
                 "user,time,hashtags,location", "a,1,x;y,l1", "b,2,,", id="posts"),
    pytest.param(load_friendships, "user_a,user_b", "a,b", "b,c", id="friends"),
    pytest.param(load_location_categories, "location,category", "l1,park", "l2,bar",
                 id="locations"),
]


@pytest.mark.parametrize("read, header, row, other", CSV_READERS)
def test_csv_reader_checks_header_and_column_count(tmp_path, read, header, row, other):
    path = tmp_path / "in.csv"
    short = row.rsplit(",", 1)[0]
    two_lines = short + ',"x\ny"'  # its last field spans two lines
    n = header.count(",") + 1
    cases = [
        ("", "line 1: expected header .*, got None"),
        ("wrong,header\n" + row + "\n", "line 1: expected header .*, got \\['wrong'"),
        (f"{row}\n{other}\n", "line 1: expected header"),
        (f"{header}\n{row}\n{short}\n", f"line 3: expected {n} columns, got {n - 1}"),
        (f"{header}\n{row},extra\n", f"line 2: expected {n} columns, got {n + 1}"),
        # blank lines are skipped but still counted
        (f"{header}\n\n{row}\n\n{other},extra\n", "line 5: expected"),
        (f"{header}\n{two_lines}\n{short}\n", "line 4: expected"),
    ]
    for text, message in cases:
        path.write_text(text)
        with pytest.raises(CorpusFormatError, match="^" + message):
            read(path)
    path.write_text(f"{header}\n\n{two_lines}\n\n\n{other}\n\n")
    read(path)


def count_builds(monkeypatch, name: str) -> list:
    """Make the cached property ``Corpus.<name>`` record each time it is
    computed; returns the record."""
    builds = []
    build = vars(Corpus)[name].func

    def counted(self):
        builds.append(name)
        return build(self)

    prop = cached_property(counted)
    prop.__set_name__(Corpus, name)
    monkeypatch.setattr(Corpus, name, prop)
    return builds


class TestShareCounts:
    def test_counts_each_occurrence(self, three_post_corpus):
        assert three_post_corpus.tag_names == ["sea", "ski", "sun"]
        counts = three_post_corpus.share_counts()
        assert counts.dtype == np.int64
        assert counts.tolist() == [2, 1, 2]

    def test_second_call_does_not_rescan_posts(self, three_post_corpus, monkeypatch):
        builds = count_builds(monkeypatch, "_share_counts")
        first = three_post_corpus.share_counts()
        second = three_post_corpus.share_counts()
        assert builds == ["_share_counts"]
        assert first is second

    def test_callers_cannot_mutate_cache(self, three_post_corpus):
        counts = three_post_corpus.share_counts()
        with pytest.raises(ValueError, match="read-only"):
            counts[2] += 10
        with pytest.raises(ValueError, match="read-only"):
            counts.fill(0)
        assert three_post_corpus.share_counts().tolist() == [2, 1, 2]


class TestReadOnlyArrays:
    """Every pipeline reads the same columns and cached aggregates, so a
    write through any of them must fail instead of changing later results."""

    def test_columns_and_aggregates_reject_writes(self):
        corpus = generate_synthetic(SyntheticSpec(users=30, hashtags=50, posts=1500, seed=2))
        weights = build_graph(corpus).weights.copy()
        corpus.years()  # builds the per-year rows
        arrays = {name: getattr(corpus, name) for name in
                  ("user_ids", "times", "location_ids", "tag_offsets", "tag_ids",
                   "tags_per_post", "_tag_posts", "post_quarters")}
        arrays.update(zip(("pair_users", "pair_tags", "pair_counts"), corpus.user_tag_pairs))
        arrays.update((f"rows_{year}", rows) for year, rows in corpus._rows_by_year.items())
        arrays["share_counts"] = corpus.share_counts()
        for name, array in arrays.items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[:] = 7
        assert np.array_equal(build_graph(corpus).weights, weights)


class TestPostsInYear:
    def test_selects_one_calendar_year_in_order(self, three_post_corpus):
        posts = three_post_corpus.posts
        assert three_post_corpus.posts_in_year(2012) == posts[:2]
        assert three_post_corpus.posts_in_year(2013) == posts[2:]
        assert three_post_corpus.posts_in_year(2014) == []

    def test_second_call_does_not_rescan_posts(self, three_post_corpus, monkeypatch):
        builds = count_builds(monkeypatch, "_rows_by_year")
        first = three_post_corpus.posts_in_year(2012)
        second = three_post_corpus.posts_in_year(2012)
        assert builds == ["_rows_by_year"]
        assert first == second
        # every year is grouped in the same single pass, which the other
        # per-year aggregates share
        three_post_corpus.posts_in_year(2013)
        three_post_corpus.sharers_in_year(2012)
        three_post_corpus.year_sentences(2013)
        assert three_post_corpus.years() == [2012, 2013]
        assert builds == ["_rows_by_year"]

    def test_callers_cannot_mutate_cache(self, three_post_corpus):
        three_post_corpus.posts_in_year(2012).clear()
        assert len(three_post_corpus.posts_in_year(2012)) == 2


class TestPostQuarters:
    def test_matches_from_timestamp(self):
        times = [ts(1969, 12, 31, 23), ts(1970), ts(2012, 3, 31, 23), ts(2012, 4),
                 ts(2015, 12, 31, 23), -62135596800, 253402300799]
        corpus = Corpus(posts=[PostRecord("u", t, frozenset()) for t in times])
        assert [QuarterBucket.from_index(i) for i in corpus.post_quarters] == [
            QuarterBucket.from_timestamp(t) for t in times]

    def test_index_round_trip(self):
        for bucket in (QuarterBucket(1, 1), QuarterBucket(1969, 4),
                       QuarterBucket(1970, 1), QuarterBucket(2013, 3)):
            assert QuarterBucket.from_index(bucket.index) == bucket
        assert QuarterBucket(1970, 2).index == 1

    def test_years_ascending(self, three_post_corpus):
        assert three_post_corpus.years() == [2012, 2013]


class TestUserTagCounts:
    def test_counts_per_user_and_hashtag(self, three_post_corpus):
        silent = PostRecord("carol", ts(2013), frozenset())
        corpus = Corpus(posts=list(three_post_corpus.posts) + [silent])
        assert corpus.user_names == ["alice", "bob", "carol"]
        assert corpus.tag_names == ["sea", "ski", "sun"]
        users, tags, counts = corpus.user_tag_pairs
        # alice: sea 1, sun 2; bob: sea 1, ski 1; carol shared nothing
        assert users.tolist() == [0, 0, 1, 1]
        assert tags.tolist() == [0, 2, 0, 1]
        assert counts.tolist() == [1, 2, 1, 1]

    def test_user_hashtags_covers_every_user(self, three_post_corpus):
        corpus = Corpus(posts=three_post_corpus.posts, users={"dave"})
        assert corpus.user_hashtags() == {
            "alice": {"sun", "sea"}, "bob": {"sea", "ski"}, "dave": set()}

    def test_sharers_in_year_first_share_order(self):
        posts = [
            PostRecord("a", ts(2012, 6), frozenset({"h"})),
            PostRecord("b", ts(2013, 1), frozenset({"h"})),
            PostRecord("a", ts(2013, 2), frozenset({"h", "k"})),
            PostRecord("b", ts(2013, 3), frozenset({"h"})),
        ]
        corpus = Corpus(posts=posts)
        assert corpus.user_names == ["a", "b"] and corpus.tag_names == ["h", "k"]

        def sharers(year):
            return [column.tolist() for column in corpus.sharers_in_year(year)]

        # 2013: "h" by b twice, then a once (b shared it first, though a has
        # the lower id); "k" by a once
        assert sharers(2013) == [[0, 1], [0, 2, 3], [2, 1, 1]]
        assert sharers(2012) == [[0], [0, 1], [1]]
        assert sharers(2014) == [[], [0], []]


@pytest.mark.parametrize("values", [
    np.array([], dtype=np.int64),
    np.array([7]),
    np.array([3, 1, 3, 2, 1, 3]),
    np.arange(10, 0, -1, dtype=np.int32),
    np.random.default_rng(0).integers(-50, 50, 2000),
])
def test_sorted_distinct_matches_unique(values):
    got, want = sorted_distinct(values), np.unique(values)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestPostColumns:
    def test_sorted_table_distinct_ids(self):
        # post 0: "b", "a", "b" again and "c"; post 1: nothing; post 2: "c";
        # the pairs come post by post, then with the posts interleaved
        for tag_posts, tag_ids in (([0, 0, 0, 0, 2], [1, 0, 1, 3, 3]),
                                   ([2, 0, 0, 0, 0], [3, 3, 1, 0, 1])):
            columns = post_columns([0, 0, 0], [1, 2, 3], [-1, -1, -1], tag_posts, tag_ids,
                                   ["u"], ["a", "b", "unused", "c"], [])
            assert columns.tag_names == ["a", "b", "c"]
            assert columns.tag_offsets.tolist() == [0, 3, 3, 4]
            assert columns.tag_ids.tolist() == [0, 1, 2, 2]
            assert columns.tag_ids.dtype == np.int32 and columns.user_ids.dtype == np.int32

    def test_cap_keeps_first_names(self):
        # post 0 has two hashtags over the cap, given in reverse name order;
        # post 1 has the last of them, which only post 0 drops
        cap = MAX_HASHTAGS_PER_POST
        names = [f"t{i:02d}" for i in range(cap + 2)]
        columns = post_columns([0, 0], [1, 2], [-1, -1], [0] * (cap + 2) + [1],
                               list(reversed(range(cap + 2))) + [cap + 1],
                               ["u"], names, [])
        assert columns.tag_names == names[:cap] + [names[cap + 1]]
        assert columns.tag_offsets.tolist() == [0, cap, cap + 1]
        assert columns.tag_ids.tolist() == list(range(cap + 1))


class TestPostRecord:
    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            PostRecord("a", 1, frozenset(f"t{i}" for i in range(31)))

    def test_hashtags_are_a_set(self):
        post = PostRecord("a", 1, ["x", "X", "y"])
        assert post.hashtags == frozenset({"x", "y"})


class TestQuarterBucket:
    def test_ordering_follows_calendar(self):
        assert QuarterBucket(2012, 4) < QuarterBucket(2013, 1)
        assert QuarterBucket(2012, 1) < QuarterBucket(2012, 2)

    def test_from_timestamp(self):
        assert QuarterBucket.from_timestamp(ts(2013, 7, 15)) == QuarterBucket(2013, 3)

    def test_invalid_quarter(self):
        with pytest.raises(ValueError):
            QuarterBucket(2012, 5)

    def test_range(self):
        qs = quarter_range(QuarterBucket(2012, 1), QuarterBucket(2015, 4))
        assert len(qs) == 16
        assert qs[0] == QuarterBucket(2012, 1)
        assert qs[-1] == QuarterBucket(2015, 4)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            quarter_range(QuarterBucket(2013, 1), QuarterBucket(2012, 1))


class TestBucketShareSeries:
    def test_uniform_over_16_quarters(self):
        posts = []
        for year in range(2012, 2016):
            for q, month in enumerate((2, 5, 8, 11)):
                posts.append(PostRecord("u", ts(year, month), frozenset({"tag"})))
        series = bucket_share_series(Corpus(posts=posts))
        assert np.allclose(series["tag"], np.full(16, 1 / 16))

    def test_point_mass_first_bucket(self):
        posts = [PostRecord("u", ts(2012, 2), frozenset({"tag"}))]
        series = bucket_share_series(Corpus(posts=posts))
        expected = np.zeros(16)
        expected[0] = 1.0
        assert np.array_equal(series["tag"], expected)

    def test_three_one_split(self):
        # direct-count oracle: 3 shares in 2012 Q1, 1 in 2012 Q2
        posts = [
            PostRecord("u", ts(2012, 1, 5), frozenset({"tag"})),
            PostRecord("u", ts(2012, 2, 5), frozenset({"tag"})),
            PostRecord("u", ts(2012, 3, 5), frozenset({"tag"})),
            PostRecord("u", ts(2012, 4, 5), frozenset({"tag"})),
        ]
        series = bucket_share_series(Corpus(posts=posts))
        expected = np.zeros(16)
        expected[0], expected[1] = 0.75, 0.25
        assert np.allclose(series["tag"], expected)

    def test_out_of_range_excluded(self):
        posts = [
            PostRecord("u", ts(2011, 6), frozenset({"old"})),
            PostRecord("u", ts(2012, 6), frozenset({"new"})),
        ]
        series = bucket_share_series(Corpus(posts=posts))
        assert "old" not in series
        assert "new" in series

    def test_no_in_range_posts_rejected(self):
        posts = [PostRecord("u", ts(2010, 6), frozenset({"x"}))]
        with pytest.raises(ValueError, match="no posts within"):
            bucket_share_series(Corpus(posts=posts))

    def test_vectors_sum_to_one(self):
        corpus = generate_synthetic(SyntheticSpec(users=40, hashtags=60, posts=2000, seed=4))
        series = bucket_share_series(corpus)
        for vec in series.values():
            assert (vec >= 0).all()
            assert abs(vec.sum() - 1.0) < 1e-9


class TestTopK:
    def _corpus(self, counts: dict) -> Corpus:
        posts = []
        for tag, n in counts.items():
            for i in range(n):
                posts.append(PostRecord(f"u{i}", ts(2012) + i, frozenset({tag})))
        return Corpus(posts=posts)

    def test_tie_broken_lexicographically(self):
        corpus = self._corpus({"a": 5, "c": 3, "b": 3})
        assert top_k_hashtags(corpus, 2) == ["a", "b"]

    def test_k_larger_than_vocab(self):
        corpus = self._corpus({"a": 2, "b": 1})
        assert top_k_hashtags(corpus, 10) == ["a", "b"]

    def test_k_below_one_rejected(self):
        corpus = self._corpus({"a": 1})
        with pytest.raises(ValueError):
            top_k_hashtags(corpus, 0)

    def test_zipf_corpus_head_is_most_planted_frequent(self):
        spec = SyntheticSpec(users=50, hashtags=80, posts=6000, seed=9)
        corpus = generate_synthetic(spec)
        assert top_k_hashtags(corpus, 1)[0] == spec.pool_tags()[0]

    def test_total_order_stable_across_runs(self):
        corpus = generate_synthetic(SyntheticSpec(users=30, hashtags=50, posts=1500, seed=2))
        assert top_k_hashtags(corpus, 50) == top_k_hashtags(corpus, 50)
