import numpy as np
import pytest

from hashscope.corpus import Corpus, PostRecord
from hashscope.spatial import category_propensity, export_csv
from hashscope.synth import SyntheticSpec, generate_synthetic

from conftest import ts


def post(user, tags, location, t=None):
    return PostRecord(user, t if t is not None else ts(2013), frozenset(tags), location)


def corpus_with(posts, categories):
    return Corpus(posts=posts, location_categories=categories)


class TestCategoryPropensity:
    def test_single_category_zero_delta(self):
        posts = [post("u", ["a"], "l1"), post("u", ["b", "c"], "l1")]
        stats = category_propensity(corpus_with(posts, {"l1": "park"}))
        assert len(stats) == 1
        assert stats[0].visit_share == 1.0
        assert stats[0].hashtag_share == 1.0
        assert stats[0].delta == pytest.approx(0.0)

    def test_hand_counted_deltas(self):
        # A: 10 visits 0 hashtags; B: 10 visits 20 hashtags
        posts = []
        for i in range(10):
            posts.append(post(f"u{i}", [], "la", ts(2013) + i))
            posts.append(post(f"u{i}", ["x", "y"], "lb", ts(2013) + 100 + i))
        stats = category_propensity(corpus_with(posts, {"la": "A", "lb": "B"}))
        by_cat = {s.category: s for s in stats}
        assert by_cat["A"].delta == pytest.approx(-0.5)
        assert by_cat["B"].delta == pytest.approx(+0.5)
        assert by_cat["A"].visit_share == pytest.approx(0.5)
        assert by_cat["B"].hashtag_share == pytest.approx(1.0)

    def test_synthetic_bar_is_share_averse(self):
        spec = SyntheticSpec(users=200, hashtags=200, posts=20000,
                             located_rate=0.6, seed=13)
        corpus = generate_synthetic(spec)
        stats = category_propensity(corpus, categories_top_n=10)
        by_cat = {s.category: s for s in stats}
        assert by_cat["bar"].delta < 0
        assert by_cat["office"].delta < 0
        assert by_cat["park"].delta > 0

    def test_deltas_sum_to_zero_over_all_categories(self):
        spec = SyntheticSpec(users=100, hashtags=150, posts=8000,
                             located_rate=0.5, seed=14)
        corpus = generate_synthetic(spec)
        stats = category_propensity(corpus, categories_top_n=None)
        assert abs(sum(s.delta for s in stats)) < 1e-9

    def test_reported_visit_shares_sum_below_one(self):
        spec = SyntheticSpec(users=100, hashtags=150, posts=8000,
                             located_rate=0.5, seed=15)
        corpus = generate_synthetic(spec)
        stats = category_propensity(corpus, categories_top_n=5)
        assert sum(s.visit_share for s in stats) <= 1.0 + 1e-12

    def test_unlocated_posts_do_not_matter(self):
        located = [post("u", ["a"], "l1"), post("u", ["a", "b"], "l2")]
        unlocated = [post("u", ["z"] * 1, None), post("v", [], None)]
        cats = {"l1": "park", "l2": "bar"}
        with_extra = category_propensity(corpus_with(located + unlocated, cats))
        without = category_propensity(corpus_with(located, cats))
        assert with_extra == without

    def test_unmapped_locations_ignored(self):
        posts = [post("u", ["a"], "l1"), post("u", ["b"], "mystery")]
        stats = category_propensity(corpus_with(posts, {"l1": "park"}))
        assert len(stats) == 1
        assert stats[0].visits == 1

    def test_no_located_posts_rejected(self):
        posts = [post("u", ["a"], None)]
        with pytest.raises(ValueError, match="no posts at category-mapped"):
            category_propensity(corpus_with(posts, {}))

    def test_no_hashtags_at_locations_rejected(self):
        posts = [post("u", [], "l1")]
        with pytest.raises(ValueError, match="no hashtags"):
            category_propensity(corpus_with(posts, {"l1": "park"}))

    @pytest.mark.parametrize("top_n", [0, -1])
    def test_nonpositive_top_n_rejected(self, top_n):
        posts = [post("u", ["a"], "l1"), post("u", ["b"], "l2")]
        with pytest.raises(ValueError, match="categories_top_n must be >= 1"):
            category_propensity(corpus_with(posts, {"l1": "park", "l2": "bar"}), top_n)

    def test_ranked_by_visits_with_lexical_ties(self):
        posts = [
            post("u", ["a"], "l1", ts(2013)),
            post("u", ["a"], "l1", ts(2013) + 1),
            post("u", ["a"], "l2", ts(2013) + 2),
            post("u", ["a"], "l3", ts(2013) + 3),
        ]
        cats = {"l1": "zoo", "l2": "bar", "l3": "arc"}
        stats = category_propensity(corpus_with(posts, cats))
        assert [s.category for s in stats] == ["zoo", "arc", "bar"]


class TestExport:
    def test_csv_written(self, tmp_path):
        posts = [post("u", ["a"], "l1"), post("u", [], "l2")]
        stats = category_propensity(corpus_with(posts, {"l1": "park", "l2": "bar"}))
        out = tmp_path / "spatial.csv"
        export_csv(stats, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("category,")
        assert len(lines) == 3
