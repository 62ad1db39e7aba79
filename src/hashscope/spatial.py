"""Location-category sharing propensity: visits versus hashtag instances.

Compares where people post against where they attach hashtags.  A category
whose hashtag share falls below its visit share is share-averse.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus, write_csv


@dataclass
class CategoryStats:
    category: str
    visits: int
    hashtag_instances: int
    visit_share: float
    hashtag_share: float
    delta: float


def category_propensity(corpus: Corpus, categories_top_n: int | None = None) -> list[CategoryStats]:
    """Visit and hashtag-instance proportions per location category.

    Only posts whose location id maps to a category are counted.  A post
    contributes 1 visit and one hashtag instance per attached hashtag.
    Shares are taken over all mapped categories; the returned list is the
    top-n by visit count (all categories when n is None), ordered by
    descending visits with lexical tie-break.
    """
    if categories_top_n is not None and categories_top_n < 1:
        raise ValueError(f"categories_top_n must be >= 1, got {categories_top_n}")
    visits, instances = corpus.category_counts()
    if not visits:
        raise ValueError("corpus has no posts at category-mapped locations")
    total_visits = sum(visits.values())
    total_instances = sum(instances.values())
    if total_instances == 0:
        raise ValueError("no hashtags shared at category-mapped locations")

    ordered = sorted(visits, key=lambda c: (-visits[c], c))
    if categories_top_n is not None:
        ordered = ordered[:categories_top_n]
    out = []
    for category in ordered:
        v_share = visits[category] / total_visits
        h_share = instances[category] / total_instances
        out.append(
            CategoryStats(
                category=category,
                visits=visits[category],
                hashtag_instances=instances[category],
                visit_share=v_share,
                hashtag_share=h_share,
                delta=h_share - v_share,
            )
        )
    return out


def export_csv(stats: list[CategoryStats], path: str | Path) -> None:
    write_csv(path, ["category", "visits", "hashtag_instances",
                     "visit_share", "hashtag_share", "delta"],
              ([s.category, s.visits, s.hashtag_instances,
                repr(s.visit_share), repr(s.hashtag_share), repr(s.delta)] for s in stats))
