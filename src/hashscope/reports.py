"""Descriptive corpus statistics: count distributions, top hashtags, and
quarterly adoption series."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (Corpus, QuarterBucket, quarter_range, sorted_distinct, top_k_hashtags,
                     write_json)


@dataclass
class StatsReport:
    n_posts: int
    n_users: int
    n_hashtags: int
    n_hashtag_instances: int
    n_friendships: int
    hashtag_count_histogram: dict[int, float]   # tags-per-post -> proportion of posts
    share_count_bins: list[dict]                # log-binned hashtag share counts
    user_count_bins: list[dict]                 # log-binned distinct-user counts
    top_hashtags: list[tuple[str, int]]
    adoption: list[dict]                        # per-quarter adoption proportions

    def to_dict(self) -> dict:
        return {
            "n_posts": self.n_posts,
            "n_users": self.n_users,
            "n_hashtags": self.n_hashtags,
            "n_hashtag_instances": self.n_hashtag_instances,
            "n_friendships": self.n_friendships,
            "hashtag_count_histogram": {str(k): v for k, v in self.hashtag_count_histogram.items()},
            "share_count_bins": self.share_count_bins,
            "user_count_bins": self.user_count_bins,
            "top_hashtags": [[t, c] for t, c in self.top_hashtags],
            "adoption": self.adoption,
        }

    def save_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def _log_bins(values) -> list[dict]:
    """Histogram over power-of-two count bins [1,2), [2,4), [4,8), ..."""
    arr = np.asarray(values, dtype=np.int64)
    if not len(arr):
        return []
    top = int(arr.max())
    edges = [1]
    while edges[-1] <= top:
        edges.append(edges[-1] * 2)
    out = []
    for lo, hi in zip(edges, edges[1:]):
        mask = (arr >= lo) & (arr < hi)
        count = int(mask.sum())
        if count:
            out.append({"lo": lo, "hi": hi, "count": count,
                        "proportion": count / len(arr)})
    return out


def report_stats(corpus: Corpus, top_k: int = 10) -> StatsReport:
    """Summary statistics of a loaded corpus.

    The adoption series covers the quarters spanned by the corpus: per
    quarter, the proportion of posts carrying at least one hashtag and the
    proportion of that quarter's active users who attached hashtags.
    """
    n_posts = len(corpus.posts)
    if n_posts == 0:
        raise ValueError("empty corpus")
    counts = corpus.share_counts()
    hist = np.bincount(corpus.tags_per_post).tolist()

    first = int(corpus.post_quarters.min())
    quarters = quarter_range(QuarterBucket.from_index(first),
                             QuarterBucket.from_index(corpus.post_quarters.max()))
    pos = corpus.post_quarters - first
    tagged = corpus.tags_per_post > 0
    # distinct (quarter, user) pairs: each quarter's active and sharing users
    n_user_ids = len(corpus.user_names)
    active = pos * n_user_ids + corpus.user_ids
    posts_q, tagged_q, users_q, sharing_q = (
        np.bincount(q, minlength=len(quarters))
        for q in (pos, pos[tagged], sorted_distinct(active) // n_user_ids,
                  sorted_distinct(active[tagged]) // n_user_ids))

    adoption = []
    for i, q in enumerate(quarters):
        if posts_q[i] == 0:
            continue
        adoption.append({
            "quarter": str(q),
            "posts": int(posts_q[i]),
            "post_proportion": float(tagged_q[i] / posts_q[i]),
            "user_proportion": float(sharing_q[i] / users_q[i]),
        })

    return StatsReport(
        n_posts=n_posts,
        n_users=len(corpus.users),
        n_hashtags=len(counts),
        n_hashtag_instances=int(counts.sum()),
        n_friendships=len(corpus.friendships),
        hashtag_count_histogram={k: n / n_posts for k, n in enumerate(hist) if n},
        share_count_bins=_log_bins(counts),
        user_count_bins=_log_bins(corpus.users_per_hashtag()),
        # the top hashtags come by descending count: theirs are the largest counts
        top_hashtags=list(zip(top_k_hashtags(corpus, top_k), np.sort(counts)[::-1].tolist())),
        adoption=adoption,
    )


def render_stats(report: StatsReport) -> str:
    lines = [
        f"posts: {report.n_posts}",
        f"users: {report.n_users}",
        f"distinct hashtags: {report.n_hashtags}",
        f"hashtag instances: {report.n_hashtag_instances}",
        f"friendships: {report.n_friendships}",
        "",
        "hashtags per post:",
    ]
    for k, v in report.hashtag_count_histogram.items():
        lines.append(f"  {k:>3}: {v:.4f}")
    lines.append("")
    lines.append("top hashtags by share count:")
    for tag, count in report.top_hashtags:
        lines.append(f"  {tag}: {count}")
    lines.append("")
    lines.append("quarterly adoption (posts with hashtags / users using hashtags):")
    for row in report.adoption:
        lines.append(
            f"  {row['quarter']}: {row['post_proportion']:.3f} / {row['user_proportion']:.3f}"
        )
    return "\n".join(lines)
