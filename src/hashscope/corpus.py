"""Post corpus data model, file ingestion, quarter bucketing, and top-k selection.

A corpus is a flat list of posts, each carrying a user id, a UTC timestamp,
a set of lowercase hashtags, and an optional location id.  Friendships and
location categories ride along as side tables loaded from separate CSV files.
"""

from __future__ import annotations

import csv
import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

logger = logging.getLogger(__name__)

MAX_HASHTAGS_PER_POST = 30

JSONL_FIELDS = ("user", "time", "hashtags", "location")
CSV_HEADER = ["user", "time", "hashtags", "location"]
FRIENDS_HEADER = ["user_a", "user_b"]
LOCATIONS_HEADER = ["location", "category"]


class CorpusFormatError(ValueError):
    """Input file could not be parsed into post records."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, order=True)
class QuarterBucket:
    """A calendar quarter (UTC); ordering follows calendar time."""

    year: int
    quarter: int

    def __post_init__(self):
        if not 1 <= self.quarter <= 4:
            raise ValueError(f"quarter must be in 1..4, got {self.quarter}")

    @classmethod
    def from_timestamp(cls, ts: int) -> "QuarterBucket":
        dt = datetime.fromtimestamp(ts, tz=timezone.utc)
        return cls(dt.year, (dt.month - 1) // 3 + 1)

    def next(self) -> "QuarterBucket":
        if self.quarter == 4:
            return QuarterBucket(self.year + 1, 1)
        return QuarterBucket(self.year, self.quarter + 1)

    def __str__(self) -> str:
        return f"{self.year}Q{self.quarter}"


DEFAULT_BUCKET_RANGE = (QuarterBucket(2012, 1), QuarterBucket(2015, 4))


def quarter_range(start: QuarterBucket, end: QuarterBucket) -> list[QuarterBucket]:
    """All quarters from start to end inclusive."""
    if start > end:
        raise ValueError(f"empty quarter range {start}..{end}")
    out = [start]
    while out[-1] < end:
        out.append(out[-1].next())
    return out


def _normalize_hashtags(tags: Iterable[str]) -> frozenset[str]:
    return frozenset(t.lower() for t in tags)


@dataclass(frozen=True)
class PostRecord:
    """One post: user id, UTC epoch seconds, hashtag set, optional location id."""

    user: str
    time: int
    hashtags: frozenset[str]
    location: str | None = None

    def __post_init__(self):
        if not isinstance(self.hashtags, frozenset):
            object.__setattr__(self, "hashtags", _normalize_hashtags(self.hashtags))
        if len(self.hashtags) > MAX_HASHTAGS_PER_POST:
            raise ValueError(
                f"post has {len(self.hashtags)} hashtags, cap is {MAX_HASHTAGS_PER_POST}"
            )


def normalize_friendships(pairs: Iterable[tuple[str, str]]) -> set[tuple[str, str]]:
    """Deduplicated symmetric pairs stored as sorted tuples; rejects self-pairs."""
    out: set[tuple[str, str]] = set()
    for a, b in pairs:
        if a == b:
            raise ValueError(f"self-friendship for user {a!r}")
        out.add((a, b) if a < b else (b, a))
    return out


@dataclass
class Corpus:
    posts: list[PostRecord]
    users: set[str] = field(default_factory=set)
    friendships: set[tuple[str, str]] = field(default_factory=set)
    location_categories: dict[str, str] = field(default_factory=dict)
    _share_counts: Counter | None = field(default=None, init=False, repr=False,
                                          compare=False)
    _year_posts: dict[int, list[PostRecord]] = field(default_factory=dict, init=False,
                                                     repr=False, compare=False)

    def __post_init__(self):
        self.users = set(self.users) | {p.user for p in self.posts}
        self.friendships = normalize_friendships(self.friendships)

    def user_hashtags(self) -> dict[str, set[str]]:
        """Distinct hashtags each user has ever shared."""
        out: dict[str, set[str]] = {u: set() for u in self.users}
        for p in self.posts:
            out[p.user].update(p.hashtags)
        return out

    def share_counts(self) -> Counter:
        """Total share count per hashtag (one per post occurrence).

        Counted on the first call and cached, since posts do not change after
        construction; each call returns a fresh copy of the cache.
        """
        if self._share_counts is None:
            counts: Counter = Counter()
            for p in self.posts:
                counts.update(p.hashtags)
            self._share_counts = counts
        return self._share_counts.copy()

    def posts_in_year(self, year: int) -> list[PostRecord]:
        """Posts of one UTC calendar year, in corpus order.

        Selected on the first call for each year and cached like
        ``share_counts``; each call returns a new list.
        """
        if year not in self._year_posts:
            lo = int(datetime(year, 1, 1, tzinfo=timezone.utc).timestamp())
            hi = int(datetime(year + 1, 1, 1, tzinfo=timezone.utc).timestamp())
            self._year_posts[year] = [p for p in self.posts if lo <= p.time < hi]
        return list(self._year_posts[year])


def _parse_time(value, line: int) -> int:
    if value is None or value == "" or isinstance(value, bool):
        raise CorpusFormatError("missing or invalid timestamp", line)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise CorpusFormatError(f"invalid timestamp {value!r}", line) from None


def _make_post(user, time_val, tags, location, line: int) -> PostRecord:
    if not isinstance(user, str) or not user:
        raise CorpusFormatError(f"invalid user id {user!r}", line)
    hashtags = _normalize_hashtags(tags)
    if len(hashtags) > MAX_HASHTAGS_PER_POST:
        raise CorpusFormatError(
            f"post has {len(hashtags)} hashtags, cap is {MAX_HASHTAGS_PER_POST}", line
        )
    loc = location if location else None
    return PostRecord(user=user, time=_parse_time(time_val, line), hashtags=hashtags, location=loc)


def _iter_jsonl_posts(path: Path):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON ({exc.msg})", lineno) from None
            if not isinstance(obj, dict):
                raise CorpusFormatError("row is not an object", lineno)
            missing = [k for k in ("user", "time", "hashtags") if k not in obj]
            if missing:
                raise CorpusFormatError(f"missing fields {missing}", lineno)
            tags = obj["hashtags"]
            if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
                raise CorpusFormatError("hashtags must be an array of strings", lineno)
            yield _make_post(obj["user"], obj["time"], tags, obj.get("location"), lineno)


def _iter_csv_posts(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusFormatError("empty CSV file", 1) from None
        if header != CSV_HEADER:
            raise CorpusFormatError(f"expected header {CSV_HEADER}, got {header}", 1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise CorpusFormatError(f"expected 4 columns, got {len(row)}", lineno)
            user, time_val, tag_field, location = row
            tags = [t for t in tag_field.split(";") if t]
            yield _make_post(user, time_val, tags, location, lineno)


def load_corpus(
    path: str | Path,
    format: str = "jsonl",
    friendships_path: str | Path | None = None,
    locations_path: str | Path | None = None,
) -> Corpus:
    """Load a corpus from a JSONL or CSV post file.

    Raises CorpusFormatError with the offending line number on malformed rows,
    including posts exceeding the 30-hashtag cap or missing timestamps.
    Exact duplicate posts are kept but logged as warnings.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such corpus file: {path}")
    if format == "jsonl":
        post_iter = _iter_jsonl_posts(path)
    elif format == "csv":
        post_iter = _iter_csv_posts(path)
    else:
        raise CorpusFormatError(f"unknown format {format!r}, expected 'jsonl' or 'csv'")

    posts: list[PostRecord] = []
    seen: set[tuple] = set()
    for post in post_iter:
        key = (post.user, post.time, post.hashtags, post.location)
        if key in seen:
            logger.warning("duplicate post for user %s at time %d", post.user, post.time)
        seen.add(key)
        posts.append(post)

    friendships = load_friendships(friendships_path) if friendships_path else set()
    categories = load_location_categories(locations_path) if locations_path else {}
    return Corpus(posts=posts, friendships=friendships, location_categories=categories)


def save_corpus(corpus: Corpus, path: str | Path, format: str = "jsonl") -> None:
    """Write posts to disk; hashtags are emitted sorted for byte-stable output."""
    path = Path(path)
    if format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for p in corpus.posts:
                fh.write(
                    json.dumps(
                        {
                            "user": p.user,
                            "time": p.time,
                            "hashtags": sorted(p.hashtags),
                            "location": p.location,
                        },
                        sort_keys=False,
                    )
                )
                fh.write("\n")
    elif format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for p in corpus.posts:
                writer.writerow(
                    [p.user, p.time, ";".join(sorted(p.hashtags)), p.location or ""]
                )
    else:
        raise ValueError(f"unknown format {format!r}")


def load_friendships(path: str | Path) -> set[tuple[str, str]]:
    """Two-column CSV of user-id pairs; symmetric duplicates collapse to one pair."""
    pairs = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != FRIENDS_HEADER:
            raise CorpusFormatError(f"expected header {FRIENDS_HEADER}, got {header}", 1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise CorpusFormatError(f"expected 2 columns, got {len(row)}", lineno)
            pairs.append((row[0], row[1]))
    return normalize_friendships(pairs)


def save_friendships(friendships: set[tuple[str, str]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FRIENDS_HEADER)
        for a, b in sorted(friendships):
            writer.writerow([a, b])


def load_location_categories(path: str | Path) -> dict[str, str]:
    """Two-column CSV mapping location id to category name."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != LOCATIONS_HEADER:
            raise CorpusFormatError(f"expected header {LOCATIONS_HEADER}, got {header}", 1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise CorpusFormatError(f"expected 2 columns, got {len(row)}", lineno)
            out[row[0]] = row[1]
    return out


def save_location_categories(categories: dict[str, str], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOCATIONS_HEADER)
        for loc, cat in sorted(categories.items()):
            writer.writerow([loc, cat])


def bucket_share_series(
    corpus: Corpus,
    bucket_range: tuple[QuarterBucket, QuarterBucket] = DEFAULT_BUCKET_RANGE,
) -> dict[str, np.ndarray]:
    """Per-hashtag share proportions over the quarters of ``bucket_range``.

    Entry i of a hashtag's vector is its share count in quarter i divided by
    its total in-range share count, so each returned vector sums to 1.
    Hashtags with no in-range shares are omitted.  The default range covers
    2012 Q1 through 2015 Q4.
    """
    quarters = quarter_range(*bucket_range)
    index = {q: i for i, q in enumerate(quarters)}
    n = len(quarters)

    counts: dict[str, np.ndarray] = {}
    in_range_posts = 0
    for post in corpus.posts:
        bucket = QuarterBucket.from_timestamp(post.time)
        pos = index.get(bucket)
        if pos is None:
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


def top_k_hashtags(corpus: Corpus, k: int) -> list[str]:
    """Hashtags ordered by descending total share count, ties broken lexically."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts = corpus.share_counts()
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [tag for tag, _ in ordered[:k]]
