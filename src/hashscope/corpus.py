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
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

logger = logging.getLogger(__name__)

MAX_HASHTAGS_PER_POST = 30

JSONL_FIELDS = ("user", "time", "hashtags", "location")
CSV_HEADER = ["user", "time", "hashtags", "location"]
FRIENDS_HEADER = ["user_a", "user_b"]
LOCATIONS_HEADER = ["location", "category"]

EPOCH_YEAR = 1970
# epoch seconds of the first and the last second of years 1..9999 (UTC)
MIN_TIME = int(datetime.min.replace(tzinfo=timezone.utc).timestamp())
MAX_TIME = int(datetime.max.replace(tzinfo=timezone.utc).timestamp())


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

    @classmethod
    def from_index(cls, index: int) -> "QuarterBucket":
        year, quarter = divmod(int(index), 4)
        return cls(EPOCH_YEAR + year, quarter + 1)

    @property
    def index(self) -> int:
        """Quarters since 1970 Q1."""
        return (self.year - EPOCH_YEAR) * 4 + self.quarter - 1

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
    """Posts plus side tables.  Aggregates are computed on first use and
    cached, since posts do not change after construction."""

    posts: list[PostRecord]
    users: set[str] = field(default_factory=set)
    friendships: set[tuple[str, str]] = field(default_factory=set)
    location_categories: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.users = set(self.users) | {p.user for p in self.posts}
        self.friendships = normalize_friendships(self.friendships)

    @cached_property
    def post_quarters(self) -> np.ndarray:
        """Each post's UTC calendar quarter as a ``QuarterBucket.index``."""
        times = np.fromiter((p.time for p in self.posts), dtype=np.int64,
                            count=len(self.posts))
        return times.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64) // 3

    @cached_property
    def _posts_by_year(self) -> dict[int, list[PostRecord]]:
        by_year: dict[int, list[PostRecord]] = {}
        for i, year in enumerate((self.post_quarters // 4 + EPOCH_YEAR).tolist()):
            by_year.setdefault(year, []).append(self.posts[i])
        return by_year

    def years(self) -> list[int]:
        """The UTC calendar years that have posts, ascending."""
        return sorted(self._posts_by_year)

    def posts_in_year(self, year: int) -> list[PostRecord]:
        """Posts of one UTC calendar year, in corpus order; a new list each call."""
        return list(self._posts_by_year.get(year, ()))

    @cached_property
    def _share_counts(self) -> Counter:
        counts: Counter = Counter()
        for p in self.posts:
            counts.update(p.hashtags)
        return counts

    def share_counts(self) -> Counter:
        """Total share count per hashtag (one per post occurrence); a new
        Counter each call."""
        return self._share_counts.copy()

    @cached_property
    def user_tag_counts(self) -> dict[str, Counter]:
        """How often each user shared each hashtag.  Users who never shared
        one are absent.  Shared cache: read, do not modify."""
        counts: dict[str, Counter] = {}
        for p in self.posts:
            if p.hashtags:
                counts.setdefault(p.user, Counter()).update(p.hashtags)
        return counts

    def user_hashtags(self) -> dict[str, set[str]]:
        """Distinct hashtags each user has ever shared."""
        return {u: set(self.user_tag_counts.get(u, ())) for u in self.users}

    def sharers_in_year(self, year: int) -> dict[str, Counter]:
        """Per hashtag shared in one UTC year, each user's share count that
        year; users in order of their first share."""
        sharers: dict[str, Counter] = {}
        for p in self._posts_by_year.get(year, ()):
            for tag in p.hashtags:
                sharers.setdefault(tag, Counter())[p.user] += 1
        return sharers


def _parse_time(value, line: int) -> int:
    if value is None or value == "" or isinstance(value, bool):
        raise CorpusFormatError("missing or invalid timestamp", line)
    if isinstance(value, float) and not value.is_integer():
        raise CorpusFormatError(f"timestamp {value!r} is not a whole number", line)
    try:
        time = int(value)
    except (TypeError, ValueError):
        raise CorpusFormatError(f"invalid timestamp {value!r}", line) from None
    if not MIN_TIME <= time <= MAX_TIME:
        raise CorpusFormatError(f"timestamp {time} is outside years 1..9999", line)
    return time


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
    seen: set[PostRecord] = set()
    for post in post_iter:
        if post in seen:
            logger.warning("duplicate post for user %s at time %d", post.user, post.time)
        seen.add(post)
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
    n = len(quarter_range(*bucket_range))
    counts: dict[str, np.ndarray] = {}
    in_range_posts = 0
    for pos, post in zip((corpus.post_quarters - bucket_range[0].index).tolist(),
                         corpus.posts):
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


def top_k_hashtags(corpus: Corpus, k: int) -> list[str]:
    """Hashtags ordered by descending total share count, ties broken lexically."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts = corpus.share_counts()
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [tag for tag, _ in ordered[:k]]
