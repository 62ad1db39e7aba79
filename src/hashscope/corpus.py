"""Post corpus data model, file ingestion, quarter bucketing, and top-k selection.

Every CSV file the package reads goes through ``_read_csv``, and every CSV or
JSON file it writes (all but the JSONL posts) through ``write_csv`` or ``write_json``.

A corpus holds its posts as int-coded columns: per post a user id, a UTC
timestamp, a location id, and a set of lowercase hashtag ids, with the user,
hashtag and location names kept once each in string tables.  Friendships and
location categories ride along as side tables loaded from separate CSV files.
"""

from __future__ import annotations

import csv
import json
import logging
from array import array
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from itertools import count
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

logger = logging.getLogger(__name__)

MAX_HASHTAGS_PER_POST = 30
SAVE_BLOCK = 2 ** 16  # posts that save_corpus turns into Python objects at once

CSV_HEADER = ["user", "time", "hashtags", "location"]
FRIENDS_HEADER = ["user_a", "user_b"]
LOCATIONS_HEADER = ["location", "category"]

EPOCH_YEAR = 1970
# epoch seconds of the first and the last second of years 1..9999 (UTC)
MIN_TIME = int(datetime(1, 1, 1, tzinfo=timezone.utc).timestamp())
MAX_TIME = int(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp())


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


@dataclass(frozen=True)
class PostRecord:
    """One post: user id, UTC epoch seconds, hashtag set, optional location id."""

    user: str
    time: int
    hashtags: frozenset[str]
    location: str | None = None

    def __post_init__(self):
        if not isinstance(self.hashtags, frozenset):
            object.__setattr__(self, "hashtags", frozenset(t.lower() for t in self.hashtags))
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


class PostColumns(NamedTuple):
    """Posts as columns.  Post i's hashtags are
    ``tag_ids[tag_offsets[i]:tag_offsets[i + 1]]``, ascending and distinct;
    ``tag_names`` is sorted, so ascending ids are ascending names."""

    user_ids: np.ndarray       # int32, into user_names
    times: np.ndarray          # int64, UTC epoch seconds
    location_ids: np.ndarray   # int32, into location_names; -1 for none
    tag_offsets: np.ndarray    # int64, one more than there are posts
    tag_ids: np.ndarray        # int32, into tag_names
    user_names: list[str]
    tag_names: list[str]
    location_names: list[str]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _csr_rows(offsets: np.ndarray) -> np.ndarray:
    """The row of each entry of a CSR layout."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending, as ``np.unique`` gives
    them: sorted, then each one kept that differs from its predecessor.  A
    plain ``np.unique`` imports ``numpy.ma`` on its first call (about 15 ms
    and 1.7 MB)."""
    v = np.sort(values)
    keep = np.empty(len(v), dtype=bool)
    keep[:1] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


def post_columns(user_ids, times, location_ids, tag_posts, tag_ids,
                 user_names: list[str], tag_names: list[str],
                 location_names: list[str]) -> PostColumns:
    """Columns from (post, hashtag id) pairs, ``tag_posts[j]`` being the post
    of ``tag_ids[j]``, in any order: the name table is sorted and keeps only
    names in use, each post's ids become ascending and distinct, and a post
    keeps only its first ``MAX_HASHTAGS_PER_POST`` hashtags in name order."""
    order = sorted(range(len(tag_names)), key=tag_names.__getitem__)
    rank = np.empty(len(tag_names), dtype=np.int64)
    rank[order] = np.arange(len(tag_names))
    # one int64 key per pair, ordered by post and then name, sorted in place
    key = np.asarray(tag_posts, dtype=np.int64) * len(tag_names)
    key += rank[np.asarray(tag_ids, dtype=np.int64)]
    key.sort()
    keep = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    rows, ids = np.divmod(key[keep], len(tag_names))
    del key  # before the cap's temporaries
    n = len(times)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    keep = np.arange(len(ids)) - offsets[rows] < MAX_HASHTAGS_PER_POST
    ids, rows = ids[keep], rows[keep]
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    used = np.zeros(len(tag_names), dtype=bool)
    used[ids] = True
    return PostColumns(
        np.array(user_ids, dtype=np.int32), np.array(times, dtype=np.int64),
        np.array(location_ids, dtype=np.int32), offsets,
        (np.cumsum(used) - 1)[ids].astype(np.int32), list(user_names),
        [tag_names[i] for i, u in zip(order, used.tolist()) if u], list(location_names),
    )


def _encode(rows: Iterable[tuple[str, int, Iterable[str], str | None]]) -> PostColumns:
    """Columns from ``(user, time, hashtags, location)`` rows, each row
    appended as it comes; users and locations are numbered in order of first
    appearance."""
    # name -> id, a new name taking the next id
    users: dict[str, int] = defaultdict(count().__next__)
    tags: dict[str, int] = defaultdict(count().__next__)
    locations: dict[str, int] = defaultdict(count().__next__)
    user_col, location_col, tag_col = array("i"), array("i"), array("i")
    time_col, ends = array("q"), array("q", [0])
    tag_id = tags.__getitem__
    for user, time, hashtags, location in rows:
        user_col.append(users[user])
        time_col.append(time)
        location_col.append(-1 if location is None else locations[location])
        tag_col.extend(map(tag_id, hashtags))
        ends.append(len(tag_col))
    return post_columns(
        np.frombuffer(user_col, dtype=np.int32), np.frombuffer(time_col, dtype=np.int64),
        np.frombuffer(location_col, dtype=np.int32), _csr_rows(np.frombuffer(ends, dtype=np.int64)),
        np.frombuffer(tag_col, dtype=np.int32), list(users), list(tags), list(locations),
    )


class PostView(Sequence):
    """A corpus's posts as a read-only sequence of ``PostRecord``s, each
    built from the columns when it is read."""

    __slots__ = ("_corpus",)

    def __init__(self, corpus: "Corpus"):
        self._corpus = corpus

    def __len__(self) -> int:
        return len(self._corpus.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(len(self)))]
        if not -len(self) <= index < len(self):
            raise IndexError("post index out of range")
        return self._row(index % len(self))

    def _row(self, i: int) -> PostRecord:
        c = self._corpus
        lo, hi = c.tag_offsets[i], c.tag_offsets[i + 1]
        location = int(c.location_ids[i])
        return PostRecord(
            c.user_names[c.user_ids[i]], int(c.times[i]),
            frozenset(c.tag_names[t] for t in c.tag_ids[lo:hi].tolist()),
            c.location_names[location] if location >= 0 else None,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


class Corpus:
    """Posts as columns (see ``PostColumns``) plus side tables.

    ``Corpus(posts=[PostRecord, ...])`` encodes the rows once; the loaders
    and the generator pass ``columns`` instead.  ``users`` adds users who have
    no posts.  Column arrays are read-only, so aggregates are computed on
    first use and cached, read-only as well.
    """

    def __init__(self, posts: Iterable[PostRecord] = (), users: Iterable[str] = (),
                 friendships: Iterable[tuple[str, str]] = (),
                 location_categories: dict[str, str] | None = None, *,
                 columns: PostColumns | None = None):
        if columns is None:
            columns = _encode((p.user, p.time, p.hashtags, p.location) for p in posts)
        (self.user_ids, self.times, self.location_ids, self.tag_offsets, self.tag_ids,
         self.user_names, self.tag_names, self.location_names) = columns
        for column in columns[:5]:  # the arrays; the rest are name tables
            _read_only(column)
        self.users = set(self.user_names)
        extra = sorted(set(users) - self.users)
        self.user_names = self.user_names + extra
        self.users.update(extra)
        self.friendships = normalize_friendships(friendships)
        self.location_categories = {} if location_categories is None else location_categories

    @property
    def posts(self) -> PostView:
        return PostView(self)

    @cached_property
    def tags_per_post(self) -> np.ndarray:
        return _read_only(np.diff(self.tag_offsets))

    @cached_property
    def _tag_posts(self) -> np.ndarray:
        """The post of each entry of ``tag_ids``."""
        return _read_only(_csr_rows(self.tag_offsets))

    def _entries(self, rows: np.ndarray) -> np.ndarray:
        """Indices into ``tag_ids`` of the hashtags of ``rows``, in row order."""
        lengths = self.tags_per_post[rows]
        ends = np.cumsum(lengths)
        return (np.arange(ends[-1] if len(ends) else 0)
                + np.repeat(self.tag_offsets[rows] - (ends - lengths), lengths))

    @cached_property
    def post_quarters(self) -> np.ndarray:
        """Each post's UTC calendar quarter as a ``QuarterBucket.index``."""
        months = self.times.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64)
        return _read_only(months // 3)

    @cached_property
    def _rows_by_year(self) -> dict[int, np.ndarray]:
        year = self.post_quarters // 4 + EPOCH_YEAR
        order = np.argsort(year, kind="stable")
        years, starts = np.unique(year[order], return_index=True)
        return dict(zip(years.tolist(), map(_read_only, np.split(order, starts[1:]))))

    def years(self) -> list[int]:
        """The UTC calendar years that have posts, ascending."""
        return sorted(self._rows_by_year)

    def posts_in_year(self, year: int) -> list[PostRecord]:
        """Posts of one UTC calendar year, in corpus order; a new list each call."""
        rows = self._rows_by_year.get(year)
        if rows is None:
            return []
        posts = self.posts
        return [posts[i] for i in rows.tolist()]

    def year_sentences(self, year: int) -> list[list[str]]:
        """The sorted hashtags of each post of one UTC year that has at least
        two, in corpus order."""
        rows = self._rows_by_year.get(year)
        if rows is None:
            return []
        rows = rows[self.tags_per_post[rows] >= 2]
        names = self.tag_names
        flat = [names[t] for t in self.tag_ids[self._entries(rows)].tolist()]
        ends = np.cumsum(self.tags_per_post[rows]).tolist()
        return [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]

    @cached_property
    def _share_counts(self) -> np.ndarray:
        return _read_only(np.bincount(self.tag_ids, minlength=len(self.tag_names)))

    def share_counts(self) -> np.ndarray:
        """Total share count per hashtag id (one per post occurrence); one
        cached read-only array."""
        return self._share_counts

    @cached_property
    def user_tag_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct (user id, hashtag id) shares, by user then hashtag, and
        how often each was shared."""
        n_tags = max(len(self.tag_names), 1)
        keys = self.user_ids[self._tag_posts].astype(np.int64) * n_tags + self.tag_ids
        keys, counts = np.unique(keys, return_counts=True)
        return _read_only(keys // n_tags), _read_only(keys % n_tags), _read_only(counts)

    def user_hashtags(self) -> dict[str, set[str]]:
        """Distinct hashtags each user has ever shared."""
        users, tags, _ = self.user_tag_pairs
        bounds = np.searchsorted(users, np.arange(len(self.user_names) + 1)).tolist()
        names, tags = self.tag_names, tags.tolist()
        return {user: {names[t] for t in tags[lo:hi]}
                for user, lo, hi in zip(self.user_names, bounds, bounds[1:])}

    def users_per_hashtag(self) -> np.ndarray:
        """How many distinct users shared each hashtag, by hashtag id."""
        return np.bincount(self.user_tag_pairs[1], minlength=len(self.tag_names))

    def sharers_in_year(self, year: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(tag_ids, offsets, counts)``: the hashtags shared in one UTC year,
        ascending, and hashtag ``tag_ids[i]``'s share count per sharer that
        year as ``counts[offsets[i]:offsets[i + 1]]``, sharers in order of
        their first share."""
        entries = self._entries(self._rows_by_year.get(year, np.zeros(0, dtype=np.int64)))
        n_users = len(self.user_names)
        keys = (self.tag_ids[entries].astype(np.int64) * n_users
                + self.user_ids[self._tag_posts[entries]])
        keys, first, counts = np.unique(keys, return_index=True, return_counts=True)
        tags = keys // n_users
        tag_ids, starts = np.unique(tags, return_index=True)
        return tag_ids, np.append(starts, len(keys)), counts[np.lexsort((first, tags))]

    def category_counts(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per location category that has posts: the posts at its locations,
        and the hashtags attached to those posts."""
        located = self.location_ids >= 0
        where = self.location_ids[located]
        at_location = np.bincount(where, minlength=len(self.location_names)).tolist()
        tags_at_location = np.bincount(where, minlength=len(self.location_names),
                                       weights=self.tags_per_post[located]).tolist()
        visits: dict[str, int] = {}
        instances: dict[str, int] = {}
        for name, v, h in zip(self.location_names, at_location, tags_at_location):
            category = self.location_categories.get(name)
            if category is not None and v:
                visits[category] = visits.get(category, 0) + v
                instances[category] = instances.get(category, 0) + int(h)
        return visits, instances


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


def _checked_row(user, time_val, hashtags: set[str], location,
                 line: int) -> tuple[str, int, set[str], str | None]:
    """``(user, time, hashtags, location)`` of one input row; ``hashtags``
    are lowercased, distinct and non-empty."""
    if not isinstance(user, str) or not user:
        raise CorpusFormatError(f"invalid user id {user!r}", line)
    if len(hashtags) > MAX_HASHTAGS_PER_POST:
        raise CorpusFormatError(
            f"post has {len(hashtags)} hashtags, cap is {MAX_HASHTAGS_PER_POST}", line
        )
    return user, _parse_time(time_val, line), hashtags, location or None


def write_csv(path: str | Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """A UTF-8 CSV file: the header row, then ``rows``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, payload) -> None:
    """``payload`` as UTF-8 JSON, indented, keys sorted, one trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_csv(path: str | Path, header: list[str]):
    """``(line number, row)`` of each non-empty row of a CSV file that starts
    with ``header`` and whose rows have one field per header column; a row's
    line is the file line it starts on, as a quoted field may span lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first != header:
            raise CorpusFormatError(f"expected header {header}, got {first}", 1)
        line = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != len(header):
                    raise CorpusFormatError(
                        f"expected {len(header)} columns, got {len(row)}", line)
                yield line, row
            line = reader.line_num + 1


def _iter_jsonl_rows(path: Path):
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
            # the CSV format separates hashtags with ';', so no hashtag may hold one
            if any(";" in t for t in tags):
                raise CorpusFormatError("hashtags must not contain ';'", lineno)
            location = obj.get("location")
            if location is not None and not isinstance(location, str):
                raise CorpusFormatError("location must be a string or null", lineno)
            hashtags = {t.lower() for t in tags}
            hashtags.discard("")  # dropped, as the CSV reader drops empty fields
            yield _checked_row(obj["user"], obj["time"], hashtags, location, lineno)


def _iter_csv_rows(path: Path):
    for lineno, (user, time_val, tag_field, location) in _read_csv(path, CSV_HEADER):
        hashtags = set(tag_field.lower().split(";"))
        hashtags.discard("")
        yield _checked_row(user, time_val, hashtags, location, lineno)


def _warn_duplicates(corpus: Corpus) -> None:
    """Log each post that repeats an earlier one exactly."""
    n = len(corpus.times)
    if n < 2:
        return
    keys = (corpus.tags_per_post, corpus.location_ids, corpus.times, corpus.user_ids)
    order = np.lexsort(keys)  # stable: equal keys stay in corpus order
    same = np.ones(n - 1, dtype=bool)
    for key in keys:
        ranked = key[order]
        same &= ranked[1:] == ranked[:-1]
    if not same.any():
        return
    group = np.cumsum(np.concatenate([[True], ~same]))
    shared = np.bincount(group)[group] > 1
    seen: set[tuple] = set()
    repeats = []
    offsets, tag_ids = corpus.tag_offsets, corpus.tag_ids
    for g, row in zip(group[shared].tolist(), order[shared].tolist()):
        key = (g, tuple(tag_ids[offsets[row]:offsets[row + 1]].tolist()))
        if key in seen:
            repeats.append(row)
        seen.add(key)
    for row in sorted(repeats):
        logger.warning("duplicate post for user %s at time %d",
                       corpus.user_names[corpus.user_ids[row]], corpus.times[row])


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
        rows = _iter_jsonl_rows(path)
    elif format == "csv":
        rows = _iter_csv_rows(path)
    else:
        raise CorpusFormatError(f"unknown format {format!r}, expected 'jsonl' or 'csv'")
    columns = _encode(rows)

    friendships = load_friendships(friendships_path) if friendships_path else set()
    categories = load_location_categories(locations_path) if locations_path else {}
    corpus = Corpus(columns=columns, friendships=friendships,
                    location_categories=categories)
    _warn_duplicates(corpus)
    return corpus


def _rows_for_saving(corpus: Corpus, quote):
    """Per post: user, time, its hashtag names and its location (None for
    none), each name passed once through ``quote``, SAVE_BLOCK posts at a time."""
    users = [quote(u) for u in corpus.user_names]
    locations = [quote(loc) for loc in corpus.location_names] + [None]  # id -1: none
    tag_names = [quote(t) for t in corpus.tag_names]
    for lo in range(0, len(corpus.user_ids), SAVE_BLOCK):
        hi = lo + SAVE_BLOCK
        bounds = corpus.tag_offsets[lo:hi + 1]
        tags = [tag_names[t] for t in corpus.tag_ids[bounds[0]:bounds[-1]].tolist()]
        bounds = (bounds - bounds[0]).tolist()
        for user, time, start, stop, location in zip(
                corpus.user_ids[lo:hi].tolist(), corpus.times[lo:hi].tolist(),
                bounds, bounds[1:], corpus.location_ids[lo:hi].tolist()):
            yield users[user], time, tags[start:stop], locations[location]


def save_corpus(corpus: Corpus, path: str | Path, format: str = "jsonl") -> None:
    """Write posts to disk; hashtags are emitted sorted for byte-stable output."""
    path = Path(path)
    if format == "jsonl":
        # each name is JSON-encoded once; the rows read as json.dumps would
        # write {"user": ..., "time": ..., "hashtags": [...], "location": ...}
        with open(path, "w", encoding="utf-8") as fh:
            for user, time, tags, location in _rows_for_saving(corpus, json.dumps):
                fh.write(f'{{"user": {user}, "time": {time}, "hashtags": '
                         f'[{", ".join(tags)}], "location": {location or "null"}}}\n')
    elif format == "csv":
        rows = _rows_for_saving(corpus, str)
        write_csv(path, CSV_HEADER, ([user, time, ";".join(tags), location or ""]
                                     for user, time, tags, location in rows))
    else:
        raise ValueError(f"unknown format {format!r}")


def load_friendships(path: str | Path) -> set[tuple[str, str]]:
    """Two-column CSV of user-id pairs; symmetric duplicates collapse to one pair."""
    pairs = []
    for lineno, (a, b) in _read_csv(path, FRIENDS_HEADER):
        if not a or not b:
            raise CorpusFormatError("invalid user id ''", lineno)
        if a == b:
            raise CorpusFormatError(f"self-friendship for user {a!r}", lineno)
        pairs.append((a, b))
    return normalize_friendships(pairs)


def save_friendships(friendships: set[tuple[str, str]], path: str | Path) -> None:
    write_csv(path, FRIENDS_HEADER, sorted(friendships))


def load_location_categories(path: str | Path) -> dict[str, str]:
    """Two-column CSV mapping each location id, listed once, to a category
    name; neither may be empty."""
    out: dict[str, str] = {}
    for lineno, (location, category) in _read_csv(path, LOCATIONS_HEADER):
        if not location or not category:
            raise CorpusFormatError("empty location or category", lineno)
        if location in out:
            raise CorpusFormatError(f"location {location!r} listed twice", lineno)
        out[location] = category
    return out


def save_location_categories(categories: dict[str, str], path: str | Path) -> None:
    write_csv(path, LOCATIONS_HEADER, sorted(categories.items()))


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
    pos = corpus.post_quarters - bucket_range[0].index
    in_range = (pos >= 0) & (pos < n)
    if not in_range.any():
        raise ValueError(f"corpus has no posts within {bucket_range[0]}..{bucket_range[1]}")
    entries = np.flatnonzero(in_range[corpus._tag_posts])
    # one row per hashtag shared in range, ascending by id
    tags, row = np.unique(corpus.tag_ids[entries], return_inverse=True)
    cells = row * n + pos[corpus._tag_posts[entries]]
    counts = np.bincount(cells, minlength=len(tags) * n).reshape(-1, n).astype(np.float64)
    counts /= counts.sum(axis=1, keepdims=True)
    return dict(zip([corpus.tag_names[t] for t in tags.tolist()], counts))


def top_k_hashtags(corpus: Corpus, k: int) -> list[str]:
    """Hashtags ordered by descending total share count, ties broken lexically."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # stable: equal counts stay in id order, which is name order
    ranked = np.argsort(-corpus.share_counts(), kind="stable")[:k]
    return [corpus.tag_names[t] for t in ranked.tolist()]
