"""Shared fixtures: tiny hand-built corpora, timestamp and subprocess helpers."""

import os
from datetime import datetime, timezone
from pathlib import Path

import pytest

import hashscope
from hashscope.corpus import Corpus, PostRecord


def ts(year, month=1, day=1, hour=0) -> int:
    return int(datetime(year, month, day, hour, tzinfo=timezone.utc).timestamp())


def cli_env(**extra):
    """Environment for a subprocess that imports this checkout's hashscope."""
    src = str(Path(hashscope.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def three_post_corpus() -> Corpus:
    posts = [
        PostRecord("alice", ts(2012, 2), frozenset({"sun", "sea"}), "loc1"),
        PostRecord("alice", ts(2012, 5), frozenset({"sun"}), None),
        PostRecord("bob", ts(2013, 7), frozenset({"sea", "ski"}), "loc2"),
    ]
    return Corpus(posts=posts)
