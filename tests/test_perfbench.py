"""The benchmark's tracer against the current source, read without editing it.

``perfbench/tracer.py`` wraps hashscope functions by ``(owner, attribute)``
with ``setattr``.  An attribute that no longer exists, or that became a
property, breaks every traced benchmark run; these tests make that a test
failure.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hashscope.corpus import Corpus, PostRecord, save_corpus

from conftest import ts

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


@pytest.fixture
def perfbench(monkeypatch):
    """``perfbench``'s modules, imported as its scripts import them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("spans")


def test_patches_resolve_to_plain_functions(perfbench):
    tracer, _ = perfbench
    for owner_path, attr, _, _ in tracer.PATCHES:
        module, _, cls = owner_path.partition(".")
        owner = importlib.import_module(f"hashscope.{module}")
        if cls:
            owner = getattr(owner, cls)
        target = inspect.getattr_static(owner, attr)
        assert inspect.isfunction(target), (
            f"{owner_path}.{attr} is a {type(target).__name__}, not a function")


def test_traced_stats_counts_posts_and_share_count_calls(perfbench, tmp_path):
    _, spans = perfbench
    posts = [PostRecord("a", ts(2013), frozenset({"x", "y"})),
             PostRecord("b", ts(2013, 5), frozenset({"x"})),
             PostRecord("a", ts(2014, 2), frozenset())]
    save_corpus(Corpus(posts=posts), tmp_path / "c.jsonl")
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), str(spans_path), "--", "stats",
         "--input", str(tmp_path / "c.jsonl"), "--out", str(tmp_path / "out"), "--strict"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = spans.layer_metrics(json.loads(spans_path.read_text()))
    assert metrics["corpus.load_posts"] == (3, "count")
    assert metrics["corpus.share_counts_calls"][0] > 0
