"""Shallow embedding trainer: skip-gram and CBOW with negative sampling.

Token sequences go in, a vocabulary-indexed dense vector table comes out.
Both modes share one example layout and step: a skip-gram pair is a CBOW
example whose context is the single center token, and its one-entry
context sum is that token's vector exactly.
Training is mini-batched numpy SGD: gradients within a batch are computed at
the batch's starting parameters, and scatter-adds apply every pair's update,
so results are bit-reproducible for a fixed seed.  Input vectors are
initialized per token from a hash of the token text, which makes tables
trained on overlapping vocabularies start from comparable coordinates.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


class VocabularyError(ValueError):
    """No usable tokens after filtering."""


class TrainingDivergedError(RuntimeError):
    """The embedding matrices became non-finite or too large for float32 logits."""


@dataclass
class Vocabulary:
    """Bijective token/index mapping with per-token frequencies.

    Indices are assigned by descending frequency, ties broken lexically.
    """

    tokens: list[str]
    counts: np.ndarray
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.tokens)}
        self.counts = np.asarray(self.counts, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index


@dataclass
class TrainConfig:
    mode: str = "skipgram"
    dimension: int = 300
    window: int = 10
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    min_count: int = 1
    batch_size: int = 1024
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in ("skipgram", "cbow"):
            raise ValueError(f"mode must be 'skipgram' or 'cbow', got {self.mode!r}")
        if self.dimension < 1 or self.negatives < 1 or self.window < 1:
            raise ValueError("dimension, negatives, and window must all be >= 1")
        if self.epochs < 1 or self.batch_size < 1 or self.min_count < 1:
            raise ValueError("epochs, batch_size, and min_count must all be >= 1")
        for rate in (self.learning_rate, self.min_learning_rate):
            if not (math.isfinite(rate) and rate >= 0):
                raise ValueError(f"learning rates must be finite and >= 0, got {rate}")


@dataclass
class EmbeddingTable:
    vocab: Vocabulary
    vectors: np.ndarray                     # |vocab| x d float32 input vectors
    output_vectors: np.ndarray | None = None  # training-side matrix

    def vector(self, token: str) -> np.ndarray:
        return self.vectors[self.vocab.index[token]]


def build_vocab(sentences: Iterable[Sequence[str]], min_count: int = 1) -> Vocabulary:
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    freq = Counter()
    for sentence in sentences:
        freq.update(sentence)
    kept = sorted(
        ((t, c) for t, c in freq.items() if c >= min_count),
        key=lambda item: (-item[1], item[0]),
    )
    if not kept:
        raise VocabularyError(f"no tokens with count >= {min_count}")
    tokens = [t for t, _ in kept]
    counts = np.array([c for _, c in kept], dtype=np.int64)
    return Vocabulary(tokens=tokens, counts=counts)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -np.clip(x, -30.0, 30.0))


def skipgram_pair_loss(center_vec, context_vec, neg_vecs):
    """Loss and analytic gradients for one (center, context, negatives) triple.

    loss = -log s(c.o) - sum_k log s(-c.n_k); reference implementation the
    batched trainer must agree with.
    """
    c = np.asarray(center_vec, dtype=np.float64)
    o = np.asarray(context_vec, dtype=np.float64)
    negs = np.asarray(neg_vecs, dtype=np.float64)
    s_pos = _sigmoid(np.array(c @ o))
    s_neg = _sigmoid(negs @ c)
    loss = -float(_log_sigmoid(np.array(c @ o))) - float(_log_sigmoid(-(negs @ c)).sum())
    grad_c = (s_pos - 1.0) * o + s_neg @ negs
    grad_o = (s_pos - 1.0) * c
    grad_negs = s_neg[:, None] * c[None, :]
    return loss, grad_c, grad_o, grad_negs


def _token_seed(seed: int, token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return ((seed & 0xFFFFFFFFFFFFFFFF) << 64) | int.from_bytes(digest, "little")


def init_vectors(vocab: Vocabulary, config: TrainConfig) -> np.ndarray:
    """Per-token deterministic uniform init in [-0.5/d, 0.5/d]."""
    d = config.dimension
    out = np.empty((len(vocab), d), dtype=np.float32)
    for i, token in enumerate(vocab.tokens):
        r = np.random.default_rng(_token_seed(config.seed, token))
        out[i] = (r.random(d, dtype=np.float64) - 0.5) / d
    return out


def _encode(sentences, vocab: Vocabulary) -> list[np.ndarray]:
    idx = vocab.index
    out = []
    for sentence in sentences:
        enc = [idx[t] for t in sentence if t in idx]
        if len(enc) >= 2:
            out.append(np.array(enc, dtype=np.int32))
    return out


def _cbow_examples(encoded: list[np.ndarray], window: int):
    """(target, padded context matrix) for every position; pad index is -1."""
    by_len: dict[int, list[np.ndarray]] = {}
    for sent in encoded:
        by_len.setdefault(len(sent), []).append(sent)
    targets, ctx_blocks = [], []
    max_ctx = 0
    for length in sorted(by_len):
        mat = np.stack(by_len[length])
        template = np.full((length, 2 * window), -1, dtype=np.int64)
        for i in range(length):
            cols = [j for j in range(max(0, i - window), min(length, i + window + 1)) if j != i]
            template[i, : len(cols)] = cols
        width = max(int((template >= 0).sum(axis=1).max()), 1)
        template = template[:, :width]
        max_ctx = max(max_ctx, width)
        ctx = np.where(template[None, :, :] >= 0, mat[:, np.clip(template, 0, None)], -1)
        targets.append(mat.ravel())
        ctx_blocks.append(ctx.reshape(-1, width).astype(np.int32))
    if not targets:
        raise VocabularyError("no co-occurring token pairs to train on")
    padded = [np.pad(b, ((0, 0), (0, max_ctx - b.shape[1])), constant_values=-1)
              for b in ctx_blocks]
    return np.concatenate(targets).astype(np.int32), np.concatenate(padded)


def _skipgram_examples(encoded: list[np.ndarray], window: int):
    """Skip-gram pairs as one-token-context CBOW examples: each in-window
    neighbour is a target whose only context is its center token.  Rows run
    in (sentence, position, neighbour) order."""
    centers, ctx = _cbow_examples(encoded, window)
    mask = ctx >= 0
    return ctx[mask], np.repeat(centers, mask.sum(axis=1))[:, None]


def _noise_cdf(counts: np.ndarray) -> np.ndarray:
    """Negative-sampling CDF over the unigram counts raised to the 3/4 power."""
    w = np.power(counts.astype(np.float64), 0.75)
    cdf = np.cumsum(w)
    return cdf / cdf[-1]


def _scatter_add(matrix: np.ndarray, rows: np.ndarray, grads: np.ndarray) -> None:
    """matrix[rows] += grads with duplicate rows accumulated.

    A CSC operator with one entry per column needs no COO->CSR sort, and its
    product adds each row's terms in input order, so the sums match a
    sequential accumulation bit for bit.
    """
    if len(rows) == 0:
        return
    from scipy import sparse  # imported on first training step, not at CLI start

    ones = np.ones(len(rows), dtype=np.float32)
    s = sparse.csc_matrix(
        (ones, rows, np.arange(len(rows) + 1)), shape=(len(matrix), len(rows))
    )
    matrix += s @ grads


def _context_sum(ctx: np.ndarray, n_vocab: int):
    """CSR operator summing each padded context row, and the clamped row
    counts as float32.

    Row b of ``A @ w_in`` adds the non-pad context vectors of ``ctx[b]`` in
    column order; ``A.T @ g`` spreads row gradients back onto the vocabulary.
    Repeated ids stay separate unit entries, never merged, so every sum adds
    the same terms in the same order as a dense gather would.
    """
    from scipy import sparse  # imported on first training step, not at CLI start

    mask = ctx >= 0
    counts = mask.sum(axis=1)
    indices = ctx[mask]
    a = sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.float32), indices, np.r_[0, np.cumsum(counts)]),
        shape=(len(ctx), n_vocab),
    )
    return a, np.maximum(counts, 1).astype(np.float32)


def _step(w_in, w_out, targets, ctx, negs, lr):
    lr = np.float32(lr)
    a, counts = _context_sum(ctx, len(w_in))
    h = a @ w_in
    h /= counts[:, None]
    wt = w_out[targets]
    wn = w_out[negs]
    g_pos = (_sigmoid(np.einsum("bd,bd->b", h, wt)) - 1.0).astype(np.float32)
    g_neg = _sigmoid(np.einsum("bkd,bd->bk", wn, h)).astype(np.float32)
    g_neg *= negs != targets[:, None]
    grad_h = g_pos[:, None] * wt + np.einsum("bk,bkd->bd", g_neg, wn)
    grad_h /= counts[:, None]
    grad_h *= -lr
    w_in += a.T @ grad_h
    # output-side rows: every target, then every negative, in one buffer
    (b, d), k = h.shape, negs.shape[1]
    out_grads = np.empty((b * (1 + k), d), dtype=np.float32)
    np.multiply(-lr * g_pos[:, None], h, out=out_grads[:b])
    np.multiply(-lr * g_neg[:, :, None], h[:, None, :], out=out_grads[b:].reshape(b, k, d))
    _scatter_add(w_out, np.concatenate((targets, negs.ravel())), out_grads)


def _pin_malloc_thresholds() -> None:
    """Pin glibc's heap trim and mmap thresholds at 40 and 20 MiB, so each
    step's temporaries stay mapped instead of being trimmed and faulted back
    in on the next step (glibc raises both only after freeing a large mmapped
    block).  No-op where ``mallopt`` does not exist."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 40 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 20 << 20)  # M_MMAP_THRESHOLD


def train(sentences: Iterable[Sequence[str]], config: TrainConfig) -> EmbeddingTable:
    """Train an embedding table over token sequences.

    The vocabulary is every token seen at least ``config.min_count`` times.
    Deterministic for a fixed config seed.  Raises VocabularyError if no
    sentence keeps two in-vocabulary tokens, and TrainingDivergedError if
    values become non-finite or large enough for a logit to overflow float32.
    """
    config.validate()
    _pin_malloc_thresholds()
    sentences = list(sentences)
    vocab = build_vocab(sentences, config.min_count)

    rng = np.random.default_rng(config.seed)
    encoded = _encode(sentences, vocab)
    if not encoded:
        raise VocabularyError("no sentences with >= 2 in-vocabulary tokens")

    w_in = init_vectors(vocab, config)
    w_out = np.zeros((len(vocab), config.dimension), dtype=np.float32)
    noise_cdf = _noise_cdf(vocab.counts)
    k = config.negatives

    examples = _skipgram_examples if config.mode == "skipgram" else _cbow_examples
    targets, ctx_matrix = examples(encoded, config.window)
    n_examples = len(targets)

    # draws once made for a frozen loss sample, kept so later draws are unchanged
    held_n = min(10000, n_examples)
    rng.choice(n_examples, size=held_n, replace=False)
    rng.random((held_n, k))

    batches_per_epoch = math.ceil(n_examples / config.batch_size)
    total_steps = max(config.epochs * batches_per_epoch, 1)
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n_examples)
        for lo in range(0, n_examples, config.batch_size):
            sel = order[lo: lo + config.batch_size]
            lr = config.learning_rate + (
                config.min_learning_rate - config.learning_rate
            ) * (step / total_steps)
            negs = np.searchsorted(noise_cdf, rng.random((len(sel), k))).astype(np.int32)
            _step(w_in, w_out, targets[sel], ctx_matrix[sel], negs, lr)
            step += 1
        # no logit exceeds d * max|w_in| * max|w_out|; past float32 range the
        # step's dot products overflow (a NaN anywhere fails the comparison)
        bound = config.dimension * float(np.abs(w_in).max()) * float(np.abs(w_out).max())
        if not bound < float(np.finfo(np.float32).max):
            raise TrainingDivergedError(
                f"non-finite or overflowing embedding values after epoch {epoch + 1}; "
                f"lr={config.learning_rate}"
            )

    return EmbeddingTable(vocab=vocab, vectors=w_in, output_vectors=w_out)


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - cosine similarity; lies in [0, 2]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine distance undefined for zero-norm vector")
    return float(np.clip(1.0 - (u @ v) / (nu * nv), 0.0, 2.0))


def nearest_neighbors(table: EmbeddingTable, token: str, k: int) -> list[str]:
    """k tokens closest to the query by cosine distance, query excluded.

    Ties break on vocabulary index, so results are stable across runs.
    """
    if token not in table.vocab:
        raise KeyError(f"unknown token {token!r}")
    if k <= 0:
        return []
    q = table.vectors[table.vocab.index[token]].astype(np.float64)
    nq = np.linalg.norm(q)
    if nq == 0.0:
        raise ValueError("cosine distance undefined for zero-norm vector")
    mat = table.vectors.astype(np.float64)
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0.0] = 1.0
    dist = 1.0 - (mat @ q) / (norms * nq)
    order = np.lexsort((np.arange(len(dist)), dist))
    out = []
    qi = table.vocab.index[token]
    for i in order:
        if i == qi:
            continue
        out.append(table.vocab.tokens[i])
        if len(out) == k:
            break
    return out
