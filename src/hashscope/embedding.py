"""Shallow embedding trainer: skip-gram and CBOW with negative sampling.

Token sequences go in, a vocabulary-indexed dense vector table comes out.
Both modes share one batch form and step: each example is a CSR row of
context token ids, and a skip-gram pair is a CBOW example whose one-entry
row is the center token.  Each batch's rows are built when the batch is
drawn, from one int32 token array and each token's position and sentence
length, so training memory follows the token count and the batch, not the
number of context slots or skip-gram pairs.  Each group of
``NEGATIVE_GROUP`` consecutive examples of a batch shares one draw of k
negatives, so every example is still scored against k negatives while a
group is scored, and its negatives updated, by dense products.
Training is mini-batched numpy SGD: gradients within a batch are computed at
the batch's starting parameters, and scatter-adds apply every pair's update
straight onto the matrices, so a step touches only the rows its batch names
and results are bit-reproducible for a fixed seed.  The context sums and
scatter-adds call scipy's compiled CSR/CSC kernels on the batch's index
arrays directly, and the output-side update adds each target's term, then
each group's summed negative rows, in two passes instead of building the
batch's gradient rows first.
Input vectors are initialized per token from a hash of the token text, which
makes tables trained on overlapping vocabularies start from comparable
coordinates.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# examples per shared draw of negatives: big enough for a group's products to
# beat per-example gathers, small enough that drift still finds planted drift
NEGATIVE_GROUP = 16


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
    # imported here, not at the top: hashlib maps OpenSSL's libcrypto (about
    # 3.6 MB of resident memory), which only the commands that train need
    import hashlib

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


class _Examples:
    """Training examples of one corpus, built a batch of integer rows at a time.

    Rows run in one fixed order: sentences by ascending length (input order
    within a length), then positions.  A CBOW example is one row: the token
    at position ``i`` is the target, and its context is every other position
    in ``[lo, hi)``, ``lo = max(0, i - w)``, ``hi = min(L, i + w + 1)``,
    ascending.  A skip-gram example is one in-window neighbour of a row: the
    neighbour is the target and the row's token is its only context, in
    (row, neighbour) order.  Only three int32 arrays of one entry per token
    (and, for skip-gram, the per-row example offsets) are kept, so memory
    follows the token count and the batch size, not the number of context
    slots or pairs.
    """

    def __init__(self, encoded: list[np.ndarray], window: int, skipgram: bool):
        lengths = np.array([len(s) for s in encoded])
        order = np.argsort(lengths, kind="stable")
        lengths = lengths[order]
        self.tokens = np.concatenate([encoded[i] for i in order])
        self.length = np.repeat(lengths, lengths).astype(np.int32)
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        self.pos = (np.arange(len(self.tokens)) - starts).astype(np.int32)
        self.window = window
        self.skipgram = skipgram
        if skipgram:
            counts = self._context_counts(self.pos, self.length).astype(np.int64)
            self.first = np.cumsum(counts) - counts  # each row's first example id
            self.n = int(counts.sum())
        else:
            self.n = len(self.tokens)

    def __len__(self) -> int:
        return self.n

    def _context_counts(self, i: np.ndarray, length: np.ndarray) -> np.ndarray:
        """In-window neighbours of position ``i``: ``hi - lo - 1``."""
        return np.minimum(length, i + self.window + 1) - np.maximum(i - self.window, 0) - 1

    def _neighbours(self, row: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Token of each row's ``k``-th in-window neighbour, ascending by
        position, the row's own position skipped."""
        i = self.pos[row]
        j = np.maximum(i - self.window, 0) + k
        j += j >= i
        return self.tokens[row - i + j]

    def batch(self, sel: np.ndarray):
        """(targets, indptr, indices) of the examples ``sel``, all int32:
        example ``e``'s context ids are ``indices[indptr[e]:indptr[e + 1]]``."""
        n = len(sel)
        if self.skipgram:
            row = np.searchsorted(self.first, sel, side="right") - 1
            return (self._neighbours(row, sel - self.first[row]),
                    np.arange(n + 1, dtype=np.int32), self.tokens[row])
        counts = self._context_counts(self.pos[sel], self.length[sel])
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        k = np.arange(indptr[-1]) - np.repeat(indptr[:-1], counts)
        return self.tokens[sel], indptr, self._neighbours(np.repeat(sel, counts), k)


def _noise_cdf(counts: np.ndarray) -> np.ndarray:
    """Negative-sampling CDF over the unigram counts raised to the 3/4 power."""
    w = np.power(counts.astype(np.float64), 0.75)
    cdf = np.cumsum(w)
    return cdf / cdf[-1]


@functools.cache
def _kernels():
    """scipy's compiled sparse kernels, ``scipy.sparse._sparsetools``, loaded
    on the first training step.  The extension file is loaded on its own: it
    needs only numpy, while importing it through the ``scipy.sparse`` package
    costs about 0.28 s and loads ``numpy.ma``."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    import importlib.machinery
    import importlib.util

    import scipy

    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.__path__[0], "sparse"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(name)
    if spec is None:  # not a plain extension file; take the package's import
        from scipy.sparse import _sparsetools
        return _sparsetools
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # loading registered it; a later ``import scipy.sparse`` should load it
    # again as a submodule of its package
    del sys.modules[name]
    return module


def _matvecs(fmt: str, indptr, indices, data, x, out) -> None:
    """``out += A @ x`` in scipy's compiled kernel, ``A`` the ``fmt`` ('csr'
    or 'csc') matrix ``(data, indices, indptr)`` of shape ``(len(out), len(x))``.

    Entry ``(i, j)`` adds ``data * x[j]`` to ``out[i]``, one rounded product
    and one rounded sum (scipy 1.17.1's x86-64 kernel has no fused
    multiply-add), row by row for CSR and column by column for CSC, entries
    in storage order.  Indices
    must lie in range; nothing checks them.  The kernel writes through
    ``out.ravel()``, a copy for a non-contiguous ``out``, and may convert
    arrays of other types, so anything but int32 indices, float32 values and
    a C-contiguous 2-d output is rejected rather than risk an update lost or
    changed without an error.
    """
    n_row, n_col = len(out), len(x)
    if not (indptr.dtype == indices.dtype == np.int32
            and data.dtype == x.dtype == out.dtype == np.float32
            and out.ndim == 2 and out.flags.c_contiguous
            and x.shape[1:] == out.shape[1:]
            and len(indptr) == (n_row if fmt == "csr" else n_col) + 1):
        raise TypeError("sparse kernel needs int32 indices, float32 values, "
                        "a C-contiguous 2-d float32 output and matching shapes")
    kernel = getattr(_kernels(), fmt + "_matvecs")
    kernel(n_row, n_col, out.shape[1], indptr, indices, data, x, out.ravel())


def _step(w_in, w_out, targets, indptr, indices, negs, lr):
    """One SGD step on a batch of CSR context rows.

    The context sum is the product of the CSR operator ``(indptr, indices)``
    with one unit entry per context id, repeats kept apart, which adds each
    row's vectors in storage order onto +0.0; the input-side update is the
    same operator read as CSC.  The sum and its gradient are divided by the
    row's context count only when some row has more than one context:
    dividing by 1 changes no bit, and skip-gram batches never need it.

    Row ``g`` of ``negs`` holds the k negatives shared by examples ``g * G``
    to ``g * G + G - 1``, ``G = NEGATIVE_GROUP``, so each example is still
    scored against k negatives; one equal to its target gets a zero
    coefficient.  The hidden rows sit in a (len(negs), G, d) buffer padded
    with +0.0, whose padding adds only signed zeros, and a group's scores,
    gradient term and summed negative updates are one matrix product each.
    Every update is added straight onto its matrix, so each row adds its
    terms onto itself in the order a sequential scatter-add would: on the
    output side, each target's term ``-lr * g * h`` in batch order, then each
    negative's group sum in (group, k) order.  Gradients are still those at
    the batch's starting parameters: ``h``, ``wt`` and ``wn`` are copies made
    before the first write, and ``grad_h``, the coefficients and ``sums`` are
    computed from them.  No vocabulary-sized buffer is made, so a step's
    memory and time follow the batch.
    """
    lr = np.float32(lr)
    b = len(targets)
    n_groups, k = negs.shape
    d = w_in.shape[1]
    ones = np.ones(len(indices), dtype=np.float32)
    h_groups = np.zeros((n_groups, NEGATIVE_GROUP, d), dtype=np.float32)
    h = h_groups.reshape(-1, d)[:b]
    _matvecs("csr", indptr, indices, ones, w_in, h)
    counts = np.diff(indptr)
    mean = counts.max() > 1
    if mean:
        counts = np.maximum(counts, 1).astype(np.float32)[:, None]
        h /= counts
    wt = w_out[targets]
    wn = w_out[negs]
    g_pos = (_sigmoid(np.einsum("bd,bd->b", h, wt)) - 1.0).astype(np.float32)
    g_neg = _sigmoid(np.matmul(h_groups, wn.transpose(0, 2, 1))).astype(np.float32)
    g_neg.reshape(-1, k)[:b] *= negs[np.arange(b) // NEGATIVE_GROUP] != targets[:, None]
    grad_h = g_pos[:, None] * wt + np.matmul(g_neg, wn).reshape(-1, d)[:b]
    if mean:
        grad_h /= counts
    grad_h *= -lr
    _matvecs("csc", indptr, indices, ones, grad_h, w_in)
    g_pos *= -lr
    g_neg *= -lr
    _matvecs("csc", np.arange(b + 1, dtype=np.int32), targets, g_pos, h, w_out)
    sums = np.matmul(g_neg.transpose(0, 2, 1), h_groups).reshape(-1, d)
    _matvecs("csc", np.arange(len(sums) + 1, dtype=np.int32), negs.ravel(),
             np.ones(len(sums), dtype=np.float32), sums, w_out)


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

    examples = _Examples(encoded, config.window, skipgram=config.mode == "skipgram")
    n_examples = len(examples)

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
            u = rng.random((-(-len(sel) // NEGATIVE_GROUP), k))
            negs = np.searchsorted(noise_cdf, u).astype(np.int32)
            _step(w_in, w_out, *examples.batch(sel), negs, lr)
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
