import json
import math
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hashscope import embedding
from hashscope.embedding import (
    NEGATIVE_GROUP,
    EmbeddingTable,
    TrainConfig,
    TrainingDivergedError,
    Vocabulary,
    VocabularyError,
    build_vocab,
    cosine_distance,
    init_vectors,
    nearest_neighbors,
    skipgram_pair_loss,
    train,
    _encode,
    _Examples,
    _log_sigmoid,
    _matvecs,
    _noise_cdf,
    _sigmoid,
    _step,
)
from hashscope.synth import SyntheticSpec, generate_synthetic

from conftest import cli_env


def cbow_pair_loss(context_vecs, target_vec, neg_vecs):
    """Reference loss and analytic gradients for one CBOW (contexts, target,
    negatives) triple.

    The hidden vector is the mean of the context vectors; each context row
    receives an equal share of the hidden gradient.
    """
    ctx = np.asarray(context_vecs, dtype=np.float64)
    t = np.asarray(target_vec, dtype=np.float64)
    negs = np.asarray(neg_vecs, dtype=np.float64)
    h = ctx.mean(axis=0)
    s_pos = _sigmoid(np.array(h @ t))
    s_neg = _sigmoid(negs @ h)
    loss = -float(_log_sigmoid(np.array(h @ t))) - float(_log_sigmoid(-(negs @ h)).sum())
    grad_h = (s_pos - 1.0) * t + s_neg @ negs
    grad_ctx = np.tile(grad_h / len(ctx), (len(ctx), 1))
    grad_t = (s_pos - 1.0) * h
    grad_negs = s_neg[:, None] * h[None, :]
    return loss, grad_ctx, grad_t, grad_negs


def pair_corpus(n=300):
    return [["a", "b"], ["c", "d"]] * n


class TestBuildVocab:
    def test_frequency_then_lexical_order(self):
        vocab = build_vocab([["a", "b"], ["a"]], min_count=1)
        assert vocab.tokens == ["a", "b"]
        assert vocab.index == {"a": 0, "b": 1}
        assert list(vocab.counts) == [2, 1]

    def test_min_count_filters_to_empty(self):
        with pytest.raises(VocabularyError):
            build_vocab([["a", "b"]], min_count=2)

    def test_zipf_modal_token_first(self):
        # counting oracle: most frequent sentence token gets index 0
        rng = np.random.default_rng(0)
        tokens = [f"t{i}" for i in range(30)]
        weights = 1 / np.arange(1, 31) ** 1.2
        weights /= weights.sum()
        sentences = [
            list(rng.choice(tokens, size=3, replace=False, p=weights))
            for _ in range(500)
        ]
        counts = {}
        for s in sentences:
            for t in s:
                counts[t] = counts.get(t, 0) + 1
        modal = max(sorted(counts), key=lambda t: counts[t])
        assert build_vocab(sentences).tokens[0] == modal

    def test_ties_lexical(self):
        vocab = build_vocab([["b", "a"]], min_count=1)
        assert vocab.tokens == ["a", "b"]


def central_difference(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f()
        flat[i] = old - eps
        lo = f()
        flat[i] = old
        g[i] = (hi - lo) / (2 * eps)
    return grad


class TestGradients:
    """Analytic gradients vs central finite differences, 5-token vocab, d=3."""

    def setup_method(self):
        rng = np.random.default_rng(42)
        self.w_in = rng.normal(0, 0.5, (5, 3))
        self.w_out = rng.normal(0, 0.5, (5, 3))

    def test_skipgram_gradients(self):
        c, o, negs = 0, 1, np.array([2, 3, 4])
        vc = self.w_in[c].copy()
        wo = self.w_out[o].copy()
        wn = self.w_out[negs].copy()
        _, g_c, g_o, g_n = skipgram_pair_loss(vc, wo, wn)
        num_c = central_difference(lambda: skipgram_pair_loss(vc, wo, wn)[0], vc)
        num_o = central_difference(lambda: skipgram_pair_loss(vc, wo, wn)[0], wo)
        num_n = central_difference(lambda: skipgram_pair_loss(vc, wo, wn)[0], wn)
        for analytic, numeric in ((g_c, num_c), (g_o, num_o), (g_n, num_n)):
            assert np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12) < 1e-4

    def test_cbow_gradients(self):
        ctx = self.w_in[[0, 1, 2]].copy()
        t = self.w_out[3].copy()
        wn = self.w_out[[0, 4]].copy()
        _, g_ctx, g_t, g_n = cbow_pair_loss(ctx, t, wn)
        num_ctx = central_difference(lambda: cbow_pair_loss(ctx, t, wn)[0], ctx)
        num_t = central_difference(lambda: cbow_pair_loss(ctx, t, wn)[0], t)
        num_n = central_difference(lambda: cbow_pair_loss(ctx, t, wn)[0], wn)
        for analytic, numeric in ((g_ctx, num_ctx), (g_t, num_t), (g_n, num_n)):
            assert np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12) < 1e-4

    def test_batched_step_matches_scalar_math(self):
        w_in = self.w_in.astype(np.float32).copy()
        w_out = self.w_out.astype(np.float32).copy()
        centers = np.array([0], dtype=np.int32)
        contexts = np.array([1], dtype=np.int32)
        negs = np.array([[2, 3]], dtype=np.int32)
        lr = 0.1
        _, g_c, g_o, g_n = skipgram_pair_loss(self.w_in[0], self.w_out[1],
                                              self.w_out[[2, 3]])
        expect_in = self.w_in.copy()
        expect_out = self.w_out.copy()
        expect_in[0] -= lr * g_c
        expect_out[1] -= lr * g_o
        expect_out[[2, 3]] -= lr * g_n
        _step(w_in, w_out, contexts, *csr_rows(centers[:, None]), negs, lr)
        assert np.allclose(w_in, expect_in, atol=1e-6)
        assert np.allclose(w_out, expect_out, atol=1e-6)


def dense_scatter_add(matrix, rows, grads):
    np.add.at(matrix, rows, grads)


def csr_rows(ctx):
    """(indptr, indices) of a padded context matrix, the -1 pads dropped."""
    mask = ctx >= 0
    indptr = np.zeros(len(ctx) + 1, dtype=np.int32)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    return indptr, ctx[mask].astype(np.int32)


def ref_shared_negatives(w_out, h, targets, negs, lr):
    """The shared negatives, one group of ``NEGATIVE_GROUP`` examples at a
    time: the group's hidden rows, zero-padded to a full (G, d) block, times
    its k negative rows, with the products the step applies to the group.
    Returns the hidden gradient's negative term of each example, and the
    output rows ``(-lr * g_neg).T @ h`` of each group's k negatives, in
    (group, k) order, for a dense scatter."""
    b, d = h.shape
    n_groups, k = negs.shape
    assert n_groups == math.ceil(b / NEGATIVE_GROUP)
    grad = np.zeros((n_groups * NEGATIVE_GROUP, d), dtype=np.float32)
    sums = np.zeros((n_groups * k, d), dtype=np.float32)
    for g in range(n_groups):
        lo, hi = g * NEGATIVE_GROUP, min((g + 1) * NEGATIVE_GROUP, b)
        hg = np.zeros((NEGATIVE_GROUP, d), dtype=np.float32)
        hg[:hi - lo] = h[lo:hi]
        wn = w_out[negs[g]]
        g_neg = _sigmoid(np.matmul(hg, wn.T)).astype(np.float32)
        g_neg[hi - lo:] = 0.0
        g_neg[:hi - lo] *= negs[g] != targets[lo:hi, None]
        grad[lo:lo + NEGATIVE_GROUP] = np.matmul(g_neg, wn)
        sums[g * k:(g + 1) * k] = np.matmul((g_neg * -lr).T, hg)
    return grad[:b], sums


def dense_step_cbow(w_in, w_out, targets, ctx, negs, lr):
    """The dense gather/mask/sum CBOW step the sparse operator replaced, with
    the shared negatives taken group by group."""
    lr = np.float32(lr)
    mask = ctx >= 0
    counts = np.maximum(mask.sum(axis=1), 1).astype(np.float32)
    gathered = w_in[np.clip(ctx, 0, None)] * mask[:, :, None]
    h = gathered.sum(axis=1) / counts[:, None]
    wt = w_out[targets]
    g_pos = (_sigmoid(np.einsum("bd,bd->b", h, wt)) - 1.0).astype(np.float32)
    neg_grad, neg_sums = ref_shared_negatives(w_out, h, targets, negs, lr)
    grad_h = g_pos[:, None] * wt + neg_grad
    grad_ctx = (grad_h / counts[:, None])[:, None, :] * mask[:, :, None]
    dense_scatter_add(w_in, ctx[mask], -lr * grad_ctx[mask])
    out_rows = np.concatenate((targets, negs.ravel()))
    out_grads = np.concatenate((-lr * g_pos[:, None] * h, neg_sums))
    dense_scatter_add(w_out, out_rows, out_grads)


def group_negatives(rng, vocab, batch, negatives):
    """k negative ids for each group of ``NEGATIVE_GROUP`` examples."""
    n_groups = math.ceil(batch / NEGATIVE_GROUP)
    return rng.integers(0, vocab, (n_groups, negatives)).astype(np.int32)


def cbow_batch(rng, vocab, dim, batch, width, negatives=3):
    """Random CBOW batch with ragged padding, repeated context ids in row 0
    and an all-padding last row."""
    w_in = rng.normal(0, 0.3, (vocab, dim)).astype(np.float32)
    w_out = rng.normal(0, 0.3, (vocab, dim)).astype(np.float32)
    targets = rng.integers(0, vocab, batch).astype(np.int32)
    ctx = rng.integers(0, vocab, (batch, width)).astype(np.int32)
    lengths = rng.integers(1, width + 1, batch)
    ctx[np.arange(width)[None, :] >= lengths[:, None]] = -1
    ctx[0, :] = -1
    ctx[0, :3] = 1
    ctx[-1, :] = -1
    return w_in, w_out, targets, ctx, group_negatives(rng, vocab, batch, negatives)


# (vocab, dim, batch, context width[, negatives]): duplicate ids are certain
# at vocab 4, batches of 3 and 7 are ragged against any power-of-two batch
# size and fill less than one group of negatives; then social's demo shape,
# a batch of one, one negative per group, and at most one context per row,
# where the step skips the divide; then exactly one group, and one group and
# one row
SPARSE_SHAPES = [(4, 3, 7, 6), (50, 8, 3, 3), (485, 64, 257, 20), (30, 5, 64, 2),
                 (485, 64, 1024, 20, 5), (6, 4, 1, 5, 3), (40, 8, 33, 6, 1),
                 (9, 4, 50, 1), (12, 6, NEGATIVE_GROUP, 4),
                 (12, 6, NEGATIVE_GROUP + 1, 4, 2)]


class TestSparseOperatorsMatchDense:
    """The sparse operators and the batched group products must add each
    row's terms in the order the dense, group-by-group code does, so results
    are equal bit for bit, not just close."""

    @pytest.mark.parametrize("shape", SPARSE_SHAPES)
    def test_step_cbow(self, shape):
        rng = np.random.default_rng(sum(shape))
        w_in, w_out, targets, ctx, negs = cbow_batch(rng, *shape)
        ctx[0, :3] = 1  # a batch of one is also the all-padding last row
        exp_in, exp_out = w_in.copy(), w_out.copy()
        dense_step_cbow(exp_in, exp_out, targets, ctx, negs, 0.3)
        before = w_in.copy()
        _step(w_in, w_out, targets, *csr_rows(ctx), negs, 0.3)
        assert not np.array_equal(w_in, before)
        assert w_in.tobytes() == exp_in.tobytes()
        assert w_out.tobytes() == exp_out.tobytes()

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("width", [1, 4])
    def test_negatives_equal_to_their_target(self, k, width):
        # a negative equal to its example's target has its coefficient
        # zeroed, so its output term is a signed zero; zeros in the tables
        # make some of those terms -0.0 and leave rows that only signed zeros
        # reach.  50 examples: three full groups and a ragged one of two
        rng = np.random.default_rng(k)
        if width == 1:
            w_in, w_out, centers, targets, negs = skipgram_batch(rng, 9, 4, 50, k)
            ctx = centers[:, None]
        else:
            w_in, w_out, targets, ctx, negs = cbow_batch(rng, 9, 4, 50, width, k)
        negs[:, 0] = targets[::NEGATIVE_GROUP]
        negs[::2] = targets[::2 * NEGATIVE_GROUP, None]
        negs[-1, -1] = targets[-1]
        w_in[::3, ::2] = -0.0
        w_out[::2, 1::2] = -0.0
        exp_in, exp_out = w_in.copy(), w_out.copy()
        if width == 1:
            ref_step_skipgram(exp_in, exp_out, ctx[:, 0], targets, negs, 0.3)
        else:
            dense_step_cbow(exp_in, exp_out, targets, ctx, negs, 0.3)
        _step(w_in, w_out, targets, *csr_rows(ctx), negs, 0.3)
        assert w_in.tobytes() == exp_in.tobytes()
        assert w_out.tobytes() == exp_out.tobytes()

    def test_cbow_training_matches_dense(self, monkeypatch):
        cfg = TrainConfig(mode="cbow", dimension=8, window=3, epochs=2,
                          batch_size=64, seed=4)
        sentences = [["a", "b", "a", "c", "d"], ["b", "c"], ["d", "a", "e", "b"]] * 30
        sparse_table = train(sentences, cfg)

        # the reference run takes padded rows from the materialising builder
        # and steps them with the dense oracle
        class PaddedRows:
            def __init__(self, encoded, window, skipgram):
                assert not skipgram
                self.targets, self.ctx = ref_cbow_examples(encoded, window)

            def __len__(self):
                return len(self.targets)

            def batch(self, sel):
                return self.targets[sel], self.ctx[sel]

        monkeypatch.setattr(embedding, "_Examples", PaddedRows)
        monkeypatch.setattr(embedding, "_step", dense_step_cbow)
        dense_table = train(sentences, cfg)
        assert np.array_equal(sparse_table.vectors, dense_table.vectors)
        assert np.array_equal(sparse_table.output_vectors, dense_table.output_vectors)


def ref_cbow_examples(encoded, window):
    """The materialising CBOW builder the per-batch rows replaced: (target,
    padded context matrix) for every position, pad index -1, rows in
    ascending sentence length, input order within a length, then position."""
    by_len = {}
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
    padded = [np.pad(b, ((0, 0), (0, max_ctx - b.shape[1])), constant_values=-1)
              for b in ctx_blocks]
    return np.concatenate(targets).astype(np.int32), np.concatenate(padded)


def ref_skipgram_examples(encoded, window):
    """The materialising skip-gram builder: every non-pad CBOW context slot is
    a target whose only context is its row's token, in (row, slot) order."""
    centers, ctx = ref_cbow_examples(encoded, window)
    mask = ctx >= 0
    return ctx[mask], np.repeat(centers, mask.sum(axis=1))[:, None]


def ragged_encoded(window, seed):
    """Sentences over 5 token ids (so tokens repeat), with lengths from 2 up
    to past 2 * window + 1, shuffled so equal lengths are not adjacent."""
    rng = np.random.default_rng(seed)
    edge = 2 * window + 1
    lengths = [2, 3, edge - 1, edge, edge + 1, 3 * window + 4] * 3
    lengths += list(rng.integers(2, edge + 5, 12))
    rng.shuffle(lengths)
    return [rng.integers(0, 5, n).astype(np.int32) for n in lengths]


class TestExampleRows:
    """Rows built per batch equal the same rows of the materialised matrices."""

    @pytest.mark.parametrize("skipgram", [False, True])
    @pytest.mark.parametrize("window", [1, 2, 10])
    @pytest.mark.parametrize("batch_size", [1, 7, 1024])
    def test_batches_match_materialised_rows(self, skipgram, window, batch_size):
        encoded = ragged_encoded(window, seed=window)
        oracle = ref_skipgram_examples if skipgram else ref_cbow_examples
        targets, ctx = oracle(encoded, window)
        examples = _Examples(encoded, window, skipgram=skipgram)
        assert len(examples) == len(targets)
        n = len(targets)
        for order in (np.arange(n), np.random.default_rng(0).permutation(n)):
            for lo in range(0, n, batch_size):
                sel = order[lo: lo + batch_size]
                got = examples.batch(sel)
                assert [a.dtype for a in got] == [np.int32] * 3
                expected = (targets[sel], *csr_rows(ctx[sel]))
                for got_array, expected_array in zip(got, expected):
                    assert np.array_equal(got_array, expected_array)


def ref_skipgram_pairs(encoded, window):
    """The separate skip-gram pair builder that one-token-context CBOW
    examples replaced: (center, context) for every in-window ordered pair."""
    by_len = {}
    for sent in encoded:
        by_len.setdefault(len(sent), []).append(sent)
    centers, contexts = [], []
    for length in sorted(by_len):
        mat = np.stack(by_len[length])
        ci, oi = [], []
        for i in range(length):
            for j in range(max(0, i - window), min(length, i + window + 1)):
                if j != i:
                    ci.append(i)
                    oi.append(j)
        centers.append(mat[:, ci].ravel())
        contexts.append(mat[:, oi].ravel())
    return np.concatenate(centers), np.concatenate(contexts)


def ref_step_skipgram(w_in, w_out, centers, contexts, negs, lr):
    """The separate skip-gram step the shared step replaced, with the shared
    negatives taken group by group."""
    lr = np.float32(lr)
    vc = w_in[centers]
    wo = w_out[contexts]
    g_pos = (_sigmoid(np.einsum("bd,bd->b", vc, wo)) - 1.0).astype(np.float32)
    neg_grad, neg_sums = ref_shared_negatives(w_out, vc, contexts, negs, lr)
    grad_c = g_pos[:, None] * wo + neg_grad
    dense_scatter_add(w_in, centers, -lr * grad_c)
    out_rows = np.concatenate((contexts, negs.ravel()))
    out_grads = np.concatenate((-lr * g_pos[:, None] * vc, neg_sums))
    dense_scatter_add(w_out, out_rows, out_grads)


def ref_heldout_loss_skipgram(w_in, w_out, centers, contexts, negs):
    vc = w_in[centers]
    pos = np.einsum("bd,bd->b", vc, w_out[contexts])
    neg = np.einsum("bkd,bd->bk", w_out[negs], vc)
    neg_mask = negs != contexts[:, None]
    return float(-(_log_sigmoid(pos).sum() + (_log_sigmoid(-neg) * neg_mask).sum())
                 / len(centers))


# window 2, so 2*window+1 = 5: lengths on both sides, ragged groups, and
# sentences that repeat a token
SKIPGRAM_SENTENCES = [
    [["a", "b"], ["c", "d", "e"], ["a", "c", "e", "g"], ["b", "d", "f", "h", "a"],
     ["h", "g", "f", "e", "d", "c"], ["a", "b", "c", "d", "e", "f", "g", "h", "a"]],
    [["a", "a"], ["b", "a", "b", "a", "b", "a", "b"], ["c", "c", "c"]],
    [["a", "b", "c", "d", "e", "f", "g", "h"][: 2 + i % 7] for i in range(40)],
]


def skipgram_batch(rng, vocab, dim, batch, negatives=3):
    w_in = rng.normal(0, 0.3, (vocab, dim)).astype(np.float32)
    w_out = rng.normal(0, 0.3, (vocab, dim)).astype(np.float32)
    centers = rng.integers(0, vocab, batch).astype(np.int32)
    contexts = rng.integers(0, vocab, batch).astype(np.int32)
    return w_in, w_out, centers, contexts, group_negatives(rng, vocab, batch, negatives)


class TestSkipgramAsWidthOneCbow:
    """Skip-gram runs through the CBOW layout and step with one context token
    per example; results must equal the separate skip-gram code bit for
    bit."""

    @pytest.mark.parametrize("sentences", SKIPGRAM_SENTENCES)
    def test_examples_match_pairs(self, sentences):
        vocab = build_vocab(sentences)
        encoded = _encode(sentences, vocab)
        centers, contexts = ref_skipgram_pairs(encoded, window=2)
        examples = _Examples(encoded, window=2, skipgram=True)
        targets, indptr, indices = examples.batch(np.arange(len(examples)))
        assert np.array_equal(indptr, np.arange(len(centers) + 1))
        assert np.array_equal(indices, centers)
        assert np.array_equal(targets, contexts)

    # (vocab, dim, batch[, negatives]); then drift's demo shape, a batch of
    # one, one negative per group, and one group and one row
    @pytest.mark.parametrize("shape", [(4, 3, 7), (50, 8, 3), (485, 100, 257),
                                       (185, 100, 1024, 5), (6, 4, 1, 3), (40, 8, 33, 1),
                                       (12, 6, NEGATIVE_GROUP + 1, 2)])
    def test_width_one_step_matches_skipgram_step(self, shape):
        rng = np.random.default_rng(sum(shape))
        w_in, w_out, centers, contexts, negs = skipgram_batch(rng, *shape)
        exp_in, exp_out = w_in.copy(), w_out.copy()
        ref_step_skipgram(exp_in, exp_out, centers, contexts, negs, 0.3)
        _step(w_in, w_out, contexts, *csr_rows(centers[:, None]), negs, 0.3)
        assert w_in.tobytes() == exp_in.tobytes()
        assert w_out.tobytes() == exp_out.tobytes()

    def test_interleaved_output_order_is_seen(self):
        # the output terms added group by group (each group's targets, then
        # its negatives) are the same terms in another order: close, but not
        # the oracle's bits, so the bitwise tests can tell the two orders apart
        rng = np.random.default_rng(3)
        w_in, w_out, centers, contexts, negs = skipgram_batch(rng, 185, 100, 1024, 5)
        exp_in, exp_out = w_in.copy(), w_out.copy()
        ref_step_skipgram(exp_in, exp_out, centers, contexts, negs, 0.3)
        lr = np.float32(0.3)
        vc = w_in[centers]
        g_pos = (_sigmoid(np.einsum("bd,bd->b", vc, w_out[contexts])) - 1.0).astype(np.float32)
        _, neg_sums = ref_shared_negatives(w_out, vc, contexts, negs, lr)
        target_grads = (-lr * g_pos[:, None] * vc).reshape(len(negs), NEGATIVE_GROUP, -1)
        rows = np.column_stack((contexts.reshape(len(negs), -1), negs)).ravel()
        grads = np.concatenate((target_grads, neg_sums.reshape(len(negs), -1, vc.shape[1])),
                               axis=1).reshape(-1, vc.shape[1])
        interleaved = w_out.copy()
        dense_scatter_add(interleaved, rows, grads)
        assert np.allclose(interleaved, exp_out, rtol=0, atol=1e-6)
        assert not np.array_equal(interleaved, exp_out)

    def test_skipgram_training_matches_reference(self, monkeypatch):
        cfg = TrainConfig(mode="skipgram", dimension=8, window=2, epochs=2,
                          batch_size=64, seed=4)
        sentences = SKIPGRAM_SENTENCES[0] * 20
        table = train(sentences, cfg)
        served = []

        class ReferencePairs:
            def __init__(self, encoded, window, skipgram):
                assert skipgram
                self.centers, self.contexts = ref_skipgram_pairs(encoded, window)

            def __len__(self):
                return len(self.centers)

            def batch(self, sel):
                served.append(len(sel))
                return self.contexts[sel], self.centers[sel][:, None]

        monkeypatch.setattr(embedding, "_Examples", ReferencePairs)
        monkeypatch.setattr(embedding, "_step", lambda w_in, w_out, t, c, n, lr:
                            ref_step_skipgram(w_in, w_out, c[:, 0], t, n, lr))
        ref = train(sentences, cfg)
        assert sum(served) == cfg.epochs * len(ref_skipgram_pairs(
            _encode(sentences, table.vocab), cfg.window)[0])
        assert np.array_equal(table.vectors, ref.vectors)
        assert np.array_equal(table.output_vectors, ref.output_vectors)


class TestSparseKernel:
    """``_matvecs`` adds ``A @ x`` onto its output and refuses anything but
    int32 indices, float32 values and a C-contiguous output: the kernel
    writes a transposed output's update into a copy and loses it."""

    def operands(self):
        indptr = np.array([0, 2, 3, 3], dtype=np.int32)  # 3 columns, last empty
        indices = np.array([1, 1, 0], dtype=np.int32)
        data = np.array([0.5, 2.0, -1.0], dtype=np.float32)
        x = np.arange(6, dtype=np.float32).reshape(3, 2)
        return indptr, indices, data, x

    def test_adds_the_product(self):
        indptr, indices, data, x = self.operands()
        out = np.ones((2, 2), dtype=np.float32)
        _matvecs("csc", indptr, indices, data, x, out)
        assert out.tolist() == [[1 - 2, 1 - 3], [1 + 0 + 0, 1 + 0.5 + 2]]
        # read as CSR, the same arrays are the 3 x 2 transpose
        out_t = np.ones((3, 2), dtype=np.float32)
        _matvecs("csr", indptr, indices, data, out.copy(), out_t)
        assert out_t.tolist() == [[1 + 0.5 * 1 + 2 * 1, 1 + 0.5 * 3.5 + 2 * 3.5],
                                  [1 - 1 * -1, 1 - 1 * -2], [1, 1]]

    @pytest.mark.parametrize("bad", ["int64 indices", "int64 indptr", "float64 data",
                                     "float64 x", "float64 out", "transposed out",
                                     "strided out", "short indptr"])
    def test_rejects_other_arrays(self, bad):
        indptr, indices, data, x = self.operands()
        out = np.ones((2, 2), dtype=np.float32)
        if bad == "int64 indices":
            indices = indices.astype(np.int64)
        elif bad == "int64 indptr":
            indptr = indptr.astype(np.int64)
        elif bad == "float64 data":
            data = data.astype(np.float64)
        elif bad == "float64 x":
            x = x.astype(np.float64)
        elif bad == "float64 out":
            out = out.astype(np.float64)
        elif bad == "transposed out":
            out = np.ones((2, 2), dtype=np.float32).T
        elif bad == "strided out":
            out = np.ones((2, 4), dtype=np.float32)[:, ::2]
        else:
            indptr = indptr[:-1]
        before = out.copy()
        with pytest.raises(TypeError, match="sparse kernel"):
            _matvecs("csc", indptr, indices, data, x, out)
        assert np.array_equal(out, before)


class TestNegativeDraws:
    """Each group of ``NEGATIVE_GROUP`` examples of a batch draws k negatives:
    a batch of b examples takes exactly ``ceil(b / G) * k`` uniforms from the
    training stream, looked up in the noise CDF."""

    # below one group, one group and a ragged one, a multiple of the group
    # size, and one batch per epoch with a ragged last group
    @pytest.mark.parametrize("batch_size", [1, 7, NEGATIVE_GROUP + 21, 4 * NEGATIVE_GROUP,
                                            1024])
    def test_batch_draws_one_row_per_group(self, monkeypatch, batch_size):
        cfg = TrainConfig(mode="skipgram", dimension=4, window=2, negatives=3, epochs=2,
                          batch_size=batch_size, seed=6)
        sentences = SKIPGRAM_SENTENCES[0] * 3 + [["a", "b"]]  # 242 pairs
        served = []
        monkeypatch.setattr(embedding, "_step", lambda w_in, w_out, targets, indptr,
                            indices, negs, lr: served.append((len(targets), negs)))
        table = train(sentences, cfg)
        n = len(ref_skipgram_pairs(_encode(sentences, table.vocab), cfg.window)[0])
        assert n < 1024 and n % NEGATIVE_GROUP
        # replay the stream: the two held-sample draws, then per epoch the
        # permutation and each batch's uniforms
        cdf = _noise_cdf(table.vocab.counts)
        rng = np.random.default_rng(cfg.seed)
        rng.choice(n, size=n, replace=False)
        rng.random((n, cfg.negatives))
        expected = []
        for _ in range(cfg.epochs):
            rng.permutation(n)
            for lo in range(0, n, batch_size):
                b = min(batch_size, n - lo)
                u = rng.random((math.ceil(b / NEGATIVE_GROUP), cfg.negatives))
                expected.append((b, np.searchsorted(cdf, u)))
        assert len(served) == len(expected)
        for (b, negs), (expected_b, expected_negs) in zip(served, expected):
            assert b == expected_b
            assert negs.dtype == np.int32
            assert np.array_equal(negs, expected_negs)


class TestTrain:
    def test_zero_learning_rate_keeps_initialization(self):
        cfg = TrainConfig(mode="skipgram", dimension=8, window=2, epochs=1,
                          learning_rate=0.0, min_learning_rate=0.0, seed=5)
        sentences = pair_corpus(10)
        table = train(sentences, cfg)
        vocab = build_vocab(sentences, 1)
        assert np.array_equal(table.vectors, init_vectors(vocab, cfg))

    def test_deterministic_under_seed(self):
        cfg = TrainConfig(mode="cbow", dimension=8, window=3, epochs=2, seed=7)
        t1 = train(pair_corpus(50), cfg)
        t2 = train(pair_corpus(50), cfg)
        assert np.array_equal(t1.vectors, t2.vectors)
        assert np.array_equal(t1.output_vectors, t2.output_vectors)

    def test_cooccurring_pairs_separate(self):
        cfg = TrainConfig(mode="skipgram", dimension=16, window=5, epochs=5, seed=3)
        table = train(pair_corpus(200), cfg)
        ab = cosine_distance(table.vector("a"), table.vector("b"))
        ac = cosine_distance(table.vector("a"), table.vector("c"))
        assert ab < ac

    def test_heldout_loss_decreases(self):
        # a fit check: the loss on a fixed sample of the training pairs with
        # fixed negatives, at the initial vectors and at the trained ones
        cfg = TrainConfig(mode="skipgram", dimension=16, window=5, epochs=5, seed=3)
        sentences = pair_corpus(200)
        table = train(sentences, cfg)
        centers, contexts = ref_skipgram_pairs(_encode(sentences, table.vocab), cfg.window)
        rng = np.random.default_rng(0)
        sample = rng.choice(len(centers), size=300, replace=False)
        negs = rng.integers(0, len(table.vocab), (300, cfg.negatives))
        pairs = (centers[sample], contexts[sample], negs)
        initial = ref_heldout_loss_skipgram(init_vectors(table.vocab, cfg),
                                            np.zeros_like(table.output_vectors), *pairs)
        trained = ref_heldout_loss_skipgram(table.vectors, table.output_vectors, *pairs)
        assert trained < initial

    def test_vectors_finite_and_nonzero(self):
        cfg = TrainConfig(mode="cbow", dimension=12, window=4, epochs=3, seed=1)
        table = train(pair_corpus(100), cfg)
        assert np.isfinite(table.vectors).all()
        assert (np.linalg.norm(table.vectors, axis=1) > 0).all()

    def test_divergence_detected(self):
        cfg = TrainConfig(mode="skipgram", dimension=8, window=2, epochs=3,
                          learning_rate=1e9, min_learning_rate=1e9, seed=0)
        with pytest.raises(TrainingDivergedError):
            train(pair_corpus(100), cfg)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the pinned thresholds are glibc malloc's")
    def test_steps_do_not_refault_their_memory(self):
        # glibc hands freed heap back to the kernel above a trim threshold
        # that only a large freed block raises; unpinned, every step's
        # temporaries are trimmed and faulted in again.  At this shape
        # (glibc 2.36, numpy 2.4, scipy 1.17, x86-64) pinned steps take about
        # 6.7 minor faults each and unpinned ones about 140, so the bound
        # sits between them.  A fresh process, so no earlier allocation has
        # moved the thresholds.
        code = """
import json, math, resource
import numpy as np
import scipy.sparse  # imported before counting
from hashscope.embedding import TrainConfig, train
rng = np.random.default_rng(0)
tokens = [f"t{i}" for i in range(150)]
sentences = [[tokens[j] for j in rng.integers(0, 150, rng.integers(2, 6))]
             for _ in range(8000)]
cfg = TrainConfig(mode="skipgram", dimension=100, window=30, epochs=2,
                  batch_size=1024, seed=0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(sentences, cfg)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
examples = sum(len(s) * (len(s) - 1) for s in sentences)  # window spans each sentence
print(json.dumps({"faults": faults,
                  "steps": cfg.epochs * math.ceil(examples / cfg.batch_size)}))
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=cli_env(), timeout=300)
        run = json.loads(out.stdout)
        assert run["faults"] / run["steps"] < 40, run

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss is in kilobytes on Linux")
    def test_cbow_memory_does_not_hold_the_context_matrix(self):
        # social's shape (walks of 41 nodes, window 10), N and 4N walks, each
        # trained in a fresh process; the padded int32 context matrix that
        # training once built would take examples * 20 * 4 bytes
        code = """
import json, resource, sys
import numpy as np
import scipy.sparse  # imported before measuring
from hashscope.embedding import TrainConfig, train
n = int(sys.argv[1])
rng = np.random.default_rng(0)
nodes = [f"n{i}" for i in range(200)]
walks = [[nodes[j] for j in row] for row in rng.integers(0, 200, (n, 41)).tolist()]
cfg = TrainConfig(mode="cbow", dimension=16, window=10, epochs=1, seed=0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
train(walks, cfg)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"rise": (after - before) * 1024, "matrix": n * 41 * 20 * 4}))
"""
        runs = [
            json.loads(subprocess.run([sys.executable, "-c", code, str(n)],
                                      capture_output=True, text=True, check=True,
                                      env=cli_env(), timeout=300).stdout)
            for n in (2500, 10000)
        ]
        small, large = runs
        assert large["rise"] < large["matrix"], runs
        assert large["rise"] - small["rise"] < large["matrix"] - small["matrix"], runs

    def test_step_memory_follows_the_batch(self):
        # a batch of 64 against a 100 000-row vocabulary: a step scatters
        # onto the rows its batch names, so its transients are batch-sized;
        # one zeroed V x d buffer alone would be four times the bound.  The
        # first step loads the sparse kernels outside the measured one
        vocab, dim = 100_000, 8
        w_in, w_out, targets, ctx, negs = cbow_batch(np.random.default_rng(0),
                                                     vocab, dim, 64, 4, 5)
        batch = (targets, *csr_rows(ctx), negs, 0.3)
        _step(w_in, w_out, *batch)
        tracemalloc.start()
        try:
            _step(w_in, w_out, *batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < vocab * dim * 4 / 4, peak

    def test_empty_after_encoding_rejected(self):
        cfg = TrainConfig(dimension=4)
        with pytest.raises(VocabularyError):
            train([["solo"]], cfg)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="glove").validate()
        with pytest.raises(ValueError):
            TrainConfig(negatives=0).validate()

    @pytest.mark.parametrize("rates", [
        {"learning_rate": -0.01}, {"min_learning_rate": -1e-4},
        {"learning_rate": float("nan")}, {"min_learning_rate": float("inf")},
    ])
    def test_negative_or_nonfinite_learning_rate_rejected(self, rates):
        with pytest.raises(ValueError, match="learning rates"):
            TrainConfig(**rates).validate()


class TestCosineDistance:
    def test_identical_is_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_opposite_is_two(self):
        v = np.array([1.0, -2.0, 0.5])
        assert cosine_distance(v, -v) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_is_one(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_distance(np.zeros(3), np.ones(3))


class TestNearestNeighbors:
    def _table(self, n=100, d=8, seed=0):
        rng = np.random.default_rng(seed)
        tokens = [f"t{i:03d}" for i in range(n)]
        vocab = Vocabulary(tokens=tokens, counts=np.ones(n, dtype=np.int64))
        return EmbeddingTable(vocab=vocab,
                              vectors=rng.normal(size=(n, d)).astype(np.float32))

    def test_k_zero_empty(self):
        assert nearest_neighbors(self._table(), "t000", 0) == []

    def test_query_never_in_result(self):
        table = self._table()
        assert "t000" not in nearest_neighbors(table, "t000", 99)

    def test_unknown_token(self):
        with pytest.raises(KeyError):
            nearest_neighbors(self._table(), "missing", 3)

    def test_matches_exhaustive_scan(self):
        table = self._table(n=100)
        query = "t042"
        qv = table.vector(query).astype(np.float64)
        scored = []
        for i, token in enumerate(table.vocab.tokens):
            if token == query:
                continue
            v = table.vectors[i].astype(np.float64)
            dist = 1.0 - (qv @ v) / (np.linalg.norm(qv) * np.linalg.norm(v))
            scored.append((dist, i, token))
        oracle = [t for _, _, t in sorted(scored)[:10]]
        assert nearest_neighbors(table, query, 10) == oracle

    def test_tie_break_by_index(self):
        tokens = ["q", "far", "twin1", "twin2"]
        vectors = np.array([
            [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 1.0],
        ], dtype=np.float32)
        vocab = Vocabulary(tokens=tokens, counts=np.ones(4, dtype=np.int64))
        table = EmbeddingTable(vocab=vocab, vectors=vectors)
        assert nearest_neighbors(table, "q", 2) == ["twin1", "twin2"]


@pytest.fixture(scope="module")
def community_setup():
    spec = SyntheticSpec(users=300, hashtags=120, posts=60000, years=1,
                         start_year=2013, communities=20, community_mix=0.92,
                         pair_affinity=1.0, zipf_exponent=0.0,
                         mean_extra_tags=2.5, seed=17)
    corpus = generate_synthetic(spec)
    sentences = [sorted(p.hashtags) for p in corpus.posts if len(p.hashtags) >= 2]
    return spec, sentences


class TestPlantedCommunities:
    """Synonym-community corpora: neighbor quality and order invariance."""

    def test_top5_neighbors_stay_in_community(self, community_setup):
        spec, sentences = community_setup
        cfg = TrainConfig(mode="skipgram", dimension=64, window=30, negatives=5,
                          epochs=8, learning_rate=0.05, min_count=5, seed=3)
        table = train(sentences, cfg)
        comm = spec.n_communities
        hits = []
        for token in table.vocab.tokens:
            same = sum(
                1 for n in nearest_neighbors(table, token, 5)
                if int(n[3:]) % comm == int(token[3:]) % comm
            )
            hits.append(same / 5)
        assert np.mean(hits) >= 0.8

    def test_sentence_order_permutation_agreement(self, community_setup):
        spec, sentences = community_setup
        cfg = TrainConfig(mode="skipgram", dimension=64, window=30, negatives=15,
                          epochs=18, learning_rate=0.03, min_count=5, seed=3)
        tables = []
        for perm_seed in (1, 2):
            order = np.random.default_rng(perm_seed).permutation(len(sentences))
            tables.append(train([sentences[i] for i in order], cfg))
        tokens = [t for t in tables[0].vocab.tokens if t in tables[1].vocab]
        agree = np.mean([
            nearest_neighbors(tables[0], t, 1) == nearest_neighbors(tables[1], t, 1)
            for t in tokens
        ])
        assert agree >= 0.9
