import numpy as np
import pytest
from scipy.special import expit as sigmoid

from clirkit.corpus import Document
from clirkit.embeddings import (
    SgnsConfig,
    _CenterRuns,
    _enumerate_pairs,
    _run_epoch,
    build_vocab,
    negative_distribution,
    negative_table,
    train_sgns,
    train_sgns_model,
)


def window_pairs_reference(sequences, window):
    """(center, context) id pairs by a plain loop over positions."""
    centers, contexts = [], []
    for seq in sequences:
        n = len(seq)
        for i in range(n):
            for j in range(max(0, i - window), min(n, i + window + 1)):
                if j != i:
                    centers.append(seq[i])
                    contexts.append(seq[j])
    return centers, contexts


def negative_table_reference(counts, size):
    """Each grid point (j + 0.5) / size looked up in the cumulative
    distribution."""
    cum = np.cumsum(negative_distribution(counts))
    cum[-1] = 1.0
    return np.searchsorted(cum, (np.arange(size) + 0.5) / size).astype(np.int32)


class TestNegativeSampling:
    def test_distribution_is_unigram_to_three_quarters(self):
        counts = [1, 8, 27]
        probs = negative_distribution(counts)
        raw = np.array(counts, dtype=float) ** 0.75
        np.testing.assert_allclose(probs, raw / raw.sum(), atol=1e-12)

    def test_empirical_frequencies_converge(self):
        counts = [1, 8, 27]
        table = negative_table(counts, size=200_000)
        rng = np.random.default_rng(0)
        draws = table[rng.integers(0, len(table), size=300_000)]
        freqs = np.bincount(draws, minlength=3) / len(draws)
        np.testing.assert_allclose(freqs, negative_distribution(counts), atol=5e-3)

    def test_table_matches_grid_lookup(self):
        rng = np.random.default_rng(2)
        for size in (1, 7, 1000, 1_000_000):
            for _ in range(10):
                counts = rng.integers(1, 1000, size=int(rng.integers(1, 400))).tolist()
                table = negative_table(counts, size=size)
                assert table.dtype == np.int32
                np.testing.assert_array_equal(table, negative_table_reference(counts, size))


class TestWindow:
    def test_pairs_stay_inside_window(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            window = int(rng.integers(1, 12))
            centers, contexts = _enumerate_pairs([list(range(n))], window)
            assert np.all(centers != contexts)
            assert np.all(np.abs(centers - contexts) <= window)

    def test_every_in_window_pair_emitted(self):
        centers, contexts = _enumerate_pairs([[0, 1, 2]], 2)
        assert set(zip(centers.tolist(), contexts.tolist())) == {
            (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}

    def test_matches_loop_in_order(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            sequences = [rng.integers(0, 8, size=int(rng.integers(0, 30))).tolist()
                         for _ in range(int(rng.integers(0, 5)))]
            window = int(rng.integers(1, 35))
            centers, contexts = _enumerate_pairs(sequences, window)
            want_centers, want_contexts = window_pairs_reference(sequences, window)
            assert centers.dtype == contexts.dtype == np.intp
            assert centers.tolist() == want_centers
            assert contexts.tolist() == want_contexts


class TestVocab:
    def test_min_count_filters(self):
        docs = [Document("d1", ("a", "a", "b"))]
        vocab, counts = build_vocab(docs, min_count=2)
        assert vocab == ["a"] and counts == [2]

    def test_order_count_desc_then_term(self):
        docs = [Document("d1", ("b", "b", "a", "a", "c"))]
        vocab, _ = build_vocab(docs, min_count=1)
        assert vocab == ["a", "b", "c"]


class TestTraining:
    def test_trained_objective_discriminates(self):
        # alternating corpus: with window 1 the only context of "a" is "b",
        # and with one negative the optimum of the objective puts
        # u_a . v_b near pmi(a, b) = log 2 > 0
        tokens = tuple(("a" if i % 2 == 0 else "b") for i in range(10_000))
        docs = [Document("d1", tokens)]
        cfg = SgnsConfig(window=1, negatives=1, dim=16, epochs=2,
                         learning_rate=0.05)
        table, context_vectors = train_sgns_model(docs, cfg, 3)
        u_a = table.get("a")
        v_b = context_vectors[table.index["b"]]
        v_a = context_vectors[table.index["a"]]
        rng = np.random.default_rng(99)
        v_x = (rng.random(16) - 0.5) / 16
        assert sigmoid(float(u_a @ v_b)) > sigmoid(float(u_a @ v_x))
        assert sigmoid(float(u_a @ v_b)) > sigmoid(float(u_a @ v_a))
        assert float(u_a @ v_b) == pytest.approx(np.log(2.0), abs=0.25)

    def test_requested_dimension(self):
        docs = [Document("d1", ("a", "b", "c") * 10)]
        table = train_sgns(docs, SgnsConfig(dim=50, epochs=1), 0)
        assert table.dim == 50
        assert table.vectors.shape == (len(table.vocab), 50)

    def test_same_seed_identical_tables(self):
        docs = [Document("d1", ("a", "b", "c", "b") * 25)]
        cfg = SgnsConfig(dim=12, epochs=3)
        t1 = train_sgns(docs, cfg, 11)
        t2 = train_sgns(docs, cfg, 11)
        assert t1.vocab == t2.vocab
        assert np.array_equal(t1.vectors, t2.vectors)

    def test_different_seed_differs(self):
        docs = [Document("d1", ("a", "b", "c", "b") * 25)]
        t1 = train_sgns(docs, SgnsConfig(dim=12, epochs=3), 11)
        t2 = train_sgns(docs, SgnsConfig(dim=12, epochs=3), 12)
        assert t1.vocab == t2.vocab
        assert not np.array_equal(t1.vectors, t2.vectors)

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            train_sgns([Document("d1", ("a",))], SgnsConfig(min_count=5, epochs=1), 0)


class TestBatchUpdate:
    """``_run_epoch`` against a pair-by-pair loop that takes every gradient
    at the batch-start parameters and sums them."""

    @staticmethod
    def reference_epoch(emb, ctx, centers, contexts, negatives, batch, lr):
        for start in range(0, len(centers), batch):
            emb0, ctx0 = emb.copy(), ctx.copy()
            for p in range(start, min(start + batch, len(centers))):
                c = centers[p]
                targets = [contexts[p], *negatives[p]]
                for t, label in zip(targets, [1.0] + [0.0] * len(negatives[p])):
                    g = lr * (1.0 / (1.0 + np.exp(-(emb0[c] @ ctx0[t]))) - label)
                    emb[c] -= g * ctx0[t]
                    ctx[t] -= g * emb0[c]

    def test_matches_pairwise_loop(self):
        sequences = [[0, 1, 0, 2, 3, 0, 4, 5, 6, 2, 1]]
        vsize, dim, k, batch = 7, 4, 3, 8
        centers, contexts = _enumerate_pairs(sequences, 2)
        runs = _CenterRuns.build(centers, batch, vsize)
        # center 0 twice in the first batch, apart; its second run crosses
        # into the next batch
        assert centers[:batch].tolist() == [0, 0, 1, 1, 1, 0, 0, 0]
        assert centers[batch] == 0
        for i, start in enumerate(range(0, len(centers), batch)):
            rows = runs.rows[runs.bounds[i]:runs.bounds[i + 1]]
            # emb[rows] -= grad drops all but one update to a repeated row
            assert len(set(rows.tolist())) == len(rows)
            pair_rows = rows[runs.run_of_pair[start:start + batch]]
            np.testing.assert_array_equal(pair_rows, centers[start:start + batch])

        rng = np.random.default_rng(4)
        emb = (rng.random((vsize, dim)) - 0.5) / dim
        ctx = (rng.random((vsize, dim)) - 0.5) / dim
        want_emb, want_ctx = emb.copy(), ctx.copy()
        for lr in (0.5, 0.3, 0.1):
            negatives = rng.integers(0, vsize, size=(len(centers), k))
            negatives[0] = [contexts[0], 5, 5]  # own context, then a repeat
            _run_epoch(emb, ctx, centers, contexts, negatives, runs, lr)
            self.reference_epoch(want_emb, want_ctx, centers, contexts, negatives,
                                 batch, lr)
        np.testing.assert_allclose(emb, want_emb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ctx, want_ctx, rtol=0, atol=1e-12)
