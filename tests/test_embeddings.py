import numpy as np
import pytest
from scipy.special import expit as sigmoid

from clirkit.corpus import Document
from clirkit.embeddings import (
    SgnsConfig,
    build_vocab,
    iter_window_pairs,
    negative_distribution,
    negative_table,
    train_sgns,
    train_sgns_model,
)


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


class TestWindow:
    def test_pairs_stay_inside_window(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            window = int(rng.integers(1, 12))
            positions = list(range(n))
            for center, context in iter_window_pairs(positions, window):
                assert center != context
                assert abs(center - context) <= window

    def test_every_in_window_pair_emitted(self):
        pairs = set(iter_window_pairs([0, 1, 2], 2))
        assert pairs == {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}


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
