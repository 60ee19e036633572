import math

import numpy as np
import pytest

from clirkit.corpus import Document
from clirkit.prf import (
    FeedbackConfig,
    em_feedback,
    estimate_feedback_model,
    interpolate_query,
)
from clirkit.retrieval import InvertedIndex, QueryModel


def oracle_em(counts, background, noise, iters):
    """Independent fixed-point EM over numpy arrays, run for exactly
    ``iters`` updates (the two implementations follow the same trajectory,
    so they are compared after identical iteration counts)."""
    terms = sorted(counts)
    c = np.array([counts[t] for t in terms], dtype=float)
    bg = np.array([background.get(t, 0.0) for t in terms])
    theta = c / c.sum()
    for _ in range(iters):
        resp = (1 - noise) * theta / ((1 - noise) * theta + noise * bg)
        theta = c * resp
        theta /= theta.sum()
    return dict(zip(terms, theta))


def make_collection(rng, n_docs=40, vocab=20, max_len=60):
    docs = []
    for i in range(n_docs):
        length = int(rng.integers(5, max_len))
        tokens = tuple(f"t{j}" for j in rng.integers(0, vocab, length))
        docs.append(Document(f"d{i}", tokens))
    return docs


class TestEstimateFeedbackModel:
    def test_tiny_noise_recovers_concatenated_mle(self):
        rng = np.random.default_rng(2)
        docs = make_collection(rng)
        index = InvertedIndex.from_documents(docs)
        feedback = docs[:5]
        cfg = FeedbackConfig(noise=1e-12, em_iters=30, num_terms=1000)
        model = estimate_feedback_model(feedback, index, cfg)
        counts = {}
        for d in feedback:
            for t in d.tokens:
                counts[t] = counts.get(t, 0) + 1
        total = sum(counts.values())
        for term, weight in model.weights.items():
            assert weight == pytest.approx(counts[term] / total, abs=1e-9)

    def test_single_term_corpus(self):
        docs = [Document("d1", ("only",) * 5)]
        index = InvertedIndex.from_documents(docs)
        model = estimate_feedback_model(docs, index, FeedbackConfig())
        assert model.weights == {"only": 1.0}

    def test_runs_every_iteration_after_convergence(self):
        # the log-likelihood is constant from the first iteration on
        theta, history = em_feedback({"only": 5}, {"only": 1.0}, noise=0.5, iters=30)
        assert theta == {"only": 1.0}
        assert len(history) == 30

    def test_matches_independent_em_oracle(self):
        rng = np.random.default_rng(9)
        docs = make_collection(rng)
        index = InvertedIndex.from_documents(docs)
        feedback = docs[:5]
        counts = {}
        for d in feedback:
            for t in d.tokens:
                counts[t] = counts.get(t, 0) + 1
        background = {t: index.collection_prob(t) for t in counts}
        theta, _ = em_feedback(counts, background, noise=0.5, iters=500)
        expected = oracle_em(counts, background, noise=0.5, iters=500)
        for term in counts:
            assert theta[term] == pytest.approx(expected[term], abs=1e-10)

    def test_loglikelihood_never_decreases(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            docs = make_collection(rng, n_docs=12)
            index = InvertedIndex.from_documents(docs)
            feedback = docs[:4]
            counts = {}
            for d in feedback:
                for t in d.tokens:
                    counts[t] = counts.get(t, 0) + 1
            background = {t: index.collection_prob(t) for t in counts}
            _, history = em_feedback(counts, background, noise=0.5, iters=30)
            for earlier, later in zip(history, history[1:]):
                assert later >= earlier - 1e-12

    def test_no_mass_outside_feedback_vocabulary(self):
        rng = np.random.default_rng(4)
        docs = make_collection(rng)
        index = InvertedIndex.from_documents(docs)
        model = estimate_feedback_model(docs[:3], index, FeedbackConfig())
        feedback_vocab = {t for d in docs[:3] for t in d.tokens}
        assert set(model.weights) <= feedback_vocab

    def test_truncation_preserves_order(self):
        rng = np.random.default_rng(6)
        docs = make_collection(rng)
        index = InvertedIndex.from_documents(docs)
        full = estimate_feedback_model(docs[:5], index,
                                       FeedbackConfig(num_terms=10_000))
        cut = estimate_feedback_model(docs[:5], index, FeedbackConfig(num_terms=5))
        assert len(cut.weights) == 5
        order_full = [t for t, _ in sorted(full.weights.items(),
                                           key=lambda kv: (-kv[1], kv[0]))][:5]
        order_cut = [t for t, _ in sorted(cut.weights.items(),
                                          key=lambda kv: (-kv[1], kv[0]))]
        assert order_cut == order_full

    def test_empty_feedback_rejected(self):
        index = InvertedIndex.from_documents([Document("d1", ("a",))])
        with pytest.raises(ValueError):
            estimate_feedback_model([], index, FeedbackConfig())
        with pytest.raises(ValueError):
            estimate_feedback_model([Document("e", ())], index, FeedbackConfig())


class TestInterpolateQuery:
    def test_coeff_zero_keeps_original(self):
        a = QueryModel({"x": 0.7, "y": 0.3})
        b = QueryModel({"z": 1.0})
        assert interpolate_query(a, b, 0.0).weights == a.weights

    def test_coeff_one_takes_feedback(self):
        a = QueryModel({"x": 1.0})
        b = QueryModel({"z": 0.4, "w": 0.6})
        assert interpolate_query(a, b, 1.0).weights == b.weights

    def test_half_mix_symmetric(self):
        a = QueryModel({"a": 1.0})
        b = QueryModel({"b": 1.0})
        mixed = interpolate_query(a, b, 0.5)
        assert mixed.weights == {"a": 0.5, "b": 0.5}

    def test_out_of_range_rejected(self):
        a = QueryModel({"a": 1.0})
        with pytest.raises(ValueError):
            interpolate_query(a, a, 1.5)
        with pytest.raises(ValueError):
            interpolate_query(a, a, -0.1)

    def test_result_normalized(self):
        a = QueryModel({"a": 0.6, "b": 0.4})
        b = QueryModel({"b": 0.5, "c": 0.5})
        mixed = interpolate_query(a, b, 0.3)
        assert sum(mixed.weights.values()) == pytest.approx(1.0, abs=1e-12)

