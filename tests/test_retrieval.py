import math
from collections import Counter

import numpy as np
import pytest

from clirkit.corpus import Document, DuplicateDocIdError
from clirkit.retrieval import InvertedIndex, QueryModel, retrieve


def docs_from(layout: dict[str, list[str]]) -> list[Document]:
    return [Document(doc_id, tuple(tokens)) for doc_id, tokens in layout.items()]


def random_docs(rng, n_docs, vocab=12, max_len=30) -> list[Document]:
    vocab_terms = [f"w{i}" for i in range(vocab)]
    out = []
    for i in range(n_docs):
        length = int(rng.integers(1, max_len))
        tokens = tuple(vocab_terms[j] for j in rng.integers(0, vocab, length))
        out.append(Document(f"d{i:03d}", tokens))
    return out


def brute_force_scores(docs: list[Document], query: dict[str, float], mu: float):
    """Independent scorer straight from the smoothed-model formula."""
    cf = Counter()
    for d in docs:
        cf.update(d.tokens)
    total = sum(cf.values())
    scores = {}
    for d in docs:
        tf = Counter(d.tokens)
        s = 0.0
        for term, weight in query.items():
            p_c = cf.get(term, 0) / total
            if p_c == 0.0:
                continue
            s += weight * math.log((tf.get(term, 0) + mu * p_c) / (d.length + mu))
        scores[d.doc_id] = s
    return scores


class TestQueryModel:
    def test_normalizes(self):
        q = QueryModel({"a": 2.0, "b": 2.0})
        assert q.weights == {"a": 0.5, "b": 0.5}

    def test_drops_zero_entries(self):
        q = QueryModel({"a": 1.0, "b": 0.0})
        assert "b" not in q.weights

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            QueryModel({})
        with pytest.raises(ValueError):
            QueryModel.from_terms([])

    def test_from_terms_is_mle(self):
        q = QueryModel.from_terms(["a", "a", "b", "c"])
        assert q.weights == {"a": 0.5, "b": 0.25, "c": 0.25}


class TestBuildIndex:
    def test_counts_by_hand(self):
        index = InvertedIndex.from_documents(docs_from({"d1": ["a", "b"], "d2": ["b"]}))
        assert index.collection_freq == {"a": 1, "b": 2}
        assert index.total_tokens == 3
        assert index.doc_lengths == {"d1": 2, "d2": 1}
        assert index.collection_prob("b") == 2 / 3

    def test_empty_stream(self):
        index = InvertedIndex.from_documents([])
        assert index.total_tokens == 0
        assert index.doc_lengths == {}

    def test_invariants_on_random_docs(self):
        rng = np.random.default_rng(7)
        docs = random_docs(rng, 100)
        index = InvertedIndex.from_documents(docs)
        # independent recount
        assert sum(index.doc_lengths.values()) == index.total_tokens
        recount = Counter()
        for d in docs:
            recount.update(d.tokens)
        assert dict(recount) == index.collection_freq
        for term, plist in index.postings.items():
            assert sum(tf for _, tf in plist) == index.collection_freq[term]

    def test_duplicate_doc_id(self):
        docs = [Document("d1", ("a",)), Document("d1", ("b",))]
        with pytest.raises(DuplicateDocIdError):
            InvertedIndex.from_documents(docs)


class TestRetrieve:
    def test_term_holder_ranks_first(self):
        docs = docs_from({"d1": ["q", "x"], "d2": ["x", "y"]})
        index = InvertedIndex.from_documents(docs)
        ranked = retrieve(QueryModel({"q": 1.0}), index, mu=100.0, k=2)
        assert ranked[0][0] == "d1"

    def test_symmetric_tie_broken_by_doc_id(self):
        docs = docs_from({"db": ["a", "b"], "da": ["b", "a"]})
        index = InvertedIndex.from_documents(docs)
        ranked = retrieve(QueryModel({"a": 0.5, "b": 0.5}), index, mu=50.0, k=2)
        assert [d for d, _ in ranked] == ["da", "db"]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            docs = random_docs(rng, 20)
            index = InvertedIndex.from_documents(docs)
            query = QueryModel({"w0": 0.5, "w3": 0.3, "w7": 0.2})
            ranked = retrieve(query, index, mu=900.0, k=len(docs))
            oracle = brute_force_scores(docs, query.weights, mu=900.0)
            expected = sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))
            assert [d for d, _ in ranked] == [d for d, _ in expected]
            for (d1, s1), (_, s2) in zip(ranked, expected):
                assert s1 == pytest.approx(s2, abs=1e-10)

    def test_empty_query_rejected(self):
        index = InvertedIndex.from_documents([Document("d1", ("a",))])
        with pytest.raises(ValueError):
            retrieve(QueryModel({"zzz": 1.0}), index, mu=100.0, k=1)

    def test_rank_equivalence_with_query_likelihood(self):
        # KL scoring with an MLE query model orders like query likelihood
        rng = np.random.default_rng(5)
        for trial in range(5):
            docs = random_docs(rng, 15)
            index = InvertedIndex.from_documents(docs)
            q_terms = ["w1", "w2", "w2", "w5"]
            ranked = retrieve(QueryModel.from_terms(q_terms), index, mu=700.0, k=15)
            ql = {}
            for d in docs:
                tf = Counter(d.tokens)
                cf = index.collection_freq
                ql[d.doc_id] = sum(
                    math.log((tf.get(t, 0) + 700.0 * cf.get(t, 0) / index.total_tokens)
                             / (d.length + 700.0))
                    for t in q_terms if cf.get(t, 0) > 0)
            expected = sorted(ql.items(), key=lambda kv: (-kv[1], kv[0]))
            assert [d for d, _ in ranked] == [d for d, _ in expected]

    def test_added_nonmatching_doc_preserves_relative_order(self):
        rng = np.random.default_rng(23)
        docs = random_docs(rng, 12)
        query = QueryModel({"w2": 0.6, "w4": 0.4})
        before = [d for d, _ in retrieve(query, InvertedIndex.from_documents(docs),
                                         mu=500.0, k=12)]
        extra = docs + [Document("zzz-extra", ("only", "novel", "terms"))]
        after = [d for d, _ in retrieve(query, InvertedIndex.from_documents(extra),
                                        mu=500.0, k=13)]
        assert [d for d in after if d != "zzz-extra"] == before

    def test_scores_invariant_to_document_order(self):
        rng = np.random.default_rng(31)
        docs = random_docs(rng, 25)
        query = QueryModel({"w1": 0.7, "w9": 0.3})
        a = retrieve(query, InvertedIndex.from_documents(docs), mu=300.0, k=25)
        b = retrieve(query, InvertedIndex.from_documents(list(reversed(docs))), mu=300.0, k=25)
        assert a == b

