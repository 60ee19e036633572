import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def scalar_scores(docs: list[Document], query: dict[str, float], mu: float):
    """The scoring decomposition of retrieval.py's docstring as a
    per-document loop: base, length prior, then each matched term's bonus
    in query order, so it gives the very floats ``retrieve`` should."""
    cf = Counter()
    for d in docs:
        cf.update(d.tokens)
    total = sum(cf.values())
    active = {t: w for t, w in query.items() if cf[t] > 0}
    base = sum(w * math.log(mu * (cf[t] / total)) for t, w in active.items())
    qmass = sum(active.values())
    scores = {}
    for d in docs:
        tf = Counter(d.tokens)
        s = base - qmass * math.log(d.length + mu)
        for t, w in active.items():
            if tf[t]:
                s += w * math.log1p(tf[t] / (mu * (cf[t] / total)))
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
        assert index.doc_ids == ["d1", "d2"]
        assert np.diff(index.doc_starts).tolist() == [2, 1]
        assert index.collection_prob("b") == 2 / 3
        assert index.terms == ["a", "b"]
        assert index.term_ids == {"a": 0, "b": 1}
        assert index.post_offsets.tolist() == [0, 1, 3]
        assert index.post_docs.tolist() == [0, 0, 1]
        assert index.post_tfs.tolist() == [1, 1, 1]
        assert index.tokens.tolist() == [0, 1, 1]
        assert index.doc_starts.tolist() == [0, 2, 3]

    def test_empty_stream(self):
        index = InvertedIndex.from_documents([])
        assert index.total_tokens == 0
        assert index.doc_ids == []
        assert np.diff(index.doc_starts).size == 0

    def test_invariants_on_random_docs(self):
        rng = np.random.default_rng(7)
        docs = random_docs(rng, 100)
        docs.insert(50, Document("empty", ()))
        index = InvertedIndex.from_documents(docs)
        # independent recount
        lengths = np.diff(index.doc_starts)
        assert lengths.tolist() == [d.length for d in docs]
        assert int(lengths.sum()) == index.total_tokens
        recount = Counter()
        for d in docs:
            recount.update(d.tokens)
        assert dict(recount) == index.collection_freq
        assert index.terms == sorted(recount)
        for term, t in index.term_ids.items():
            lo, hi = index.post_offsets[t], index.post_offsets[t + 1]
            assert int(index.post_tfs[lo:hi].sum()) == index.collection_freq[term]
            for i, tf in zip(index.post_docs[lo:hi].tolist(), index.post_tfs[lo:hi].tolist()):
                assert docs[i].tokens.count(term) == tf
        for i, d in enumerate(docs):
            stream = index.tokens[index.doc_starts[i]:index.doc_starts[i + 1]].tolist()
            assert [index.terms[t] for t in stream] == list(d.tokens)
            assert index.document(d.doc_id) == d

    def test_duplicate_doc_id(self):
        docs = [Document("d1", ("a",)), Document("d1", ("b",))]
        with pytest.raises(DuplicateDocIdError):
            InvertedIndex.from_documents(docs)
        with pytest.raises(DuplicateDocIdError):
            InvertedIndex.from_documents(iter(docs))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["z", "b10", "b9", "a", "B", "é", "w0"]),
                             max_size=8), max_size=12))
    def test_stream_builds_the_same_index_as_a_list(self, layout):
        # terms first seen out of sorted order, and empty documents, are drawn
        docs = [Document(f"d{i}", tuple(tokens)) for i, tokens in enumerate(layout)]
        streamed = InvertedIndex.from_documents(iter(docs))
        listed = InvertedIndex.from_documents(docs)
        for f in fields(InvertedIndex):
            a, b = getattr(streamed, f.name), getattr(listed, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
            else:
                assert a == b, f.name
        assert streamed.terms == sorted({t for tokens in layout for t in tokens})
        assert streamed.term_ids == {t: i for i, t in enumerate(streamed.terms)}
        assert streamed.tokens.dtype == np.int32
        assert streamed.tokens.tolist() == [streamed.term_ids[t]
                                            for tokens in layout for t in tokens]


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


    def test_top_k_equals_full_sort_with_ties(self):
        rng = np.random.default_rng(47)
        for trial in range(20):
            # every document twice plus an empty one, under shuffled ids
            originals = random_docs(rng, 15, vocab=6, max_len=12)
            tokens = [d.tokens for d in originals] * 2 + [()]
            ids = [f"d{i:03d}" for i in rng.permutation(len(tokens))]
            docs = [Document(doc_id, toks) for doc_id, toks in zip(ids, tokens)]
            docs = [docs[i] for i in rng.permutation(len(docs))]
            index = InvertedIndex.from_documents(docs)
            terms = rng.choice(6, size=3, replace=False)
            query = QueryModel({f"w{j}": float(w)
                                for j, w in zip(terms, rng.dirichlet(np.ones(3)))})
            mu = float(rng.uniform(10, 2000))
            full = sorted(scalar_scores(docs, query.weights, mu).items(),
                          key=lambda kv: (-kv[1], kv[0]))
            in_tie = [k for k in range(1, len(full)) if full[k - 1][1] == full[k][1]]
            assert in_tie, "duplicated documents must tie"
            n = len(docs)
            for k in (1, in_tie[0], in_tie[-1], n - 1, n, n + 5):
                ranked = retrieve(query, index, mu, k)
                assert ranked == full[:k], (trial, k)
                assert all(type(score) is float for _, score in ranked)
