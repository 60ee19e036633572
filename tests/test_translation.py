import math

import numpy as np
import pytest

from clirkit.corpus import BilingualDictionary, Document
from clirkit.embeddings import SgnsConfig, train_sgns
from clirkit.projection import ProjectionMatrix
from clirkit.retrieval import InvertedIndex, QueryModel
from clirkit.translation import (
    TranslationModel,
    cooccur_model,
    interpolate_models,
    merge_shuffle,
    mixed_model,
    projected_model,
    softmax_scores,
    top1_model,
    translate_query_model,
    uniform_model,
)

from conftest import make_table


def identity(n) -> ProjectionMatrix:
    return ProjectionMatrix(w=np.eye(n), n=n)


def assert_rows_normalized(model: TranslationModel, tol=1e-9):
    for source, row in model.table.items():
        total = sum(p for _, p in row)
        assert total == pytest.approx(1.0, abs=tol), source
        assert all(p >= 0 for _, p in row)


class TestSoftmax:
    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            scores = list(rng.normal(size=int(rng.integers(1, 8))))
            shift = float(rng.normal())
            a = softmax_scores(scores)
            b = softmax_scores([s + shift for s in scores])
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_known_values(self):
        p = softmax_scores([1.0, 0.0])
        assert p[0] == pytest.approx(math.e / (math.e + 1.0), abs=1e-12)
        assert p[1] == pytest.approx(1.0 / (math.e + 1.0), abs=1e-12)


class TestProjectedModel:
    def test_single_surviving_candidate(self):
        src = make_table({"a": [1.0, 0.0]})
        tgt = make_table({"x": [0.5, 0.5]})
        d = BilingualDictionary(entries={"a": ("x", "missing")})
        model = projected_model(["a"], identity(2), src, tgt, d)
        assert model.table["a"] == [("x", 1.0)]

    def test_equal_cosines_split_evenly(self):
        src = make_table({"a": [1.0, 0.0]})
        tgt = make_table({"x": [1.0, 1.0], "y": [1.0, 1.0]})
        d = BilingualDictionary(entries={"a": ("x", "y")})
        model = projected_model(["a"], identity(2), src, tgt, d)
        probs = dict(model.table["a"])
        assert probs["x"] == pytest.approx(0.5)
        assert probs["y"] == pytest.approx(0.5)

    def test_softmax_of_unit_and_zero_cosine(self):
        src = make_table({"a": [1.0, 0.0]})
        tgt = make_table({"x": [2.0, 0.0], "y": [0.0, 3.0]})
        d = BilingualDictionary(entries={"a": ("x", "y")})
        model = projected_model(["a"], identity(2), src, tgt, d)
        probs = dict(model.table["a"])
        assert probs["x"] == pytest.approx(math.e / (math.e + 1.0), abs=1e-9)
        assert probs["y"] == pytest.approx(1.0 / (math.e + 1.0), abs=1e-9)

    def test_identity_projection_prefers_most_similar_candidate(self):
        rng = np.random.default_rng(7)
        vecs = {f"w{i}": rng.normal(size=6) for i in range(12)}
        shared = make_table(vecs)
        d = BilingualDictionary(entries={"w0": ("w3", "w5", "w9", "w11")})
        model = projected_model(["w0"], identity(6), shared, shared, d)
        u = vecs["w0"]
        best = max(d.entries["w0"],
                   key=lambda c: float(u @ vecs[c]) / (np.linalg.norm(u) * np.linalg.norm(vecs[c])))
        assert model.argmax("w0") == best

    def test_missing_source_vector_falls_back_uniform(self):
        src = make_table({"other": [1.0]})
        tgt = make_table({"x": [1.0], "y": [1.0]})
        d = BilingualDictionary(entries={"a": ("x", "y")})
        model = projected_model(["a"], identity(1), src, tgt, d)
        assert dict(model.table["a"]) == {"x": 0.5, "y": 0.5}
        assert model.diagnostics["fallback_terms"] == ["a"]

    def test_no_dictionary_entry_recorded(self):
        src = make_table({"a": [1.0]})
        tgt = make_table({"x": [1.0]})
        model = projected_model(["a"], identity(1), src, tgt, BilingualDictionary())
        assert model.table == {}
        assert model.diagnostics["dropped_terms"] == ["a"]


class TestUniformAndTop1:
    def test_uniform_quarters(self):
        d = BilingualDictionary(entries={"a": ("w", "x", "y", "z")})
        model = uniform_model(["a"], d)
        assert all(p == 0.25 for _, p in model.table["a"])

    def test_uniform_single(self):
        d = BilingualDictionary(entries={"a": ("x",)})
        assert uniform_model(["a"], d).table["a"] == [("x", 1.0)]

    def test_uniform_equals_projected_under_equal_cosines(self):
        src = make_table({"a": [2.0, 0.0]})
        tgt = make_table({"x": [1.0, 0.0], "y": [3.0, 0.0], "z": [0.5, 0.0]})
        d = BilingualDictionary(entries={"a": ("x", "y", "z")})
        uni = uniform_model(["a"], d)
        proj = projected_model(["a"], identity(2), src, tgt, d)
        for (c1, p1), (c2, p2) in zip(uni.table["a"], proj.table["a"]):
            assert c1 == c2
            assert p1 == pytest.approx(p2, abs=1e-12)

    def test_top1_takes_first(self):
        d = BilingualDictionary(entries={"chien": ("dog", "hound")})
        assert top1_model(["chien"], d).table["chien"] == [("dog", 1.0)]

    def test_top1_single_candidate_equals_uniform(self):
        d = BilingualDictionary(entries={"a": ("x",)})
        assert top1_model(["a"], d).table == uniform_model(["a"], d).table

    def test_top1_respects_order(self):
        d1 = BilingualDictionary(entries={"a": ("x", "y")})
        d2 = BilingualDictionary(entries={"a": ("y", "x")})
        assert top1_model(["a"], d1).table["a"][0][0] == "x"
        assert top1_model(["a"], d2).table["a"][0][0] == "y"


class TestCooccurModel:
    def test_single_term_reduces_to_uniform(self):
        d = BilingualDictionary(entries={"a": ("x", "y", "z")})
        docs = [Document("d1", ("x", "y", "x", "z"))]
        model = cooccur_model(["a"], d, InvertedIndex.from_documents(docs), window=4)
        for _, p in model.table["a"]:
            assert p == pytest.approx(1.0 / 3.0)

    def test_cooccurring_pair_dominates(self):
        d = BilingualDictionary(entries={"a": ("x", "y"), "b": ("p", "q")})
        docs = [Document("d1", ("x", "p", "x", "p", "filler", "y"))]
        model = cooccur_model(["a", "b"], d, InvertedIndex.from_documents(docs), window=2)
        assert model.argmax("a") == "x"
        assert model.argmax("b") == "p"

    def test_matches_window_scan_oracle(self):
        rng = np.random.default_rng(3)
        vocab = [f"t{i}" for i in range(8)]
        docs = [Document(f"d{i}", tuple(vocab[j] for j in rng.integers(0, 8, 30)))
                for i in range(10)]
        d = BilingualDictionary(entries={"a": ("t0", "t1"), "b": ("t2", "t3"),
                                         "c": ("t4", "t5")})
        window = 3
        model = cooccur_model(["a", "b", "c"], d, InvertedIndex.from_documents(docs),
                              window=window)

        def oracle_count(x, y):
            hits = 0
            for doc in docs:
                toks = doc.tokens
                for i in range(len(toks)):
                    for j in range(i + 1, min(len(toks), i + window + 1)):
                        if {toks[i], toks[j]} == {x, y} or (x == y and toks[i] == x and toks[j] == x):
                            hits += 1
            return hits

        for term in ("a", "b", "c"):
            partners = [c for other in ("a", "b", "c") if other != term
                        for c in d.entries[other]]
            raw = {cand: 1.0 + sum(oracle_count(cand, pc) for pc in partners)
                   for cand in d.entries[term]}
            total = sum(raw.values())
            got = dict(model.table[term])
            for cand in raw:
                assert got[cand] == pytest.approx(raw[cand] / total, abs=1e-12)

    def test_matches_window_scan_on_ragged_docs(self):
        rng = np.random.default_rng(11)
        vocab = [f"t{i}" for i in range(8)]
        lengths = [0, 1, 2, 3, 7, 15, 40, 0, 5]
        docs = [Document(f"d{i}", tuple(vocab[j] for j in rng.integers(0, 8, n)))
                for i, n in enumerate(lengths)]
        # "t1" is a candidate of both "a" and "b", so (t1, t1) pairs count;
        # "absent" occurs nowhere in the collection
        d = BilingualDictionary(entries={"a": ("t0", "t1"), "b": ("t1", "t2", "absent"),
                                         "c": ("t3", "t4")})
        index = InvertedIndex.from_documents(docs)
        for window in (1, 4, 9):  # 4 and 9 reach past the end of short documents
            model = cooccur_model(["a", "b", "c"], d, index, window=window)

            def count(x, y):
                hits = 0
                for doc in docs:
                    toks = doc.tokens
                    for i in range(len(toks)):
                        for j in range(i + 1, min(len(toks), i + window + 1)):
                            hits += sorted((toks[i], toks[j])) == sorted((x, y))
                return hits

            assert count("t1", "t1") > 0
            for term in ("a", "b", "c"):
                partners = [c for other in ("a", "b", "c") if other != term
                            for c in d.entries[other]]
                raw = [1.0 + sum(count(cand, pc) for pc in partners)
                       for cand in d.entries[term]]
                assert model.table[term] == [(cand, r / sum(raw))
                                             for cand, r in zip(d.entries[term], raw)]

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            cooccur_model(["a"], BilingualDictionary(entries={"a": ("x",)}),
                          InvertedIndex.from_documents([]), window=0)


class TestMixedModel:
    def docs(self):
        f_s = [Document("s1", ("a", "b", "a", "b", "c")), Document("s2", ("a", "c"))]
        f_t = [Document("t1", ("x", "y", "x", "y", "z")), Document("t2", ("x", "z"))]
        return f_s, f_t

    def test_merge_shuffle_deterministic(self):
        f_s, f_t = self.docs()
        m1 = merge_shuffle(f_s, f_t, seed=4)
        m2 = merge_shuffle(f_s, f_t, seed=4)
        assert [d.tokens for d in m1] == [d.tokens for d in m2]
        m3 = merge_shuffle(f_s, f_t, seed=5)
        assert any(a.tokens != b.tokens for a, b in zip(m1, m3))

    def test_merged_length_conserved(self):
        f_s, f_t = self.docs()
        for merged, ds, dt in zip(merge_shuffle(f_s, f_t, seed=1), f_s, f_t):
            assert merged.length == ds.length + dt.length
            assert sorted(merged.tokens) == sorted(ds.tokens + dt.tokens)

    def test_truncates_to_shorter_list(self):
        f_s, f_t = self.docs()
        merged = merge_shuffle(f_s, f_t[:1], seed=1)
        assert len(merged) == 1

    def test_model_rows_normalized_and_deterministic(self):
        f_s, f_t = self.docs()
        d = BilingualDictionary(entries={"a": ("x", "y"), "b": ("y", "z")})
        cfg = SgnsConfig(window=2, negatives=2, dim=8, epochs=3, learning_rate=0.02)
        m1 = mixed_model(["a", "b"], f_s, f_t, d, cfg, seed=7)
        m2 = mixed_model(["a", "b"], f_s, f_t, d, cfg, seed=7)
        assert m1.table == m2.table
        assert_rows_normalized(m1)

    def test_equals_projected_model_at_identity(self):
        f_s, f_t = self.docs()
        d = BilingualDictionary(entries={"a": ("x", "y"), "b": ("y", "z"), "c": ("z", "q")})
        cfg = SgnsConfig(window=2, negatives=2, dim=8, epochs=3, learning_rate=0.02)
        seed = 7
        terms = ["a", "b", "c", "a", "missing"]
        shared = train_sgns(merge_shuffle(f_s, f_t, seed), cfg, seed)
        mixed = mixed_model(terms, f_s, f_t, d, cfg, seed)
        proj = projected_model(terms, ProjectionMatrix(np.eye(shared.dim), shared.dim),
                               shared, shared, d)
        assert mixed.table == proj.table
        assert mixed.diagnostics == proj.diagnostics


class TestInterpolation:
    def p1p2(self):
        p1 = TranslationModel(table={"a": [("x", 1.0)]})
        p2 = TranslationModel(table={"a": [("y", 1.0)]})
        return p1, p2

    def test_alpha_one_is_p1(self):
        p1, p2 = self.p1p2()
        assert interpolate_models(p1, p2, 1.0).table == p1.table

    def test_alpha_zero_is_p2(self):
        p1, p2 = self.p1p2()
        assert interpolate_models(p1, p2, 0.0).table == p2.table

    def test_even_mix(self):
        p1, p2 = self.p1p2()
        mixed = interpolate_models(p1, p2, 0.5)
        assert dict(mixed.table["a"]) == {"x": 0.5, "y": 0.5}

    def test_alpha_out_of_range(self):
        p1, p2 = self.p1p2()
        with pytest.raises(ValueError):
            interpolate_models(p1, p2, 1.5)

    def test_union_support_and_renormalization(self):
        p1 = TranslationModel(table={"a": [("x", 0.6), ("y", 0.4)]})
        p2 = TranslationModel(table={"a": [("y", 0.5), ("z", 0.5)], "b": [("q", 1.0)]})
        mixed = interpolate_models(p1, p2, 0.25)
        row = dict(mixed.table["a"])
        assert set(row) == {"x", "y", "z"}
        assert row["x"] == pytest.approx(0.25 * 0.6)
        assert row["y"] == pytest.approx(0.25 * 0.4 + 0.75 * 0.5)
        assert row["z"] == pytest.approx(0.75 * 0.5)
        assert dict(mixed.table["b"]) == {"q": 1.0}
        assert_rows_normalized(mixed)

    def test_argmax_preserved_when_models_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            support = [f"c{i}" for i in range(4)]
            w1 = rng.dirichlet(np.ones(4))
            w2 = rng.dirichlet(np.ones(4))
            if int(np.argmax(w1)) != int(np.argmax(w2)):
                continue
            p1 = TranslationModel(table={"a": list(zip(support, w1))})
            p2 = TranslationModel(table={"a": list(zip(support, w2))})
            mixed = interpolate_models(p1, p2, float(rng.random()))
            assert mixed.argmax("a") == support[int(np.argmax(w1))]


class TestTranslateQueryModel:
    def test_relabeling_translation(self):
        tm = TranslationModel(table={"a": [("x", 1.0)], "b": [("y", 1.0)]})
        q = QueryModel({"a": 0.75, "b": 0.25})
        out = translate_query_model(q, tm)
        assert out.weights == {"x": 0.75, "y": 0.25}

    def test_shared_candidate_sums(self):
        tm = TranslationModel(table={"a": [("x", 1.0)], "b": [("x", 1.0)]})
        q = QueryModel({"a": 0.5, "b": 0.5})
        assert translate_query_model(q, tm).weights == {"x": 1.0}

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(17)
        sources = [f"s{i}" for i in range(5)]
        cands = [f"t{i}" for i in range(7)]
        table_ = {}
        for s in sources:
            chosen = rng.choice(7, size=3, replace=False)
            probs = rng.dirichlet(np.ones(3))
            table_[s] = [(cands[j], float(p)) for j, p in zip(chosen, probs)]
        tm = TranslationModel(table=table_)
        q = QueryModel({s: float(w) for s, w in zip(sources, rng.dirichlet(np.ones(5)))})
        got = translate_query_model(q, tm).weights
        oracle = {}
        for s, qw in q.weights.items():
            for t, p in table_[s]:
                oracle[t] = oracle.get(t, 0.0) + p * qw
        norm = sum(oracle.values())
        for t in oracle:
            assert got[t] == pytest.approx(oracle[t] / norm, abs=1e-12)

    def test_dropped_terms_renormalize(self):
        tm = TranslationModel(table={"a": [("x", 1.0)]})
        q = QueryModel({"a": 0.5, "unknown": 0.5})
        assert translate_query_model(q, tm).weights == {"x": 1.0}

    def test_all_dropped_rejected(self):
        tm = TranslationModel(table={})
        with pytest.raises(ValueError):
            translate_query_model(QueryModel({"a": 1.0}), tm)


class TestRowSumsProperty:
    def test_all_constructors_emit_distributions(self):
        rng = np.random.default_rng(29)
        vocab_t = [f"t{i}" for i in range(10)]
        for _ in range(40):
            n_src = int(rng.integers(1, 5))
            entries = {}
            for i in range(n_src):
                k = int(rng.integers(1, 5))
                entries[f"s{i}"] = tuple(vocab_t[j] for j in rng.choice(10, size=k, replace=False))
            d = BilingualDictionary(entries=entries)
            terms = [f"s{i}" for i in range(n_src)]
            src_vecs = {t: rng.normal(size=4) for t in terms if rng.random() < 0.8}
            src_vecs["padding"] = rng.normal(size=4)
            tgt_vecs = {c: rng.normal(size=4) for c in vocab_t if rng.random() < 0.8}
            tgt_vecs["padding"] = rng.normal(size=4)
            src = make_table(src_vecs)
            tgt = make_table(tgt_vecs)
            docs = [Document(f"d{i}", tuple(vocab_t[j] for j in rng.integers(0, 10, 20)))
                    for i in range(3)]
            w = ProjectionMatrix(w=rng.normal(size=(4, 4)), n=4)
            assert_rows_normalized(uniform_model(terms, d))
            assert_rows_normalized(top1_model(terms, d))
            assert_rows_normalized(cooccur_model(terms, d, InvertedIndex.from_documents(docs),
                                                 window=3))
            assert_rows_normalized(projected_model(terms, w, src, tgt, d))
