import numpy as np
import pytest

from clirkit.corpus import BilingualDictionary
from clirkit.embeddings import EmbeddingTable
from clirkit.projection import (
    NoTranslationPairsError,
    ProjectionConfig,
    ProjectionMatrix,
    TranslationPairSet,
    extract_pairs,
    learn_projection,
    objective,
    objective_gradient,
)

from conftest import make_table


def random_tables(rng, n_terms=50, dim=5):
    src = make_table({f"s{i}": rng.normal(size=dim) for i in range(n_terms)})
    tgt = make_table({f"t{i}": rng.normal(size=dim) for i in range(n_terms)})
    return src, tgt


def random_dictionary(rng, n_terms=50, cands=3) -> BilingualDictionary:
    entries = {}
    for i in range(n_terms):
        picks = rng.choice(n_terms, size=cands, replace=False)
        entries[f"s{i}"] = tuple(f"t{j}" for j in picks)
    return BilingualDictionary(entries=entries)


class TestExtractPairs:
    def test_intersection(self):
        src = make_table({"a": [1.0, 0.0]})
        tgt = make_table({"x": [0.0, 1.0]})
        d = BilingualDictionary(entries={"a": ("x", "y")})
        pairset = extract_pairs(src, tgt, d)
        assert pairset.pairs == [("a", "x")]

    def test_disjoint_vocabularies(self):
        src = make_table({"a": [1.0]})
        tgt = make_table({"zzz": [1.0]})
        d = BilingualDictionary(entries={"a": ("x",)})
        with pytest.raises(NoTranslationPairsError) as err:
            extract_pairs(src, tgt, d)
        assert err.value.reason == "no_overlap"

    def test_empty_dictionary(self):
        src = make_table({"a": [1.0]})
        with pytest.raises(NoTranslationPairsError) as err:
            extract_pairs(src, src, BilingualDictionary())
        assert err.value.reason == "empty_dictionary"

    def test_matches_brute_force_triple_loop(self):
        rng = np.random.default_rng(21)
        src, tgt = random_tables(rng)
        # keep only some terms on each side
        src = make_table({k: src.get(k) for k in src.vocab if rng.random() < 0.6})
        tgt = make_table({k: tgt.get(k) for k in tgt.vocab if rng.random() < 0.6})
        d = random_dictionary(rng)
        expected = []
        for w_s in sorted(d.entries):
            for w_t in d.entries[w_s]:
                if w_s in src and w_t in tgt:
                    expected.append((w_s, w_t))
        got = extract_pairs(src, tgt, d)
        assert got.pairs == expected
        assert got.provenance["pairs_kept"] == len(expected)

    def test_source_with_multiple_candidates_yields_multiple_pairs(self):
        src = make_table({"a": [1.0]})
        tgt = make_table({"x": [1.0], "y": [2.0], "z": [3.0]})
        d = BilingualDictionary(entries={"a": ("z", "x", "y")})
        pairset = extract_pairs(src, tgt, d)
        assert pairset.pairs == [("a", "z"), ("a", "x"), ("a", "y")]


class TestObjective:
    def test_zero_at_exact_solution(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 3))
        src = make_table({"a": [1.0, 0.0, 0.0], "b": [0.0, 2.0, 0.5]})
        tgt = make_table({"x": w.T @ np.array([1.0, 0.0, 0.0]),
                     "y": w.T @ np.array([0.0, 2.0, 0.5])})
        pairs = [("a", "x"), ("b", "y")]
        assert objective(w, pairs, src, tgt) == pytest.approx(0.0, abs=1e-24)

    def test_hand_value_n1(self):
        src = make_table({"a": [2.0]})
        tgt = make_table({"x": [6.0]})
        w = np.zeros((1, 1))
        assert objective(w, [("a", "x")], src, tgt) == pytest.approx(18.0)

    def test_quadratic_scaling_in_targets(self):
        rng = np.random.default_rng(1)
        src, tgt = random_tables(rng, n_terms=10, dim=4)
        pairs = [(f"s{i}", f"t{i}") for i in range(10)]
        w = np.zeros((4, 4))
        base = objective(w, pairs, src, tgt)
        doubled = EmbeddingTable(vocab=tgt.vocab, vectors=2.0 * tgt.vectors)
        assert objective(w, pairs, src, doubled) == pytest.approx(4.0 * base)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(3)
        src, tgt = random_tables(rng, n_terms=8, dim=4)
        pairs = [(f"s{i}", f"t{(i * 3) % 8}") for i in range(8)]
        w = rng.normal(size=(4, 4))
        grad = objective_gradient(w, pairs, src, tgt)
        h = 1e-6
        for i in range(4):
            for j in range(4):
                wp = w.copy(); wp[i, j] += h
                wm = w.copy(); wm[i, j] -= h
                num = (objective(wp, pairs, src, tgt) - objective(wm, pairs, src, tgt)) / (2 * h)
                assert abs(grad[i, j] - num) <= 1e-5 * max(1.0, abs(num))

    def test_zero_at_normal_equations_solution(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            m, n = 6, 3
            u_rows = rng.normal(size=(m, n))
            v_rows = rng.normal(size=(m, n))
            src = make_table({f"s{i}": u_rows[i] for i in range(m)})
            tgt = make_table({f"t{i}": v_rows[i] for i in range(m)})
            pairs = [(f"s{i}", f"t{i}") for i in range(m)]
            w_star = np.linalg.pinv(u_rows.T @ u_rows) @ (u_rows.T @ v_rows)
            grad = objective_gradient(w_star, pairs, src, tgt)
            assert np.max(np.abs(grad)) < 1e-8


class TestLearnProjection:
    def test_hand_executed_single_update(self):
        src = make_table({"a": [2.0]})
        tgt = make_table({"x": [6.0]})
        cfg = ProjectionConfig(eta=0.1, epochs=1, decay=1.0, init_range=0.0)
        w = learn_projection([("a", "x")], src, tgt, cfg, 0)
        assert w.w[0, 0] == pytest.approx(1.2)

    def test_satisfied_pairs_leave_w_unchanged(self):
        src = make_table({"a": [1.0, 2.0], "b": [3.0, -1.0]})
        tgt = make_table({"x": [0.0, 0.0], "y": [0.0, 0.0]})
        cfg = ProjectionConfig(eta=0.1, epochs=25, decay=1.0, init_range=0.0)
        w = learn_projection([("a", "x"), ("b", "y")], src, tgt, cfg, 0)
        assert np.array_equal(w.w, np.zeros((2, 2)))
        assert all(obj == 0.0 for _, obj, _ in w.train_log)

    def test_rotation_recovery(self):
        rng = np.random.default_rng(8)
        n, m = 6, 120
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        u_rows = rng.normal(size=(m, n))
        u_rows /= np.linalg.norm(u_rows, axis=1, keepdims=True)
        v_rows = u_rows @ q
        src = make_table({f"s{i}": u_rows[i] for i in range(m)})
        tgt = make_table({f"t{i}": v_rows[i] for i in range(m)})
        pairs = [(f"s{i}", f"t{i}") for i in range(m)]
        cfg = ProjectionConfig(eta=0.1, epochs=200, decay=0.995, init_range=1.0)
        w = learn_projection(pairs, src, tgt, cfg, 1)
        residual = np.mean(np.linalg.norm(u_rows @ w.w - v_rows, axis=1))
        assert residual < 1e-3

    def test_objective_non_increasing_under_stable_eta(self):
        rng = np.random.default_rng(9)
        n, m = 5, 60
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        u_rows = rng.normal(size=(m, n))
        u_rows /= np.linalg.norm(u_rows, axis=1, keepdims=True)
        v_rows = u_rows @ q
        src = make_table({f"s{i}": u_rows[i] for i in range(m)})
        tgt = make_table({f"t{i}": v_rows[i] for i in range(m)})
        pairs = [(f"s{i}", f"t{i}") for i in range(m)]
        cfg = ProjectionConfig(eta=0.05, epochs=100, decay=0.99, init_range=1.0)
        w = learn_projection(pairs, src, tgt, cfg, 2)
        objs = [obj for _, obj, _ in w.train_log]
        for earlier, later in zip(objs, objs[1:]):
            assert later <= earlier + 1e-8

    def test_divergence_reports_eta(self):
        src = make_table({"a": [200.0]})
        tgt = make_table({"x": [1.0]})
        cfg = ProjectionConfig(eta=10.0, epochs=50, decay=1.0, init_range=1.0)
        with pytest.raises(ValueError) as err:
            learn_projection([("a", "x")] * 50, src, tgt, cfg, 0)
        assert "eta" in str(err.value)

    def test_accepts_pairset_wrapper(self):
        src = make_table({"a": [1.0]})
        tgt = make_table({"x": [2.0]})
        pairset = TranslationPairSet(pairs=[("a", "x")])
        cfg = ProjectionConfig(eta=0.2, epochs=100, decay=1.0, init_range=0.0)
        w = learn_projection(pairset, src, tgt, cfg, 0)
        assert w.w[0, 0] == pytest.approx(2.0, abs=1e-6)


class TestProject:
    def test_identity(self):
        w = ProjectionMatrix(w=np.eye(3), n=3)
        u = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(w.project(u), u)

    def test_scaling(self):
        w = ProjectionMatrix(w=2.0 * np.eye(2), n=2)
        np.testing.assert_allclose(w.project(np.array([3.0, 4.0])), [6.0, 8.0])

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(12)
        mat = rng.normal(size=(4, 4))
        u = rng.normal(size=4)
        w = ProjectionMatrix(w=mat, n=4)
        expected = [sum(mat[i, j] * u[i] for i in range(4)) for j in range(4)]
        np.testing.assert_allclose(w.project(u), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        w = ProjectionMatrix(w=np.eye(3), n=3)
        with pytest.raises(ValueError):
            w.project(np.ones(4))

