"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints one PASS line when it holds (run with -s to see them). The
synthetic end-to-end experiment uses the frozen configuration below;
hyperparameters that the toolkit exposes as config (embedding dimension,
negatives, epochs, learning rates) are set to values suited to the
1000-token pseudo-relevant collections the experiment produces.
"""

import filecmp
import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from clirkit.corpus import BilingualDictionary, Document, Topic
from clirkit.embeddings import SgnsConfig
from clirkit.evaluation import (
    RunFile,
    average_precision,
    evaluate_run,
    paired_ttest,
    precision_at_k,
    write_run,
)
from clirkit.pipeline import (
    ExperimentContext,
    PipelineConfig,
    prepare_topic,
    rank_topic,
    run_experiment,
)
from clirkit.prf import FeedbackConfig, em_feedback, estimate_feedback_model
from clirkit.projection import (
    ProjectionConfig,
    ProjectionMatrix,
    learn_projection,
    objective,
    objective_gradient,
)
from clirkit.retrieval import InvertedIndex, QueryModel, retrieve
from clirkit.synth import SynthConfig, generate
from clirkit.translation import (
    cooccur_model,
    mixed_model,
    projected_model,
    softmax_scores,
    top1_model,
    uniform_model,
)

from conftest import make_table

# Frozen configuration of the synthetic end-to-end experiment.
EXPERIMENT_SEEDS = (101, 202, 303)
EXPERIMENT_PIPELINE = {
    "mu": 1000.0,
    "depth": 1000,
    "alpha": 0.6,
    "cooccur_window": 4,
    "feedback": {"num_docs": 10, "num_terms": 50, "interp_coeff": 0.5},
    "sgns": {"window": 10, "negatives": 5, "dim": 10, "epochs": 60,
             "learning_rate": 0.05, "min_count": 1},
    "projection": {"eta": 0.01, "epochs": 150, "decay": 0.99, "init_range": 1.0},
    "seed": 3,
    "tag": "accept",
}


def _report(name: str) -> None:
    print(f"PASS: {name}")


def _table(rng, terms, dim):
    return make_table({t: rng.normal(size=dim) for t in terms})


def _context(data) -> ExperimentContext:
    return ExperimentContext(
        src_index=InvertedIndex.from_documents(data.source_docs),
        tgt_index=InvertedIndex.from_documents(data.target_docs),
        dictionary=data.dictionary,
        topics=data.topics,
        qrels=data.qrels,
    )


def test_c01_projection_gradient_matches_finite_differences():
    start = time.time()
    rng = np.random.default_rng(1001)
    h = 1e-6
    for _ in range(20):
        n, m = 5, int(rng.integers(3, 12))
        src = _table(rng, [f"s{i}" for i in range(m)], n)
        tgt = _table(rng, [f"t{i}" for i in range(m)], n)
        pairs = [(f"s{i}", f"t{int(rng.integers(0, m))}") for i in range(m)]
        w = rng.normal(size=(n, n))
        grad = objective_gradient(w, pairs, src, tgt)
        for i in range(n):
            for j in range(n):
                wp = w.copy(); wp[i, j] += h
                wm = w.copy(); wm[i, j] -= h
                num = (objective(wp, pairs, src, tgt)
                       - objective(wm, pairs, src, tgt)) / (2 * h)
                assert abs(grad[i, j] - num) <= 1e-5 * max(1.0, abs(num))
    elapsed = time.time() - start
    assert elapsed < 1.0, f"gradient oracle took {elapsed:.2f}s"
    _report("gradient oracle (20 random n=5 instances, rel err <= 1e-5, < 1 s)")


def test_c02_rotation_recovery():
    start = time.time()
    rng = np.random.default_rng(1002)
    n, m = 10, 200
    rotation, _ = np.linalg.qr(rng.normal(size=(n, n)))
    u_rows = rng.normal(size=(m, n))
    u_rows /= np.linalg.norm(u_rows, axis=1, keepdims=True)
    v_rows = u_rows @ rotation
    src = make_table({f"s{i}": u_rows[i] for i in range(m)})
    tgt = make_table({f"t{i}": v_rows[i] for i in range(m)})
    pairs = [(f"s{i}", f"t{i}") for i in range(m)]
    cfg = ProjectionConfig(eta=0.1, epochs=500, decay=0.995, init_range=1.0)
    w = learn_projection(pairs, src, tgt, cfg, 7)
    residual = float(np.mean(np.linalg.norm(u_rows @ w.w - v_rows, axis=1)))
    elapsed = time.time() - start
    assert residual < 1e-3, f"mean residual {residual}"
    assert elapsed < 10.0, f"rotation recovery took {elapsed:.2f}s"
    _report(f"rotation recovery (mean residual {residual:.2e} < 1e-3 in {elapsed:.1f}s)")


def test_c03_least_squares_consistency():
    rng = np.random.default_rng(1003)
    for trial in range(10):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 5))
        r = min(m, n)
        qu, _ = np.linalg.qr(rng.normal(size=(m, m)))
        qv, _ = np.linalg.qr(rng.normal(size=(n, n)))
        # controlled singular spectrum keeps the instances SGD-reachable
        u_rows = qu[:, :r] @ np.diag(rng.uniform(0.5, 1.5, size=r)) @ qv[:r, :]
        v_rows = rng.normal(size=(m, n))
        src = make_table({f"s{i}": u_rows[i] for i in range(m)})
        tgt = make_table({f"t{i}": v_rows[i] for i in range(m)})
        pairs = [(f"s{i}", f"t{i}") for i in range(m)]
        w_star = np.linalg.pinv(u_rows.T @ u_rows) @ (u_rows.T @ v_rows)
        f_star = objective(w_star, pairs, src, tgt)
        cfg = ProjectionConfig(eta=0.1, epochs=3000, decay=0.998, init_range=1.0)
        learned = learn_projection(pairs, src, tgt, cfg, trial)
        gap = objective(learned.w, pairs, src, tgt) - f_star
        assert gap <= 1e-4, f"trial {trial}: gap {gap}"
    _report("least-squares consistency (SGD within 1e-4 of normal equations)")


def test_c04_translation_model_invariants():
    rng = np.random.default_rng(1004)
    vocab_t = [f"t{i}" for i in range(12)]

    def random_dictionary(n_src):
        entries = {}
        for i in range(n_src):
            k = int(rng.integers(1, 5))
            entries[f"s{i}"] = tuple(
                vocab_t[j] for j in rng.choice(len(vocab_t), size=k, replace=False))
        return BilingualDictionary(entries=entries), [f"s{i}" for i in range(n_src)]

    def check(model):
        assert model.table, "fixture produced an empty model"
        for source, row in model.table.items():
            total = sum(p for _, p in row)
            assert abs(total - 1.0) <= 1e-9, (source, total)
            assert all(p >= 0.0 for _, p in row)

    fixtures = 0
    for _ in range(300):
        d, terms = random_dictionary(int(rng.integers(1, 5)))
        check(uniform_model(terms, d))
        fixtures += 1
    for _ in range(300):
        d, terms = random_dictionary(int(rng.integers(1, 5)))
        check(top1_model(terms, d))
        fixtures += 1
    for _ in range(200):
        d, terms = random_dictionary(int(rng.integers(1, 4)))
        docs = [Document(f"d{i}", tuple(vocab_t[j] for j in rng.integers(0, 12, 15)))
                for i in range(3)]
        check(cooccur_model(terms, d, InvertedIndex.from_documents(docs),
                            window=int(rng.integers(1, 5))))
        fixtures += 1
    for _ in range(150):
        d, terms = random_dictionary(int(rng.integers(1, 4)))
        dim = 4
        src = _table(rng, terms, dim)
        tgt = _table(rng, [c for c in vocab_t if rng.random() < 0.85], dim)
        w = ProjectionMatrix(w=rng.normal(size=(dim, dim)), n=dim)
        check(projected_model(terms, w, src, tgt, d))
        fixtures += 1
    mixed_cfg = SgnsConfig(window=2, negatives=2, dim=4, epochs=1,
                           learning_rate=0.02, min_count=1)
    for i in range(50):
        d, terms = random_dictionary(int(rng.integers(1, 3)))
        f_s = [Document("s-doc", tuple(terms[int(rng.integers(0, len(terms)))]
                                       for _ in range(8)))]
        f_t = [Document("t-doc", tuple(vocab_t[j] for j in rng.integers(0, 12, 8)))]
        check(mixed_model(terms, f_s, f_t, d, mixed_cfg, seed=i))
        fixtures += 1
    assert fixtures == 1000

    for _ in range(1000):
        scores = list(rng.normal(size=int(rng.integers(1, 9))))
        shift = float(rng.normal(scale=2.0))
        a = softmax_scores(scores)
        b = softmax_scores([s + shift for s in scores])
        assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-12
    _report("translation invariants (1000 fixtures sum to 1 within 1e-9; "
            "softmax shift invariance within 1e-12)")


def test_c05_retrieval_matches_brute_force():
    rng = np.random.default_rng(1005)
    vocab = [f"w{i}" for i in range(15)]
    for _ in range(20):
        n_docs = int(rng.integers(2, 51))
        docs = []
        for i in range(n_docs):
            length = int(rng.integers(1, 40))
            docs.append(Document(f"d{i:03d}",
                                 tuple(vocab[j] for j in rng.integers(0, 15, length))))
        index = InvertedIndex.from_documents(docs)
        q_terms = [vocab[j] for j in rng.choice(15, size=3, replace=False)]
        weights = rng.dirichlet(np.ones(3))
        query = QueryModel({t: float(w) for t, w in zip(q_terms, weights)})
        mu = float(rng.uniform(10, 2000))
        got = [d for d, _ in retrieve(query, index, mu, k=n_docs)]

        cf = Counter()
        for d in docs:
            cf.update(d.tokens)
        total = sum(cf.values())
        scores = {}
        for d in docs:
            tf = Counter(d.tokens)
            s = 0.0
            for term, weight in query.weights.items():
                p_c = cf.get(term, 0) / total
                if p_c == 0.0:
                    continue
                s += weight * math.log((tf.get(term, 0) + mu * p_c) / (d.length + mu))
            scores[d.doc_id] = s
        expected = [d for d, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))]
        assert got == expected
    _report("retrieval oracle (20 random corpora, full orderings match brute force)")


def test_c06_prf_em_criteria():
    rng = np.random.default_rng(1006)
    for _ in range(50):
        vocab = int(rng.integers(3, 25))
        counts = {f"w{i}": int(rng.integers(1, 40)) for i in range(vocab)}
        background = {w: float(p) for w, p in
                      zip(counts, rng.dirichlet(np.ones(vocab)))}
        _, history = em_feedback(counts, background, noise=float(rng.uniform(0.1, 0.9)),
                                 iters=30, tol=-1.0)
        assert len(history) == 30
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-12
    # noise -> 0 limit: the feedback model is the concatenated MLE
    for trial in range(10):
        docs = [Document(f"d{i}", tuple(f"w{j}" for j in rng.integers(0, 12, 30)))
                for i in range(5)]
        index = InvertedIndex.from_documents(docs)
        model = estimate_feedback_model(
            docs, index, FeedbackConfig(noise=1e-12, em_iters=30, em_tol=0.0,
                                        num_terms=10_000))
        counts = Counter()
        for d in docs:
            counts.update(d.tokens)
        total = sum(counts.values())
        for term, weight in model.weights.items():
            assert abs(weight - counts[term] / total) <= 1e-9
    _report("PRF EM (log-likelihood non-decreasing on 50 fixtures; "
            "noise->0 equals concatenated MLE within 1e-9)")


def test_c07_synthetic_end_to_end():
    start = time.time()
    summary = []
    for seed in EXPERIMENT_SEEDS:
        data = generate(SynthConfig(seed=seed))
        ctx = _context(data)
        maps = {}
        accuracy = None
        for method in ("uniform", "top1", "proj", "mixed"):
            cfg = PipelineConfig.from_dict({**EXPERIMENT_PIPELINE, "method": method})
            rankings = {}
            hits = total = 0
            for topic in ctx.topics:
                models = prepare_topic(ctx, topic, cfg)
                if method == "proj" and models.primary is not None:
                    for term in topic.title_terms:
                        choice = models.primary.argmax(term)
                        if choice is not None:
                            hits += int(choice == data.truth[term])
                            total += 1
                rankings[topic.topic_id], _ = rank_topic(ctx, cfg, models)
            maps[method] = evaluate_run(RunFile(tag=method, rankings=rankings),
                                        ctx.qrels).map
            if method == "proj":
                accuracy = hits / total
        assert maps["proj"] > maps["uniform"], (seed, maps)
        assert maps["proj"] > maps["top1"], (seed, maps)
        assert maps["mixed"] > maps["uniform"], (seed, maps)
        random_baseline = 1.0 / (1.0 + SynthConfig().confusers_per_entry)
        assert random_baseline == 0.25
        assert accuracy >= random_baseline + 0.25, (seed, accuracy)
        summary.append((seed, maps, accuracy))
    elapsed = time.time() - start
    assert elapsed < 300.0, f"synthetic experiment took {elapsed:.0f}s"
    for seed, maps, accuracy in summary:
        print(f"  seed {seed}: proj {maps['proj']:.4f} | uniform {maps['uniform']:.4f} "
              f"| top1 {maps['top1']:.4f} | mixed {maps['mixed']:.4f} "
              f"| accuracy@1 {accuracy:.3f}")
    _report(f"synthetic end-to-end (3 seeds, {elapsed:.0f}s < 5 min)")


def _small_experiment(tmp_path, name, **overrides):
    corpus = generate(SynthConfig(vocab_size=60, num_topics=4, docs_per_lang=40,
                                  doc_len=30, confusers_per_entry=3,
                                  topicality=0.8, seed=5))
    paths = corpus.write(str(tmp_path / f"{name}-corpus"))
    cfg = PipelineConfig.from_dict({
        "source_docs": paths["source_docs"],
        "target_docs": paths["target_docs"],
        "dictionary": paths["dictionary"],
        "topics": paths["topics"],
        "qrels": paths["qrels"],
        "depth": 40,
        "feedback": {"num_docs": 5, "num_terms": 20, "interp_coeff": 0.5},
        "sgns": {"window": 5, "negatives": 3, "dim": 6, "epochs": 5,
                 "learning_rate": 0.05},
        "projection": {"eta": 0.02, "epochs": 25, "decay": 0.98},
        "seed": 2,
        "tag": "endpoint",
        **overrides,
    })
    return cfg


def test_c08_interpolation_endpoints(tmp_path):
    cfg_base = _small_experiment(tmp_path, "pure", method="proj", alpha=1.0)
    ctx = ExperimentContext.from_config(cfg_base)

    def assembled_run(cfg, alpha, outdir):
        """Run through the interpolation machinery with the partner built."""
        rankings = {}
        for topic in sorted(ctx.topics, key=lambda t: t.topic_id):
            models = prepare_topic(ctx, topic, replace(cfg, alpha=0.0))
            rankings[topic.topic_id], _ = rank_topic(ctx, replace(cfg, alpha=alpha), models)
        run = RunFile(tag=cfg.tag, rankings=rankings)
        path = str(tmp_path / outdir)
        write_run(run, path)
        return path

    # both feedback variants: the endpoints must hold given identical PRF
    for interp_coeff in (0.5, 0.0):
        suffix = "prf" if interp_coeff else "noprf"
        cfg_pure = replace(cfg_base, feedback=replace(cfg_base.feedback,
                                                      interp_coeff=interp_coeff))
        direct_pure = run_experiment(ctx, cfg_pure,
                                     str(tmp_path / f"direct-pure-{suffix}"))
        via_interp = assembled_run(cfg_pure, 1.0, f"interp-pure-{suffix}.run")
        assert filecmp.cmp(direct_pure.run_path, via_interp, shallow=False)

        cfg_cooccur = replace(cfg_pure, method="cooccur")
        direct_cooccur = run_experiment(ctx, cfg_cooccur,
                                        str(tmp_path / f"direct-cooccur-{suffix}"))
        via_zero = assembled_run(replace(cfg_pure, alpha=0.0), 0.0,
                                 f"interp-zero-{suffix}.run")
        assert filecmp.cmp(direct_cooccur.run_path, via_zero, shallow=False)
    _report("interpolation endpoints (alpha=1 equals pure run; alpha=0 equals "
            "cooccur run; byte-identical, with and without feedback)")


def test_c09_evaluation_fixtures():
    ranked2 = [("d1", 2.0), ("d2", 1.0)]
    assert average_precision(ranked2, {"d1"}) == 1.0
    assert average_precision(ranked2, {"d2"}) == 0.5
    docs10 = [(f"d{i}", float(10 - i)) for i in range(10)]
    assert precision_at_k(docs10, {"d0", "d4", "d9"}, 10) == pytest.approx(0.3)
    assert precision_at_k(docs10, {f"d{i}" for i in range(5)}, 5) == 1.0
    assert precision_at_k(docs10, {"zzz"}, 5) == 0.0

    rng = np.random.default_rng(1009)
    ap_a = list(rng.uniform(0.1, 0.9, size=10))
    ap_b = list(np.clip(np.array(ap_a) + rng.normal(0, 0.1, size=10), 0.0, 1.0))
    got = paired_ttest(ap_a, ap_b)
    ref_t, ref_p = stats.ttest_rel(ap_a, ap_b)
    assert got.t == pytest.approx(float(ref_t), abs=1e-9)
    assert got.p == pytest.approx(float(ref_p), abs=1e-6)
    _report("evaluation fixtures (AP/P@k hand values; t-test matches reference "
            "within 1e-6)")


def test_c10_determinism(tmp_path):
    """Two executions of the seed-101 experiment, from corpus generation to
    run files, must agree byte for byte."""
    # corpus generation is itself deterministic
    paths_a = generate(SynthConfig(seed=101)).write(str(tmp_path / "corpus-a"))
    paths_b = generate(SynthConfig(seed=101)).write(str(tmp_path / "corpus-b"))
    for name in paths_a:
        assert filecmp.cmp(paths_a[name], paths_b[name], shallow=False), name
    # two pipeline executions with identical config
    cfg = PipelineConfig.from_dict({
        **EXPERIMENT_PIPELINE,
        "method": "proj",
        "source_docs": paths_a["source_docs"],
        "target_docs": paths_a["target_docs"],
        "dictionary": paths_a["dictionary"],
        "topics": paths_a["topics"],
        "qrels": paths_a["qrels"],
    })
    outputs = [run_experiment(ExperimentContext.from_config(cfg), cfg,
                              str(tmp_path / attempt))
               for attempt in ("first", "second")]
    first, second = outputs
    assert filecmp.cmp(first.run_path, second.run_path, shallow=False)
    assert filecmp.cmp(first.diagnostics_path, second.diagnostics_path, shallow=False)
    assert open(first.manifest_path).read() == open(second.manifest_path).read()
    _report("determinism (byte-identical corpus, run files, and manifests)")
