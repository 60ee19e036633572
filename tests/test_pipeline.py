import copy
import filecmp
import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from clirkit import pipeline
from clirkit.corpus import BilingualDictionary, Document, DuplicateDocIdError, ParseError, Topic
from clirkit.evaluation import evaluate_run, read_run
from clirkit.pipeline import (
    ExperimentContext,
    PipelineConfig,
    PipelineStageError,
    derive_seed,
    prepare_topic,
    rank_topic,
    run_experiment,
    run_topic,
    sweep,
    sweep_grid,
)
from clirkit.retrieval import InvertedIndex

from conftest import small_config_dict, write_config


def make_ctx(cfg_dict):
    return ExperimentContext.from_config(PipelineConfig.from_dict(cfg_dict))


class TestConfig:
    def test_round_trip_through_json(self, small_config, tmp_path):
        path = write_config(tmp_path, small_config)
        cfg = PipelineConfig.from_file(path)
        assert cfg.sgns.dim == 8
        assert cfg.feedback.num_docs == 5
        assert cfg.method == "proj"

    def test_unknown_method_rejected(self, small_config):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({**small_config, "method": "oracle"})

    @pytest.mark.parametrize("tag", ["", "my run", "a/b", "tab\tbed"])
    def test_tag_that_cannot_name_a_readable_run_file_rejected(self, small_config, tag):
        with pytest.raises(ValueError, match="tag"):
            PipelineConfig.from_dict({**small_config, "tag": tag})

    @pytest.mark.parametrize("build, named", [
        (lambda cfg: PipelineConfig(alpha="0.6"), "alpha"),
        (lambda cfg: replace(cfg, depth=10.0), "depth"),
        (lambda cfg: replace(cfg, seed=True), "seed"),
        (lambda cfg: replace(cfg, sgns=replace(cfg.sgns, dim="8")), "dim"),
    ])
    def test_wrong_number_type_rejected_outside_from_dict(self, small_config, build, named):
        with pytest.raises(ValueError, match=rf"\b{named} must be"):
            build(PipelineConfig.from_dict(small_config))

    def test_derive_seed_stable(self):
        assert derive_seed(3, "q01", "sgns-src") == derive_seed(3, "q01", "sgns-src")
        assert derive_seed(3, "q01", "sgns-src") != derive_seed(3, "q01", "sgns-tgt")
        assert derive_seed(3, "q01", "sgns-src") != derive_seed(4, "q01", "sgns-src")


class TestContext:
    def test_malformed_topics_fail_before_any_collection_loads(self, small_config, tmp_path,
                                                                monkeypatch):
        def load_documents(*args):
            raise AssertionError("a collection was loaded before the topics were parsed")

        monkeypatch.setattr(pipeline, "load_documents", load_documents)
        topics = tmp_path / "topics.jsonl"
        topics.write_text('{"id": "q1", "title": "a b"}\n{"id": "q2"}\n')
        with pytest.raises(ParseError, match=r"line 2\b"):
            make_ctx({**small_config, "topics": str(topics)})

    def test_bad_record_mid_collection_fails_the_streamed_load(self, small_config, tmp_path):
        good = [json.dumps({"id": f"s{i}", "text": "alpha beta"}) + "\n" for i in range(3)]
        malformed = tmp_path / "malformed.jsonl"
        malformed.write_text("".join(good[:2]) + "{not json\n" + good[2])
        with pytest.raises(ParseError) as err:
            make_ctx({**small_config, "source_docs": str(malformed)})
        assert err.value.byte_offset == len("".join(good[:2]).encode("utf-8"))
        assert err.value.docs_parsed == 2
        assert "byte offset" in str(err.value) and "2 documents parsed" in str(err.value)

        repeated = tmp_path / "repeated.jsonl"
        repeated.write_text("".join(good) + good[1])
        with pytest.raises(DuplicateDocIdError, match="s1"):
            make_ctx({**small_config, "target_docs": str(repeated)})

    @pytest.mark.parametrize("content, error", [(None, FileNotFoundError),
                                                ("id,text\ns1,alpha\n", ParseError)])
    def test_bad_target_docs_fail_before_any_collection_is_indexed(
            self, small_config, tmp_path, monkeypatch, content, error):
        def from_documents(cls, docs):
            raise AssertionError("a collection was indexed before the target file was read")

        monkeypatch.setattr(InvertedIndex, "from_documents", classmethod(from_documents))
        target = tmp_path / "target.csv"
        if content is not None:
            target.write_text(content)
        with pytest.raises(error, match="target.csv"):
            make_ctx({**small_config, "target_docs": str(target)})


class TestStagingContract:
    def test_first_stages_identical_across_methods(self, small_corpus_dir, small_config):
        ctx = make_ctx(small_config)
        topic = ctx.topics[0]
        shared_prefix = ["query_model", "source_feedback_retrieval",
                        "target_feedback_retrieval"]
        diags = {}
        for method in ("uniform", "proj"):
            cfg = PipelineConfig.from_dict({**small_config, "method": method})
            _, diag = run_topic(ctx, topic, cfg)
            diags[method] = diag
            assert diag.stages[:3] == shared_prefix
        assert diags["uniform"].feedback_source_docs == diags["proj"].feedback_source_docs
        assert diags["uniform"].feedback_target_docs == diags["proj"].feedback_target_docs
        assert "embeddings" in diags["proj"].stages
        assert "embeddings" not in diags["uniform"].stages

    def test_proj_diagnostics_carry_training_evidence(self, small_config):
        ctx = make_ctx(small_config)
        _, diag = run_topic(ctx, ctx.topics[0],
                            PipelineConfig.from_dict({**small_config, "method": "proj"}))
        assert diag.pair_provenance["pairs_kept"] > 0
        assert len(diag.objective_curve) == 30


class TestEndpoints:
    def test_alpha_zero_equals_cooccur_run(self, small_config, tmp_path):
        cfg_a = PipelineConfig.from_dict(
            {**small_config, "method": "proj", "alpha": 0.0, "tag": "endpoint"})
        cfg_b = PipelineConfig.from_dict(
            {**small_config, "method": "cooccur", "tag": "endpoint"})
        ctx = make_ctx(small_config)
        out_a = run_experiment(ctx, cfg_a, str(tmp_path / "a"))
        out_b = run_experiment(ctx, cfg_b, str(tmp_path / "b"))
        assert filecmp.cmp(out_a.run_path, out_b.run_path, shallow=False)

    def test_alpha_one_matches_sweep_cell(self, small_config, tmp_path):
        ctx = make_ctx(small_config)
        cfg = PipelineConfig.from_dict(
            {**small_config, "method": "proj", "alpha": 1.0, "tag": "pure"})
        direct = run_experiment(ctx, cfg, str(tmp_path / "direct"))
        sweep(ctx, sweep_grid(cfg, [1.0], [cfg.feedback.num_docs]), str(tmp_path / "grid"))
        cell = read_run(str(tmp_path / "grid" / "pure-a1-n5.run"))
        assert cell.rankings == direct.run.rankings


class TestDeterminismAndCaching:
    def test_two_runs_byte_identical(self, small_config, tmp_path):
        cfg = PipelineConfig.from_dict(small_config)
        for sub in ("one", "two"):
            ctx = make_ctx(small_config)
            run_experiment(ctx, cfg, str(tmp_path / sub))
        for name in ("testrun.run", "testrun.manifest.json", "testrun.diagnostics.json"):
            assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "two" / name,
                               shallow=False), name

    def test_manifest_lists_hashes(self, small_config, tmp_path):
        cfg = PipelineConfig.from_dict(small_config)
        out = run_experiment(make_ctx(small_config), cfg, str(tmp_path / "m"))
        manifest = json.loads(open(out.manifest_path).read())
        assert set(manifest["inputs"]) == {"source_docs", "target_docs",
                                           "dictionary", "topics", "qrels"}
        with open(small_config["qrels"], "rb") as fh:
            assert manifest["inputs"]["qrels"] == hashlib.sha256(fh.read()).hexdigest()
        assert manifest["numpy_version"] == np.__version__
        assert "testrun.run" in manifest["outputs"]
        assert manifest["config"]["seed"] == 1
        for digest in manifest["outputs"].values():
            assert len(digest) == 64


class TestSweep:
    def test_cells_reevaluate_to_reported_map(self, small_config, tmp_path):
        ctx = make_ctx(small_config)
        cfg = PipelineConfig.from_dict({**small_config, "tag": "grid"})
        csv_path = sweep(ctx, sweep_grid(cfg, [0.0, 0.6], [3, 5]), str(tmp_path))
        rows = [line.split(",") for line in open(csv_path).read().splitlines()[1:]]
        assert len(rows) == 4
        for alpha, n, reported in rows:
            run = read_run(str(tmp_path / f"grid-a{float(alpha):g}-n{n}.run"))
            again = evaluate_run(run, ctx.qrels, depth=cfg.depth)
            assert f"{again.map:.6f}" == reported

    @pytest.mark.parametrize("alphas, ns", [([], [3]), ([0.5], [])])
    def test_empty_grid_rejected(self, small_config, tmp_path, alphas, ns):
        ctx = make_ctx(small_config)
        with pytest.raises(ValueError, match="at least one alpha and one n"):
            sweep(ctx, sweep_grid(PipelineConfig.from_dict(small_config), alphas, ns),
                  str(tmp_path / "grid"))
        assert not (tmp_path / "grid").exists()

    def test_alpha_one_grid_builds_no_partner(self, small_config, tmp_path, monkeypatch):
        ctx = make_ctx(small_config)
        cfg = PipelineConfig.from_dict(small_config)

        def cooccur_model(*args, **kwargs):
            raise AssertionError("partner model built for an alpha-1 grid")

        monkeypatch.setattr(pipeline, "cooccur_model", cooccur_model)
        csv_path = sweep(ctx, sweep_grid(cfg, [1.0], [3]), str(tmp_path))
        assert open(csv_path).read().startswith("alpha,n,map\n1,3,")

    def test_singleton_grid_equals_direct_run(self, small_config, tmp_path):
        ctx = make_ctx(small_config)
        cfg = PipelineConfig.from_dict({**small_config, "tag": "single"})
        sweep(ctx, sweep_grid(cfg, [cfg.alpha], [cfg.feedback.num_docs]),
              str(tmp_path / "grid"))
        direct = run_experiment(ctx, cfg, str(tmp_path / "direct"))
        cell = read_run(str(tmp_path / "grid" / f"single-a{cfg.alpha:g}-n5.run"))
        assert cell.rankings == direct.run.rankings

    def test_singleton_cell_is_the_run_directory_of_its_config(self, small_config, tmp_path):
        ctx = make_ctx(small_config)
        grid = sweep_grid(PipelineConfig.from_dict(small_config), [0.6], [3])
        sweep(ctx, grid, str(tmp_path / "grid"))
        direct = run_experiment(ctx, grid[0][0], str(tmp_path / "direct"))
        for path in (direct.run_path, direct.diagnostics_path, direct.manifest_path):
            name = os.path.basename(path)
            assert name.startswith("testrun-a0.6-n3.")
            assert filecmp.cmp(path, tmp_path / "grid" / name, shallow=False), name

    def test_alpha_one_cell_of_a_mixed_row_lists_the_partner(self, small_config, tmp_path):
        ctx = make_ctx(small_config)
        sweep(ctx, sweep_grid(PipelineConfig.from_dict(small_config), [0.0, 1.0], [3]),
              str(tmp_path))
        for alpha in (0, 1):
            diags = json.loads((tmp_path / f"testrun-a{alpha}-n3.diagnostics.json").read_text())
            assert all("partner_model" in d["stages"] for d in diags), alpha

    @pytest.mark.parametrize("alphas, ns, tag", [([0.6, 0.60000001], [5], "testrun-a0.6-n5"),
                                                 ([0.5, 0.5], [5], "testrun-a0.5-n5"),
                                                 ([0.5], [5, 5], "testrun-a0.5-n5")])
    def test_cells_sharing_a_tag_rejected(self, small_config, tmp_path, alphas, ns, tag):
        ctx = make_ctx(small_config)
        with pytest.raises(ValueError, match=f"share the tag '{tag}'"):
            sweep(ctx, sweep_grid(PipelineConfig.from_dict(small_config), alphas, ns),
                  str(tmp_path / "grid"))
        assert not (tmp_path / "grid").exists()


class TestRankTopic:
    def test_ranking_leaves_the_models_unchanged(self, small_config):
        ctx = make_ctx(small_config)
        topic = ctx.topics[0]
        cfg = PipelineConfig.from_dict({**small_config, "alpha": 0.0})
        models = prepare_topic(ctx, topic, cfg)
        before = copy.deepcopy(models.diagnostics)
        rank_topic(ctx, replace(cfg, alpha=0.6), models)
        again = rank_topic(ctx, cfg, models)
        assert models.diagnostics == before
        assert again == run_topic(ctx, topic, cfg)


def zero_pairs_setup(title_terms):
    """A context with one topic of ``title_terms`` where ``proj`` finds no
    translation pair: the only dictionary candidate occurs once in the
    target collection, so min_count=2 keeps it out of the embedding
    vocabulary and no translation pair survives."""
    source = [Document(f"s{i}", ("q", "filler", "filler", "q")) for i in range(6)]
    target = [Document("t0", ("c", "tfiller", "tfiller"))]
    target += [Document(f"t{i}", ("tfiller",) * 4) for i in range(1, 6)]
    ctx = ExperimentContext(
        src_index=InvertedIndex.from_documents(source),
        tgt_index=InvertedIndex.from_documents(target),
        dictionary=BilingualDictionary(entries={"q": ("c",)}),
        topics=[Topic("t1", title_terms)],
    )
    cfg = PipelineConfig.from_dict({
        "method": "proj", "alpha": 0.6, "depth": 5, "seed": 1,
        "feedback": {"num_docs": 3, "num_terms": 5, "interp_coeff": 0.5},
        "sgns": {"window": 2, "negatives": 2, "dim": 4, "epochs": 2,
                 "learning_rate": 0.02, "min_count": 2},
        "projection": {"eta": 0.02, "epochs": 5, "decay": 0.98},
    })
    return ctx, cfg


class TestFallbacks:
    def test_zero_pairs_fall_back_to_partner(self, small_corpus_dir):
        ctx, cfg = zero_pairs_setup(("q",))
        models = prepare_topic(ctx, ctx.topics[0], cfg)
        assert models.primary is None
        assert any(f.startswith("zero_pairs") for f in models.diagnostics.flags)
        ranked, diag = rank_topic(ctx, cfg, models)
        assert "partner_only" in diag.flags
        assert dict(models.partner.table["q"]) == {"c": 1.0}
        assert ranked

    def test_partner_only_topic_reports_dropped_terms(self):
        ctx, cfg = zero_pairs_setup(("q", "zz"))
        _, proj = run_topic(ctx, ctx.topics[0], cfg)
        _, cooccur = run_topic(ctx, ctx.topics[0], replace(cfg, method="cooccur"))
        assert proj.flags == ["zero_pairs:no_overlap", "partner_only"]
        assert proj.dropped_terms == cooccur.dropped_terms == ["zz"]

    def test_stage_error_carries_stage_name(self, small_corpus_dir, tmp_path):
        # a dictionary that covers no query term breaks the initial translation
        bad_dict = tmp_path / "bad.tsv"
        bad_dict.write_text("zzznotaterm\tzzzother\n")
        cfg_dict = small_config_dict(small_corpus_dir["paths"])
        cfg_dict["dictionary"] = str(bad_dict)
        ctx = make_ctx(cfg_dict)
        cfg = PipelineConfig.from_dict(cfg_dict)
        with pytest.raises(PipelineStageError) as err:
            run_topic(ctx, ctx.topics[0], cfg)
        assert err.value.stage == "target_feedback_retrieval"
        assert err.value.topic_id == ctx.topics[0].topic_id

    def test_prf_toggle_changes_rankings(self, small_config):
        ctx = make_ctx(small_config)
        topic = ctx.topics[0]
        on, _ = run_topic(ctx, topic, PipelineConfig.from_dict(
            {**small_config, "method": "uniform",
             "feedback": {**small_config["feedback"], "interp_coeff": 0.5}}))
        off, _ = run_topic(ctx, topic, PipelineConfig.from_dict(
            {**small_config, "method": "uniform",
             "feedback": {**small_config["feedback"], "interp_coeff": 0.0}}))
        assert on != off

    def test_zero_coefficient_runs_no_feedback(self, small_config, monkeypatch):
        ctx = make_ctx(small_config)
        cfg = PipelineConfig.from_dict({**small_config, "method": "uniform",
                                        "feedback": {**small_config["feedback"],
                                                     "interp_coeff": 0.0}})

        def estimate_feedback_model(*args):
            raise AssertionError("a feedback model was estimated at coefficient 0")

        monkeypatch.setattr(pipeline, "estimate_feedback_model", estimate_feedback_model)
        _, diag = run_topic(ctx, ctx.topics[0], cfg)
        assert "feedback" not in diag.stages
        assert diag.stages[-2:] == ["query_translation", "final_retrieval"]
