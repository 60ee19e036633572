import json
import os
from dataclasses import replace

import pytest

from clirkit import cli, pipeline, synth
from clirkit.cli import main
from clirkit.evaluation import RunFile, write_run
from clirkit.pipeline import ExperimentContext, PipelineConfig
from clirkit.synth import SynthConfig

from conftest import small_config_dict, write_config


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth + config shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    rc = main(["synth", "--out", str(corpus), "--vocab-size", "60",
               "--num-topics", "4", "--docs-per-lang", "40", "--doc-len", "30",
               "--confusers", "3", "--topicality", "0.8", "--seed", "5"])
    assert rc == 0
    paths = {
        "source_docs": str(corpus / "source.jsonl"),
        "target_docs": str(corpus / "target.jsonl"),
        "dictionary": str(corpus / "dictionary.tsv"),
        "topics": str(corpus / "topics.jsonl"),
        "qrels": str(corpus / "qrels.txt"),
    }
    config = write_config(root, small_config_dict(paths), "config.json")
    return {"root": root, "paths": paths, "config": config}


def test_synth_writes_all_files(workspace):
    for path in workspace["paths"].values():
        assert os.path.exists(path)


def test_synth_defaults_are_synth_configs(monkeypatch, tmp_path):
    made = []

    def generate(cfg):
        made.append(cfg)
        return synth.generate(replace(cfg, vocab_size=8, num_topics=2, docs_per_lang=4,
                                      doc_len=5))

    monkeypatch.setattr(cli, "generate", generate)
    assert main(["synth", "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--out", str(tmp_path / "b"), "--confusers", "2",
                 "--topicality", "0.5", "--seed", "9"]) == 0
    assert made == [SynthConfig(), SynthConfig(confusers_per_entry=2, topicality=0.5, seed=9)]


@pytest.mark.parametrize("flag, value", [
    ("--num-topics", "0"), ("--docs-per-lang", "0"), ("--doc-len", "0"),
    ("--query-len", "0"), ("--vocab-size", "-1"), ("--confusers", "-1"),
    ("--topicality", "nan"),
])
def test_bad_synth_size_rejected(flag, value, capsys, tmp_path):
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
    assert "Traceback" not in err
    assert not out.exists()


def test_run_eval_compare(workspace, capsys):
    root = workspace["root"]
    rc = main(["run", "--config", workspace["config"], "--out", str(root / "uni"),
               "--method", "uniform", "--tag", "uni"])
    assert rc == 0
    rc = main(["run", "--config", workspace["config"], "--out", str(root / "top"),
               "--method", "top1", "--tag", "top"])
    assert rc == 0
    capsys.readouterr()

    rc = main(["eval", "--run", str(root / "uni" / "uni.run"),
               "--qrels", workspace["paths"]["qrels"],
               "--out", str(root / "uni.tsv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "MAP" in out
    assert os.path.exists(root / "uni.tsv")

    rc = main(["compare", "--run-a", str(root / "uni" / "uni.run"),
               "--run-b", str(root / "top" / "top.run"),
               "--qrels", workspace["paths"]["qrels"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert "paired t-test" in out and "p =" in out


def test_run_writes_manifest(workspace, tmp_path):
    rc = main(["run", "--config", workspace["config"], "--out", str(tmp_path / "uni"),
               "--method", "uniform", "--tag", "uni"])
    assert rc == 0
    manifest = json.loads((tmp_path / "uni" / "uni.manifest.json").read_text())
    assert manifest["config"]["method"] == "uniform"


def test_sweep_emits_csv(workspace, capsys):
    root = workspace["root"]
    rc = main(["sweep", "--config", workspace["config"], "--out", str(root / "grid"),
               "--alphas", "0,1", "--ns", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha,n,map" in out
    assert os.path.exists(root / "grid" / "sweep.csv")


def test_missing_file_is_clean_error(workspace, capsys):
    rc = main(["eval", "--run", "/nonexistent.run",
               "--qrels", workspace["paths"]["qrels"]])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_bad_dictionary_reports_stage(workspace, capsys, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("zzznotaterm\tzzzother\n")
    cfg = json.loads(open(workspace["config"]).read())
    cfg["dictionary"] = str(bad)
    bad_config = write_config(tmp_path, cfg, "bad.json")
    rc = main(["run", "--config", bad_config, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "target_feedback_retrieval" in err


@pytest.mark.parametrize("override, named", [
    ({"alpah": 0.5}, "alpah"),
    ({"alpha": 1.5}, "alpha"),
    ({"fallback": "nope"}, "fallback"),
    ({"alpha": "0.6"}, "alpha"),
    ({"depth": 10.0}, "depth"),
    ({"seed": True}, "seed"),
    ({"sgns": {"dim": "8"}}, "dim"),
    ({"projection": {"eta": "0.02"}}, "eta"),
    ({"sgns": 5}, "sgns"),
    ({"feedback": [5, 20]}, "feedback"),
    ({"mu": -1}, "mu"),
    ({"mu": 0.0}, "mu"),
    ({"depth": 0}, "depth"),
    ({"cooccur_window": 0}, "cooccur_window"),
    ({"feedback": {"num_docs": 0}}, "num_docs"),
    ({"feedback": {"num_terms": 0}}, "num_terms"),
    ({"feedback": {"noise": 1.5}}, "noise"),
    ({"feedback": {"noise": 0.0}}, "noise"),
    ({"feedback": {"interp_coeff": 1.2}}, "interp_coeff"),
    ({"sgns": {"dim": 0}}, "dim"),
    ({"sgns": {"window": 0}}, "window"),
    ({"sgns": {"epochs": 0}}, "epochs"),
    ({"sgns": {"learning_rate": 0.0}}, "learning_rate"),
    ({"source_index": "x.idx"}, "source_index"),
    ({"sgns": {"subsample": 0.001}}, "subsample"),
    ({"fallback": "uniform_over_candidates"}, "fallback"),
    ({"sgns": {"seed": 42}}, "seed"),
    ({"projection": {"seed": 9}}, "seed"),
    ({"prf_enabled": "false"}, "prf_enabled"),
    ({"verbose_queries": "no"}, "verbose_queries"),
    ({"source_normalization": {"lowercase": "no"}}, "lowercase"),
    ({"target_normalization": {"stopwords": 5}}, "stopwords"),
    ({"topics": 0}, "topics"),
    ({"qrels": 5}, "qrels"),
    ({"tag": 7}, "tag"),
    ({"sgns": {"negatives": -1}}, "negatives"),
    ({"projection": {"init_range": -1}}, "init_range"),
    ({"projection": {"epochs": 0}}, "epochs"),
    ({"projection": {"decay": -1}}, "decay"),
    ({"feedback": {"em_iters": -3}}, "em_iters"),
    ({"source_format": "xml"}, "source_format"),
    ({"target_format": "xml"}, "target_format"),
    ({"source_normalization": {"stemmer": "snowball"}}, "stemmer"),
    ({"target_normalization": {"stemmer": "nope"}}, "stemmer"),
    ({"feedback": {"em_tol": 1e-6}}, "em_tol"),
    ({"mu": float("inf")}, "mu"),
    ({"projection": {"eta": float("nan")}}, "eta"),
    ({"projection": {"init_range": float("nan")}}, "init_range"),
    ({"projection": {"init_range": float("inf")}}, "init_range"),
    ({"sgns": {"learning_rate": float("inf")}}, "learning_rate"),
])
def test_bad_config_rejected_before_loading(workspace, capsys, tmp_path, monkeypatch,
                                            override, named):
    cfg = {**json.loads(open(workspace["config"]).read()), **override}
    with pytest.raises(ValueError, match=named):
        PipelineConfig.from_dict(cfg)

    def from_config(cls, cfg):
        raise AssertionError("config accepted and inputs loaded")

    monkeypatch.setattr(ExperimentContext, "from_config", classmethod(from_config))
    rc = main(["run", "--config", write_config(tmp_path, cfg, "bad.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, named", [("[1, 2]", "list"), ("5", "int"),
                                         ("null", "NoneType"), ('"abc"', "str")])
def test_config_that_is_not_an_object_rejected(capsys, tmp_path, text, named):
    config = tmp_path / "config.json"
    config.write_text(text)
    with pytest.raises(ValueError, match=f"config must be a JSON object, got {named}$"):
        PipelineConfig.from_file(str(config))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: config must be a JSON object, got {named}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_depth_below_one_rejected_by_eval_and_compare(capsys, tmp_path, depth):
    run, qrels = str(tmp_path / "t.run"), tmp_path / "qrels.txt"
    write_run(RunFile(tag="t", rankings={"q1": [("d0", 2.0), ("d1", 1.0)]}), run)
    qrels.write_text("q1 0 d1 1\n")
    for argv in (["eval", "--run", run], ["compare", "--run-a", run, "--run-b", run]):
        assert main(argv + ["--qrels", str(qrels), "--depth", depth]) == 1
        assert capsys.readouterr().err == f"error: depth must be >= 1, got {depth}\n"


def test_bad_sweep_grid_rejected_before_any_topic(workspace, capsys, monkeypatch, tmp_path):
    def prepare_topic(*args, **kwargs):
        raise AssertionError("a topic ran before the grid was checked")

    def from_config(cls, cfg):
        raise AssertionError("inputs loaded before the grid was checked")

    monkeypatch.setattr(pipeline, "prepare_topic", prepare_topic)
    monkeypatch.setattr(ExperimentContext, "from_config", classmethod(from_config))
    no_qrels = write_config(tmp_path, {**json.loads(open(workspace["config"]).read()),
                                       "qrels": None}, "no-qrels.json")
    out = workspace["root"] / "bad-grid"
    for config, alphas, ns, named in ((workspace["config"], "0.5,1.5", "5", "alpha"),
                                      (workspace["config"], "0.5", "5,0", "num_docs"),
                                      (no_qrels, "0.5", "5", "qrels"),
                                      (workspace["config"], "0.5,0.5", "5", "testrun-a0.5-n5"),
                                      (workspace["config"], "0.5", "5,5", "testrun-a0.5-n5")):
        rc = main(["sweep", "--config", config, "--out", str(out),
                   "--alphas", alphas, "--ns", ns])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()
    # a value that is not a number is a usage error naming its flag
    for alphas, ns, named in (("0.5,x", "5", "--alphas"), ("0.5", "5,x", "--ns"),
                              ("0.5", "5,", "--ns"), ("0.5", "2.5", "--ns")):
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "--config", workspace["config"], "--out", str(out),
                  "--alphas", alphas, "--ns", ns])
        assert exit_.value.code == 2
        assert f"argument {named}: " in capsys.readouterr().err
        assert not out.exists()
