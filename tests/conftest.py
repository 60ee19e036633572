import json

import numpy as np
import pytest

from clirkit.embeddings import EmbeddingTable
from clirkit.synth import SynthConfig, generate


@pytest.fixture(scope="session")
def small_corpus_dir(tmp_path_factory):
    """A small synthetic corpus on disk, shared by pipeline-level tests."""
    outdir = tmp_path_factory.mktemp("smallcorpus")
    cfg = SynthConfig(vocab_size=60, num_topics=4, docs_per_lang=40, doc_len=30,
                      confusers_per_entry=3, topicality=0.8, seed=5)
    data = generate(cfg)
    paths = data.write(str(outdir))
    return {"dir": str(outdir), "paths": paths, "data": data}


def small_config_dict(paths, **overrides):
    cfg = {
        "source_docs": paths["source_docs"],
        "target_docs": paths["target_docs"],
        "dictionary": paths["dictionary"],
        "topics": paths["topics"],
        "qrels": paths["qrels"],
        "mu": 1000.0,
        "depth": 50,
        "method": "proj",
        "alpha": 0.6,
        "feedback": {"num_docs": 5, "num_terms": 20, "interp_coeff": 0.5},
        "sgns": {"window": 10, "negatives": 5, "dim": 8, "epochs": 6,
                 "learning_rate": 0.05},
        "projection": {"eta": 0.02, "epochs": 30, "decay": 0.98},
        "seed": 1,
        "tag": "testrun",
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture()
def small_config(small_corpus_dir):
    return small_config_dict(small_corpus_dir["paths"])


def write_config(tmp_path, cfg_dict, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg_dict, indent=2))
    return str(path)


def make_table(mapping) -> EmbeddingTable:
    """An EmbeddingTable with one row per term of ``mapping``, in its order."""
    return EmbeddingTable(vocab=list(mapping),
                          vectors=np.array(list(mapping.values()), dtype=float))
