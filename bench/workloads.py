"""Workloads of the clirkit benchmark and the input files they run on.

A workload is a synthetic corpus made by ``clirkit.synth`` at the seed the
benchmark is given, plus a pipeline config. Both are written as files; the
program under test receives only those files. ``truth.tsv`` (the true
translation of every source term) is written next to them for the
benchmark's own checks and is not named in the config.

Run as a script to write one workload's inputs and print the SHA-256
digest of every file:

    python3 bench/workloads.py --workload proj-title --seed 101 --out .bench_work/inputs
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The pipeline config of the synthetic acceptance experiment (C07 in
# tests/test_acceptance.py): the corpus is too small for the library
# defaults of 50 dimensions and 45 negatives.
PIPELINE = {
    "mu": 1000.0,
    "depth": 1000,
    "alpha": 0.6,
    "cooccur_window": 4,
    "feedback": {"num_docs": 10, "num_terms": 50, "interp_coeff": 0.5},
    "sgns": {"window": 10, "negatives": 5, "dim": 10, "epochs": 60,
             "learning_rate": 0.05, "min_count": 1},
    "projection": {"eta": 0.01, "epochs": 150, "decay": 0.99, "init_range": 1.0},
    "seed": 3,
}

# Layers (span names, see tracer.py) every workload must reach.
_COMMON_LAYERS = ("corpus.load", "retrieval.index", "retrieval.retrieve",
                  "prf.feedback", "prf.em", "translation.uniform_model",
                  "translation.cooccur_model", "pipeline.topic",
                  "pipeline.experiment")


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    verbose_queries: bool
    synth: dict
    # Topics handed to the program: the first ``num_topics`` by id. The
    # qrels are cut to the same topics, since MAP averages over judged ones.
    num_topics: int
    # Methods whose MAP the workload's method must beat on every seed.
    beats: tuple[str, ...]
    # Span names that must record at least one call, and ones that must
    # record none, so a moved or renamed function cannot read as zero.
    exercised: tuple[str, ...]
    bypassed: tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="proj-title", method="proj", verbose_queries=False, synth={},
        num_topics=8, beats=("uniform", "top1"),
        exercised=_COMMON_LAYERS + ("embeddings.train", "projection.fit",
                                    "translation.projected_model",
                                    "translation.interpolate_models"),
        bypassed=("translation.mixed_model",)),
    Workload(
        name="cooccur-large", method="cooccur", verbose_queries=True,
        synth={"docs_per_lang": 20000, "num_topics": 16},
        num_topics=16, beats=(),
        exercised=_COMMON_LAYERS,
        bypassed=("embeddings.train", "projection.fit",
                  "translation.projected_model", "translation.mixed_model",
                  "translation.interpolate_models")),
)}


def pipeline_config(workload: Workload, paths: dict[str, str], method: str | None = None,
                    tag: str = "bench") -> dict:
    """The config dict the program is run with, inputs given as paths."""
    return {
        **PIPELINE,
        "source_docs": paths["source_docs"],
        "target_docs": paths["target_docs"],
        "dictionary": paths["dictionary"],
        "topics": paths["topics"],
        "qrels": paths["qrels"],
        "method": method or workload.method,
        "verbose_queries": workload.verbose_queries,
        "tag": tag,
    }


def make_inputs(workload: Workload, seed: int, outdir: str) -> dict[str, str]:
    """Write the corpus files and ``config.json``; return their paths.

    The config names the other files relative to ``outdir``, so the
    program is run from there and the config's digest does not depend on
    where the inputs are written.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from clirkit.synth import SynthConfig, generate

    data = generate(SynthConfig(seed=seed, **workload.synth))
    data.topics = sorted(data.topics, key=lambda t: t.topic_id)[: workload.num_topics]
    data.qrels = {t.topic_id: data.qrels[t.topic_id] for t in data.topics}
    paths = data.write(outdir)
    del data
    names = {key: os.path.basename(path) for key, path in paths.items()}
    paths["config"] = os.path.join(outdir, "config.json")
    with open(paths["config"], "w", encoding="utf-8") as fh:
        json.dump(pipeline_config(workload, names), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def input_digests(paths: dict[str, str]) -> dict[str, str]:
    """SHA-256 of every input file, keyed by file name."""
    return {os.path.basename(p): sha256(p) for p in sorted(paths.values())}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    paths = make_inputs(WORKLOADS[args.workload], args.seed, args.out)
    for name, digest in input_digests(paths).items():
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
