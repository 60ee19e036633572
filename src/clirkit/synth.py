"""Paired pseudo-bilingual corpus generator with known ground truth.

The two languages share a latent topic structure: vocabulary entries are
mirrored pairs (s_i, t_i) and each topic's multinomial assigns the same
probability to s_i in the source language as to t_i in the target
language. Every document mixes its topic's multinomial with uniform
noise, so co-occurrence statistics carry the translation signal the rest
of the toolkit is supposed to recover.

Dictionary entries list the true translation plus ``confusers_per_entry``
translations of other entries, at a seeded random position, so the first
candidate carries no oracle signal. The generator keeps a per-document
topic trace and exposes the true mapping for accuracy measurement.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from clirkit.checks import check_field_types
from clirkit.corpus import BilingualDictionary, Document, Topic


@dataclass
class SynthConfig:
    vocab_size: int = 500
    num_topics: int = 8
    docs_per_lang: int = 400
    doc_len: int = 100
    confusers_per_entry: int = 3
    topicality: float = 0.8
    seed: int = 0
    query_len: int = 4
    concentration: float = 0.6

    def __post_init__(self):
        check_field_types(self)
        for key in ("num_topics", "docs_per_lang", "doc_len", "query_len"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)!r}")
        if self.vocab_size < self.num_topics:
            raise ValueError("vocab_size must be >= num_topics")
        if not 0 <= self.confusers_per_entry < self.vocab_size:
            raise ValueError("confusers_per_entry must lie in [0, vocab_size)")
        if not 0.0 < self.topicality < 1.0:
            raise ValueError("topicality must lie in (0, 1)")
        if self.concentration <= 0.0:
            raise ValueError(f"concentration must be positive, got {self.concentration!r}")


@dataclass
class SynthData:
    source_docs: list[Document]
    target_docs: list[Document]
    dictionary: BilingualDictionary
    topics: list[Topic]
    qrels: dict[str, set[str]]
    truth: dict[str, str]
    doc_topics: dict[str, int] = field(default_factory=dict)

    def write(self, outdir: str) -> dict[str, str]:
        """Emit the jsonl/TSV/qrels files the toolkit consumes."""
        os.makedirs(outdir, exist_ok=True)
        paths = {
            "source_docs": os.path.join(outdir, "source.jsonl"),
            "target_docs": os.path.join(outdir, "target.jsonl"),
            "dictionary": os.path.join(outdir, "dictionary.tsv"),
            "topics": os.path.join(outdir, "topics.jsonl"),
            "qrels": os.path.join(outdir, "qrels.txt"),
            "truth": os.path.join(outdir, "truth.tsv"),
        }
        for key, docs in (("source_docs", self.source_docs),
                          ("target_docs", self.target_docs)):
            with open(paths[key], "w", encoding="utf-8") as fh:
                for doc in docs:
                    fh.write(json.dumps({"id": doc.doc_id,
                                         "text": " ".join(doc.tokens)}) + "\n")
        with open(paths["dictionary"], "w", encoding="utf-8") as fh:
            for source in self.dictionary.entries:
                fh.write(f"{source}\t{' '.join(self.dictionary.entries[source])}\n")
        with open(paths["topics"], "w", encoding="utf-8") as fh:
            for topic in self.topics:
                fh.write(json.dumps({"id": topic.topic_id,
                                     "title": " ".join(topic.title_terms),
                                     "desc": " ".join(topic.desc_terms)}) + "\n")
        with open(paths["qrels"], "w", encoding="utf-8") as fh:
            for topic_id in sorted(self.qrels):
                for doc_id in sorted(self.qrels[topic_id]):
                    fh.write(f"{topic_id} 0 {doc_id} 1\n")
        with open(paths["truth"], "w", encoding="utf-8") as fh:
            for source in sorted(self.truth):
                fh.write(f"{source}\t{self.truth[source]}\n")
        return paths


def generate(cfg: SynthConfig) -> SynthData:
    """Deterministic per seed; see the module docstring for the process."""
    rng = np.random.default_rng(cfg.seed)
    v = cfg.vocab_size
    width = max(4, len(str(v - 1)))
    src_terms = [f"s{i:0{width}d}" for i in range(v)]
    tgt_terms = [f"t{i:0{width}d}" for i in range(v)]

    topic_dists = rng.dirichlet(np.full(v, cfg.concentration), size=cfg.num_topics)

    base = cfg.docs_per_lang // cfg.num_topics
    extra = cfg.docs_per_lang % cfg.num_topics
    docs_per_topic = [base + (1 if k < extra else 0) for k in range(cfg.num_topics)]

    doc_topics: dict[str, int] = {}

    def make_docs(prefix: str, terms: list[str]) -> list[Document]:
        docs = []
        counter = 0
        for k in range(cfg.num_topics):
            cum = np.cumsum(topic_dists[k])
            cum[-1] = 1.0
            for _ in range(docs_per_topic[k]):
                topical = rng.random(cfg.doc_len) < cfg.topicality
                n_topical = int(topical.sum())
                token_idx = np.empty(cfg.doc_len, dtype=np.intp)
                token_idx[topical] = np.searchsorted(cum, rng.random(n_topical))
                token_idx[~topical] = rng.integers(0, v, size=cfg.doc_len - n_topical)
                doc_id = f"{prefix}{counter:05d}"
                counter += 1
                doc_topics[doc_id] = k
                docs.append(Document(doc_id, tuple(terms[t] for t in token_idx)))
        return docs

    source_docs = make_docs("ds", src_terms)
    target_docs = make_docs("dt", tgt_terms)

    entries: dict[str, tuple[str, ...]] = {}
    truth: dict[str, str] = {}
    for i in range(v):
        others = rng.choice(v - 1, size=cfg.confusers_per_entry, replace=False)
        others = [o if o < i else o + 1 for o in others]
        candidates = [tgt_terms[i]] + [tgt_terms[o] for o in others]
        order = rng.permutation(len(candidates))
        entries[src_terms[i]] = tuple(candidates[p] for p in order)
        truth[src_terms[i]] = tgt_terms[i]

    topics: list[Topic] = []
    qrels: dict[str, set[str]] = {}
    for k in range(cfg.num_topics):
        ranked = np.argsort(-topic_dists[k], kind="stable")
        title = tuple(src_terms[t] for t in ranked[: cfg.query_len])
        desc = tuple(src_terms[t] for t in ranked[cfg.query_len: 2 * cfg.query_len])
        topic_id = f"q{k + 1:02d}"
        topics.append(Topic(topic_id, title, desc))
        qrels[topic_id] = {d.doc_id for d in target_docs
                           if doc_topics[d.doc_id] == k}

    return SynthData(
        source_docs=source_docs,
        target_docs=target_docs,
        dictionary=BilingualDictionary(entries=entries),
        topics=topics,
        qrels=qrels,
        truth=truth,
        doc_topics=doc_topics,
    )
