import filecmp

import numpy as np
import pytest

from clirkit.corpus import (
    NormalizationPipeline,
    load_documents,
    parse_dictionary,
    parse_qrels,
    parse_topics,
)
from clirkit.synth import SynthConfig, generate

PLAIN = NormalizationPipeline(lowercase=True, stopwords=frozenset(), stemmer="none")

SMALL = dict(vocab_size=60, num_topics=4, docs_per_lang=40, doc_len=30,
             confusers_per_entry=3, topicality=0.8)


class TestConfigValidation:
    def test_confusers_must_fit_vocabulary(self):
        with pytest.raises(ValueError):
            SynthConfig(vocab_size=4, confusers_per_entry=4)

    def test_vocab_at_least_topics(self):
        with pytest.raises(ValueError):
            SynthConfig(vocab_size=4, num_topics=5)

    def test_topicality_open_interval(self):
        with pytest.raises(ValueError):
            SynthConfig(topicality=1.0)

    @pytest.mark.parametrize("field, value", [
        ("num_topics", 0), ("docs_per_lang", 0), ("doc_len", 0), ("query_len", 0),
        ("concentration", 0.0), ("concentration", -1.0), ("concentration", float("nan")),
        ("doc_len", 2.5),
    ])
    def test_bad_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthConfig(**{field: value})


class TestDeterminism:
    def test_same_seed_byte_identical_files(self, tmp_path):
        for sub in ("one", "two"):
            data = generate(SynthConfig(seed=5, **SMALL))
            data.write(str(tmp_path / sub))
        for name in ("source.jsonl", "target.jsonl", "dictionary.tsv",
                     "topics.jsonl", "qrels.txt", "truth.tsv"):
            assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "two" / name,
                               shallow=False), name

    def test_different_seed_differs(self):
        a = generate(SynthConfig(seed=5, **SMALL))
        b = generate(SynthConfig(seed=6, **SMALL))
        assert any(x.tokens != y.tokens for x, y in zip(a.source_docs, b.source_docs))


class TestGroundTruth:
    def test_truth_always_among_candidates(self):
        data = generate(SynthConfig(seed=7, **SMALL))
        for source, truth in data.truth.items():
            assert truth in data.dictionary.entries[source]

    def test_candidate_count(self):
        data = generate(SynthConfig(seed=7, **SMALL))
        for cands in data.dictionary.entries.values():
            assert len(cands) == 1 + SMALL["confusers_per_entry"]
            assert len(set(cands)) == len(cands)

    def test_truth_position_randomized(self):
        # the first candidate must carry no oracle signal
        data = generate(SynthConfig(seed=7, **SMALL))
        first_is_truth = sum(
            1 for s, cands in data.dictionary.entries.items() if cands[0] == data.truth[s])
        assert 0 < first_is_truth < len(data.dictionary.entries)
        assert first_is_truth < 0.6 * len(data.dictionary.entries)


class TestCollections:
    def test_doc_counts_match_across_languages(self):
        data = generate(SynthConfig(seed=9, **SMALL))
        assert len(data.source_docs) == len(data.target_docs) == SMALL["docs_per_lang"]
        for k in range(SMALL["num_topics"]):
            n_src = sum(1 for d in data.source_docs if data.doc_topics[d.doc_id] == k)
            n_tgt = sum(1 for d in data.target_docs if data.doc_topics[d.doc_id] == k)
            assert n_src == n_tgt

    def test_doc_lengths(self):
        data = generate(SynthConfig(seed=9, **SMALL))
        assert all(d.length == SMALL["doc_len"] for d in data.source_docs)

    def test_qrels_match_generation_trace(self):
        data = generate(SynthConfig(seed=9, **SMALL))
        for topic in data.topics:
            k = int(topic.topic_id[1:]) - 1
            recount = {d.doc_id for d in data.target_docs
                       if data.doc_topics[d.doc_id] == k}
            assert data.qrels[topic.topic_id] == recount

    def test_single_topic_high_topicality_degenerate(self):
        cfg = SynthConfig(vocab_size=50, num_topics=1, docs_per_lang=10, doc_len=40,
                          confusers_per_entry=2, topicality=0.999, seed=3,
                          concentration=0.02)
        data = generate(cfg)
        assert all(t == 0 for t in data.doc_topics.values())
        assert data.qrels["q01"] == {d.doc_id for d in data.target_docs}
        # nearly every token comes from the single topic multinomial, which
        # under a sparse prior concentrates on few terms
        counts = {}
        for d in data.source_docs:
            for t in d.tokens:
                counts[t] = counts.get(t, 0) + 1
        top = sorted(counts.values(), reverse=True)
        assert sum(top[:10]) / sum(top) > 0.8


class TestEmittedFiles:
    def test_round_trip_through_toolkit_parsers(self, tmp_path):
        data = generate(SynthConfig(seed=13, **SMALL))
        paths = data.write(str(tmp_path))
        docs = list(load_documents(paths["source_docs"], PLAIN))
        assert len(docs) == len(data.source_docs)
        assert [d.doc_id for d in docs] == [d.doc_id for d in data.source_docs]
        assert all(a.tokens == b.tokens for a, b in zip(docs, data.source_docs))
        d = parse_dictionary(paths["dictionary"], PLAIN, PLAIN)
        assert d.entries == data.dictionary.entries
        topics = parse_topics(paths["topics"], PLAIN)
        assert [t.topic_id for t in topics] == [t.topic_id for t in data.topics]
        assert all(a.title_terms == b.title_terms for a, b in zip(topics, data.topics))
        qrels = parse_qrels(paths["qrels"])
        assert qrels == data.qrels

    def test_queries_use_top_topic_terms(self):
        data = generate(SynthConfig(seed=13, query_len=4, **SMALL))
        for topic in data.topics:
            assert len(topic.title_terms) == 4
            assert len(topic.desc_terms) == 4
            assert not set(topic.title_terms) & set(topic.desc_terms)
