import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from clirkit.evaluation import (
    EvalReport,
    RunFile,
    average_precision,
    betainc_regularized,
    evaluate_run,
    paired_ttest,
    precision_at_k,
    read_run,
    write_run,
)


# Run-file ids: non-empty, no character ``str.split`` treats as whitespace
# (every such character is in a Unicode category Z* or C*).
run_ids = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=8)
finite = st.floats(allow_nan=False, allow_infinity=False)


def ranked(*doc_ids):
    return [(d, float(len(doc_ids) - i)) for i, d in enumerate(doc_ids)]


class TestAveragePrecision:
    def test_single_relevant_at_rank_one(self):
        assert average_precision(ranked("d1", "d2"), {"d1"}) == 1.0

    def test_single_relevant_at_rank_two(self):
        assert average_precision(ranked("d2", "d1"), {"d1"}) == 0.5

    def test_no_relevant_scores_zero(self):
        assert average_precision(ranked("d1"), set()) == 0.0

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(19)
        docs = [f"d{i}" for i in range(30)]
        for _ in range(20):
            order = list(rng.permutation(docs))
            relevant = set(rng.choice(docs, size=5, replace=False))
            got = average_precision(ranked(*order), relevant)
            # definitional oracle: mean of precision@k over relevant ranks
            precisions = []
            for k in range(1, len(order) + 1):
                if order[k - 1] in relevant:
                    hits = sum(1 for d in order[:k] if d in relevant)
                    precisions.append(hits / k)
            expected = sum(precisions) / len(relevant)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_invariant_to_consistent_relabeling(self):
        rng = np.random.default_rng(23)
        docs = [f"d{i}" for i in range(15)]
        order = list(rng.permutation(docs))
        relevant = set(rng.choice(docs, size=4, replace=False))
        mapping = {d: f"renamed-{d}" for d in docs}
        a = average_precision(ranked(*order), relevant)
        b = average_precision(ranked(*[mapping[d] for d in order]),
                              {mapping[d] for d in relevant})
        assert a == b

    def test_perfect_ranking_gives_map_one(self):
        run = RunFile(tag="t", rankings={
            "q1": ranked("r1", "r2", "n1"),
            "q2": ranked("r3", "n2"),
        })
        qrels = {"q1": {"r1", "r2"}, "q2": {"r3"}}
        report = evaluate_run(run, qrels)
        assert report.map == 1.0


class TestPrecisionAtK:
    def test_all_relevant(self):
        assert precision_at_k(ranked("a", "b", "c", "d", "e"), {"a", "b", "c", "d", "e"}, 5) == 1.0

    def test_none_relevant(self):
        assert precision_at_k(ranked("a", "b"), {"x"}, 5) == 0.0

    def test_three_of_ten(self):
        docs = [f"d{i}" for i in range(10)]
        assert precision_at_k(ranked(*docs), {"d0", "d4", "d9"}, 10) == pytest.approx(0.3)

    def test_divides_by_k_when_short(self):
        assert precision_at_k(ranked("a"), {"a"}, 5) == pytest.approx(0.2)


class TestEvaluateRun:
    def test_unjudged_topics_counted_as_zero(self):
        run = RunFile(tag="t", rankings={"q1": ranked("r1")})
        qrels = {"q1": {"r1"}, "q2": {"r9"}}
        report = evaluate_run(run, qrels)
        assert report.num_topics == 2
        assert report.map == pytest.approx(0.5)

    def test_zero_relevant_topic_counts(self):
        run = RunFile(tag="t", rankings={"q1": ranked("r1"), "q2": ranked("x")})
        qrels = {"q1": {"r1"}, "q2": set()}
        assert evaluate_run(run, qrels).map == pytest.approx(0.5)

    def test_tsv_report(self, tmp_path):
        run = RunFile(tag="t", rankings={"q1": ranked("r1")})
        report = evaluate_run(run, {"q1": {"r1"}})
        path = tmp_path / "report.tsv"
        report.to_tsv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "topic\tap\tp5\tp10"
        assert lines[-1].startswith("all\t")
        assert "q1" in report.format_table()


class TestPairedTTest:
    def test_identical_lists_flagged_p_one(self):
        result = paired_ttest([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        assert result.p == 1.0
        assert result.zero_variance

    def test_constant_nonzero_differences_flagged_p_zero(self):
        result = paired_ttest([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0])
        assert result.p == 0.0
        assert result.zero_variance
        assert math.isinf(result.t)

    def test_matches_reference_to_1e6(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            a = list(rng.random(10))
            b = list(np.clip(np.array(a) + rng.normal(0, 0.08, 10), 0, 1))
            got = paired_ttest(a, b)
            ref_t, ref_p = stats.ttest_rel(a, b)
            assert got.t == pytest.approx(float(ref_t), abs=1e-9)
            assert got.p == pytest.approx(float(ref_p), abs=1e-6)

    def test_symmetric_in_argument_order(self):
        rng = np.random.default_rng(37)
        a = list(rng.random(8))
        b = list(rng.random(8))
        assert paired_ttest(a, b).p == pytest.approx(paired_ttest(b, a).p, abs=1e-15)
        assert paired_ttest(a, b).t == pytest.approx(-paired_ttest(b, a).t, abs=1e-15)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            paired_ttest([1.0], [1.0])
        with pytest.raises(ValueError):
            paired_ttest([1.0, 2.0], [1.0])


class TestBetainc:
    def test_matches_scipy_on_grid(self):
        for a in (0.5, 1.0, 2.5, 7.0, 14.5):
            for b in (0.5, 1.0, 3.0):
                for x in (0.0, 1e-6, 0.1, 0.4, 0.5, 0.9, 1.0 - 1e-9, 1.0):
                    got = betainc_regularized(a, b, x)
                    ref = float(special.betainc(a, b, x))
                    assert got == pytest.approx(ref, abs=1e-10), (a, b, x)


class TestRunFiles:
    def test_one_line_round_trip(self, tmp_path):
        run = RunFile(tag="mytag", rankings={"q1": [("d1", 1.5)]})
        path = tmp_path / "a.run"
        write_run(run, str(path))
        loaded = read_run(str(path))
        assert loaded.tag == "mytag"
        assert loaded.rankings == run.rankings

    def test_unsorted_input_rejected(self, tmp_path):
        run = RunFile(tag="t", rankings={"q1": [("d1", 1.0), ("d2", 2.0)]})
        with pytest.raises(ValueError):
            write_run(run, str(tmp_path / "a.run"))

    def test_duplicate_doc_rejected(self, tmp_path):
        run = RunFile(tag="t", rankings={"q1": [("d1", 2.0), ("d1", 1.0)]})
        with pytest.raises(ValueError):
            write_run(run, str(tmp_path / "a.run"))

    def test_large_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        rankings = {}
        for q in range(10):
            scores = np.sort(rng.normal(size=100))[::-1]
            rankings[f"q{q}"] = [(f"d{i}", float(s)) for i, s in enumerate(scores)]
        run = RunFile(tag="big", rankings=rankings)
        p1 = tmp_path / "one.run"
        write_run(run, str(p1))
        loaded = read_run(str(p1))
        assert loaded.rankings == run.rankings
        p2 = tmp_path / "two.run"
        write_run(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(run_ids, st.lists(st.tuples(run_ids, finite), min_size=1,
                                             max_size=12, unique_by=lambda ds: ds[0]),
                           min_size=1, max_size=5),
           run_ids)
    def test_round_trip_property(self, tmp_path_factory, drawn, tag):
        rankings = {topic: [(doc, score) for doc, score in
                            sorted(rows, key=lambda ds: -ds[1])]
                    for topic, rows in drawn.items()}
        path = tmp_path_factory.mktemp("runs") / "prop.run"
        write_run(RunFile(tag=tag, rankings=rankings), str(path))
        loaded = read_run(str(path))
        assert loaded.tag == tag

        def bits(run):
            return {topic: [(doc, struct.pack("<d", score)) for doc, score in rows]
                    for topic, rows in run.items()}
        assert list(loaded.rankings) == list(rankings)
        assert bits(loaded.rankings) == bits(rankings)

    def test_rank_contiguity_checked(self, tmp_path):
        path = tmp_path / "bad.run"
        for second_line in ("q1 Q0 d2 3 1.0 t",  # rank skips 2
                            "q1 Q0 d2 x 1.0 t",  # rank is not an integer
                            "q1 Q0 d2 2 high t"):  # score is not a number
            path.write_text(f"q1 Q0 d1 1 2.0 t\n{second_line}\n")
            with pytest.raises(ValueError, match=r"run line 2\b"):
                read_run(str(path))
