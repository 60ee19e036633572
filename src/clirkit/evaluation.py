"""Run files, MAP / P@k scoring, and paired significance testing.

Run files use the 6-column TREC format `topic Q0 doc rank score tag`.
The paired t-test computes its two-tailed p-value from the Student-t CDF
via the regularized incomplete beta function (continued-fraction
evaluation), so no statistics library is needed at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

RankedList = list[tuple[str, float]]


@dataclass
class RunFile:
    """Per-topic rankings plus the run tag."""

    tag: str
    rankings: dict[str, RankedList] = field(default_factory=dict)


@dataclass
class EvalReport:
    per_topic: dict[str, dict[str, float]]
    map: float
    p5: float
    p10: float
    num_topics: int

    def to_tsv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("topic\tap\tp5\tp10\n")
            for topic in sorted(self.per_topic):
                row = self.per_topic[topic]
                fh.write(f"{topic}\t{row['ap']:.6f}\t{row['p5']:.6f}\t{row['p10']:.6f}\n")
            fh.write(f"all\t{self.map:.6f}\t{self.p5:.6f}\t{self.p10:.6f}\n")

    def format_table(self) -> str:
        lines = [f"{'topic':>8}  {'AP':>8}  {'P@5':>8}  {'P@10':>8}"]
        for topic in sorted(self.per_topic):
            row = self.per_topic[topic]
            lines.append(f"{topic:>8}  {row['ap']:8.4f}  {row['p5']:8.4f}  {row['p10']:8.4f}")
        lines.append(f"{'MAP':>8}  {self.map:8.4f}  {self.p5:8.4f}  {self.p10:8.4f}"
                     f"  ({self.num_topics} topics)")
        return "\n".join(lines)


def average_precision(ranked: RankedList, relevant: set[str]) -> float:
    """AP = (1/|relevant|) * sum over relevant ranks k of precision@k.

    Topics with no relevant documents score 0.
    """
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for rank, (doc_id, _) in enumerate(ranked, start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def precision_at_k(ranked: RankedList, relevant: set[str], k: int) -> float:
    """|relevant in top-k| / k, dividing by k even if fewer were retrieved."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = sum(1 for doc_id, _ in ranked[:k] if doc_id in relevant)
    return hits / k


def evaluate_run(run: RunFile, qrels: dict[str, set[str]],
                 depth: int = 1000) -> EvalReport:
    """Macro averages over all judged topics; missing topics score 0."""
    per_topic: dict[str, dict[str, float]] = {}
    for topic in sorted(qrels):
        ranked = run.rankings.get(topic, [])[:depth]
        relevant = qrels[topic]
        per_topic[topic] = {
            "ap": average_precision(ranked, relevant),
            "p5": precision_at_k(ranked, relevant, 5),
            "p10": precision_at_k(ranked, relevant, 10),
        }
    n = len(per_topic)
    if n == 0:
        raise ValueError("qrels contain no judged topics")
    return EvalReport(
        per_topic=per_topic,
        map=sum(r["ap"] for r in per_topic.values()) / n,
        p5=sum(r["p5"] for r in per_topic.values()) / n,
        p10=sum(r["p10"] for r in per_topic.values()) / n,
        num_topics=n,
    )


@dataclass
class TTestResult:
    t: float
    p: float
    zero_variance: bool = False


def paired_ttest(ap_a: list[float], ap_b: list[float]) -> TTestResult:
    """Two-tailed paired t-test on per-topic score differences.

    Degenerate inputs are guarded: identical lists give p = 1.0 and
    zero-variance nonzero differences give p = 0.0, both flagged.
    """
    if len(ap_a) != len(ap_b):
        raise ValueError("paired t-test needs equal-length, topic-aligned lists")
    n = len(ap_a)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 topics")
    diffs = [a - b for a, b in zip(ap_a, ap_b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, p=1.0, zero_variance=True)
        return TTestResult(t=math.copysign(math.inf, mean), p=0.0, zero_variance=True)
    t = mean / math.sqrt(var / n)
    dof = n - 1
    p = betainc_regularized(dof / 2.0, 0.5, dof / (dof + t * t))
    return TTestResult(t=t, p=min(1.0, max(0.0, p)))


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) by continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the incomplete beta continued fraction
    max_iter = 300
    eps = 3e-16
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def write_run(run: RunFile, path: str) -> None:
    """Write the 6-column format; rejects unsorted or duplicated rankings."""
    with open(path, "w", encoding="utf-8") as fh:
        for topic in run.rankings:
            ranking = run.rankings[topic]
            seen: set[str] = set()
            prev_score = math.inf
            for rank, (doc_id, score) in enumerate(ranking, start=1):
                if doc_id in seen:
                    raise ValueError(f"duplicate document {doc_id!r} for topic {topic!r}")
                if score > prev_score:
                    raise ValueError(f"ranking for topic {topic!r} is not score-descending")
                seen.add(doc_id)
                prev_score = score
                fh.write(f"{topic} Q0 {doc_id} {rank} {score:.17g} {run.tag}\n")


def read_run(path: str) -> RunFile:
    """Parse a run file, checking rank contiguity and (topic, doc) uniqueness;
    a malformed line raises a ``ValueError`` that names it."""
    tag = "unknown"
    rankings: dict[str, RankedList] = {}
    expected_rank: dict[str, int] = {}
    seen: set[tuple[str, str]] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ValueError(f"run line {lineno} must have 6 columns")
            topic, _, doc_id, rank_str, score_str, tag = parts
            try:
                rank = int(rank_str)
            except ValueError:
                raise ValueError(
                    f"run line {lineno}: rank {rank_str!r} is not an integer") from None
            try:
                score = float(score_str)
            except ValueError:
                raise ValueError(
                    f"run line {lineno}: score {score_str!r} is not a number") from None
            expected = expected_rank.get(topic, 0) + 1
            if rank != expected:
                raise ValueError(
                    f"run line {lineno}: rank {rank} for topic {topic!r}, expected {expected}")
            if (topic, doc_id) in seen:
                raise ValueError(f"run line {lineno}: duplicate (topic, doc) pair")
            seen.add((topic, doc_id))
            expected_rank[topic] = rank
            rankings.setdefault(topic, []).append((doc_id, score))
    return RunFile(tag=tag, rankings=rankings)
