"""Reference computations the benchmark checks clirkit against.

Each one is written from the definition, apart from the library: a run-file
reader, average precision, the chance level of MAP, a brute-force
Dirichlet scorer over the raw documents, and a window co-occurrence count.
The synthetic corpora hold lowercase alphanumeric tokens separated by
single spaces, which clirkit's default normalisation leaves as they are,
so the raw documents are read by splitting on whitespace.
"""

from __future__ import annotations

import json
import math

import numpy as np


def read_run(path: str) -> dict[str, list[tuple[str, int, float]]]:
    """Per topic, (doc_id, rank, score) rows in file order."""
    run: dict[str, list[tuple[str, int, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            cells = line.split()
            if len(cells) != 6 or cells[1] != "Q0":
                raise ValueError(f"{path}:{lineno}: expected `topic Q0 doc rank score tag`")
            run.setdefault(cells[0], []).append((cells[2], int(cells[3]), float(cells[4])))
    return run


def read_qrels(path: str) -> dict[str, set[str]]:
    qrels: dict[str, set[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            topic, _, doc_id, rel = line.split()
            judged = qrels.setdefault(topic, set())
            if int(rel) > 0:
                judged.add(doc_id)
    return qrels


def read_jsonl_ids(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [str(json.loads(line)["id"]) for line in fh if line.strip()]


def read_dictionary(path: str) -> dict[str, list[str]]:
    with open(path, encoding="utf-8") as fh:
        return {src: cands.split() for src, cands in
                (line.rstrip("\n").split("\t") for line in fh if line.strip())}


def read_truth(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("\t") for line in fh if line.strip())


def check_run(run: dict[str, list[tuple[str, int, float]]], topic_ids: list[str],
              doc_ids: set[str], depth: int) -> list[str]:
    """Problems with a run file: missing topics, rank gaps, rising scores,
    repeated or unknown documents, or a ranking shorter or longer than
    min(depth, number of documents)."""
    problems = []
    k = min(depth, len(doc_ids))
    if sorted(run) != sorted(topic_ids):
        problems.append(f"run covers topics {sorted(run)}, expected {sorted(topic_ids)}")
    for topic, rows in run.items():
        if [rank for _, rank, _ in rows] != list(range(1, len(rows) + 1)):
            problems.append(f"topic {topic}: ranks are not 1..{len(rows)}")
        if len(rows) != k:
            problems.append(f"topic {topic}: {len(rows)} documents, expected {k}")
        if any(b[2] > a[2] for a, b in zip(rows, rows[1:])):
            problems.append(f"topic {topic}: scores increase down the ranking")
        docs = [d for d, _, _ in rows]
        if len(set(docs)) != len(docs):
            problems.append(f"topic {topic}: a document is ranked twice")
        unknown = set(docs) - doc_ids
        if unknown:
            problems.append(f"topic {topic}: {len(unknown)} documents not in the collection")
    return problems


def average_precision(ranked: list[str], relevant: set[str]) -> float:
    if not relevant:
        return 0.0
    hits, total = 0, 0.0
    for rank, doc_id in enumerate(ranked, start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def mean_average_precision(run: dict[str, list[tuple[str, int, float]]],
                           qrels: dict[str, set[str]]) -> float:
    """Mean over the judged topics; a judged topic missing from the run scores 0."""
    return sum(average_precision([d for d, _, _ in run.get(topic, [])], relevant)
               for topic, relevant in qrels.items()) / len(qrels)


def chance_map(qrels: dict[str, set[str]], num_docs: int, depth: int) -> float:
    """Expected MAP of a uniformly random ranking cut at ``depth``.

    With R relevant among N documents, rank i holds a relevant document
    with probability R/N, and given that, the expected number of relevant
    documents at ranks 1..i is 1 + (i-1)(R-1)/(N-1); so
    E[AP] = (1/N) sum_{i<=depth} (1 + (i-1)(R-1)/(N-1)) / i.
    """
    n = num_docs
    aps = []
    for relevant in qrels.values():
        r = len(relevant)
        if r == 0:
            aps.append(0.0)
            continue
        aps.append(sum((1 + (i - 1) * (r - 1) / (n - 1)) / i
                       for i in range(1, min(depth, n) + 1)) / n)
    return sum(aps) / len(aps)


class Collection:
    """Raw documents of one language, read apart from clirkit."""

    def __init__(self, path: str):
        self.ids: list[str] = []
        docs: list[list[str]] = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    obj = json.loads(line)
                    self.ids.append(str(obj["id"]))
                    docs.append(obj["text"].split())
        self.vocab: dict[str, int] = {}
        ids = [[self.vocab.setdefault(t, len(self.vocab)) for t in doc] for doc in docs]
        self.lengths = np.array([len(doc) for doc in ids], dtype=float)
        self.tokens = np.fromiter((t for doc in ids for t in doc), dtype=np.int64,
                                  count=int(self.lengths.sum()))
        self.doc_of_token = np.repeat(np.arange(len(ids)), [len(doc) for doc in ids])
        pairs = np.unique(self.doc_of_token * len(self.vocab) + self.tokens,
                          return_counts=True)
        self._post_doc = pairs[0] // len(self.vocab)
        self._post_term = pairs[0] % len(self.vocab)
        self._post_tf = pairs[1].astype(float)
        self.doc_freq = np.bincount(self._post_term, minlength=len(self.vocab))
        self.coll_freq = np.bincount(self.tokens, minlength=len(self.vocab))
        self._pair_counts: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def df(self, term: str) -> int:
        tid = self.vocab.get(term)
        return 0 if tid is None else int(self.doc_freq[tid])

    def dirichlet_scores(self, weights: dict[str, float], mu: float) -> np.ndarray:
        """sum_w q(w) log((tf(w,d) + mu p(w|C)) / (|d| + mu)) for every
        document, over the query terms that occur in the collection."""
        total = float(self.lengths.sum())
        scores = np.zeros(len(self.ids))
        for term, weight in weights.items():
            tid = self.vocab.get(term)
            if tid is None:
                continue
            tf = np.zeros(len(self.ids))
            mask = self._post_term == tid
            tf[self._post_doc[mask]] = self._post_tf[mask]
            prior = mu * self.coll_freq[tid] / total
            scores += weight * np.log((tf + prior) / (self.lengths + mu))
        return scores

    def window_count(self, a: str, b: str, window: int) -> int:
        """Position pairs (i < j <= i + window, same document) holding a and b."""
        if window not in self._pair_counts:
            v = len(self.vocab)
            keys = []
            for d in range(1, window + 1):
                same = self.doc_of_token[:-d] == self.doc_of_token[d:]
                x, y = self.tokens[:-d][same], self.tokens[d:][same]
                keys.append(np.minimum(x, y) * v + np.maximum(x, y))
            self._pair_counts[window] = np.unique(np.concatenate(keys), return_counts=True)
        keys, counts = self._pair_counts[window]
        ia, ib = self.vocab.get(a), self.vocab.get(b)
        if ia is None or ib is None:
            return 0
        key = min(ia, ib) * len(self.vocab) + max(ia, ib)
        pos = int(np.searchsorted(keys, key))
        return int(counts[pos]) if pos < len(keys) and keys[pos] == key else 0


def check_ranking(collection: Collection, weights: dict[str, float], mu: float, k: int,
                  ranked: list[list], tol: float = 1e-8) -> str | None:
    """Compare one retrieve() result with the brute-force scorer.

    Each returned score must equal the document's true score, the i-th
    returned score must equal the i-th best true score (so no better
    document is missing), and equal scores must be ordered by doc id.
    """
    scores = collection.dirichlet_scores(weights, mu)
    want = min(k, len(collection.ids))
    if len(ranked) != want:
        return f"{len(ranked)} documents returned, expected {want}"
    index = {d: i for i, d in enumerate(collection.ids)}
    best = np.sort(scores)[::-1][:want].tolist()
    for i, (doc_id, score) in enumerate(ranked):
        true = float(scores[index[doc_id]])
        if abs(score - true) > tol * max(1.0, abs(true)):
            return f"rank {i + 1}: {doc_id} scored {score!r}, brute force {true!r}"
        if abs(score - best[i]) > tol * max(1.0, abs(true)):
            return f"rank {i + 1}: score {score!r}, but the {i + 1}-th best is {best[i]!r}"
        if i and score == ranked[i - 1][1] and doc_id < ranked[i - 1][0]:
            return f"rank {i + 1}: tie not broken by doc id"
    return None


def cooccur_rows(collection: Collection, dictionary: dict[str, list[str]],
                 query_terms: list[str], window: int) -> dict[str, list[tuple[str, float]]]:
    """The add-one co-occurrence model from its definition: score(c) = 1 +
    number of window pairs joining c with a candidate of another query term."""
    terms = list(dict.fromkeys(query_terms))
    rows = {}
    for term in terms:
        candidates = dictionary.get(term)
        if not candidates:
            continue
        partners = [c for other in terms if other != term for c in dictionary.get(other, ())]
        scores = [1.0 + sum(collection.window_count(c, p, window) for p in partners)
                  for c in candidates]
        rows[term] = [(c, s / sum(scores)) for c, s in zip(candidates, scores)]
    return rows


def row_problems(table: dict[str, list[list]]) -> list[str]:
    """Rows that are not a distribution within 1e-9."""
    bad = []
    for term, row in table.items():
        total = math.fsum(p for _, p in row)
        if abs(total - 1.0) > 1e-9 or any(p < 0.0 for _, p in row):
            bad.append(f"{term}: sums to {total!r}")
    return bad


def argmax_accuracy(tables: list[dict[str, list[list]]], truth: dict[str, str]) -> float:
    """Share of model rows whose most probable candidate (ties to the
    larger term, as ``TranslationModel.argmax``) is the true translation."""
    hits = total = 0
    for table in tables:
        for term, row in table.items():
            choice = max(row, key=lambda cp: (cp[1], cp[0]))[0]
            hits += choice == truth[term]
            total += 1
    return hits / total if total else 0.0

