"""Inverted index and KL-divergence retrieval.

Document language models use Dirichlet prior smoothing,

    p(w|d) = (tf(w,d) + mu * p(w|C)) / (|d| + mu),

and a query model q ranks documents by the cross-entropy score

    score(d) = sum_w q(w) * log p(w|d),

which is rank-equivalent to negative KL divergence between the query
model and the document model. Scoring is done over postings: the per
document constant -log(|d| + mu) plus a sparse bonus for matched terms,

    score(d) = sum_w q(w) log(mu p(w|C)) - log(|d| + mu)
               + sum_{w: tf>0} q(w) log(1 + tf / (mu p(w|C))).

Query terms absent from the whole collection carry no usable probability
and are skipped, which shifts every document identically.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from clirkit.corpus import Document, DuplicateDocIdError

RankedList = list[tuple[str, float]]


@dataclass
class QueryModel:
    """Probability distribution over terms; normalized on construction.

    Non-positive weights are dropped; an all-zero or empty input is an
    error.
    """

    weights: dict[str, float]

    def __post_init__(self):
        cleaned = {t: float(w) for t, w in self.weights.items() if w > 0.0}
        total = sum(cleaned.values())
        if not cleaned or total <= 0.0:
            raise ValueError("query model has no positive-weight terms")
        self.weights = {t: w / total for t, w in cleaned.items()}

    @classmethod
    def from_terms(cls, terms: Iterable[str]) -> "QueryModel":
        """Maximum-likelihood model of a term sequence."""
        counts = Counter(terms)
        if not counts:
            raise ValueError("empty query")
        return cls(dict(counts))


@dataclass
class InvertedIndex:
    postings: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    doc_lengths: dict[str, int] = field(default_factory=dict)
    collection_freq: dict[str, int] = field(default_factory=dict)
    total_tokens: int = 0

    @classmethod
    def from_documents(cls, docs: Iterable[Document]) -> "InvertedIndex":
        """Build the index; deterministic for a given input order."""
        index = cls()
        for doc in docs:
            if doc.doc_id in index.doc_lengths:
                raise DuplicateDocIdError(doc.doc_id)
            index.doc_lengths[doc.doc_id] = doc.length
            index.total_tokens += doc.length
            for term, tf in Counter(doc.tokens).items():
                index.postings.setdefault(term, []).append((doc.doc_id, tf))
                index.collection_freq[term] = index.collection_freq.get(term, 0) + tf
        return index

    def collection_prob(self, term: str) -> float:
        """p(term|C); 0 for terms absent from the collection."""
        if self.total_tokens == 0:
            return 0.0
        return self.collection_freq.get(term, 0) / self.total_tokens


def retrieve(query: QueryModel, index: InvertedIndex, mu: float = 1000.0,
             k: int = 10) -> RankedList:
    """Top-k documents by smoothed cross-entropy score.

    Ties are broken deterministically: score descending, then doc_id
    ascending. Documents containing no query term still rank via the
    length-dependent prior term.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if mu <= 0:
        raise ValueError("mu must be positive")
    active = {t: w for t, w in query.weights.items()
              if index.collection_freq.get(t, 0) > 0}
    if not active:
        raise ValueError("no query term occurs in the collection")
    base = sum(w * math.log(mu * index.collection_prob(t))
               for t, w in active.items())
    qmass = sum(active.values())
    scores = {doc_id: base - qmass * math.log(length + mu)
              for doc_id, length in index.doc_lengths.items()}
    for term, weight in active.items():
        bonus_denom = mu * index.collection_prob(term)
        for doc_id, tf in index.postings[term]:
            scores[doc_id] += weight * math.log1p(tf / bonus_denom)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]
