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

The index also counts windowed co-occurrence over the collection's token
stream (``InvertedIndex.window_pair_counts``) for the co-occurrence
translation model.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

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
    """Array layout of one collection; build it with ``from_documents``.

    The index is the only in-memory copy of the collection: ``document``
    rebuilds any indexed document from it. Documents are numbered in
    input order: document i is ``doc_ids[i]`` (``doc_number`` maps back),
    has ``length_values[length_index[i]]`` tokens and ranks
    ``doc_rank[i]``-th by doc id; the length prior is computed once per
    distinct length. Terms are numbered in sorted order (``terms``,
    ``term_ids``), so comparing two term ids compares the terms. Term t's
    postings are the slice ``post_offsets[t]:post_offsets[t + 1]`` of
    ``post_docs`` (document numbers, ascending) and ``post_tfs``. The
    collection itself is the term-id stream ``tokens``; document i is
    ``tokens[doc_starts[i]:doc_starts[i + 1]]``.
    """

    doc_ids: list[str]
    doc_number: dict[str, int]
    doc_rank: np.ndarray
    length_values: np.ndarray
    length_index: np.ndarray
    terms: list[str]
    term_ids: dict[str, int]
    post_offsets: np.ndarray
    post_docs: np.ndarray
    post_tfs: np.ndarray
    tokens: np.ndarray
    doc_starts: np.ndarray
    collection_freq: dict[str, int]
    total_tokens: int

    @classmethod
    def from_documents(cls, docs: Iterable[Document]) -> "InvertedIndex":
        """Build the index in one pass over ``docs``, which may be lazy.

        Each term gets an id when first seen and its tokens go into an int
        array as the documents stream by, so no list of the collection's
        documents or token strings is held; at the end the ids are remapped
        once to sorted term order. Deterministic for a given input order.
        """
        doc_ids: list[str] = []
        doc_number: dict[str, int] = {}
        lengths: list[int] = []
        first_seen: defaultdict[str, int] = defaultdict()
        first_seen.default_factory = first_seen.__len__
        stream = array("i")
        for doc in docs:
            if doc.doc_id in doc_number:
                raise DuplicateDocIdError(doc.doc_id)
            doc_number[doc.doc_id] = len(doc_ids)
            doc_ids.append(doc.doc_id)
            lengths.append(doc.length)
            stream.fromlist(list(map(first_seen.__getitem__, doc.tokens)))
        n = len(doc_ids)
        terms = sorted(first_seen)
        term_ids = {t: i for i, t in enumerate(terms)}
        # first-seen id -> sorted id; ``first_seen`` iterates in id order
        remap = np.fromiter(map(term_ids.__getitem__, first_seen), dtype=np.int32,
                            count=len(terms))
        tokens = remap[np.frombuffer(stream, dtype=np.intc)]
        length_arr = np.array(lengths, dtype=np.int64)
        doc_starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(length_arr, out=doc_starts[1:])
        # One (term, document) key per token; sorted, its runs are the postings.
        width = max(n, 1)
        doc_of_token = np.repeat(np.arange(n, dtype=np.int64), length_arr)
        keys, tfs = np.unique(tokens.astype(np.int64) * width + doc_of_token,
                              return_counts=True)
        post_offsets = np.searchsorted(keys // width, np.arange(len(terms) + 1))
        doc_rank = np.empty(n, dtype=np.int64)
        doc_rank[sorted(range(n), key=doc_ids.__getitem__)] = np.arange(n)
        length_values, length_index = np.unique(length_arr, return_inverse=True)
        cf = np.bincount(tokens, minlength=len(terms))
        return cls(doc_ids=doc_ids, doc_number=doc_number, doc_rank=doc_rank,
                   length_values=length_values, length_index=length_index,
                   terms=terms, term_ids=term_ids, post_offsets=post_offsets,
                   post_docs=keys % width, post_tfs=tfs, tokens=tokens,
                   doc_starts=doc_starts,
                   collection_freq=dict(zip(terms, cf.tolist())),
                   total_tokens=len(tokens))

    def document(self, doc_id: str) -> Document:
        """The indexed document ``doc_id``, token for token."""
        i = self.doc_number[doc_id]
        ids = self.tokens[self.doc_starts[i]:self.doc_starts[i + 1]].tolist()
        return Document(doc_id, tuple(map(self.terms.__getitem__, ids)))

    def collection_prob(self, term: str) -> float:
        """p(term|C); 0 for terms absent from the collection."""
        if self.total_tokens == 0:
            return 0.0
        return self.collection_freq.get(term, 0) / self.total_tokens

    def window_pair_counts(self, needed: set[str],
                           window: int) -> dict[tuple[str, str], int]:
        """Position pairs at most ``window`` tokens apart in one document
        where both terms are in ``needed``, keyed by the sorted term pair."""
        num_terms = len(self.terms)
        mask = np.zeros(num_terms, dtype=bool)
        mask[[self.term_ids[t] for t in needed if t in self.term_ids]] = True
        pos = np.flatnonzero(np.take(mask, self.tokens))
        term = np.take(self.tokens, pos).astype(np.int64)
        # each needed position's document end, from the positions before each end
        ends = self.doc_starts[1:]
        doc_end = np.repeat(ends, np.diff(np.searchsorted(pos, ends), prepend=0))
        keys = []
        for m in range(1, window + 1):
            # a position and the m-th needed position after it: at most
            # ``window`` tokens on, so m <= window covers every pair once
            later = pos[m:]
            near = (later - pos[:-m] <= window) & (later < doc_end[:-m])
            a, b = term[:-m][near], term[m:][near]
            # term ids follow term order, so (min, max) of ids is the sorted pair
            keys.append(np.minimum(a, b) * num_terms + np.maximum(a, b))
        pairs, counts = np.unique(np.concatenate(keys), return_counts=True)
        return {(self.terms[key // num_terms], self.terms[key % num_terms]): count
                for key, count in zip(pairs.tolist(), counts.tolist())}


def retrieve(query: QueryModel, index: InvertedIndex, mu: float = 1000.0,
             k: int = 10) -> RankedList:
    """Top-k documents by smoothed cross-entropy score.

    Ties are broken deterministically: score descending, then doc_id
    ascending. Documents containing no query term still rank via the
    length-dependent prior term.

    Every logarithm is taken with ``math`` (once per distinct document
    length, and once per distinct tf of each term), and each document's
    terms are added in query order, so scores are the same floats as a
    per-document loop gives.
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
    prior = [base - qmass * math.log(length + mu)
             for length in index.length_values.tolist()]
    scores = np.array(prior, dtype=np.float64)[index.length_index]
    for term, weight in active.items():
        bonus_denom = mu * index.collection_prob(term)
        t = index.term_ids[term]
        lo, hi = index.post_offsets[t], index.post_offsets[t + 1]
        tfs = index.post_tfs[lo:hi]
        distinct = np.flatnonzero(np.bincount(tfs))
        bonus = np.zeros(distinct[-1] + 1)
        bonus[distinct] = [weight * math.log1p(tf / bonus_denom) for tf in distinct.tolist()]
        scores[index.post_docs[lo:hi]] += bonus[tfs]
    n = len(scores)
    if k < n:
        # every document tied with the k-th best score competes for the last places
        kth = scores[np.argpartition(scores, n - k)[n - k]]
        top = np.flatnonzero(scores >= kth)
    else:
        top = np.arange(n)
    top = top[np.lexsort((index.doc_rank[top], -scores[top]))][:k]
    return list(zip([index.doc_ids[i] for i in top.tolist()], scores[top].tolist()))
