"""Term-translation probability models and query-model translation.

Every constructor returns a TranslationModel whose rows are proper
distributions over dictionary candidates, built by one shared loop over
the distinct query terms that owns the fallback policy below. The
embedding-based models share one scorer: the softmax over the cosines
between a query vector and each candidate's target vector. For
``projected_model`` the query vector is the projected source vector
W^T u; for ``mixed_model`` it is the term's own row in the shared
space, which is the same model at W = I. The other constructors use
dictionary order, uniform mass, or windowed co-occurrence evidence.

Fallback: a query term without any dictionary entry is dropped and
listed in ``dropped_terms``; a term whose vectors are unusable gets a
uniform row over its dictionary candidates and is listed in
``fallback_terms``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from clirkit.corpus import BilingualDictionary, Document
from clirkit.embeddings import EmbeddingTable, SgnsConfig, train_sgns
from clirkit.projection import ProjectionMatrix
from clirkit.retrieval import InvertedIndex, QueryModel

Row = list[tuple[str, float]]


@dataclass
class TranslationModel:
    """Per source term, a distribution over candidate translations."""

    table: dict[str, Row] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=lambda: {"fallback_terms": [], "dropped_terms": []})

    def argmax(self, term: str) -> str | None:
        row = self.table.get(term)
        if not row:
            return None
        return max(row, key=lambda cp: (cp[1], cp[0]))[0]


def softmax_scores(scores: Sequence[float]) -> list[float]:
    """Softmax with max-shift; invariant to adding a constant."""
    if not len(scores):
        return []
    top = max(scores)
    exps = [math.exp(s - top) for s in scores]
    total = sum(exps)
    return [e / total for e in exps]


def _uniform_row(candidates: Sequence[str]) -> Row:
    p = 1.0 / len(candidates)
    return [(c, p) for c in candidates]


def _build_model(query_terms: Iterable[str], dictionary: BilingualDictionary,
                 row_for: Callable[[str, tuple[str, ...]], Row | None]) -> TranslationModel:
    """One row per distinct query term, in first-occurrence order.

    A term without a dictionary entry is dropped. ``row_for(term,
    candidates)`` returns the term's row, or None when the term's vectors
    are unusable; the term then gets the uniform row over its candidates.
    """
    model = TranslationModel()
    for term in dict.fromkeys(query_terms):
        candidates = dictionary.entries.get(term)
        if not candidates:
            model.diagnostics["dropped_terms"].append(term)
            continue
        row = row_for(term, candidates)
        if row is None:
            model.diagnostics["fallback_terms"].append(term)
            row = _uniform_row(candidates)
        model.table[term] = row
    return model


def _cosine_softmax_model(query_terms: Sequence[str],
                          query_vector: Callable[[str], np.ndarray | None],
                          tgt_emb: EmbeddingTable,
                          dictionary: BilingualDictionary) -> TranslationModel:
    """Softmax over cosine(query_vector(term), v_candidate) per query term."""
    def row_for(term: str, candidates: tuple[str, ...]) -> Row | None:
        u = query_vector(term)
        if u is None:
            return None
        norm_u = float(np.linalg.norm(u))
        if norm_u == 0.0:
            return None
        scored: list[tuple[str, float]] = []
        for cand in candidates:
            v = tgt_emb.get(cand)
            if v is None:
                continue
            norm_v = float(np.linalg.norm(v))
            if norm_v == 0.0:
                continue
            cos = float(np.dot(u, v)) / (norm_u * norm_v)
            scored.append((cand, max(-1.0, min(1.0, cos))))
        if not scored:
            return None
        probs = softmax_scores([s for _, s in scored])
        return [(c, p) for (c, _), p in zip(scored, probs)]

    return _build_model(query_terms, dictionary, row_for)


def projected_model(query_terms: Sequence[str], w: ProjectionMatrix,
                    src_emb: EmbeddingTable, tgt_emb: EmbeddingTable,
                    dictionary: BilingualDictionary) -> TranslationModel:
    """Softmax over cosine(W^T u, v_candidate) per query term.

    Candidates without a (non-zero) target vector are excluded from the
    softmax; terms with no usable vectors at all take the uniform row.
    """
    def projected(term: str) -> np.ndarray | None:
        u = src_emb.get(term)
        return None if u is None else w.project(u)

    return _cosine_softmax_model(query_terms, projected, tgt_emb, dictionary)


def uniform_model(query_terms: Sequence[str],
                  dictionary: BilingualDictionary) -> TranslationModel:
    """Equal weight on every dictionary candidate."""
    return _build_model(query_terms, dictionary, lambda term, cands: _uniform_row(cands))


def top1_model(query_terms: Sequence[str],
               dictionary: BilingualDictionary) -> TranslationModel:
    """All mass on the first dictionary candidate."""
    return _build_model(query_terms, dictionary, lambda term, cands: [(cands[0], 1.0)])


def cooccur_model(query_terms: Sequence[str], dictionary: BilingualDictionary,
                  index: InvertedIndex, window: int = 4) -> TranslationModel:
    """Add-one windowed co-occurrence with the other query terms' candidates.

    score(c) = 1 + sum over candidates c' of the other query terms of the
    number of position pairs within ``window`` tokens of each other (same
    document) where c and c' occur, counted in the target collection's
    ``index``. Scores are normalized per source term.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    cand_lists = {t: dictionary.entries.get(t, ()) for t in dict.fromkeys(query_terms)}
    needed = {c for cands in cand_lists.values() for c in cands}
    counts = index.window_pair_counts(needed, window)

    def row_for(term: str, candidates: tuple[str, ...]) -> Row:
        partner_cands = [c for other, cands in cand_lists.items()
                         if other != term for c in cands]
        scores = []
        for cand in candidates:
            hits = sum(counts.get((min(cand, pc), max(cand, pc)), 0)
                       for pc in partner_cands)
            scores.append(1.0 + hits)
        total = sum(scores)
        return [(c, s / total) for c, s in zip(candidates, scores)]

    return _build_model(query_terms, dictionary, row_for)


def mixed_model(query_terms: Sequence[str], f_s: Sequence[Document],
                f_t: Sequence[Document], dictionary: BilingualDictionary,
                cfg: SgnsConfig, seed: int) -> TranslationModel:
    """Shared-space model from shuffled rank-paired document merges.

    The i-th ranked source document is merged with the i-th ranked target
    document (extra documents on the longer side are ignored), each merge
    is shuffled, and one embedding space is trained on the merged
    collection, both from ``seed``. Translation probabilities are the
    softmax over direct cosines in that space: ``projected_model`` with
    W = I and the shared table on both sides.
    """
    if not f_s or not f_t:
        raise ValueError("both document lists must be non-empty")
    merged = merge_shuffle(f_s, f_t, seed)
    table = train_sgns(merged, cfg, seed)
    return _cosine_softmax_model(query_terms, table.get, table, dictionary)


def merge_shuffle(f_s: Sequence[Document], f_t: Sequence[Document],
                  seed: int) -> list[Document]:
    """Rank-pair and shuffle document merges into pseudo-bilingual docs."""
    rng = np.random.default_rng(seed)
    merged: list[Document] = []
    for i, (ds, dt) in enumerate(zip(f_s, f_t)):
        tokens = list(ds.tokens) + list(dt.tokens)
        perm = rng.permutation(len(tokens))
        merged.append(Document(f"merged-{i}", tuple(tokens[p] for p in perm)))
    return merged


def interpolate_models(p1: TranslationModel, p2: TranslationModel,
                       alpha: float) -> TranslationModel:
    """alpha * p1 + (1 - alpha) * p2 over the union of candidates.

    Exact at the endpoints: alpha 1 returns a copy of p1's table, alpha 0
    a copy of p2's. Otherwise missing candidates count as 0 and each row is
    renormalized exactly.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if alpha == 1.0:
        return TranslationModel(table={s: list(row) for s, row in p1.table.items()})
    if alpha == 0.0:
        return TranslationModel(table={s: list(row) for s, row in p2.table.items()})
    model = TranslationModel()
    sources = list(p1.table)
    sources.extend(s for s in p2.table if s not in p1.table)
    for source in sources:
        row1 = dict(p1.table.get(source, ()))
        row2 = dict(p2.table.get(source, ()))
        cands = list(row1)
        cands.extend(c for c in row2 if c not in row1)
        weights = {c: alpha * row1.get(c, 0.0) + (1.0 - alpha) * row2.get(c, 0.0)
                   for c in cands}
        total = sum(weights.values())
        model.table[source] = [(c, weights[c] / total) for c in cands]
    return model


def translate_query_model(src_query: QueryModel,
                          tm: TranslationModel) -> QueryModel:
    """q_t(w_t) = sum over source terms of p(w_t|w_s) * q_s(w_s).

    Source terms without a model row are dropped; their mass is
    redistributed by the final normalization.
    """
    out: dict[str, float] = {}
    translated_any = False
    for w_s, q_w in src_query.weights.items():
        row = tm.table.get(w_s)
        if not row:
            continue
        translated_any = True
        for w_t, p in row:
            out[w_t] = out.get(w_t, 0.0) + p * q_w
    if not translated_any:
        raise ValueError("every source query term was dropped by the translation model")
    return QueryModel(out)
