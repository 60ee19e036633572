"""Mixture-model pseudo-relevance feedback.

The feedback model theta_F is fit by EM to maximize

    sum_w c(w;F) * log((1-noise) * theta_F(w) + noise * p(w|C))

where c(w;F) counts term w in the feedback documents and p(w|C) is the
collection model. E-step: t(w) = (1-noise)*theta(w) / ((1-noise)*theta(w)
+ noise*p(w|C)); M-step: theta(w) proportional to c(w;F)*t(w). Iteration
starts from the maximum-likelihood model of the concatenated feedback
documents, the log-likelihood never decreases, and exactly ``em_iters``
iterations run: there is no convergence test.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from clirkit.checks import check_field_types
from clirkit.corpus import Document
from clirkit.retrieval import InvertedIndex, QueryModel


@dataclass
class FeedbackConfig:
    num_docs: int = 10
    num_terms: int = 50
    interp_coeff: float = 0.5
    noise: float = 0.5
    em_iters: int = 30

    def __post_init__(self):
        check_field_types(self)
        if self.num_docs < 1:
            raise ValueError(f"num_docs must be >= 1, got {self.num_docs!r}")
        if self.num_terms < 1:
            raise ValueError(f"num_terms must be >= 1, got {self.num_terms!r}")
        if self.em_iters < 1:
            raise ValueError(f"em_iters must be >= 1, got {self.em_iters!r}")
        if not 0.0 < self.noise < 1.0:
            raise ValueError(f"noise must lie in (0, 1), got {self.noise!r}")
        if not 0.0 <= self.interp_coeff <= 1.0:
            raise ValueError(f"interp_coeff must lie in [0, 1], got {self.interp_coeff!r}")


def em_feedback(counts: dict[str, int], background: dict[str, float],
                noise: float, iters: int) -> tuple[dict[str, float], list[float]]:
    """Run ``iters`` EM iterations, fewer only if the feedback component
    loses all its mass; returns (theta, per-iteration log-likelihoods)."""
    total = sum(counts.values())
    theta = {w: c / total for w, c in counts.items()}
    history: list[float] = []
    for _ in range(iters):
        # E-step: responsibility of the feedback component for each term
        resp = {}
        for w, th in theta.items():
            mix = (1.0 - noise) * th
            resp[w] = mix / (mix + noise * background.get(w, 0.0)) if mix > 0 else 0.0
        # M-step
        mass = sum(counts[w] * resp[w] for w in theta)
        if mass <= 0.0:
            break
        theta = {w: counts[w] * resp[w] / mass for w in theta}
        ll = sum(c * math.log(mixture) for w, c in counts.items()
                 if (mixture := (1.0 - noise) * theta[w] + noise * background.get(w, 0.0)) > 0.0)
        history.append(ll)
    return theta, history


def estimate_feedback_model(feedback_docs: Sequence[Document],
                            index: InvertedIndex,
                            cfg: FeedbackConfig) -> QueryModel:
    """Fit theta_F on the feedback documents, keep its top terms.

    The returned model is the top ``cfg.num_terms`` terms of theta_F,
    renormalized; ties break by term so runs are reproducible.
    """
    if not feedback_docs:
        raise ValueError("no feedback documents")
    counts: Counter[str] = Counter()
    for doc in feedback_docs:
        counts.update(doc.tokens)
    if not counts:
        raise ValueError("all feedback documents are empty")
    background = {w: index.collection_prob(w) for w in counts}
    theta, _ = em_feedback(dict(counts), background, cfg.noise, cfg.em_iters)
    kept = sorted(theta.items(), key=lambda kv: (-kv[1], kv[0]))[: cfg.num_terms]
    return QueryModel(dict(kept))


def interpolate_query(original: QueryModel, feedback: QueryModel,
                      coeff: float) -> QueryModel:
    """(1-coeff) * original + coeff * feedback, renormalized."""
    if not 0.0 <= coeff <= 1.0:
        raise ValueError("interpolation coefficient must lie in [0, 1]")
    if coeff == 0.0:
        return QueryModel(dict(original.weights))
    if coeff == 1.0:
        return QueryModel(dict(feedback.weights))
    combined: dict[str, float] = {}
    for term, w in original.weights.items():
        combined[term] = (1.0 - coeff) * w
    for term, w in feedback.weights.items():
        combined[term] = combined.get(term, 0.0) + coeff * w
    return QueryModel(combined)

