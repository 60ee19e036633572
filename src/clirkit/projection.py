"""Linear map between the source and target embedding spaces.

Given translation pairs (w_s, w_t) whose vectors u, v live in two
independently trained n-dimensional spaces, learn W (n x n) minimizing

    f(W) = sum_pairs 1/2 ||W^T u - v||^2

by per-pair stochastic gradient descent,

    W <- W - eta * u (W^T u - v)^T,

with the learning rate multiplied by ``decay`` after every epoch.
Projection of a source vector is then u_hat = W^T u.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from clirkit.checks import check_field_types
from clirkit.corpus import BilingualDictionary
from clirkit.embeddings import EmbeddingTable


class NoTranslationPairsError(ValueError):
    """No usable (source, candidate) pairs; ``reason`` separates an empty
    dictionary from vocabularies that simply do not overlap with it."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass
class TranslationPairSet:
    pairs: list[tuple[str, str]]
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class ProjectionConfig:
    eta: float = 0.05
    epochs: int = 100
    decay: float = 0.98
    init_range: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs!r}")
        if not self.decay > 0.0:
            raise ValueError(f"decay must be positive, got {self.decay!r}")
        if self.init_range < 0.0:
            raise ValueError(f"init_range must be >= 0, got {self.init_range!r}")


@dataclass
class ProjectionMatrix:
    w: np.ndarray
    n: int
    train_log: list[tuple[int, float, float]] = field(default_factory=list)

    def project(self, u: np.ndarray) -> np.ndarray:
        """u_hat = W^T u."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got {u.shape}")
        return self.w.T @ u


def extract_pairs(src_emb: EmbeddingTable, tgt_emb: EmbeddingTable,
                  dictionary: BilingualDictionary) -> TranslationPairSet:
    """All (w_s, w_t) with w_s in the source vocabulary and w_t a
    dictionary candidate present in the target vocabulary.

    One pair per surviving candidate, ordered by source term then
    candidate dictionary position. Duplicates are not collapsed; each is
    an independent training constraint.
    """
    if not dictionary.entries:
        raise NoTranslationPairsError("empty_dictionary", "the dictionary has no entries")
    pairs: list[tuple[str, str]] = []
    sources_seen = 0
    for w_s in sorted(dictionary.entries):
        if w_s not in src_emb:
            continue
        sources_seen += 1
        for w_t in dictionary.entries[w_s]:
            if w_t in tgt_emb:
                pairs.append((w_s, w_t))
    if not pairs:
        raise NoTranslationPairsError(
            "no_overlap",
            f"no pair survives: {len(dictionary.entries)} dictionary entries, "
            f"{sources_seen} with a source vector, none with a target-side vector")
    return TranslationPairSet(
        pairs=pairs,
        provenance={"entries_examined": len(dictionary.entries),
                    "entries_with_source_vector": sources_seen,
                    "pairs_kept": len(pairs)})


def _pair_matrices(pairs, src_emb: EmbeddingTable,
                   tgt_emb: EmbeddingTable) -> tuple[np.ndarray, np.ndarray]:
    plist = pairs.pairs if isinstance(pairs, TranslationPairSet) else list(pairs)
    u_rows = src_emb.vectors[[src_emb.index[s] for s, _ in plist]]
    v_rows = tgt_emb.vectors[[tgt_emb.index[t] for _, t in plist]]
    return u_rows, v_rows


def objective(w: np.ndarray, pairs, src_emb: EmbeddingTable,
              tgt_emb: EmbeddingTable) -> float:
    """sum over pairs of 1/2 ||W^T u - v||^2."""
    u_rows, v_rows = _pair_matrices(pairs, src_emb, tgt_emb)
    residual = u_rows @ w - v_rows
    return 0.5 * float(np.sum(residual * residual))


def objective_gradient(w: np.ndarray, pairs, src_emb: EmbeddingTable,
                       tgt_emb: EmbeddingTable) -> np.ndarray:
    """Full-batch gradient, sum over pairs of u (W^T u - v)^T."""
    u_rows, v_rows = _pair_matrices(pairs, src_emb, tgt_emb)
    return u_rows.T @ (u_rows @ w - v_rows)


def learn_projection(pairs, src_emb: EmbeddingTable, tgt_emb: EmbeddingTable,
                     cfg: ProjectionConfig, seed: int) -> ProjectionMatrix:
    """SGD over pair visits shuffled from ``seed``; logs the objective per epoch."""
    u_rows, v_rows = _pair_matrices(pairs, src_emb, tgt_emb)
    if u_rows.size == 0:
        raise ValueError("cannot learn a projection from zero pairs")
    if u_rows.shape[1] != v_rows.shape[1]:
        raise ValueError("source and target embedding dimensions differ")
    n = u_rows.shape[1]
    rng = np.random.default_rng(seed)
    w = rng.uniform(-cfg.init_range, cfg.init_range, size=(n, n))
    eta = cfg.eta
    order = np.arange(len(u_rows))
    w_t = w.T  # a view, so it follows the in-place updates of w
    u_cols = u_rows[:, :, None]
    train_log: list[tuple[int, float, float]] = []
    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        # divergence shows up as a non-finite objective, checked below
        with np.errstate(over="ignore", invalid="ignore"):
            for u, u_col, v in zip(u_rows[order], u_cols[order], v_rows[order]):
                residual = w_t @ u - v
                w -= eta * (u_col * residual)  # eta * outer(u, residual)
            resid = u_rows @ w - v_rows
            obj = 0.5 * float(np.sum(resid * resid))
        if not np.isfinite(obj):
            raise ValueError(
                f"projection training diverged at epoch {epoch} "
                f"(objective not finite); use a smaller eta than {cfg.eta}")
        train_log.append((epoch, obj, eta))
        eta *= cfg.decay
    return ProjectionMatrix(w=w, n=n, train_log=train_log)
