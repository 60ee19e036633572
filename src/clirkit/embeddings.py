"""Skip-gram negative-sampling embeddings trained from scratch.

Tuned for the tiny collections this toolkit trains on (tens of
documents), so the emphasis is reproducibility rather than throughput:
a single seeded generator drives initialization and sampling, pairs are
visited in corpus order, and there is no asynchronous weight sharing.

For each (center, context) pair within the window the trainer performs
one positive update and ``negatives`` negative updates of the logistic
objective. Pairs are processed in batches whose size is a deterministic
function of the vocabulary: gradients inside a batch are taken against
the parameters at the batch start and accumulated exactly, so results
are reproducible bit for bit given a seed. Pairs arrive center by
center, so a batch holds few distinct center words. Each batch sums its
pairs' logistic coefficients into a dense (distinct centers x
vocabulary) matrix, one row per center word and one column per target
word (context or negative; a target drawn twice sums twice), and both
updates are products with that matrix: the center rows move by
``coef @ ctx`` and the context matrix by ``coef.T @ emb[centers]``.
Negatives are drawn from the unigram distribution raised to 0.75. The
learning rate decays linearly from ``learning_rate`` to
``learning_rate / 100`` across epochs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from clirkit.checks import check_field_types
from clirkit.corpus import Document


@dataclass
class SgnsConfig:
    window: int = 10
    negatives: int = 45
    dim: int = 50
    epochs: int = 100
    learning_rate: float = 0.05
    min_count: int = 1

    def __post_init__(self):
        check_field_types(self)
        for key in ("dim", "window", "negatives", "epochs"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)!r}")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")


@dataclass
class EmbeddingTable:
    """A vocabulary and one (V x dim) matrix whose row i is the vector of
    ``vocab[i]``."""

    vocab: list[str]
    vectors: np.ndarray
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.index = {term: i for i, term in enumerate(self.vocab)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __contains__(self, term: str) -> bool:
        return term in self.index

    def get(self, term: str) -> np.ndarray | None:
        """The term's row, or None for a term outside the vocabulary."""
        i = self.index.get(term)
        return None if i is None else self.vectors[i]


def negative_distribution(counts: Sequence[int]) -> np.ndarray:
    """Unigram distribution raised to 0.75, renormalized."""
    weights = np.asarray(counts, dtype=float) ** 0.75
    return weights / weights.sum()


def negative_table(counts: Sequence[int], size: int = 1_000_000) -> np.ndarray:
    """Sampling table over word ids; uniform draws from it approximate the
    0.75-power unigram distribution to one part in ``size``."""
    cum = np.cumsum(negative_distribution(counts))
    cum[-1] = 1.0
    # Grid point (j + 0.5) / size goes to the first word whose cumulative
    # probability reaches it, so word i owns the points in (cum[i-1], cum[i]].
    grid = (np.arange(size) + 0.5) / size
    ends = np.searchsorted(grid, cum, side="right")
    return np.repeat(np.arange(len(cum), dtype=np.int32), np.diff(ends, prepend=0))


def build_vocab(docs: Sequence[Document], min_count: int) -> tuple[list[str], list[int]]:
    """Vocabulary ordered by count desc then term asc; parallel count list."""
    counts: Counter[str] = Counter()
    for doc in docs:
        counts.update(doc.tokens)
    kept = [(w, c) for w, c in counts.items() if c >= min_count]
    kept.sort(key=lambda wc: (-wc[1], wc[0]))
    return [w for w, _ in kept], [c for _, c in kept]


def train_sgns_model(docs: Sequence[Document], cfg: SgnsConfig,
                     seed: int) -> tuple[EmbeddingTable, np.ndarray]:
    """Train from ``seed``; return the input (center-word) vectors as a
    table and the context-vector matrix, whose rows follow the table's
    vocabulary."""
    vocab, counts = build_vocab(docs, cfg.min_count)
    if not vocab:
        raise ValueError("vocabulary empty after min_count filtering")
    word_index = {w: i for i, w in enumerate(vocab)}
    vsize = len(vocab)
    rng = np.random.default_rng(seed)

    emb = (rng.random((vsize, cfg.dim)) - 0.5) / cfg.dim
    ctx = np.zeros((vsize, cfg.dim))

    neg_table = negative_table(counts)
    sequences = [[word_index[t] for t in doc.tokens if t in word_index]
                 for doc in docs]
    centers, contexts = _enumerate_pairs(sequences, cfg.window)
    n_pairs = len(centers)
    if n_pairs:
        runs = _CenterRuns.build(centers, _batch_pairs(vsize, cfg.negatives), vsize)
        for epoch in range(cfg.epochs):
            frac = epoch / (cfg.epochs - 1) if cfg.epochs > 1 else 0.0
            lr = cfg.learning_rate * (1.0 - frac) + (cfg.learning_rate / 100.0) * frac
            negatives = neg_table[rng.integers(0, len(neg_table),
                                               size=(n_pairs, cfg.negatives))]
            _run_epoch(emb, ctx, centers, contexts, negatives, runs, lr)

    return EmbeddingTable(vocab=vocab, vectors=emb), ctx


def _enumerate_pairs(sequences: list[list[int]], window: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (center, context) id pair within ``window`` positions of each
    other, sequence by sequence, center position by center position, and
    context positions ascending."""
    centers: list[np.ndarray] = [np.empty(0, dtype=np.intp)]
    contexts: list[np.ndarray] = [np.empty(0, dtype=np.intp)]
    for seq in sequences:
        ids = np.asarray(seq, dtype=np.intp)
        n = len(ids)
        reach = min(window, n - 1)
        if reach < 1:
            continue
        offsets = np.concatenate((np.arange(-reach, 0), np.arange(1, reach + 1)))
        position = np.arange(n)[:, None] + offsets  # row i holds center i's contexts
        inside = (position >= 0) & (position < n)
        centers.append(np.repeat(ids, inside.sum(axis=1)))
        contexts.append(ids[position[inside]])
    return np.concatenate(centers), np.concatenate(contexts)


# Pairs per update batch, a deterministic function of the input (it
# regroups gradient sums, so it is part of the reproducibility contract).
# Bounding batch * (negatives + 1) / vocabulary keeps the summed per-row
# step close to sequential SGD even on near-degenerate vocabularies.
_MAX_BATCH_PAIRS = 64


def _batch_pairs(vsize: int, negatives: int) -> int:
    return max(1, min(_MAX_BATCH_PAIRS, (2 * vsize) // (negatives + 1)))


class _CenterRuns(NamedTuple):
    """Which rows of ``emb`` each batch of ``batch`` consecutive pairs
    updates.

    Batch i updates the distinct center rows ``rows[bounds[i]:bounds[i+1]]``
    (ascending within the batch), one row of the batch's coefficient
    matrix each; ``run_of_pair[p]`` is the position of pair p's center row
    among its batch's rows. It depends on the centers only, so a fixed pair
    list builds it once.
    """

    batch: int
    rows: np.ndarray
    run_of_pair: np.ndarray
    bounds: list[int]

    @classmethod
    def build(cls, centers: np.ndarray, batch: int, vsize: int) -> "_CenterRuns":
        batch_of = np.arange(len(centers)) // batch
        keys, run = np.unique(batch_of * vsize + centers, return_inverse=True)
        n_batches = -(-len(centers) // batch)
        bounds = np.searchsorted(keys, np.arange(n_batches + 1) * vsize)
        return cls(batch=batch, rows=keys % vsize,
                   run_of_pair=run - bounds[batch_of],
                   bounds=bounds.tolist())


def _run_epoch(emb: np.ndarray, ctx: np.ndarray, centers: np.ndarray,
               contexts: np.ndarray, negatives: np.ndarray, runs: _CenterRuns,
               lr: float) -> None:
    n_pairs = len(centers)
    vsize = ctx.shape[0]
    k = negatives.shape[1]
    batch = runs.batch
    ctx_t = ctx.T  # a view, so it follows the in-place updates of ctx
    # Each pair's (context, negatives) offsets into its batch's flattened
    # (center rows x vocabulary) coefficient matrix, for the whole epoch.
    flat_all = np.empty((n_pairs, k + 1), dtype=np.intp)
    flat_all[:, 0] = contexts
    flat_all[:, 1:] = negatives
    flat_all += runs.run_of_pair[:, None] * vsize
    flat_all = flat_all.reshape(-1)
    # Zero between batches: each batch adds its cells in and clears them after.
    coef_flat = np.zeros(batch * vsize)
    for i, start in enumerate(range(0, n_pairs, batch)):
        end = min(start + batch, n_pairs)
        rows = runs.rows[runs.bounds[i]:runs.bounds[i + 1]]
        u = emb[rows]
        flat = flat_all[start * (k + 1):end * (k + 1)]
        scores = (u @ ctx_t).ravel()[flat]
        # (sigmoid(score) - label) * lr, with the sigmoid written without
        # overflow: 1 / (1 + e^-s) for s >= 0, else e^s / (1 + e^s); the
        # label is 1 for each pair's first target (its context word), else 0
        ex = np.exp(-np.abs(scores))
        g = np.where(scores >= 0.0, 1.0, ex)
        g /= ex + 1.0
        g[::k + 1] -= 1.0
        g *= lr
        # Sum every pair's coefficients into its center row, so the
        # products below run over the batch's distinct rows, not its pairs.
        np.add.at(coef_flat, flat, g)
        coef = coef_flat[:len(rows) * vsize].reshape(len(rows), vsize)
        grad_u = coef @ ctx
        ctx -= coef.T @ u
        coef_flat[flat] = 0.0
        emb[rows] -= grad_u  # rows are distinct, so no update is lost


def train_sgns(docs: Sequence[Document], cfg: SgnsConfig, seed: int) -> EmbeddingTable:
    """Train from ``seed`` and return the input (center-word) vectors."""
    return train_sgns_model(docs, cfg, seed)[0]
