"""Spans around calls into clirkit's layers, recorded from outside the library.

``Tracer.install`` replaces each traced function with a wrapper under the
name its caller resolves (``clirkit.pipeline.retrieve``,
``clirkit.pipeline.train_sgns``, ...). A wrapper records one span (name,
start, end, parent span) and, after the span has ended, the counts and
outputs the benchmark's checks need. Everything stays in memory until
``dump`` writes it as JSON; the benchmark's main process turns it into
per-layer metrics (see ``run.py``).
"""

from __future__ import annotations

import json
import time
from collections import Counter


def window_pairs(lengths: list[int], window: int) -> int:
    """(center, context) pairs within ``window`` positions, summed over
    sequences of the given lengths: 2 * sum_{d=1..window} (n - d)."""
    total = 0
    for n in lengths:
        reach = min(window, n - 1)
        total += 2 * (reach * n - reach * (reach + 1) // 2) if reach > 0 else 0
    return total


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _table(model) -> dict:
    return {term: [[cand, prob] for cand, prob in row] for term, row in model.table.items()}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.topic = -1
        self.num_topics = 0
        self.sides: dict[int, str] = {}

    def _wrap(self, owner, attr: str, name: str, record=None, before=None) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if before is not None:
                before()
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "topic": self.topic}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if record is not None:
                record(span, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        import clirkit.pipeline as pipeline
        import clirkit.prf as prf

        for attr in ("load_documents", "parse_dictionary", "parse_topics", "parse_qrels"):
            self._wrap(pipeline, attr, "corpus.load")
        self._wrap(pipeline.InvertedIndex, "from_documents", "retrieval.index")
        self._wrap(pipeline, "retrieve", "retrieval.retrieve", self._record_retrieve)
        self._wrap(pipeline, "estimate_feedback_model", "prf.feedback")
        self._wrap(prf, "em_feedback", "prf.em",
                   lambda span, a, k, result: span.update(iters=len(result[1])))
        self._wrap(pipeline, "train_sgns", "embeddings.train", self._record_sgns)
        self._wrap(pipeline, "learn_projection", "projection.fit", self._record_projection)
        # ``mixed_model`` is wrapped only so that a workload can check it is bypassed.
        for attr in ("projected_model", "mixed_model", "cooccur_model", "uniform_model",
                     "interpolate_models"):
            self._wrap(pipeline, attr, f"translation.{attr}", self._record_model)
        self._wrap(pipeline, "run_topic", "pipeline.topic", before=self._next_topic)
        self._wrap(pipeline, "run_experiment", "pipeline.experiment")

    def _next_topic(self) -> None:
        self.topic += 1

    def register(self, ctx) -> None:
        """Name the context's two indexes, so retrieve calls know their side."""
        self.sides = {id(ctx.src_index): "source", id(ctx.tgt_index): "target"}
        self.num_topics = len(ctx.topics)

    def _record_retrieve(self, span, args, kwargs, result) -> None:
        query = _arg(args, kwargs, 0, "query")
        span["side"] = self.sides[id(_arg(args, kwargs, 1, "index"))]
        span["terms"] = sorted(query.weights)
        # The brute-force scorer checks the calls of the first and last topic.
        if self.topic in (0, self.num_topics - 1):
            span["check"] = {"weights": query.weights,
                             "mu": _arg(args, kwargs, 2, "mu"),
                             "k": _arg(args, kwargs, 3, "k"),
                             "ranked": [[d, s] for d, s in result]}

    def _record_sgns(self, span, args, kwargs, result) -> None:
        docs, cfg = _arg(args, kwargs, 0, "docs"), _arg(args, kwargs, 1, "cfg")
        counts = Counter(t for doc in docs for t in doc.tokens)
        lengths = [sum(1 for t in doc.tokens if counts[t] >= cfg.min_count) for doc in docs]
        span["vocab"] = len(result.vectors)
        span["pairs"] = window_pairs(lengths, cfg.window) * cfg.epochs

    def _record_projection(self, span, args, kwargs, result) -> None:
        pairs, cfg = _arg(args, kwargs, 0, "pairs"), _arg(args, kwargs, 3, "cfg")
        span["pairs"] = len(pairs)
        span["updates"] = len(pairs) * cfg.epochs

    def _record_model(self, span, args, kwargs, result) -> None:
        span["table"] = _table(result)
        if span["name"] == "translation.cooccur_model":
            span["query_terms"] = list(_arg(args, kwargs, 0, "query_terms"))
            span["window"] = _arg(args, kwargs, 3, "window")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)
