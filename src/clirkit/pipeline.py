"""End-to-end cross-language retrieval pipeline and experiment drivers.

``run_topic`` wires the per-topic procedure: retrieve pseudo-relevant
documents in both languages (the target side via the uniform initial
translation), train per-language embeddings, learn the projection from
the translation pairs present in both vocabularies, build and optionally
interpolate the translation model, translate the query model, apply
mixture feedback in the target collection, and retrieve to depth.

``run_experiment`` writes a run directory: one run file plus diagnostics
and a manifest of config, content hashes and numpy version. ``sweep``
writes one for every cell of an (alpha, n) grid, reusing each row's
alpha-independent models, so alpha-1 cells of a row with a smaller alpha
also list the ``partner_model`` stage.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from clirkit.checks import check_field_types
from clirkit.corpus import (
    BilingualDictionary,
    NormalizationPipeline,
    Topic,
    check_stemmer,
    load_documents,
    load_stopwords,
    parse_dictionary,
    parse_qrels,
    parse_topics,
)
from clirkit.embeddings import SgnsConfig, train_sgns
from clirkit.evaluation import RunFile, evaluate_run, write_run
from clirkit.prf import FeedbackConfig, estimate_feedback_model, interpolate_query
from clirkit.projection import (
    NoTranslationPairsError,
    ProjectionConfig,
    extract_pairs,
    learn_projection,
)
from clirkit.retrieval import InvertedIndex, QueryModel, RankedList, retrieve
from clirkit.translation import (
    TranslationModel,
    cooccur_model,
    interpolate_models,
    mixed_model,
    projected_model,
    top1_model,
    translate_query_model,
    uniform_model,
)

METHODS = ("proj", "mixed", "uniform", "top1", "cooccur")


class PipelineStageError(RuntimeError):
    def __init__(self, stage: str, topic_id: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed for topic {topic_id!r}: {cause}")
        self.stage = stage
        self.topic_id = topic_id


@dataclass
class NormalizationSpec:
    lowercase: bool = True
    stopwords: str | None = None
    stemmer: str = "none"

    def __post_init__(self):
        check_field_types(self)
        check_stemmer(self.stemmer)

    def build(self) -> NormalizationPipeline:
        stop = load_stopwords(self.stopwords) if self.stopwords else frozenset()
        return NormalizationPipeline(lowercase=self.lowercase, stopwords=stop,
                                     stemmer=self.stemmer)


def _known_keys(cls, raw: dict, where: str) -> dict:
    """A copy of ``raw``; a key that is not a field of ``cls`` is an error."""
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    return dict(raw)


_SUBCONFIGS = (("source_normalization", NormalizationSpec),
               ("target_normalization", NormalizationSpec),
               ("feedback", FeedbackConfig),
               ("sgns", SgnsConfig),
               ("projection", ProjectionConfig))


@dataclass
class PipelineConfig:
    source_docs: str = ""
    target_docs: str = ""
    dictionary: str = ""
    topics: str = ""
    qrels: str | None = None
    source_normalization: NormalizationSpec = field(default_factory=NormalizationSpec)
    target_normalization: NormalizationSpec = field(default_factory=NormalizationSpec)
    mu: float = 1000.0
    depth: int = 1000
    method: str = "proj"
    alpha: float = 0.6
    cooccur_window: int = 4
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    sgns: SgnsConfig = field(default_factory=SgnsConfig)
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    verbose_queries: bool = False
    seed: int = 0
    tag: str = "clirkit"

    def __post_init__(self):
        for key, sub in _SUBCONFIGS:
            if not isinstance(getattr(self, key), sub):
                raise ValueError(f"{key} must be an object of {sub.__name__} fields, "
                                 f"got {getattr(self, key)!r}")
        check_field_types(self)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu!r}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth!r}")
        if self.cooccur_window < 1:
            raise ValueError(f"cooccur_window must be >= 1, got {self.cooccur_window!r}")
        # the tag names the run file and is its last column
        if self.tag.split() != [self.tag] or "/" in self.tag:
            raise ValueError(f"tag {self.tag!r} is empty or contains whitespace or '/'")

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        kwargs = _known_keys(cls, raw, "config")
        for key, sub in _SUBCONFIGS:
            if key in kwargs and isinstance(kwargs[key], dict):
                kwargs[key] = sub(**_known_keys(sub, kwargs[key], key))
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TopicDiagnostics:
    topic_id: str
    method: str
    stages: list[str] = field(default_factory=list)
    feedback_source_docs: list[str] = field(default_factory=list)
    feedback_target_docs: list[str] = field(default_factory=list)
    pair_provenance: dict = field(default_factory=dict)
    objective_curve: list[float] = field(default_factory=list)
    fallback_terms: list[str] = field(default_factory=list)
    dropped_terms: list[str] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentContext:
    """Shared, read-only inputs: indexes, dictionary, topics, qrels.

    Each collection is held once, as its index; feedback documents are
    read back with ``InvertedIndex.document``.
    """

    src_index: InvertedIndex
    tgt_index: InvertedIndex
    dictionary: BilingualDictionary
    topics: list[Topic]
    qrels: dict[str, set[str]] | None = None

    @classmethod
    def from_config(cls, cfg: PipelineConfig) -> "ExperimentContext":
        """Parse the small inputs first, and detect both collections' formats,
        so a bad input fails before any document is parsed; then stream each
        collection, one document at a time, straight into its index."""
        src_pipe = cfg.source_normalization.build()
        tgt_pipe = cfg.target_normalization.build()
        dictionary = parse_dictionary(cfg.dictionary, src_pipe, tgt_pipe)
        topics = parse_topics(cfg.topics, src_pipe)
        qrels = parse_qrels(cfg.qrels) if cfg.qrels else None
        src_docs = load_documents(cfg.source_docs, src_pipe)
        tgt_docs = load_documents(cfg.target_docs, tgt_pipe)
        src_index = InvertedIndex.from_documents(src_docs)
        tgt_index = InvertedIndex.from_documents(tgt_docs)
        return cls(src_index=src_index, tgt_index=tgt_index, dictionary=dictionary,
                   topics=topics, qrels=qrels)


def derive_seed(base: int, *parts: str) -> int:
    """Stable seed for one topic and purpose, from the config's ``seed``.

    The pipeline derives four per topic, ``derive_seed(cfg.seed, topic_id,
    purpose)``: ``sgns-src`` and ``sgns-tgt`` seed the two SGNS trainings of
    ``proj``, ``proj`` seeds its projection fit, and ``mixed`` seeds both the
    merge shuffle and the SGNS training of ``mixed``.
    """
    h = zlib.crc32(":".join(parts).encode("utf-8"))
    return (base * 1000003 + h) % (2 ** 32)


@contextmanager
def _stage(diag: TopicDiagnostics, name: str):
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, diag.topic_id, exc) from exc
    diag.stages.append(name)


@dataclass
class TopicModels:
    """Alpha-independent per-topic artifacts, reusable across a sweep row."""

    query: QueryModel
    primary: TranslationModel | None
    partner: TranslationModel | None
    diagnostics: TopicDiagnostics


def prepare_topic(ctx: ExperimentContext, topic: Topic,
                  cfg: PipelineConfig) -> TopicModels:
    """Stages up to translation-model construction; the partner model is
    built when ``rank_topic`` at ``cfg.alpha`` needs it."""
    diag = TopicDiagnostics(topic_id=topic.topic_id, method=cfg.method)
    terms = topic.query_terms(cfg.verbose_queries)
    n = cfg.feedback.num_docs

    with _stage(diag, "query_model"):
        q_s = QueryModel.from_terms(terms)

    with _stage(diag, "source_feedback_retrieval"):
        f_s = retrieve(q_s, ctx.src_index, cfg.mu, n)
        f_s_docs = [ctx.src_index.document(d) for d, _ in f_s]
        diag.feedback_source_docs = [d for d, _ in f_s]

    with _stage(diag, "target_feedback_retrieval"):
        initial = uniform_model(terms, ctx.dictionary)
        q_t0 = translate_query_model(q_s, initial)
        f_t = retrieve(q_t0, ctx.tgt_index, cfg.mu, n)
        f_t_docs = [ctx.tgt_index.document(d) for d, _ in f_t]
        diag.feedback_target_docs = [d for d, _ in f_t]

    primary: TranslationModel | None = None
    if cfg.method == "proj":
        with _stage(diag, "embeddings"):
            src_table = train_sgns(f_s_docs, cfg.sgns,
                                   derive_seed(cfg.seed, topic.topic_id, "sgns-src"))
            tgt_table = train_sgns(f_t_docs, cfg.sgns,
                                   derive_seed(cfg.seed, topic.topic_id, "sgns-tgt"))
        with _stage(diag, "projection"):
            try:
                pairset = extract_pairs(src_table, tgt_table, ctx.dictionary)
            except NoTranslationPairsError as exc:
                diag.flags.append(f"zero_pairs:{exc.reason}")
                pairset = None
            if pairset is not None:
                diag.pair_provenance = dict(pairset.provenance)
                w = learn_projection(pairset, src_table, tgt_table, cfg.projection,
                                     derive_seed(cfg.seed, topic.topic_id, "proj"))
                diag.objective_curve = [obj for _, obj, _ in w.train_log]
        with _stage(diag, "translation_model"):
            if pairset is not None:
                primary = projected_model(terms, w, src_table, tgt_table, ctx.dictionary)
    elif cfg.method == "mixed":
        with _stage(diag, "translation_model"):
            primary = mixed_model(terms, f_s_docs, f_t_docs, ctx.dictionary,
                                  cfg.sgns, derive_seed(cfg.seed, topic.topic_id, "mixed"))
    elif cfg.method == "uniform":
        with _stage(diag, "translation_model"):
            primary = initial
    elif cfg.method == "top1":
        with _stage(diag, "translation_model"):
            primary = top1_model(terms, ctx.dictionary)
    elif cfg.method == "cooccur":
        with _stage(diag, "translation_model"):
            primary = cooccur_model(terms, ctx.dictionary, ctx.tgt_index,
                                    cfg.cooccur_window)

    partner: TranslationModel | None = None
    interpolating = cfg.method in ("proj", "mixed")
    if interpolating and (cfg.alpha < 1.0 or primary is None):
        with _stage(diag, "partner_model"):
            partner = cooccur_model(terms, ctx.dictionary, ctx.tgt_index,
                                    cfg.cooccur_window)

    # every model drops the same terms: those without a dictionary entry
    diag.dropped_terms = list(initial.diagnostics["dropped_terms"])
    if primary is not None:
        diag.fallback_terms = list(primary.diagnostics["fallback_terms"])
    return TopicModels(query=q_s, primary=primary, partner=partner, diagnostics=diag)


def rank_topic(ctx: ExperimentContext, cfg: PipelineConfig,
               models: TopicModels) -> tuple[RankedList, TopicDiagnostics]:
    """Pick the primary model, the partner alone, or their interpolation at
    ``cfg.alpha``; translate the query, apply mixture feedback (off at
    ``interp_coeff`` 0) and retrieve to depth. Stages and flags go on a copy
    of ``models.diagnostics``, so ``models`` can be ranked at many alphas."""
    diag = copy.deepcopy(models.diagnostics)
    if models.primary is None:
        if models.partner is None:
            raise PipelineStageError("translation_model", diag.topic_id,
                                     ValueError("no translation model could be built"))
        diag.flags.append("partner_only")
        tm = models.partner
    elif cfg.method not in ("proj", "mixed") or cfg.alpha == 1.0:
        tm = models.primary
    elif models.partner is None:
        raise PipelineStageError("partner_model", diag.topic_id,
                                 ValueError("interpolation requested but no partner model"))
    else:
        tm = interpolate_models(models.primary, models.partner, cfg.alpha)
    with _stage(diag, "query_translation"):
        q_t = translate_query_model(models.query, tm)
    if cfg.feedback.interp_coeff > 0:
        with _stage(diag, "feedback"):
            fb = retrieve(q_t, ctx.tgt_index, cfg.mu, cfg.feedback.num_docs)
            fb_docs = [ctx.tgt_index.document(d) for d, _ in fb]
            fb_model = estimate_feedback_model(fb_docs, ctx.tgt_index, cfg.feedback)
            q_t = interpolate_query(q_t, fb_model, cfg.feedback.interp_coeff)
    with _stage(diag, "final_retrieval"):
        ranked = retrieve(q_t, ctx.tgt_index, cfg.mu, cfg.depth)
    return ranked, diag


def run_topic(ctx: ExperimentContext, topic: Topic,
              cfg: PipelineConfig) -> tuple[RankedList, TopicDiagnostics]:
    return rank_topic(ctx, cfg, prepare_topic(ctx, topic, cfg))


@dataclass
class ExperimentResult:
    run: RunFile
    run_path: str
    diagnostics_path: str
    manifest_path: str


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_digests(cfg: PipelineConfig) -> dict[str, str]:
    paths = {name: getattr(cfg, name)
             for name in ("source_docs", "target_docs", "dictionary", "topics", "qrels")}
    return {name: _sha256(path) for name, path in paths.items() if path}


def _write_run_dir(outdir: str, cfg: PipelineConfig, inputs: dict[str, str],
                   ranked: list[tuple[RankedList, TopicDiagnostics]]) -> ExperimentResult:
    """Write ``<tag>.run``, ``<tag>.diagnostics.json`` and ``<tag>.manifest.json``
    into the existing ``outdir``, from each topic's ranking and diagnostics."""
    run = RunFile(tag=cfg.tag, rankings={d.topic_id: r for r, d in ranked})
    run_path = os.path.join(outdir, f"{cfg.tag}.run")
    write_run(run, run_path)
    diagnostics_path = os.path.join(outdir, f"{cfg.tag}.diagnostics.json")
    with open(diagnostics_path, "w", encoding="utf-8") as fh:
        json.dump([d.to_dict() for _, d in ranked], fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = {
        "config": cfg.to_dict(),
        "inputs": inputs,
        # scores are numpy float64 sums, so byte identity holds per numpy version
        "numpy_version": np.__version__,
        "outputs": {os.path.basename(p): _sha256(p) for p in (run_path, diagnostics_path)},
    }
    manifest_path = os.path.join(outdir, f"{cfg.tag}.manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ExperimentResult(run, run_path, diagnostics_path, manifest_path)


def run_experiment(ctx: ExperimentContext, cfg: PipelineConfig,
                   outdir: str) -> ExperimentResult:
    """Run every topic, write run file, diagnostics, and manifest."""
    os.makedirs(outdir, exist_ok=True)
    ranked = [run_topic(ctx, topic, cfg)
              for topic in sorted(ctx.topics, key=lambda t: t.topic_id)]
    return _write_run_dir(outdir, cfg, _input_digests(cfg), ranked)


def sweep_grid(cfg: PipelineConfig, alphas: list[float],
               ns: list[int]) -> list[list[PipelineConfig]]:
    """The sweep's cells, one row per n: ``cfg`` with the cell's alpha,
    feedback-document count and tag. Building them checks the whole grid,
    that no two cells share a tag and so the same output files, and that
    ``cfg`` names qrels, so it needs no loaded input."""
    if not cfg.qrels:
        raise ValueError("sweep needs qrels to report MAP")
    if not alphas or not ns:
        raise ValueError("sweep needs at least one alpha and one n")
    grid = [[replace(cfg, alpha=a, tag=f"{cfg.tag}-a{a:g}-n{n}",
                     feedback=replace(cfg.feedback, num_docs=n)) for a in alphas]
            for n in ns]
    tags = [cell.tag for cells in grid for cell in cells]
    for tag in tags:
        if tags.count(tag) > 1:
            raise ValueError(f"sweep cells share the tag {tag!r}; give distinct alphas and ns")
    return grid


def sweep(ctx: ExperimentContext, grid: list[list[PipelineConfig]], outdir: str) -> str:
    """Every cell of ``grid`` (from ``sweep_grid``) written to ``outdir`` as
    the run file, diagnostics and manifest ``run_experiment`` writes for the
    cell's config, plus ``sweep.csv`` with each cell's MAP.

    Per row, the alpha-independent artifacts (feedback sets, embedding
    spaces, projection, partner model) are built once per topic, at the
    row's smallest alpha, and each cell ranks them with ``rank_topic``. So
    an alpha-1 cell of a row whose smallest alpha is below 1 also lists the
    ``partner_model`` stage, which its own run would not build.
    """
    os.makedirs(outdir, exist_ok=True)
    inputs = _input_digests(grid[0][0])
    topics = sorted(ctx.topics, key=lambda t: t.topic_id)
    rows: list[tuple[float, int, float]] = []
    for cells in grid:
        shared = min(cells, key=lambda cell: cell.alpha)
        prepared = [prepare_topic(ctx, topic, shared) for topic in topics]
        for cell in cells:
            ranked = [rank_topic(ctx, cell, models) for models in prepared]
            result = _write_run_dir(outdir, cell, inputs, ranked)
            report = evaluate_run(result.run, ctx.qrels, depth=cell.depth)
            rows.append((cell.alpha, cell.feedback.num_docs, report.map))
    csv_path = os.path.join(outdir, "sweep.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("alpha,n,map\n")
        for alpha, n, map_score in rows:
            fh.write(f"{alpha:g},{n},{map_score:.6f}\n")
    return csv_path
