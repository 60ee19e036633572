"""clirkit: cross-language retrieval with projection-based query translation."""

__version__ = "0.1.0"

from clirkit.corpus import (
    BilingualDictionary,
    Document,
    NormalizationPipeline,
    Topic,
    normalize,
)
from clirkit.embeddings import EmbeddingTable, SgnsConfig, train_sgns
from clirkit.evaluation import average_precision, paired_ttest, precision_at_k
from clirkit.prf import FeedbackConfig, estimate_feedback_model, interpolate_query
from clirkit.projection import (
    ProjectionConfig,
    ProjectionMatrix,
    extract_pairs,
    learn_projection,
)
from clirkit.retrieval import InvertedIndex, QueryModel, retrieve
from clirkit.synth import SynthConfig, generate
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

__all__ = [
    "BilingualDictionary", "Document", "NormalizationPipeline", "Topic",
    "normalize", "EmbeddingTable", "SgnsConfig", "train_sgns",
    "average_precision", "paired_ttest", "precision_at_k", "FeedbackConfig",
    "estimate_feedback_model", "interpolate_query", "ProjectionConfig",
    "ProjectionMatrix", "extract_pairs", "learn_projection", "InvertedIndex",
    "QueryModel", "retrieve", "SynthConfig", "generate", "TranslationModel",
    "cooccur_model", "interpolate_models", "mixed_model", "projected_model",
    "top1_model", "translate_query_model", "uniform_model",
]
