"""layerstack: staged corpus analysis.

A small numpy library that walks text corpora up a ladder of
abstractions: byte and token entropies, document/term joint information,
leave-one-out correlation ranking, cluster-and-reselect aggregation, a
crowd-error diagnostic over the clusters, and Dempster-Shafer belief
updates over keywords. Everything is deterministic for fixed seeds and
inputs.
"""

from .belief import (
    Frame,
    MassFunction,
    belief,
    combine,
    keyword_belief_update,
    make_mass,
    plausibility,
    vacuous_mass,
)
from .corpus import (
    Corpus,
    Document,
    ingest_corpus,
    load_stop_words,
    top_k_terms,
)
from .infotheory import (
    JointDistribution,
    TokenDistribution,
    bitstream_entropy,
    count_entropy,
    hartley_entropy,
    joint_entropy,
    residual_entropy,
    shannon_entropy,
)
from .intelligence import (
    AggregationResult,
    AggregationRound,
    Clustering,
    EntropicState,
    aggregate_corpus,
    entropic_gain,
    kmeans,
)
from .knowledge import (
    CorrelationResult,
    EventSpace,
    correlate_document,
    correlation_p_value,
    justification_score,
    pearson_r,
    rank_documents,
)
from .pipeline import (
    LAYERS,
    PipelineError,
    RunConfig,
    RunReport,
    emit_plot_data,
    emit_tables,
    run_pipeline,
    write_report,
)
from .stopwords import ENGLISH_STOP_WORDS
from .synthetic import synthetic_corpus, write_corpus
from .wisdom import (
    CrowdDecomposition,
    CrowdPrediction,
    aggregate_round_quality,
    crowd_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationResult",
    "AggregationRound",
    "Clustering",
    "Corpus",
    "CorrelationResult",
    "CrowdDecomposition",
    "CrowdPrediction",
    "Document",
    "ENGLISH_STOP_WORDS",
    "EntropicState",
    "EventSpace",
    "Frame",
    "JointDistribution",
    "LAYERS",
    "MassFunction",
    "PipelineError",
    "RunConfig",
    "RunReport",
    "TokenDistribution",
    "aggregate_corpus",
    "aggregate_round_quality",
    "belief",
    "bitstream_entropy",
    "combine",
    "correlate_document",
    "correlation_p_value",
    "count_entropy",
    "crowd_decomposition",
    "emit_plot_data",
    "emit_tables",
    "entropic_gain",
    "hartley_entropy",
    "ingest_corpus",
    "joint_entropy",
    "justification_score",
    "keyword_belief_update",
    "kmeans",
    "load_stop_words",
    "make_mass",
    "pearson_r",
    "plausibility",
    "rank_documents",
    "residual_entropy",
    "run_pipeline",
    "shannon_entropy",
    "synthetic_corpus",
    "top_k_terms",
    "vacuous_mass",
    "write_corpus",
    "write_report",
]
