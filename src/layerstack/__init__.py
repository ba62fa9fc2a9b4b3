"""layerstack: staged corpus analysis.

A small numpy library that walks text corpora up a ladder of
abstractions: byte and token entropies, document/term joint information,
leave-one-out correlation ranking, cluster-and-reselect aggregation, a
crowd-error diagnostic over the clusters, and Dempster-Shafer belief
updates over keywords. Everything is deterministic for fixed seeds and
inputs.
"""

# ``belief`` stays an eager import: the function shares its name with the
# submodule, and the first import of ``layerstack.belief``, which
# ``pipeline`` would make, binds the package attribute to the module; the
# function must be bound after that
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
from .config import PipelineError, RunConfig
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
from .stopwords import ENGLISH_STOP_WORDS

#: exports of the modules that only a full run or the library needs, each
#: loaded on its first access (PEP 562), so a CLI command that does not run
#: them does not compile them
_LAZY = {
    "LAYERS": "pipeline",
    "RunReport": "pipeline",
    "emit_plot_data": "pipeline",
    "emit_tables": "pipeline",
    "run_pipeline": "pipeline",
    "write_report": "pipeline",
    "synthetic_corpus": "synthetic",
    "write_corpus": "synthetic",
    "CrowdDecomposition": "wisdom",
    "CrowdPrediction": "wisdom",
    "aggregate_round_quality": "wisdom",
    "crowd_decomposition": "wisdom",
}


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


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
