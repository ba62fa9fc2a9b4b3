"""The whole pipeline against a plain reference run.

``reference_run_pipeline`` rebuilds ``report.json`` from the input files
without the library's layers: token counts and every pooled or
leave-one-out table are plain ``Counter`` sums, each leave-one-out
reference is re-pooled from the other documents, entropies are taken by
``log2(total) - fsum(c * log2(c)) / total``, clustering is the dense
N x k x V k-means oracle, entropic gains recount the merged table in full,
and Dempster's rule runs over frozensets. Only the leaf numerics are
shared: the scorer's one-segment Pearson (``helpers.segment_parts``),
``pearson_r`` and ``correlation_p_value``, which have tests of their own
(test_knowledge, test_ranking_oracle, test_pvalue_oracle). Sharing them
keeps a centred profile that is zero but for rounding from being kept on
one side and dropped on the other.

On small generated corpora every id, order, integer and note must match
exactly, and every float to 1e-12.

A second property checks the intelligence layer's hand-off against the
library's own entry points: its rounds, survivors and aggregated ranking,
and the run's notes, must be exactly what ``rank_documents`` and
``aggregate_corpus`` give for the same arguments.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from layerstack import (
    RunConfig,
    aggregate_corpus,
    correlation_p_value,
    pearson_r,
    rank_documents,
    run_pipeline,
)
from layerstack.knowledge import ranking_rows
from layerstack.stopwords import ENGLISH_STOP_WORDS

from helpers import segment_parts
from test_kmeans_oracle import dense_kmeans, dense_rows

#: absolute and relative tolerance for every float in the report
FLOAT_TOL = 1e-12
#: most focal singletons in a keyword frame
MAX_KEYWORDS = 20


@dataclass(frozen=True)
class Doc:
    id: str
    data: bytes
    token_counts: Counter
    total_tokens: int


def read_doc(path: Path) -> Doc:
    """A document whose text holds only space-separated words."""
    data = path.read_bytes()
    words = (w.lower() for w in data.decode("utf-8").split())
    counts = Counter(w for w in words if not w.isdigit() and w not in ENGLISH_STOP_WORDS)
    return Doc(path.stem, data, counts, sum(counts.values()))


def entropy(counts) -> float:
    positive = [c for c in counts if c > 0]
    total = sum(positive)
    return math.log2(total) - math.fsum(c * math.log2(c) for c in positive) / total


def pooled(docs) -> Counter:
    total: Counter = Counter()
    for doc in docs:
        total.update(doc.token_counts)
    return +total


def loo_profile(doc: Doc, docs) -> tuple[list[str], list[float], list[float]]:
    """Shared terms and log10 proportions of ``doc`` and of the other
    documents, pooled afresh."""
    rest = pooled(d for d in docs if d.id != doc.id)
    shared = sorted(t for t in doc.token_counts if rest[t] > 0)
    rest_total = sum(rest.values())
    xs = [math.log10(doc.token_counts[t] / doc.total_tokens) for t in shared]
    ys = [math.log10(rest[t] / rest_total) for t in shared]
    return shared, xs, ys


def rank(docs, top_k: int, notes: list[str]) -> list[tuple[str, float, float, int]]:
    """(id, r, p, n) by descending r, ties by id, for the documents with a
    correlation against the rest of ``docs``."""
    results = []
    for doc in docs:
        shared, xs, ys = loo_profile(doc, docs)
        if len(shared) < 3:
            notes.append(
                f"RankingWarning: excluding {doc.id!r}: insufficient overlap: "
                f"{doc.id!r} shares {len(shared)} terms with the rest"
            )
            continue
        try:
            r = pearson_r(xs, ys)
        except ValueError as exc:
            notes.append(f"RankingWarning: excluding {doc.id!r}: {exc}")
            continue
        results.append((doc.id, r, correlation_p_value(r, len(shared)), len(shared)))
    results.sort(key=lambda res: (-res[1], res[0]))
    return results[:top_k]


def rows(ranking) -> list[dict[str, Any]]:
    # directory corpora: the title is the id
    return [
        {"doc_id": i, "title": i, "correlation": r, "p_value": p, "shared_terms": n}
        for i, r, p, n in ranking
    ]


def skip(reason: str) -> dict[str, Any]:
    return {"skipped": True, "reason": reason}


def bit_section(docs, force: bool, notes: list[str]) -> dict[str, Any]:
    if not force:
        return skip("input is digital text; enable force_bit_layer to compute byte entropies")
    per_document = {}
    for doc in docs:
        if not doc.data:
            notes.append(f"PipelineWarning: empty file for {doc.id!r}; no byte entropy")
            continue
        per_document[doc.id] = entropy(Counter(doc.data).values())
    if not per_document:
        return skip("all input files are empty")
    everything = b"".join(doc.data for doc in docs)
    return {
        "skipped": False,
        "per_document_bits_per_byte": per_document,
        "pooled_bits_per_byte": entropy(Counter(everything).values()),
    }


def data_section(docs, totals: Counter, notes: list[str]) -> dict[str, Any]:
    per_document = {}
    for doc in docs:
        if doc.total_tokens == 0:
            notes.append(
                f"PipelineWarning: document {doc.id!r} has no terms; excluded from token entropy"
            )
            continue
        per_document[doc.id] = entropy(doc.token_counts.values())
    if not totals:
        return skip("no terms in corpus")
    return {
        "skipped": False,
        "per_document_bits": per_document,
        "corpus_bits": entropy(totals.values()),
        "vocabulary_size": len(totals),
        "hartley_vocabulary_bits": math.log2(len(totals)),
    }


def information_section(docs, totals: Counter) -> dict[str, Any]:
    if not totals:
        return skip("no terms in corpus")
    joint = entropy(c for doc in docs for c in doc.token_counts.values())
    by_document = entropy(doc.total_tokens for doc in docs)
    by_term = entropy(totals.values())
    return {
        "skipped": False,
        "joint_bits": joint,
        "document_marginal_bits": by_document,
        "term_marginal_bits": by_term,
        "residual_term_bits_given_document": joint - by_document,
        "residual_document_bits_given_term": joint - by_term,
    }


def aggregate(docs, config: RunConfig, notes: list[str]):
    """(round summaries, last round's per-cluster rankings, survivors,
    final ranking) of the cluster-and-reselect loop."""
    current = list(docs)
    summaries: list[dict[str, Any]] = []
    last_rankings: list[list] = []
    for index in range(config.rounds):
        if len(current) < 2:
            break
        vocabulary = sorted(pooled(current))
        kept = [doc for doc in current if doc.total_tokens > 0]
        notes.extend(
            f"AggregationWarning: document {doc.id!r} has no terms; excluded from clustering"
            for doc in current
            if doc.total_tokens == 0
        )
        if len(kept) < 2:
            notes.append(
                f"AggregationWarning: aggregation stopped at round {index}: "
                "fewer than 2 vectorizable documents"
            )
            break
        k = min(config.k, len(kept))
        labels, history, _ = dense_kmeans(dense_rows(kept, vocabulary), k, config.seed + index)
        rankings = []
        for cluster in range(k):
            members = [doc for doc, label in zip(kept, labels) if label == cluster]
            if len(members) < 2:
                notes.append(
                    f"AggregationWarning: cluster {cluster} has {len(members)} member(s); "
                    "nothing selected"
                )
                rankings.append([])
                continue
            rankings.append(rank(members, config.per_cluster, notes))
        selected = [res[0] for ranked in rankings for res in ranked]
        if len(selected) < 2:
            notes.append(
                f"AggregationWarning: aggregation stopped at round {index}: only "
                f"{len(selected)} document(s) would survive; keeping the previous selection"
            )
            break
        summaries.append(
            {
                "round": index,
                "k": k,
                "seed": config.seed + index,
                "iterations": len(history),
                "inertia": history[-1],
                "cluster_sizes": [int((labels == c).sum()) for c in range(k)],
                "selected": selected,
            }
        )
        last_rankings = rankings
        current = [doc for doc in current if doc.id in selected]
    # with no completed round the survivors are the corpus the knowledge
    # layer ranked, whose warnings are already noted
    final = rank(current, len(current), notes if summaries else [])
    return summaries, last_rankings, current, final


def intelligence_section(docs, config: RunConfig, notes: list[str]):
    if len(docs) < 2:
        return skip(f"aggregation needs at least 2 documents, got {len(docs)}"), None
    if len(docs) < config.k:
        return skip(f"fewer documents than clusters: {len(docs)} < {config.k}"), None
    summaries, last_rankings, survivors, ranking = aggregate(docs, config, notes)
    macrostate = pooled(survivors)
    macrostate_bits = entropy(macrostate.values()) if macrostate else None
    gains = {}
    if macrostate:
        survivor_ids = {doc.id for doc in survivors}
        for doc in docs:
            if doc.id not in survivor_ids and doc.total_tokens > 0:
                merged = entropy((macrostate + doc.token_counts).values())
                gains[doc.id] = config.reservoir_strength * (merged - macrostate_bits)
    section = {
        "skipped": False,
        "rounds": summaries,
        "survivors": [doc.id for doc in survivors],
        "aggregated_ranking": rows(ranking[: config.top_k]),
        "macrostate_bits": macrostate_bits,
        "reservoir_strength": config.reservoir_strength,
        "entropic_gains": gains,
    }
    return section, (summaries, last_rankings, ranking)


def wisdom_section(aggregation) -> dict[str, Any]:
    if aggregation is None:
        return skip("intelligence layer skipped")
    summaries, last_rankings, ranking = aggregation
    if not summaries:
        return skip("no aggregation rounds completed")
    if not ranking:
        return skip("empty final ranking")
    individuals = [ranked[0][1] for ranked in last_rankings if ranked]
    if not individuals:
        return skip("no cluster produced a ranked representative")
    truth = ranking[0][1]
    n = len(individuals)
    mean = math.fsum(individuals) / n
    return {
        "skipped": False,
        "individuals": individuals,
        "truth": truth,
        "crowd_mean": mean,
        "crowd_sq_error": (mean - truth) ** 2,
        "avg_individual_sq_error": math.fsum((x - truth) ** 2 for x in individuals) / n,
        "diversity": math.fsum((x - mean) ** 2 for x in individuals) / n,
    }


def dempster(m1: dict[frozenset, float], m2: dict[frozenset, float]) -> dict[frozenset, float]:
    products: dict[frozenset, list[float]] = {}
    conflict = []
    for a, v1 in m1.items():
        for b, v2 in m2.items():
            if a & b:
                products.setdefault(a & b, []).append(v1 * v2)
            else:
                conflict.append(v1 * v2)
    remainder = 1.0 - math.fsum(conflict)
    return {focal: math.fsum(vs) / remainder for focal, vs in products.items()}


def belief_section(docs, totals: Counter, ranking, top_k: int) -> dict[str, Any]:
    if not ranking:
        return skip("no ranked documents to draw evidence from")
    by_frequency = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    keywords = [term for term, _ in by_frequency[: min(top_k, MAX_KEYWORDS)]]
    contributions = dict.fromkeys(keywords, 0.0)
    by_id = {doc.id: doc for doc in docs}
    for doc_id, *_ in ranking:
        shared, xs, ys = loo_profile(by_id[doc_id], docs)
        dx, dy, denom, _, fault = segment_parts(xs, ys)
        assert fault is None
        for term, a, b in zip(shared, dx.tolist(), dy.tolist()):
            piece = a * b / denom
            if term in contributions and piece > 0.0:
                contributions[term] += piece
    total = math.fsum(contributions.values())
    evidence = {kw: contributions[kw] / total if total > 0.0 else 0.0 for kw in keywords}
    frame = frozenset(keywords)
    posterior = {frame: 1.0}
    for keyword in sorted(evidence):
        score = evidence[keyword]
        if score == 1.0:
            posterior = dempster(posterior, {frozenset([keyword]): 1.0})
        elif score > 0.0:
            posterior = dempster(posterior, {frozenset([keyword]): score, frame: 1.0 - score})
    return {
        "skipped": False,
        "keywords": keywords,
        "evidence": evidence,
        "posterior": {
            ",".join(kw for kw in keywords if kw in focal): mass
            for focal, mass in posterior.items()
        },
        "singletons": {
            kw: {
                "belief": math.fsum(m for f, m in posterior.items() if f <= {kw}),
                "plausibility": math.fsum(m for f, m in posterior.items() if kw in f),
            }
            for kw in keywords
        },
    }


def reference_run_pipeline(config: RunConfig) -> dict[str, Any]:
    """The parsed ``report.json`` of a run over a directory of ``.txt``
    files whose words are separated by whitespace."""
    docs = [read_doc(path) for path in sorted(config.source.glob("*.txt"), key=lambda p: p.stem)]
    hasher = hashlib.sha256()
    for doc in docs:
        hasher.update(b"%s\x1f%s\x1f%s\x1e" % (doc.id.encode(), doc.id.encode(), doc.data))
    totals = pooled(docs)
    notes: list[str] = []
    sections = {
        "bit": bit_section(docs, config.force_bit_layer, notes),
        "data": data_section(docs, totals, notes),
        "information": information_section(docs, totals),
    }
    knowledge_ranking = []
    if len(docs) < 2:
        sections["knowledge"] = skip(f"ranking needs at least 2 documents, got {len(docs)}")
    else:
        knowledge_ranking = rank(docs, config.top_k, notes)
        sections["knowledge"] = {"skipped": False, "ranking": rows(knowledge_ranking)}
    sections["intelligence"], aggregation = intelligence_section(docs, config, notes)
    sections["wisdom"] = wisdom_section(aggregation)
    sections["belief"] = belief_section(docs, totals, knowledge_ranking, config.top_k)
    return {
        "config": config.echo(),
        "provenance": {
            "input_sha256": hasher.hexdigest(),
            "document_count": len(docs),
            "vocabulary_size": len(totals),
        },
        "sections": sections,
        "warnings": notes,
    }


def assert_same(actual: Any, expected: Any, where: str = "report") -> None:
    """Equal structure, keys, order, strings and integers; floats within
    FLOAT_TOL."""
    if isinstance(expected, float):
        assert type(actual) is float, f"{where}: {actual!r} is not a float"
        assert math.isclose(actual, expected, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL), (
            f"{where}: {actual!r} != {expected!r}"
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), f"{where}: {actual!r} is not an object"
        assert sorted(actual) == sorted(expected), f"{where}: keys differ"
        for key in expected:
            assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{where}: {actual!r} is not an array"
        assert len(actual) == len(expected), f"{where}: {actual!r} != {expected!r}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_same(a, e, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != {expected!r}"
        )


#: two topics, shared words, and tokens the tokenizer drops or folds
TOPIC_WORDS = (
    ["signal", "noise", "channel", "code", "entropy", "naïve"],
    ["cluster", "vector", "centroid", "kernel", "ñu"],
)
SHARED_WORDS = ["data", "model", "Signal", "the", "and", "2023"]


@st.composite
def corpora(draw) -> list[str]:
    """Texts for 1 to 12 documents: empty, stop-word-only and one-term
    documents occur, as do exact copies of an earlier text."""
    texts: list[str] = []
    for _ in range(draw(st.integers(1, 12))):
        if texts and draw(st.integers(0, 4)) == 0:
            texts.append(draw(st.sampled_from(texts)))
            continue
        if draw(st.integers(0, 5)) == 0:
            texts.append(draw(st.sampled_from(["", "the and 2023", "kernel"])))
            continue
        words = st.sampled_from(draw(st.sampled_from(TOPIC_WORDS)) + SHARED_WORDS)
        texts.append(" ".join(draw(st.lists(words, min_size=6, max_size=24))))
    return texts


def write_texts(texts: list[str], directory: Path) -> Path:
    source = directory / "corpus"
    source.mkdir()
    for i, text in enumerate(texts):
        (source / f"d{i:02d}.txt").write_text(text, encoding="utf-8")
    return source


@settings(max_examples=150)
@given(
    texts=corpora(),
    k=st.integers(1, 4),
    rounds=st.integers(0, 3),
    per_cluster=st.integers(1, 3),
    top_k=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    reservoir_strength=st.sampled_from([0.5, 1.0, 2.0]),
    force_bit_layer=st.booleans(),
)
def test_report_matches_reference_run(
    texts, k, rounds, per_cluster, top_k, seed, reservoir_strength, force_bit_layer
):
    with tempfile.TemporaryDirectory() as tmp:
        config = RunConfig(
            source=write_texts(texts, Path(tmp)),
            out_dir=Path(tmp) / "out",
            k=k,
            rounds=rounds,
            per_cluster=per_cluster,
            top_k=top_k,
            seed=seed,
            reservoir_strength=reservoir_strength,
            force_bit_layer=force_bit_layer,
        )
        report = json.loads(run_pipeline(config).to_json())
        assert_same(report, reference_run_pipeline(config))


@settings(max_examples=100)
@given(
    texts=corpora(),
    k=st.integers(1, 4),
    rounds=st.integers(0, 2),
    per_cluster=st.integers(1, 3),
    top_k=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_intelligence_section_is_the_library_aggregation(
    texts, k, rounds, per_cluster, top_k, seed
):
    """The run ranks its survivors only after a completed round; with none,
    the survivors are the whole corpus and their ranking is the knowledge
    layer's. ``aggregate_corpus`` re-ranks them always, and that ranking's
    notes, one per dropped document, come last and repeat the knowledge
    layer's, so the reference drops them."""
    with tempfile.TemporaryDirectory() as tmp:
        config = RunConfig(
            source=write_texts(texts, Path(tmp)),
            out_dir=Path(tmp) / "out",
            k=k,
            rounds=rounds,
            per_cluster=per_cluster,
            top_k=top_k,
            seed=seed,
        )
        report = run_pipeline(config)
    corpus = report.corpus
    notes = [
        f"PipelineWarning: document {doc.id!r} has no terms; excluded from token entropy"
        for doc in corpus
        if doc.total_tokens == 0
    ]
    if len(corpus) >= 2:
        rank_documents(corpus, top_k=top_k, notes=notes)
    intelligence = report.sections["intelligence"]
    if len(corpus) < max(2, k):
        assert intelligence["skipped"] is True
    else:
        agg = aggregate_corpus(corpus, k, rounds, per_cluster, seed, notes=notes)
        if not agg.rounds:
            del notes[len(notes) - (len(corpus) - len(agg.ranking)) :]
        expected = {
            "rounds": [
                {
                    "round": rnd.index,
                    "k": rnd.clustering.k,
                    "seed": rnd.clustering.seed,
                    "iterations": len(rnd.clustering.inertia_history),
                    "inertia": rnd.clustering.inertia,
                    "cluster_sizes": [
                        len(rnd.clustering.members(c)) for c in range(rnd.clustering.k)
                    ],
                    "selected": list(rnd.selected_ids),
                }
                for rnd in agg.rounds
            ],
            "survivors": list(agg.survivor_ids),
            "aggregated_ranking": ranking_rows(agg.ranking[:top_k], corpus),
        }
        assert {key: intelligence[key] for key in expected} == expected
    assert list(report.warnings) == notes
