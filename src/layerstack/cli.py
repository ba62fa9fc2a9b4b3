"""Command-line interface.

``layerstack run`` executes the full pipeline into an output directory;
``entropy``, ``rank``, ``aggregate``, ``belief``, and ``scatter`` expose the
individual layers. Exit codes: 0 success, 1 fatal error, 2 bad arguments.

Each command loads only the layers it runs. This module imports the
ingest, knowledge, intelligence, information and belief layers, which
``rank``, ``aggregate``, ``entropy`` and ``belief`` need and nothing more;
the last two print through ``config.json_text``. Only ``run`` and
``scatter`` import ``pipeline``, and through it ``wisdom`` and ``csv``,
inside their handlers: ``run`` walks every layer, and ``scatter`` writes
fig4 through ``pipeline.write_fig4``, a CSV writer.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable

from .belief import Frame, MassFunction, belief, combine, make_mass, plausibility, vacuous_mass
from .config import PipelineError, RunConfig, json_text
from .corpus import count_terms, ingest_corpus, load_stop_words, read_source
from .infotheory import bitstream_entropy, count_entropy, hartley_entropy
from .intelligence import aggregate_corpus
from .knowledge import rank_documents, ranking_rows, ranking_tsv
from .stopwords import ENGLISH_STOP_WORDS


def _number(parse: type, valid: Callable[[Any], bool], rule: str) -> Callable[[str], Any]:
    """An argparse type: the value ``parse`` reads from the text, or a usage
    error naming ``rule`` when it reads none or ``valid`` rejects it."""

    def check(text: str) -> Any:
        try:
            value = parse(text)
            if valid(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")

    return check


_positive_int = _number(int, lambda value: value >= 1, "an integer >= 1")
_nonnegative_int = _number(int, lambda value: value >= 0, "an integer >= 0")
_positive_float = _number(
    float, lambda value: math.isfinite(value) and value > 0.0, "a finite number > 0"
)


def _stop_words(path: str | None) -> frozenset[str]:
    return ENGLISH_STOP_WORDS if path is None else load_stop_words(path)


def _cmd_run(args: argparse.Namespace, notes: list[str]) -> int:
    from .pipeline import emit_plot_data, emit_tables, run_pipeline, write_report

    config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    report = run_pipeline(config)
    written = [write_report(report), *emit_tables(report), *emit_plot_data(report, notes)]
    # the report's notes go ahead of the plot notes, once every artifact is written
    notes[:0] = report.warnings
    for path in written:
        print(path)
    return 0


def _cmd_entropy(args: argparse.Namespace, notes: list[str]) -> int:
    data, text = read_source(Path(args.file))
    counts = count_terms(text, _stop_words(args.stop_words_path))
    total = sum(counts.values())
    payload = {
        "byte_count": len(data),
        "bitstream_bits_per_byte": bitstream_entropy(data) if data else None,
        "token_count": total,
        "distinct_terms": len(counts),
        "token_bits": count_entropy(counts.values()) if total else None,
        "hartley_term_bits": hartley_entropy(len(counts)) if counts else None,
    }
    sys.stdout.write(json_text(payload))
    return 0


def _cmd_rank(args: argparse.Namespace, notes: list[str]) -> int:
    corpus = ingest_corpus(args.source, _stop_words(args.stop_words_path))
    ranked = rank_documents(corpus, top_k=args.top_k, notes=notes)
    sys.stdout.write(ranking_tsv(ranking_rows(ranked, corpus)))
    return 0


def _cmd_aggregate(args: argparse.Namespace, notes: list[str]) -> int:
    corpus = ingest_corpus(args.source, _stop_words(args.stop_words_path))
    result = aggregate_corpus(
        corpus,
        k=args.k,
        rounds=args.rounds,
        per_cluster=args.per_cluster,
        seed=args.seed,
        notes=notes,
    )
    sys.stdout.write(ranking_tsv(ranking_rows(result.ranking[: args.top_k], corpus)))
    return 0


def _load_mass(frame: Frame, path: str) -> MassFunction:
    """Read a mass file: a JSON object of comma-joined element names → mass."""
    _, text = read_source(Path(path))
    try:
        # integers parse as floats: a huge one becomes inf, which make_mass rejects
        raw = json.loads(text, parse_int=float)  # RecursionError when nested too deeply
        if not isinstance(raw, dict):
            raise ValueError("must hold a JSON object")
        assignments = []
        for names, mass in raw.items():
            if not isinstance(mass, float):
                raise ValueError(f"mass of {names!r} is not a number: {mass!r}")
            subset = tuple(part.strip() for part in names.split(",") if part.strip())
            assignments.append((subset, mass))
        return make_mass(frame, assignments)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"mass file {path}: {exc}") from exc


def _cmd_belief(args: argparse.Namespace, notes: list[str]) -> int:
    elements = tuple(part.strip() for part in args.frame.split(",") if part.strip())
    frame = Frame(elements=elements)
    result = vacuous_mass(frame) if args.prior is None else _load_mass(frame, args.prior)
    if args.evidence is not None:
        result = combine(result, _load_mass(frame, args.evidence))
    payload = {
        name: {
            "belief": belief(result, (name,)),
            "plausibility": plausibility(result, (name,)),
        }
        for name in elements
    }
    sys.stdout.write(json_text(payload))
    return 0


def _cmd_scatter(args: argparse.Namespace, notes: list[str]) -> int:
    from .pipeline import write_fig4

    corpus = ingest_corpus(args.source, _stop_words(args.stop_words_path))
    if len(corpus) < 2:
        raise ValueError("scatter needs at least 2 documents for a leave-one-out reference")
    if args.doc is not None:
        try:
            rows = [corpus.position(args.doc)]
        except KeyError:
            raise ValueError(f"document {args.doc!r} not in corpus") from None
    else:
        rows = range(len(corpus))
    write_fig4(sys.stdout, corpus, rows, notes)
    return 0


def _add_corpus_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("source", metavar="corpus", help="corpus directory of .txt files or JSONL manifest")
    parser.add_argument("--stopwords", dest="stop_words_path", metavar="FILE", help="stop-word override, one term per line")


def _add_aggregation_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=_positive_int, default=RunConfig.k, help="cluster count (default %(default)s)")
    parser.add_argument("--rounds", type=_nonnegative_int, default=RunConfig.rounds, help="aggregation rounds (default %(default)s)")
    parser.add_argument("--per-cluster", type=_positive_int, default=RunConfig.per_cluster, help="representatives per cluster (default %(default)s)")
    parser.add_argument("--seed", type=_nonnegative_int, default=RunConfig.seed, help="clustering seed (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerstack",
        description="Staged corpus analysis: entropy, ranking, aggregation, belief.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full layered pipeline")
    _add_corpus_argument(run)
    _add_aggregation_arguments(run)
    run.add_argument("--top", dest="top_k", metavar="TOP", type=_positive_int, default=RunConfig.top_k, help="rows per ranking table (default %(default)s)")
    run.add_argument("--reservoir-strength", type=_positive_float, default=RunConfig.reservoir_strength, help="entropic gain scale (default %(default)s)")
    run.add_argument("--out", dest="out_dir", metavar="DIR", default=RunConfig.out_dir, help="output directory (default %(default)s)")
    run.add_argument("--force-bit-layer", action="store_true", help="compute byte-stream entropies even for text input")
    run.set_defaults(handler=_cmd_run)

    entropy = sub.add_parser("entropy", help="bitstream and token entropies of one file")
    entropy.add_argument("file", help="UTF-8 text file")
    entropy.add_argument("--stopwords", dest="stop_words_path", metavar="FILE", help="stop-word override, one term per line")
    entropy.set_defaults(handler=_cmd_entropy)

    rank = sub.add_parser("rank", help="rank documents by leave-one-out correlation")
    _add_corpus_argument(rank)
    rank.add_argument("--top", dest="top_k", metavar="TOP", type=_positive_int, default=RunConfig.top_k, help="rows to emit (default %(default)s)")
    rank.set_defaults(handler=_cmd_rank)

    aggregate = sub.add_parser("aggregate", help="cluster, reselect, and re-rank")
    _add_corpus_argument(aggregate)
    _add_aggregation_arguments(aggregate)
    aggregate.add_argument("--top", dest="top_k", metavar="TOP", type=_positive_int, default=RunConfig.top_k, help="rows to emit (default %(default)s)")
    aggregate.set_defaults(handler=_cmd_aggregate)

    belief_cmd = sub.add_parser("belief", help="combine mass functions and report Bel/Pl")
    belief_cmd.add_argument("--frame", required=True, help="comma-joined element names")
    belief_cmd.add_argument("--prior", metavar="FILE", help="prior mass file (JSON names->mass); default vacuous")
    belief_cmd.add_argument("--evidence", metavar="FILE", help="evidence mass file to combine with the prior")
    belief_cmd.set_defaults(handler=_cmd_belief)

    scatter = sub.add_parser("scatter", help="document-versus-rest term proportion CSV")
    _add_corpus_argument(scatter)
    scatter.add_argument("--doc", metavar="ID", help="restrict to one document id")
    scatter.set_defaults(handler=_cmd_scatter)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    notes: list[str] = []
    error = None
    try:
        code = args.handler(args, notes)
    except (PipelineError, ValueError, OSError) as exc:
        code, error = 1, exc
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
