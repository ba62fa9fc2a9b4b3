import contextlib
import inspect
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerstack import (
    PipelineError,
    RunConfig,
    aggregate_corpus,
    emit_tables,
    run_pipeline,
    synthetic_corpus,
    write_corpus,
    write_report,
)
from layerstack.cli import build_parser, main

from helpers import TWO_TOPIC_COUNTS, make_corpus, run_cli


NARROW_D = "RankingWarning: excluding 'd': insufficient overlap: 'd' shares 2 terms with the rest"

#: four documents whose aggregation stops in round 0 under --k 4: d is stop
#: words only, and a, b and c each form a cluster of their own, so round 0
#: would keep none of them
EARLY_STOP_TEXTS = {
    "a": "alpha beta gamma delta alpha beta gamma",
    "b": "alpha beta gamma delta alpha beta",
    "c": "alpha beta gamma epsilon",
    "d": "the and of",
}
EMPTY_D_ENTROPY = "PipelineWarning: document 'd' has no terms; excluded from token entropy"
EARLY_STOP_RANKING = [
    "RankingWarning: excluding 'c': zero variance input",
    "RankingWarning: excluding 'd': insufficient overlap: 'd' shares 0 terms with the rest",
]
EARLY_STOP_AGGREGATION = [
    "AggregationWarning: document 'd' has no terms; excluded from clustering",
    *(f"AggregationWarning: cluster {c} has 1 member(s); nothing selected" for c in range(3)),
    "AggregationWarning: aggregation stopped at round 0: only 0 document(s) would survive; "
    "keeping the previous selection",
]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    corpus, _ = synthetic_corpus((5, 4, 3), seed=2, length_range=(60, 90))
    return write_corpus(corpus, tmp_path_factory.mktemp("cli") / "corpus")


class TestRank:
    def test_tsv_output(self, corpus_dir):
        code, out, err = run_cli(main, ["rank", str(corpus_dir), "--top", "4"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "title\tcorrelation\tp_value"
        assert len(lines) == 5
        for line in lines[1:]:
            title, corr, p = line.split("\t")
            assert -1.0 <= float(corr) <= 1.0
            assert 0.0 <= float(p) <= 1.0

    def test_missing_corpus_is_reported_error(self, tmp_path):
        code, out, err = run_cli(main, ["rank", str(tmp_path / "nope")])
        assert code == 1
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("path", [5, None, ["a.txt"]], ids=["int", "null", "list"])
    def test_manifest_path_that_is_not_a_string_is_one_error_line(self, tmp_path, path):
        manifest = tmp_path / "m.jsonl"
        record = {"id": "a", "title": "t", "path": path}
        manifest.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code, out, err = run_cli(main, ["rank", str(manifest)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: manifest line 1 in {manifest}: path must be a string")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field", ["id", "title"])
    @pytest.mark.parametrize("value", [None, ["x"], 5], ids=["null", "list", "int"])
    def test_manifest_id_or_title_that_is_not_a_string_is_one_error_line(
        self, tmp_path, field, value
    ):
        for stem in ("a", "b"):
            (tmp_path / f"{stem}.txt").write_text(
                "signal noise channel entropy code signal", encoding="utf-8"
            )
        manifest = tmp_path / "m.jsonl"
        records = [
            {"id": "a", "title": "t", "path": "a.txt", field: value},
            {"id": "b", "title": "u", "path": "b.txt"},
        ]
        manifest.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        code, out, err = run_cli(main, ["rank", str(manifest)])
        assert code == 1
        assert out == ""
        assert err == (
            f"error: manifest line 1 in {manifest}: {field} must be a string, "
            f"got {type(value).__name__}\n"
        )

    @pytest.mark.parametrize(
        "title, in_manifest",
        [("tab\there", True), ("line\nbreak", True), ("cr\rhere", True), ("stem\ttab", False)],
        ids=["manifest-tab", "manifest-lf", "manifest-cr", "directory-stem"],
    )
    def test_title_with_a_tab_or_line_break_is_one_error_line(self, tmp_path, title, in_manifest):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        stems = ["a", "b", "c" if in_manifest else title]
        for stem in stems:
            (corpus / f"{stem}.txt").write_text(
                "signal noise channel entropy code signal", encoding="utf-8"
            )
        if in_manifest:
            records = [
                {"id": s, "title": title if s == "c" else s, "path": f"corpus/{s}.txt"}
                for s in stems
            ]
            corpus = tmp_path / "m.jsonl"
            corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        message = f"title of {stems[-1]!r} contains a tab or line break: {title!r}"
        assert run_cli(main, ["rank", str(corpus)]) == (1, "", f"error: {message}\n")
        assert run_cli(main, ["run", str(corpus), "--out", str(tmp_path / "out")]) == (
            1, "", f"error: ingest layer failed: {message}\n"
        )

    def test_warnings_print_one_line_each_even_as_errors(self, text_corpus_dir):
        (text_corpus_dir / "empty.txt").write_text("", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(main, ["rank", str(text_corpus_dir)])
        assert code == 0
        assert out.startswith("title\tcorrelation\tp_value\n")
        lines = err.splitlines()
        assert lines
        for line in lines:
            assert line.startswith("warning: RankingWarning:")
            assert ".py:" not in line


class TestAggregate:
    def test_tsv_output(self, corpus_dir):
        code, out, _ = run_cli(
            main,
            ["aggregate", str(corpus_dir), "--k", "3", "--rounds", "1",
             "--per-cluster", "2", "--seed", "42", "--top", "5"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "title\tcorrelation\tp_value"
        assert 2 <= len(lines) <= 6

    def test_deterministic(self, corpus_dir):
        argv = ["aggregate", str(corpus_dir), "--k", "3", "--seed", "7"]
        assert run_cli(main, argv) == run_cli(main, argv)


#: ``entropy`` on a file of stop words only: keys sorted, a 2-space indent,
#: null for the token entropies it has no terms for, one trailing newline
ENTROPY_STOPS_STDOUT = """{
  "bitstream_bits_per_byte": 3.334679141051595,
  "byte_count": 13,
  "distinct_terms": 0,
  "hartley_term_bits": null,
  "token_bits": null,
  "token_count": 0
}
"""

#: ``belief --frame é,b`` on evidence {é: 0.6, {é, b}: 0.4}: elements in
#: key order, not frame order, and ``é`` written raw, not as ``\u00e9``
BELIEF_STDOUT = """{
  "b": {
    "belief": 0.0,
    "plausibility": 0.4
  },
  "é": {
    "belief": 0.6,
    "plausibility": 1.0
  }
}
"""


class TestEntropy:
    def test_json_payload(self, corpus_dir):
        target = sorted(corpus_dir.glob("*.txt"))[0]
        code, out, _ = run_cli(main, ["entropy", str(target)])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "bitstream_bits_per_byte",
            "byte_count",
            "distinct_terms",
            "hartley_term_bits",
            "token_bits",
            "token_count",
        }
        assert payload["byte_count"] == target.stat().st_size
        assert 0.0 < payload["bitstream_bits_per_byte"] <= 8.0
        assert payload["token_bits"] > 0.0

    def test_empty_token_stream(self, tmp_path):
        target = tmp_path / "stops.txt"
        target.write_text("the and of 42", encoding="utf-8")
        code, out, _ = run_cli(main, ["entropy", str(target)])
        assert code == 0
        payload = json.loads(out)
        assert payload["token_count"] == 0
        assert payload["token_bits"] is None
        assert payload["hartley_term_bits"] is None

    def test_stdout_is_sorted_indented_json_with_null_for_absent_entropies(self, tmp_path):
        target = tmp_path / "stops.txt"
        target.write_text("the and of 42", encoding="utf-8")
        assert run_cli(main, ["entropy", str(target)]) == (0, ENTROPY_STOPS_STDOUT, "")

    def test_empty_file(self, tmp_path):
        target = tmp_path / "empty.txt"
        target.write_bytes(b"")
        code, out, err = run_cli(main, ["entropy", str(target)])
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "bitstream_bits_per_byte": None,
            "byte_count": 0,
            "distinct_terms": 0,
            "hartley_term_bits": None,
            "token_bits": None,
            "token_count": 0,
        }

    def test_byte_order_mark_counts_as_bytes_not_terms(self, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text("signal noise signal", encoding="utf-8")
        marked.write_text("signal noise signal", encoding="utf-8-sig")
        payloads = [json.loads(run_cli(main, ["entropy", str(p)])[1]) for p in (plain, marked)]
        assert payloads[1]["byte_count"] == payloads[0]["byte_count"] + 3
        for key in ("token_count", "distinct_terms", "token_bits", "hartley_term_bits"):
            assert payloads[1][key] == payloads[0][key]

    def test_non_utf8_file_is_reported_with_its_path(self, tmp_path):
        target = tmp_path / "latin1.txt"
        target.write_bytes(b"\xffcaf\xe9 signal noise")
        code, out, err = run_cli(main, ["entropy", str(target)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {target} is not valid UTF-8")


class TestBelief:
    def test_vacuous_prior(self):
        code, out, _ = run_cli(main, ["belief", "--frame", "b1,b2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["b1"] == {"belief": 0.0, "plausibility": 1.0}

    def test_prior_combined_with_evidence(self, tmp_path):
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"b1": 0.6, "b1,b2": 0.4}), encoding="utf-8")
        evidence = tmp_path / "evidence.json"
        evidence.write_text(json.dumps({"b1": 0.5, "b1,b2": 0.5}), encoding="utf-8")
        code, out, _ = run_cli(
            main,
            ["belief", "--frame", "b1,b2", "--prior", str(prior),
             "--evidence", str(evidence)],
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["b1"]["belief"] - 0.8) < 1e-12
        assert abs(payload["b2"]["plausibility"] - 0.2) < 1e-12

    def test_stdout_is_sorted_indented_json_with_names_written_raw(self, tmp_path):
        evidence = tmp_path / "evidence.json"
        evidence.write_text('{"é": 0.6, "é,b": 0.4}', encoding="utf-8")
        argv = ["belief", "--frame", "é,b", "--evidence", str(evidence)]
        assert run_cli(main, argv) == (0, BELIEF_STDOUT, "")

    def test_total_conflict_is_reported_error(self, tmp_path):
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"b1": 1.0}), encoding="utf-8")
        evidence = tmp_path / "evidence.json"
        evidence.write_text(json.dumps({"b2": 1.0}), encoding="utf-8")
        code, _, err = run_cli(
            main,
            ["belief", "--frame", "b1,b2", "--prior", str(prior),
             "--evidence", str(evidence)],
        )
        assert code == 1
        assert "irreconcilable evidence" in err

    def test_mass_file_with_a_byte_order_mark(self, tmp_path):
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"b1": 0.6, "b1,b2": 0.4}), encoding="utf-8-sig")
        code, out, err = run_cli(main, ["belief", "--frame", "b1,b2", "--prior", str(prior)])
        assert (code, err) == (0, "")
        assert json.loads(out)["b1"] == {"belief": 0.6, "plausibility": 1.0}

    def test_bad_mass_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([1, 2]), encoding="utf-8")
        code, _, err = run_cli(main, ["belief", "--frame", "b1", "--prior", str(bad)])
        assert code == 1
        assert "JSON object" in err

    @pytest.mark.parametrize(
        "body",
        [b"\xff{}", b'{"b1": [1]}', b'{"b1": null}', b'{"b1": true}', b'{"b1": 0.5',
         b'{"b1": 1' + b"0" * 400 + b"}"],
        ids=["non_utf8", "list", "null", "bool", "bad_json", "huge_int"],
    )
    def test_unreadable_mass_file_is_one_error_line(self, tmp_path, body):
        bad = tmp_path / "mass.json"
        bad.write_bytes(body)
        code, out, err = run_cli(main, ["belief", "--frame", "b1,b2", "--prior", str(bad)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert str(bad) in err


#: a JSON value nested deeper than the interpreter's recursion limit
DEEPLY_NESTED = "[" * 100_000 + "]" * 100_000 + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rank", "{file}"], "bad manifest line 1 in {file}: "),
        (["run", "{file}", "--out", "{out}"], "ingest layer failed: bad manifest line 1 in {file}: "),
        (["belief", "--frame", "a,b", "--prior", "{file}"], "mass file {file}: "),
        (["belief", "--frame", "a,b", "--evidence", "{file}"], "mass file {file}: "),
    ],
    ids=["rank", "run", "belief_prior", "belief_evidence"],
)
def test_a_deeply_nested_json_file_is_one_error_line(tmp_path, argv, message):
    """``json.loads`` raises ``RecursionError`` on a manifest line or mass
    file nested this deep; the command still exits 1 with one error line."""
    nested = tmp_path / "nested.json"
    nested.write_text(DEEPLY_NESTED, encoding="utf-8")

    def fill(text: str) -> str:
        return text.format(file=nested, out=tmp_path / "out")

    done = run_module(list(map(fill, argv)))
    assert (done.returncode, done.stdout) == (1, "")
    assert "Traceback" not in done.stderr
    assert done.stderr.count("error:") == 1 and done.stderr.count("\n") == 1
    assert done.stderr.startswith("error: " + fill(message)), done.stderr


def run_module(argv: list[str], timeout: float = 120) -> subprocess.CompletedProcess:
    """``python -m layerstack argv`` in a fresh process, writing UTF-8; one
    that runs past ``timeout`` seconds is killed and fails the test."""
    env = {**os.environ, "PYTHONIOENCODING": "utf-8"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "layerstack", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


#: every command that reads a corpus, with the options that let a
#: two-document corpus run; ``run`` is given its ``--out`` directory last
CORPUS_COMMANDS = pytest.mark.parametrize(
    "command",
    [["rank"], ["aggregate", "--k", "1"], ["scatter"], ["run", "--k", "1", "--out"]],
    ids=["rank", "aggregate", "scatter", "run"],
)


@CORPUS_COMMANDS
@pytest.mark.parametrize(
    "field, value",
    [(None, None), ("id", "x\udcff"), ("title", "v\udcff")],
    ids=["file-name", "manifest-id", "manifest-title"],
)
def test_a_document_name_that_is_not_utf8_is_one_error_line_before_any_output(
    tmp_path, command, field, value
):
    """A lone surrogate, from a non-UTF-8 byte of a file name or a
    ``\\udcff`` escape of a manifest, cannot be written as UTF-8: every
    corpus command fails on it, naming its source, before it writes."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for stem in ("a", "b"):
        (corpus / f"{stem}.txt").write_text(
            "signal noise channel entropy code signal", encoding="utf-8"
        )
    if field is None:
        try:
            with open(os.path.join(os.fsencode(corpus), b"c\xff.txt"), "wb") as file:
                file.write(b"signal noise code")
        except OSError:
            pytest.skip("the filesystem refuses a file name that is not valid UTF-8")
        source, message = corpus, f"file name in {corpus} is not valid UTF-8: 'c\\udcff.txt'"
    else:
        records = [
            {"id": "a", "title": "t", "path": "corpus/a.txt", field: value},
            {"id": "b", "title": "u", "path": "corpus/b.txt"},
        ]
        source = tmp_path / "m.jsonl"
        source.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        message = f"manifest line 1 in {source}: {field} is not valid UTF-8: {value!r}"
    out = tmp_path / "out"
    argv = [*command, str(out)] if command[0] == "run" else command
    done = run_module([*argv, str(source)])
    prefix = "ingest layer failed: " if command[0] == "run" else ""
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: {prefix}{message}\n"
    assert not out.exists()


def not_regular(kind: str, path: Path) -> Path:
    """A path that is not a regular file: a FIFO or a directory made at
    ``path``, or ``/dev/null`` for a device; skipped where the platform has
    no such thing."""
    if kind == "device":
        if os.devnull != "/dev/null" or not os.path.exists(os.devnull):
            pytest.skip("no /dev/null character device")
        return Path(os.devnull)
    if kind == "directory":
        path.mkdir()
    elif hasattr(os, "mkfifo"):
        os.mkfifo(path)
    else:
        pytest.skip("no named pipes on this platform")
    return path


@CORPUS_COMMANDS
@pytest.mark.parametrize("named_by", ["glob", "manifest", "device"])
def test_a_file_that_is_not_regular_is_one_error_line_not_a_hang(tmp_path, command, named_by):
    """A named pipe with no writer, found by the ``*.txt`` glob or named by a
    manifest, is refused before any read, which would block, and before any
    output; so is a character device named by a manifest."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for stem in ("a", "b"):
        (corpus / f"{stem}.txt").write_text("signal noise channel entropy code", encoding="utf-8")
    bad = not_regular("device" if named_by == "device" else "fifo", corpus / "pipe.txt")
    source = corpus
    if named_by != "glob":
        source = tmp_path / "m.jsonl"
        records = [{"id": stem, "title": stem, "path": f"corpus/{stem}.txt"} for stem in "ab"]
        records.append({"id": "p", "title": "p", "path": str(bad)})
        source.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "out"
    argv = [*command, str(out)] if command[0] == "run" else command
    done = run_module([*argv, str(source)], timeout=60)
    prefix = "ingest layer failed: " if command[0] == "run" else ""
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: {prefix}cannot read {bad}: not a regular file\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, kind",
    [
        ("entropy", "fifo"),
        ("entropy", "device"),
        ("entropy", "directory"),
        ("rank", "fifo"),
        ("rank", "device"),
    ],
)
def test_a_named_file_that_is_not_regular_is_one_error_line(tmp_path, command, kind):
    """``entropy`` reads only a regular file: a FIFO, which would block,
    ``/dev/null``, which read as an empty file, and a directory each end in
    one error line. So do a FIFO and a device given as a corpus manifest."""
    path = not_regular(kind, tmp_path / "x.txt")
    done = run_module([command, str(path)], timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: cannot read {path}: not a regular file\n"


class TestScatter:
    def test_csv_output(self, corpus_dir):
        code, out, _ = run_cli(main, ["scatter", str(corpus_dir)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "doc_id,term,doc_proportion,reference_proportion,deviation"
        assert len(lines) > 1

    def test_single_doc_filter(self, corpus_dir):
        code, out, _ = run_cli(main, ["scatter", str(corpus_dir), "--doc", "doc000"])
        assert code == 0
        doc_ids = {line.split(",")[0] for line in out.splitlines()[1:]}
        assert doc_ids == {"doc000"}

    def test_empty_doc_is_a_warning(self, tmp_path):
        (tmp_path / "empty.txt").write_text("", encoding="utf-8")
        (tmp_path / "full.txt").write_text("signal noise channel\n", encoding="utf-8")
        code, out, err = run_cli(main, ["scatter", str(tmp_path), "--doc", "empty"])
        assert code == 0
        assert out == "doc_id,term,doc_proportion,reference_proportion,deviation\n"
        assert err == "warning: PipelineWarning: document 'empty' has no terms; skipped in fig4\n"

    def test_unknown_doc_is_reported_error(self, corpus_dir):
        code, _, err = run_cli(main, ["scatter", str(corpus_dir), "--doc", "ghost"])
        assert code == 1
        assert "ghost" in err


class TestRun:
    def test_produces_all_artifacts(self, corpus_dir, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            main, ["run", str(corpus_dir), "--out", str(out_dir), "--k", "3"]
        )
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "fig3.csv",
            "fig4.csv",
            "report.json",
            "table1.json",
            "table1.tsv",
            "table2.json",
            "table2.tsv",
        ]
        assert str(out_dir / "report.json") in out

    @pytest.mark.parametrize(
        "texts, options, notes, fig4_notes, aggregate_notes",
        [
            pytest.param(
                {
                    "a": "alpha beta gamma delta epsilon zeta alpha beta",
                    "b": "alpha beta gamma delta epsilon eta alpha gamma",
                    "d": "alpha beta omega psi chi",
                },
                ["--rounds", "0", "--k", "2"],
                [NARROW_D],
                [],
                [NARROW_D],
                id="rounds-0",
            ),
            pytest.param(
                EARLY_STOP_TEXTS,
                ["--k", "4"],
                [EMPTY_D_ENTROPY, *EARLY_STOP_RANKING, *EARLY_STOP_AGGREGATION],
                ["PipelineWarning: document 'd' has no terms; skipped in fig4"],
                # the aggregate command notes its rounds, then its own ranking
                [*EARLY_STOP_AGGREGATION, *EARLY_STOP_RANKING],
                id="round-0-stops-early",
            ),
        ],
    )
    def test_a_ranking_warning_is_noted_once_with_no_completed_round(
        self, tmp_path, texts, options, notes, fig4_notes, aggregate_notes
    ):
        # with no completed round the aggregated ranking is the knowledge
        # layer's ranking of the same corpus; its warnings must not be
        # noted again
        corpus = tmp_path / "c"
        corpus.mkdir()
        for stem, text in texts.items():
            (corpus / f"{stem}.txt").write_text(text + "\n", encoding="utf-8")
        out_dir = tmp_path / "o"
        code, _, err = run_cli(main, ["run", str(corpus), "--out", str(out_dir), *options])
        assert code == 0
        assert err.splitlines() == [f"warning: {note}" for note in notes + fig4_notes]
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["warnings"] == notes
        assert report["sections"]["intelligence"]["rounds"] == []
        assert report["sections"]["intelligence"]["aggregated_ranking"] == (
            report["sections"]["knowledge"]["ranking"]
        )
        # the aggregate command ranks only once, and keeps its notes
        _, _, err = run_cli(main, ["aggregate", str(corpus), *options])
        assert err.splitlines() == [f"warning: {note}" for note in aggregate_notes]

    def test_out_naming_a_file_is_one_emit_error_line(self, corpus_dir, tmp_path):
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        code, stdout, err = run_cli(main, ["run", str(corpus_dir), "--out", str(out)])
        assert code == 1
        assert stdout == ""
        assert err == f"error: emit layer failed: [Errno 17] File exists: '{out}'\n"

    def test_an_entropic_gain_that_overflows_is_one_intelligence_error_line(self, tmp_path):
        # z shares no term with the survivors, so merging it adds bits of
        # entropy, and bits times a strength of 1e308 overflow a float
        corpus = tmp_path / "c"
        corpus.mkdir()
        for i in range(1, 7):
            (corpus / f"d{i}.txt").write_text(
                "alpha beta gamma delta alpha beta gamma\n", encoding="utf-8"
            )
        words = (f"w{chr(97 + i // 26)}{chr(97 + i % 26)}x" for i in range(400))
        (corpus / "z.txt").write_text(" ".join(words) + "\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        argv = ["run", str(corpus), "--out", str(out_dir), "--k", "2"]
        assert run_cli(main, [*argv, "--reservoir-strength", "1e308"]) == (
            1,
            "",
            "error: intelligence layer failed: entropic gain of 'z' overflows a float: inf\n",
        )
        assert not out_dir.exists()
        assert run_cli(main, [*argv, "--reservoir-strength", "1e300"])[0] == 0
        for path in out_dir.glob("*.json"):
            json.loads(path.read_text(encoding="utf-8"), parse_constant=pytest.fail)
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["sections"]["intelligence"]["entropic_gains"]["z"] > 1e300

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_report_or_table_holding_no_json_number_is_one_emit_error(
        self, corpus_dir, tmp_path, value
    ):
        report = run_pipeline(RunConfig(source=corpus_dir, out_dir=tmp_path / "out"))
        knowledge = dict(report.sections["knowledge"])
        knowledge["ranking"] = [{**knowledge["ranking"][0], "correlation": value}]
        broken = replace(report, sections={**report.sections, "knowledge": knowledge})
        for emit in (write_report, emit_tables):
            with pytest.raises(PipelineError, match="^emit layer failed: Out of range float"):
                emit(broken)
        assert not (tmp_path / "out").exists()

    def test_stop_word_override_changes_vocabulary(self, corpus_dir, tmp_path):
        stops = tmp_path / "stops.txt"
        stops.write_text("core00\ncore01\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            main,
            ["run", str(corpus_dir), "--out", str(out_dir), "--stopwords", str(stops)],
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["config"]["stop_words_path"] == str(stops)
        fig3 = (out_dir / "fig3.csv").read_text(encoding="utf-8")
        assert "core00" not in fig3

    def test_stop_word_file_with_a_byte_order_mark(self, corpus_dir, tmp_path):
        stops = tmp_path / "stops.txt"
        stops.write_text("core00\ncore01\n", encoding="utf-8-sig")
        out_dir = tmp_path / "out"
        argv = ["run", str(corpus_dir), "--out", str(out_dir), "--stopwords", str(stops)]
        assert run_cli(main, argv)[0] == 0
        fig3 = (out_dir / "fig3.csv").read_text(encoding="utf-8")
        assert "core00" not in fig3 and "core01" not in fig3


class TestTablesMatchReport:
    """table1/table2 hold exactly the report's knowledge and aggregated
    ranking rows, in both formats, whether or not a layer was skipped."""

    TABLES = (("table1", "knowledge", "ranking"), ("table2", "intelligence", "aggregated_ranking"))

    def run_and_compare(self, source, out_dir, *flags):
        code, _, _ = run_cli(main, ["run", str(source), "--out", str(out_dir), *flags])
        assert code == 0
        sections = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["sections"]
        for table, layer, key in self.TABLES:
            rows = sections[layer].get(key, [])
            assert json.loads((out_dir / f"{table}.json").read_text(encoding="utf-8")) == rows
            lines = (out_dir / f"{table}.tsv").read_text(encoding="utf-8").splitlines()
            assert lines == ["title\tcorrelation\tp_value"] + [
                f"{row['title']}\t{row['correlation']:.3f}\t{row['p_value']:.2e}" for row in rows
            ]
        return sections

    def test_normal_corpus(self, corpus_dir, tmp_path):
        sections = self.run_and_compare(corpus_dir, tmp_path / "out", "--k", "3")
        assert sections["knowledge"]["ranking"]
        assert sections["intelligence"]["aggregated_ranking"]

    def test_more_clusters_than_documents(self, corpus_dir, tmp_path):
        out_dir = tmp_path / "out"
        sections = self.run_and_compare(corpus_dir, out_dir, "--k", "13")
        assert sections["intelligence"]["skipped"] is True
        assert sections["knowledge"]["ranking"]
        assert (out_dir / "table2.tsv").read_text(encoding="utf-8") == "title\tcorrelation\tp_value\n"
        assert (out_dir / "table2.json").read_text(encoding="utf-8") == "[]\n"

    def test_disjoint_survivors_skip_wisdom(self, tmp_path):
        source = write_corpus(make_corpus(TWO_TOPIC_COUNTS), tmp_path / "corpus")
        out_dir = tmp_path / "out"
        sections = self.run_and_compare(
            source, out_dir, "--k", "2", "--per-cluster", "1", "--seed", "0"
        )
        assert sections["intelligence"]["skipped"] is False
        assert sections["intelligence"]["aggregated_ranking"] == []
        assert sections["wisdom"] == {"skipped": True, "reason": "empty final ranking"}
        assert (out_dir / "table2.tsv").read_text(encoding="utf-8") == "title\tcorrelation\tp_value\n"


@pytest.fixture(scope="module")
def artifact_run(tmp_path_factory):
    """One ``run`` over a titled 36-doc corpus; the per-layer commands below
    share its --k/--top/--seed and must print its artifacts verbatim."""
    root = tmp_path_factory.mktemp("parity")
    corpus, _ = synthetic_corpus((18, 12, 6), seed=0)
    source = write_corpus(corpus, root / "corpus", manifest=True)
    out_dir = root / "out"
    code, _, _ = run_cli(
        main,
        ["run", str(source), "--out", str(out_dir), "--k", "3", "--top", "5", "--seed", "42"],
    )
    assert code == 0
    return source, out_dir


class TestStdoutMatchesArtifacts:
    @pytest.mark.parametrize(
        "argv, artifact",
        [
            (["rank", "--top", "5"], "table1.tsv"),
            (["aggregate", "--k", "3", "--top", "5", "--seed", "42"], "table2.tsv"),
            (["scatter"], "fig4.csv"),
        ],
        ids=["rank", "aggregate", "scatter"],
    )
    def test_command_prints_run_artifact(self, artifact_run, argv, artifact):
        source, out_dir = artifact_run
        code, out, _ = run_cli(main, [argv[0], str(source), *argv[1:]])
        assert code == 0
        assert out == (out_dir / artifact).read_text(encoding="utf-8")


def test_readme_command_lines_parse():
    """Every ``layerstack ...`` line of the README is accepted by the parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line.split("#")[0] for line in readme.splitlines() if line.startswith("layerstack ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


class TestRunConfigIsTheOneFieldList:
    """``run`` options are ``RunConfig`` fields by name, and every default
    the CLI or ``aggregate_corpus`` shows is the field's own."""

    class Stop(Exception):
        pass

    def run_config(self, argv) -> RunConfig:
        """The config ``layerstack run`` hands the pipeline for ``argv``."""
        with mock.patch("layerstack.pipeline.run_pipeline", side_effect=self.Stop) as pipeline:
            with pytest.raises(self.Stop):
                main(["run", *argv])
        return pipeline.call_args.args[0]

    def test_defaults_are_the_config_defaults(self):
        assert self.run_config(["c"]) == RunConfig(source="c")

    def test_each_option_sets_its_field(self):
        argv = ["c", "--out", "o", "--stopwords", "s", "--k", "4", "--rounds", "0"]
        argv += ["--per-cluster", "2", "--top", "9", "--seed", "7"]
        argv += ["--reservoir-strength", "2.5", "--force-bit-layer"]
        expected = RunConfig(
            source="c", out_dir="o", stop_words_path="s", k=4, rounds=0, per_cluster=2,
            top_k=9, seed=7, reservoir_strength=2.5, force_bit_layer=True,
        )
        assert self.run_config(argv) == expected
        assert all(getattr(expected, f.name) != f.default for f in fields(RunConfig))

    @pytest.mark.parametrize(
        "command, names",
        [("rank", ["top_k"]), ("aggregate", ["top_k", "k", "rounds", "per_cluster", "seed"])],
    )
    def test_layer_command_defaults_are_the_config_defaults(self, command, names):
        args = build_parser().parse_args([command, "c"])
        for name in names:
            assert getattr(args, name) == getattr(RunConfig, name), name

    def test_aggregate_corpus_defaults_are_the_config_defaults(self):
        parameters = inspect.signature(aggregate_corpus).parameters
        for name in ("rounds", "per_cluster", "seed"):
            assert parameters[name].default == getattr(RunConfig, name), name


class TestArgumentValidation:
    @staticmethod
    def assert_usage_exit(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in err.getvalue()

    def test_bad_k_exits_2(self, corpus_dir):
        self.assert_usage_exit(["run", str(corpus_dir), "--k", "0"])

    def test_negative_rounds_exits_2(self, corpus_dir):
        self.assert_usage_exit(["aggregate", str(corpus_dir), "--rounds", "-1"])

    @pytest.mark.parametrize("command", ["run", "aggregate"])
    def test_negative_seed_exits_2(self, corpus_dir, command):
        self.assert_usage_exit([command, str(corpus_dir), "--seed", "-1"])

    @pytest.mark.parametrize("strength", ["0", "inf", "nan"])
    def test_bad_reservoir_strength_exits_2(self, corpus_dir, strength):
        self.assert_usage_exit(["run", str(corpus_dir), "--reservoir-strength", strength])

    def test_missing_subcommand_exits_2(self):
        self.assert_usage_exit([])


#: the category that opens every soft-error line on stderr
NOTE_PREFIXES = tuple(
    f"warning: {name}: " for name in ("RankingWarning", "AggregationWarning", "PipelineWarning")
)
WORDS = ["signal", "noise", "channel", "entropy", "code", "cluster", "vector"]
#: file bodies: empty, stop words only, one term, and word mixes
BODIES = st.one_of(
    st.sampled_from([b"", b"the and of the a"]),
    st.sampled_from(WORDS).map(str.encode),
    st.lists(st.sampled_from(WORDS), min_size=2, max_size=12).map(lambda w: " ".join(w).encode()),
)


def _can_symlink() -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.symlink("target", Path(tmp) / "link")
        except (OSError, NotImplementedError, AttributeError):
            return False
    return True


#: corpus entries that are not regular files: a directory named ``*.txt``,
#: and, where symlinks can be made, a dangling symlink and a symlink loop
ODD_ENTRIES = ["directory", *(["dangling", "loop"] if _can_symlink() else [])]
#: a value of every JSON type for a manifest's id, title or path
JSON_VALUES = [None, True, False, 7, -2.5, [], ["a"], {}, {"id": "a"}, "corpus/d0.txt"]


@st.composite
def degenerate_sources(draw) -> tuple[dict[str, bytes | str], list[dict] | None]:
    """Up to six corpus entries, and either no manifest (a directory corpus)
    or a manifest over them whose titles need quoting and whose ids may
    repeat. An entry is a file body, which may open with a byte-order mark
    or not be UTF-8, or a name from ``ODD_ENTRIES``; a manifest record may
    hold a value of any JSON type for its id, title or path."""
    bom = st.booleans().map(lambda bom: b"\xef\xbb\xbf" if bom else b"")
    bodies = st.builds(bytes.__add__, bom, BODIES)
    entries = draw(st.lists(st.one_of(bodies, st.sampled_from(ODD_ENTRIES)), max_size=6))
    if entries and draw(st.integers(0, 4)) == 4:
        entries[draw(st.integers(0, len(entries) - 1))] = b"signal \xff\xfe noise"
    files = {f"d{i}.txt": entry for i, entry in enumerate(entries)}
    if not draw(st.booleans()):
        return files, None
    ids = draw(st.permutations(["a", "b", "c", "d e", 'q"x', "\u00f1,1"]))[: len(files)]
    if len(ids) > 1 and draw(st.integers(0, 3)) == 1:
        ids[-1] = ids[0]
    titles = st.text('tT ,"\u00fc\t\r\n', max_size=4)
    manifest = [
        {"id": doc_id, "title": draw(titles), "path": f"corpus/{name}"}
        for doc_id, name in zip(ids, files)
    ]
    if manifest and draw(st.booleans()):
        record = draw(st.sampled_from(manifest))
        record[draw(st.sampled_from(["id", "title", "path"]))] = draw(st.sampled_from(JSON_VALUES))
    return files, manifest


def write_entry(path: Path, entry: bytes | str) -> None:
    """Make one corpus entry of :func:`degenerate_sources` at ``path``."""
    if isinstance(entry, bytes):
        path.write_bytes(entry)
    elif entry == "directory":
        path.mkdir()
    elif entry == "dangling":
        os.symlink(path.with_name("missing"), path)
    else:
        os.symlink(path.name, path)


def assert_ends_cleanly(code, out, err):
    """Exit 0 with only soft-error lines, or exit 1 with one error line last
    and nothing on stdout."""
    lines = err.splitlines()
    if code == 0:
        assert all(line.startswith(NOTE_PREFIXES) for line in lines), err
    else:
        assert code == 1
        assert out == "", out
        assert lines and lines[-1].startswith("error: "), err
        assert all(line.startswith(NOTE_PREFIXES) for line in lines[:-1]), err


@settings(max_examples=30)
@given(
    source=degenerate_sources(),
    k=st.integers(1, 8),
    rounds=st.integers(0, 2),
    per_cluster=st.integers(1, 3),
    force_bit_layer=st.booleans(),
)
def test_degenerate_corpora_end_in_notes_or_one_error(
    source, k, rounds, per_cluster, force_bit_layer
):
    """Every subcommand over a small, possibly degenerate corpus exits 0 with
    a reason for each skipped layer, or 1 with a one-line error; no
    exception escapes ``main``."""
    files, manifest = source
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        corpus_dir = root / "corpus"
        corpus_dir.mkdir()
        for name, entry in files.items():
            write_entry(corpus_dir / name, entry)
        corpus = corpus_dir
        if manifest is not None:
            corpus = root / "manifest.jsonl"
            lines = (json.dumps(record) + "\n" for record in manifest)
            corpus.write_text("".join(lines), encoding="utf-8")
        clustering = ["--k", str(k), "--rounds", str(rounds), "--per-cluster", str(per_cluster)]
        out_dir = root / "out"
        commands = [
            ["run", str(corpus), "--out", str(out_dir), *clustering]
            + (["--force-bit-layer"] if force_bit_layer else []),
            ["rank", str(corpus)],
            ["aggregate", str(corpus), *clustering],
            ["scatter", str(corpus)],
        ]
        for argv in commands:
            code, out, err = run_cli(main, argv)
            assert_ends_cleanly(code, out, err)
            if argv[0] == "run" and "error: ingest layer failed" in err:
                assert not out_dir.exists() or not any(out_dir.iterdir())
            if argv[0] == "run" and code == 0:
                report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
                for section in report["sections"].values():
                    assert not section["skipped"] or section["reason"]
