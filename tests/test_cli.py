import contextlib
import io
import json
import shlex
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerstack import synthetic_corpus, write_corpus
from layerstack.cli import build_parser, main

from helpers import TWO_TOPIC_COUNTS, make_corpus, run_cli


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

    def test_out_naming_a_file_is_one_emit_error_line(self, corpus_dir, tmp_path):
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        code, stdout, err = run_cli(main, ["run", str(corpus_dir), "--out", str(out)])
        assert code == 1
        assert stdout == ""
        assert err == f"error: emit layer failed: [Errno 17] File exists: '{out}'\n"

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


@st.composite
def degenerate_sources(draw) -> tuple[dict[str, bytes], list[dict[str, str]] | None]:
    """Up to six file bodies, one of which may not be UTF-8, and either no
    manifest (a directory corpus) or a manifest over them whose titles need
    quoting and whose ids may repeat."""
    bodies = draw(st.lists(BODIES, max_size=6))
    if bodies and draw(st.integers(0, 4)) == 4:
        bodies[draw(st.integers(0, len(bodies) - 1))] = b"signal \xff\xfe noise"
    files = {f"d{i}.txt": body for i, body in enumerate(bodies)}
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
    return files, manifest


def assert_ends_cleanly(code, err):
    """Exit 0 with only soft-error lines, or exit 1 with one error line last."""
    lines = err.splitlines()
    if code == 0:
        assert all(line.startswith(NOTE_PREFIXES) for line in lines), err
    else:
        assert code == 1
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
        for name, body in files.items():
            (corpus_dir / name).write_bytes(body)
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
            code, _, err = run_cli(main, argv)
            assert_ends_cleanly(code, err)
            if argv[0] == "run" and code == 0:
                report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
                for section in report["sections"].values():
                    assert not section["skipped"] or section["reason"]
