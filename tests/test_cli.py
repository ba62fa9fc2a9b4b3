import contextlib
import io
import json
import warnings

import pytest

from layerstack import synthetic_corpus, write_corpus
from layerstack.cli import main

from helpers import run_cli


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

    def test_missing_subcommand_exits_2(self):
        self.assert_usage_exit([])
