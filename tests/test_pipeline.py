import csv
import dataclasses
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from layerstack import pipeline
from layerstack import (
    LAYERS,
    PipelineError,
    RunConfig,
    emit_plot_data,
    emit_tables,
    rank_documents,
    run_pipeline,
    synthetic_corpus,
    write_corpus,
    write_report,
)
from layerstack.cli import main

from helpers import run_cli


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One pipeline run over a 12-doc synthetic corpus, shared read-only."""
    root = tmp_path_factory.mktemp("pipe")
    corpus, _ = synthetic_corpus((6, 4, 2), seed=1, length_range=(80, 120))
    source = write_corpus(corpus, root / "corpus", manifest=True)
    config = RunConfig(source=source, out_dir=root / "out", k=3, top_k=5, seed=42)
    return config, run_pipeline(config), root


class TestRunReport:
    def test_sections_cover_all_layers(self, small_run):
        _, report, _ = small_run
        assert set(report.sections) == set(LAYERS)

    def test_bit_layer_skipped_for_text_by_default(self, small_run):
        config, report, _ = small_run
        assert report.sections["bit"]["skipped"] is True
        assert "force_bit_layer" in report.sections["bit"]["reason"]
        # a skipped bit layer keeps no byte histogram past ingest
        assert pipeline._ingest(config)[1] == {}

    def test_force_bit_layer(self, small_run):
        config, _, root = small_run
        forced = RunConfig(
            source=config.source, out_dir=root / "out-forced", force_bit_layer=True
        )
        report = run_pipeline(forced)
        bit = report.sections["bit"]
        assert bit["skipped"] is False
        assert 0.0 < bit["pooled_bits_per_byte"] <= 8.0
        assert len(bit["per_document_bits_per_byte"]) == 12

    def test_data_layer_totals(self, small_run):
        _, report, _ = small_run
        data = report.sections["data"]
        assert data["skipped"] is False
        assert data["vocabulary_size"] == len(report.corpus.vocabulary)
        assert math.isclose(
            data["hartley_vocabulary_bits"],
            math.log2(data["vocabulary_size"]),
            abs_tol=1e-12,
        )
        assert len(data["per_document_bits"]) == 12

    def test_information_layer_identities(self, small_run):
        _, report, _ = small_run
        info = report.sections["information"]
        assert info["skipped"] is False
        # H(doc,term) - H(doc) and H(doc,term) - H(term), both non-negative
        assert math.isclose(
            info["residual_term_bits_given_document"],
            info["joint_bits"] - info["document_marginal_bits"],
            abs_tol=1e-9,
        )
        assert info["residual_document_bits_given_term"] >= -1e-9
        assert info["joint_bits"] >= info["term_marginal_bits"] - 1e-9

    def test_knowledge_matches_standalone_ranking(self, small_run):
        _, report, _ = small_run
        expected = rank_documents(report.corpus, top_k=5)
        rows = report.sections["knowledge"]["ranking"]
        assert [row["doc_id"] for row in rows] == [r.doc_id for r in expected]
        for row, res in zip(rows, expected):
            assert row["correlation"] == res.r  # full precision in the report
            assert row["p_value"] == res.p_value

    def test_intelligence_section_traces_rounds(self, small_run):
        _, report, _ = small_run
        intel = report.sections["intelligence"]
        assert intel["skipped"] is False
        (round0,) = intel["rounds"]
        assert round0["k"] == 3
        assert sum(round0["cluster_sizes"]) == 12
        assert set(intel["survivors"]) == set(round0["selected"])
        assert len(intel["aggregated_ranking"]) <= 5
        for doc_id, gain in intel["entropic_gains"].items():
            assert doc_id not in set(intel["survivors"])
            assert math.isfinite(gain)

    def test_wisdom_identity_holds(self, small_run):
        _, report, _ = small_run
        wisdom = report.sections["wisdom"]
        assert wisdom["skipped"] is False
        assert math.isclose(
            wisdom["crowd_sq_error"] + wisdom["diversity"],
            wisdom["avg_individual_sq_error"],
            rel_tol=1e-9,
            abs_tol=1e-9,
        )
        aggregated = report.sections["intelligence"]["aggregated_ranking"]
        assert wisdom["truth"] == aggregated[0]["correlation"]

    def test_belief_posterior_is_normalized(self, small_run):
        _, report, _ = small_run
        bel = report.sections["belief"]
        assert bel["skipped"] is False
        assert len(bel["keywords"]) == 5
        assert math.isclose(sum(bel["posterior"].values()), 1.0, abs_tol=1e-9)
        for kw in bel["keywords"]:
            entry = bel["singletons"][kw]
            assert 0.0 <= entry["belief"] <= entry["plausibility"] <= 1.0 + 1e-12
        evidence_total = sum(bel["evidence"].values())
        assert evidence_total <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "section, message",
        [
            (None, f"sections must cover exactly {LAYERS}"),
            ({}, "section 'bit' lacks a skipped marker"),
            ({"skipped": True, "reason": ""}, "skipped section 'bit' lacks a reason"),
        ],
    )
    def test_sections_checked(self, small_run, section, message):
        _, report, _ = small_run
        sections = {layer: {"skipped": False} for layer in LAYERS}
        if section is None:
            del sections["bit"]
        else:
            sections["bit"] = section
        with pytest.raises(ValueError) as raised:
            dataclasses.replace(report, sections=sections)
        assert str(raised.value) == message

    def test_provenance_tracks_input(self, small_run):
        config, report, root = small_run
        assert report.provenance["document_count"] == 12
        assert len(report.provenance["input_sha256"]) == 64
        # identical rerun -> identical report text
        again = run_pipeline(config)
        assert again.to_json() == report.to_json()


class TestBeliefEvidenceOracle:
    def test_evidence_matches_brute_force_recomputation(self, small_run):
        """Recompute the keyword evidence in plain Python: for each top-k
        ranked document, the positive per-term pieces dx*dy/denom of its
        Pearson sum against a Counter leave-one-out reference, pooled per
        keyword and renormalised."""
        config, report, _ = small_run
        corpus = report.corpus
        section = report.sections["belief"]
        assert section["skipped"] is False
        totals = Counter()
        for doc in corpus:
            totals.update(doc.token_counts)
        by_frequency = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        keywords = [term for term, _ in by_frequency[: config.top_k]]
        assert section["keywords"] == keywords

        contributions = dict.fromkeys(keywords, 0.0)
        ranking = report.sections["knowledge"]["ranking"]
        assert len(ranking) == config.top_k
        for row in ranking:
            doc = corpus.get(row["doc_id"])
            reference = Counter()
            for other in corpus:
                if other.id != doc.id:
                    reference.update(other.token_counts)
            ref_total = sum(reference.values())
            shared = sorted(t for t in doc.token_counts if reference[t] > 0)
            xs = [math.log10(doc.token_counts[t] / doc.total_tokens) for t in shared]
            ys = [math.log10(reference[t] / ref_total) for t in shared]
            mean_x = math.fsum(xs) / len(xs)
            mean_y = math.fsum(ys) / len(ys)
            dx = [x - mean_x for x in xs]
            dy = [y - mean_y for y in ys]
            denom = math.sqrt(math.fsum(a * a for a in dx) * math.fsum(b * b for b in dy))
            for term, a, b in zip(shared, dx, dy):
                piece = a * b / denom
                if term in contributions and piece > 0.0:
                    contributions[term] += piece
        total = math.fsum(contributions.values())
        assert total > 0.0
        evidence = section["evidence"]
        assert list(evidence) == keywords
        for keyword in keywords:
            assert abs(evidence[keyword] - contributions[keyword] / total) <= 1e-12


class TestDegenerateCorpora:
    def test_single_document_run_skips_downstream(self, tmp_path):
        (tmp_path / "only.txt").write_text(
            "signal noise channel signal entropy", encoding="utf-8"
        )
        config = RunConfig(source=tmp_path, out_dir=tmp_path / "out")
        report = run_pipeline(config)
        assert report.sections["data"]["skipped"] is False
        assert report.sections["knowledge"]["skipped"] is True
        assert report.sections["intelligence"]["skipped"] is True
        assert report.sections["wisdom"]["skipped"] is True
        assert report.sections["belief"]["skipped"] is True

    def test_single_document_fig4_header_only_with_warning(self, tmp_path):
        (tmp_path / "only.txt").write_text("signal noise channel", encoding="utf-8")
        config = RunConfig(source=tmp_path, out_dir=tmp_path / "out")
        report = run_pipeline(config)
        notes: list[str] = []
        paths = emit_plot_data(report, notes)
        assert notes == ["PipelineWarning: no reference terms for 'only'; skipped in fig4"]
        fig4 = next(p for p in paths if p.name == "fig4.csv")
        lines = fig4.read_text(encoding="utf-8").splitlines()
        assert lines == ["doc_id,term,doc_proportion,reference_proportion,deviation"]

    def test_fewer_documents_than_clusters_skips_intelligence(self, tmp_path):
        corpus, _ = synthetic_corpus((2, 2), seed=0, length_range=(50, 80))
        source = write_corpus(corpus, tmp_path / "c")
        config = RunConfig(source=source, out_dir=tmp_path / "out", k=9)
        report = run_pipeline(config)
        assert report.sections["intelligence"]["skipped"] is True
        assert "fewer documents than clusters" in report.sections["intelligence"]["reason"]
        assert report.sections["knowledge"]["skipped"] is False

    def test_missing_source_is_ingest_failure(self, tmp_path):
        config = RunConfig(source=tmp_path / "nope", out_dir=tmp_path / "out")
        with pytest.raises(PipelineError, match="ingest layer failed"):
            run_pipeline(config)


class TestEmitters:
    def test_report_file_round_trips(self, small_run):
        _, report, _ = small_run
        path = write_report(report)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload) == {"config", "provenance", "sections", "warnings"}
        assert set(payload["sections"]) == set(LAYERS)

    def test_tsv_tables_have_mandated_shape(self, small_run):
        _, report, _ = small_run
        paths = emit_tables(report)
        assert [p.name for p in paths] == ["table1.tsv", "table2.tsv", "table1.json", "table2.json"]
        for path in paths[:2]:
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[0] == "title\tcorrelation\tp_value"
            for line in lines[1:]:
                title, corr, p = line.split("\t")
                assert title
                float(corr)
                assert len(corr.split(".")[1]) == 3
                float(p)
                assert "e" in p

    def test_json_tables_keep_full_precision(self, small_run):
        _, report, _ = small_run
        paths = emit_tables(report)
        rows = json.loads(paths[2].read_text(encoding="utf-8"))
        expected = rank_documents(report.corpus, top_k=5)
        assert [row["doc_id"] for row in rows] == [res.doc_id for res in expected]
        assert rows[0]["correlation"] == expected[0].r

    def test_fig3_lists_top_terms_per_document(self, small_run):
        _, report, _ = small_run
        paths = emit_plot_data(report)
        with paths[0].open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        by_doc = {}
        for row in rows:
            by_doc.setdefault(row["doc_id"], []).append(row)
        assert set(by_doc) == {d.id for d in report.corpus.documents}
        for doc_id, doc_rows in by_doc.items():
            assert len(doc_rows) == 10
            assert [int(r["rank"]) for r in doc_rows] == list(range(1, 11))
            counts = [int(r["count"]) for r in doc_rows]
            assert counts == sorted(counts, reverse=True)

    def test_fig4_deviation_consistent(self, small_run):
        _, report, _ = small_run
        paths = emit_plot_data(report)
        with paths[1].open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows, "expected scatter points for a 12-doc corpus"
        for row in rows[:50]:
            dev = math.log10(float(row["doc_proportion"])) - math.log10(
                float(row["reference_proportion"])
            )
            assert math.isclose(float(row["deviation"]), dev, abs_tol=1e-9)


class TestRunConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="k must be"):
            RunConfig(source=tmp_path, out_dir=tmp_path, k=0)
        with pytest.raises(ValueError, match="rounds"):
            RunConfig(source=tmp_path, out_dir=tmp_path, rounds=-1)
        with pytest.raises(ValueError, match="per_cluster"):
            RunConfig(source=tmp_path, out_dir=tmp_path, per_cluster=0)
        with pytest.raises(ValueError, match="top_k"):
            RunConfig(source=tmp_path, out_dir=tmp_path, top_k=0)
        with pytest.raises(ValueError, match="reservoir_strength"):
            RunConfig(source=tmp_path, out_dir=tmp_path, reservoir_strength=0.0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            RunConfig(source=tmp_path, out_dir=tmp_path, seed=-1)

    def test_numpy_integer_fields_run_as_python_ints(self, small_run):
        config, report, root = small_run
        out_dir = root / "out-numpy"
        numpy_config = RunConfig(
            source=config.source,
            out_dir=out_dir,
            k=np.int64(config.k),
            top_k=np.int64(config.top_k),
            seed=np.int64(config.seed),
        )
        assert numpy_config == dataclasses.replace(config, out_dir=out_dir)
        assert {type(numpy_config.k), type(numpy_config.top_k), type(numpy_config.seed)} == {int}
        expected = report.to_json().replace(json.dumps(str(config.out_dir)), json.dumps(str(out_dir)))
        assert run_pipeline(numpy_config).to_json() == expected

    @pytest.mark.parametrize("name", ["k", "rounds", "per_cluster", "top_k", "seed"])
    def test_float_integer_field_rejected(self, tmp_path, name):
        with pytest.raises(TypeError) as raised:
            RunConfig(source=tmp_path, out_dir=tmp_path, **{name: 2.0})
        assert str(raised.value) == "'float' object cannot be interpreted as an integer"

    def test_numpy_bool_runs_as_a_python_bool(self, small_run):
        config, _, root = small_run
        reports = []
        for name, flag in (("out-bool", True), ("out-numpy-bool", np.bool_(True))):
            run_config = dataclasses.replace(config, out_dir=root / name, force_bit_layer=flag)
            assert type(run_config.force_bit_layer) is bool
            reports.append(write_report(run_pipeline(run_config)).read_text(encoding="utf-8"))
        assert reports[1] == reports[0].replace("out-bool", "out-numpy-bool")

    @pytest.mark.parametrize("flag", [1, "yes", None])
    def test_non_bool_force_bit_layer_rejected(self, tmp_path, flag):
        with pytest.raises(TypeError, match=r"^force_bit_layer must be a bool, got "):
            RunConfig(source=tmp_path, out_dir=tmp_path, force_bit_layer=flag)

    def test_echo_is_json_safe(self, tmp_path):
        config = RunConfig(source=tmp_path, out_dir=tmp_path / "out")
        echoed = config.echo()
        json.dumps(echoed)
        assert echoed["k"] == 3
        assert echoed["seed"] == 42


class TestForeignWarnings:
    """A warning raised by code the pipeline calls is not a soft error of
    the run: it reaches the caller's filters, not the report or stderr."""

    def test_deprecation_warning_stays_out_of_report_and_stderr(
        self, text_corpus_dir, tmp_path, monkeypatch
    ):
        (text_corpus_dir / "empty.txt").write_text("", encoding="utf-8")
        config = RunConfig(source=text_corpus_dir, out_dir=tmp_path / "out", k=2)
        argv = ["run", str(text_corpus_dir), "--out", str(tmp_path / "cli"), "--k", "2"]
        clean_report = run_pipeline(config)
        _, _, clean_err = run_cli(main, argv)
        assert clean_report.warnings

        hartley_entropy = pipeline.hartley_entropy

        def deprecated_hartley_entropy(n):
            warnings.warn("some library deprecation", DeprecationWarning)
            return hartley_entropy(n)

        monkeypatch.setattr(pipeline, "hartley_entropy", deprecated_hartley_entropy)
        with pytest.warns(DeprecationWarning, match="some library deprecation"):
            report = run_pipeline(config)
        assert report.warnings == clean_report.warnings
        assert report.to_json() == clean_report.to_json()
        assert "some library deprecation" not in write_report(report).read_text(encoding="utf-8")
        with pytest.warns(DeprecationWarning, match="some library deprecation"):
            code, _, err = run_cli(main, argv)
        assert code == 0
        assert err == clean_err
        assert "DeprecationWarning" not in err
