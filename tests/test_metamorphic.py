"""Metamorphic relations over the whole ``run`` command.

A relation compares two runs of the program on related inputs, so it needs
no oracle (Chen et al., *Metamorphic Testing: A Review of Challenges and
Opportunities*, ACM Computing Surveys 2018).

Repeating each newline-terminated file's bytes m times multiplies every
count by m. Every proportion (m·c)/(m·t) is then the float c/t, every byte
histogram scales by m, and the k-means rows are the same floats. So every
artifact must keep its bytes, except fig3's counts (× m), the provenance
hash and the config echo's paths.

Permuting the words within each file, with every separator kept in place,
keeps every term count and every byte histogram; only the order in which
terms first occur moves. So every artifact must keep its bytes, fig3 and
the byte entropies included, except the provenance hash and the config
echo's paths. fig4 and fig3 run end to end here, so an output that followed
a document's first-occurrence order of terms instead of the sorted
vocabulary would show.

Prefixing every file name with one common alphanumeric string prefixes
every id and title with it, and keeps their order. So every artifact must
keep its bytes once the prefix is taken back out of the ids and titles,
except the provenance hash, which covers them, and the config echo's paths.

Prefixing every term in every file with one common string, such that no
prefixed term is a stop word, keeps every count, the order of the sorted
vocabulary and every term id. So every artifact must keep its bytes once
the prefix is taken back out of the terms, except the provenance hash and
the config echo's paths. The byte histograms change, so these runs leave
the bit layer skipped.

An empty file adds a document with no bytes and no terms. It holds no term
row, so every pool, ranking and k-means row of the other documents is
unchanged, and aggregation leaves it out of its first round. With k below
the count of the other documents, only the document count, the provenance
hash, the config echo's paths and the warnings that name the new document
may move, and the survivors when no round completes, as all the documents
then survive.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
import shutil

from hypothesis import given, settings
from hypothesis import strategies as st

from layerstack import synthetic_corpus, write_corpus
from layerstack.cli import main
from layerstack.stopwords import ENGLISH_STOP_WORDS

from helpers import run_cli

ARTIFACTS = ("table1.tsv", "table1.json", "table2.tsv", "table2.json", "fig4.csv")


def run(source, out_dir, k, *options, bit_layer=True):
    argv = ["run", str(source), "--out", str(out_dir), "--k", str(k), *options]
    code, _, err = run_cli(main, argv + ["--force-bit-layer"] * bit_layer)
    assert code == 0, err
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}, err


def fig3_rows(data, m=1):
    """fig3's rows with each count divided by ``m``."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    for row in rows[1:]:
        count, rest = divmod(int(row[3]), m)
        assert rest == 0
        row[3] = str(count)
    return rows


@settings(max_examples=12, deadline=None)
@given(
    sizes=st.lists(st.integers(6, 13), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 4),
    m=st.sampled_from([2, 3]),
)
def test_repeating_every_file_keeps_every_artifact(tmp_path_factory, sizes, seed, k, m):
    root = tmp_path_factory.mktemp("repeat")
    corpus, _ = synthetic_corpus(tuple(sizes), seed=seed, length_range=(30, 90))
    source = write_corpus(corpus, root / "once")
    repeated = root / "repeated"
    repeated.mkdir()
    for path in sorted(source.iterdir()):
        assert path.read_bytes().endswith(b"\n")
        (repeated / path.name).write_bytes(path.read_bytes() * m)

    once, once_err = run(source, root / "out-once", k)
    again, again_err = run(repeated, root / "out-repeated", k)
    assert sorted(again) == sorted(once)
    assert again_err == once_err
    for name in ARTIFACTS:
        assert again[name] == once[name], name
    assert fig3_rows(again["fig3.csv"], m) == fig3_rows(once["fig3.csv"])

    moved = json.loads(again["report.json"])
    assert moved["config"]["source"] == str(repeated)
    assert_same_report(moved, once["report.json"], "input_sha256")


def assert_same_report(moved, once, *provenance):
    """``moved``, written as ``report.json`` is, has the bytes ``once``
    once the config echo's paths and the named ``provenance`` keys, which
    must differ, are taken from ``once``."""
    report = json.loads(once)
    for key in provenance:
        assert moved["provenance"][key] != report["provenance"][key], key
        moved["provenance"][key] = report["provenance"][key]
    moved["config"].update(source=report["config"]["source"], out_dir=report["config"]["out_dir"])
    text = json.dumps(moved, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    assert text.encode("utf-8") == once


def permute_words(data, rng):
    """``data`` with its words, the runs of ``[^\\W_]+``, shuffled by
    ``rng`` and every separator between them kept in place."""
    parts = re.split(r"([^\W_]+)", data.decode("utf-8"))
    words = parts[1::2]
    rng.shuffle(words)
    parts[1::2] = words
    return "".join(parts).encode("utf-8")


@settings(max_examples=12, deadline=None)
@given(
    sizes=st.lists(st.integers(6, 13), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 4),
    shuffle_seed=st.integers(0, 2**32 - 1),
)
def test_permuting_the_words_of_every_file_keeps_every_artifact(
    tmp_path_factory, sizes, seed, k, shuffle_seed
):
    root = tmp_path_factory.mktemp("permute")
    corpus, _ = synthetic_corpus(tuple(sizes), seed=seed, length_range=(30, 90))
    source = write_corpus(corpus, root / "sorted")
    permuted = root / "permuted"
    permuted.mkdir()
    rng = random.Random(shuffle_seed)  # seeded, so no draw shrinks to the identity
    for path in sorted(source.iterdir()):
        (permuted / path.name).write_bytes(permute_words(path.read_bytes(), rng))

    once, once_err = run(source, root / "out-sorted", k)
    again, again_err = run(permuted, root / "out-permuted", k)
    assert sorted(again) == sorted(once)
    assert again_err == once_err
    for name in ARTIFACTS + ("fig3.csv",):
        assert again[name] == once[name], name
    assert_same_report(json.loads(again["report.json"]), once["report.json"], "input_sha256")


def assert_same_but_renamed(once, once_err, again, again_err, renamed):
    """``again``'s artifacts and stderr, with each prefixed string of
    ``renamed`` put back to its original, are those of ``once``, but for
    the provenance hash and the config echo's paths."""

    def restore(data: bytes) -> bytes:
        for prefixed, original in renamed:
            data = data.replace(prefixed.encode(), original.encode())
        return data

    for prefixed, _ in renamed:
        for data in [*once.values(), once_err.encode()]:
            assert prefixed.encode() not in data  # so restoring touches nothing else
    assert sorted(again) == sorted(once)
    assert restore(again_err.encode()) == once_err.encode()
    for name in ARTIFACTS + ("fig3.csv",):
        assert restore(again[name]) == once[name], name
    moved = json.loads(restore(again["report.json"]))
    assert_same_report(moved, once["report.json"], "input_sha256")


prefixes = st.from_regex(r"[a-z0-9]{1,4}", fullmatch=True)


@settings(max_examples=10, deadline=None)
@given(
    sizes=st.lists(st.integers(6, 13), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 4),
    prefix=prefixes | prefixes.map(str.upper),
)
def test_prefixing_every_file_name_moves_only_ids_and_titles(
    tmp_path_factory, sizes, seed, k, prefix
):
    root = tmp_path_factory.mktemp("names")
    corpus, _ = synthetic_corpus(tuple(sizes), seed=seed, length_range=(30, 90))
    source = write_corpus(corpus, root / "plain")
    prefixed = root / "prefixed"
    prefixed.mkdir()
    for path in sorted(source.iterdir()):
        (prefixed / f"{prefix}{path.name}").write_bytes(path.read_bytes())

    once, once_err = run(source, root / "out-plain", k)
    again, again_err = run(prefixed, root / "out-prefixed", k)
    # ids are doc000 onward, and no term holds "doc"
    assert_same_but_renamed(once, once_err, again, again_err, [(f"{prefix}doc", "doc")])


def prefix_terms(data, prefix):
    """``data`` with ``prefix`` put before each of its words that tokenizes
    to a term: neither purely numeric nor a stop word."""
    text = data.decode("utf-8")

    def prefixed(word):
        term = word[0].lower()
        return word[0] if term.isdigit() or term in ENGLISH_STOP_WORDS else prefix + word[0]

    return re.sub(r"[^\W_]+", prefixed, text).encode("utf-8")


@settings(max_examples=10, deadline=None)
@given(
    sizes=st.lists(st.integers(6, 13), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 4),
    prefix=prefixes,
)
def test_prefixing_every_term_moves_only_terms(tmp_path_factory, sizes, seed, k, prefix):
    root = tmp_path_factory.mktemp("terms")
    corpus, _ = synthetic_corpus(tuple(sizes), seed=seed, length_range=(30, 90))
    assert not {prefix + term for term in corpus.vocabulary} & ENGLISH_STOP_WORDS
    source = write_corpus(corpus, root / "plain")
    prefixed = root / "prefixed"
    prefixed.mkdir()
    for path in sorted(source.iterdir()):
        (prefixed / path.name).write_bytes(prefix_terms(path.read_bytes(), prefix))

    once, once_err = run(source, root / "out-plain", k, bit_layer=False)
    again, again_err = run(prefixed, root / "out-prefixed", k, bit_layer=False)
    # every synthetic term starts with "core" or "topic"
    renamed = [(f"{prefix}{stem}", stem) for stem in ("core", "topic")]
    assert_same_but_renamed(once, once_err, again, again_err, renamed)


def without(lines, doc_id):
    """``lines`` less those that name the document ``doc_id``."""
    return [line for line in lines if repr(doc_id) not in line]


@settings(max_examples=10, deadline=None)
@given(
    sizes=st.lists(st.integers(6, 13), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 4),
    rounds=st.integers(0, 2),
    after=st.integers(0, 40),
)
def test_an_empty_file_moves_only_what_names_it(tmp_path_factory, sizes, seed, k, rounds, after):
    root = tmp_path_factory.mktemp("empty")
    corpus, _ = synthetic_corpus(tuple(sizes), seed=seed, length_range=(30, 90))
    source = write_corpus(corpus, root / "without")
    padded = shutil.copytree(source, root / "with")
    empty = f"doc{after:03d}x"  # sorts just after doc{after:03d}, or after every document
    (padded / f"{empty}.txt").write_bytes(b"")

    options = ("--rounds", str(rounds))
    once, once_err = run(source, root / "out-without", k, *options)
    again, again_err = run(padded, root / "out-with", k, *options)
    assert sorted(again) == sorted(once)
    for name in ARTIFACTS + ("fig3.csv",):
        assert again[name] == once[name], name
    assert f"warning: PipelineWarning: empty file for {empty!r}; no byte entropy" in again_err
    assert without(again_err.splitlines(), empty) == once_err.splitlines()

    moved = json.loads(again["report.json"])
    assert moved["provenance"]["document_count"] == len(corpus) + 1
    moved["warnings"] = without(moved["warnings"], empty)
    intelligence = moved["sections"]["intelligence"]
    if not intelligence["rounds"]:
        intelligence["survivors"].remove(empty)
    assert_same_report(moved, once["report.json"], "document_count", "input_sha256")
