"""Shared builders for hand-made documents and corpora."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Mapping

import numpy as np

from layerstack import Corpus, Document, RunReport, emit_plot_data
from layerstack.intelligence import TermRows
from layerstack.knowledge import _FAULTS, _pearson_segments
from layerstack.pipeline import LAYERS


#: Two topics over disjoint terms. Clustered with k=2, per_cluster=1 and
#: seed 0, the two survivors share no term, so the final ranking is empty.
TWO_TOPIC_COUNTS = {
    "a-center": {"p": 8, "q": 4, "r": 2},
    "a-lean1": {"p": 12, "q": 2, "r": 2},
    "a-lean2": {"p": 6, "q": 7, "r": 1},
    "b-center": {"u": 9, "v": 3, "w": 1},
    "b-lean1": {"u": 13, "v": 1, "w": 1},
    "b-lean2": {"u": 7, "v": 6, "w": 1},
}


def make_doc(doc_id: str, counts: Mapping[str, int], title: str | None = None) -> Document:
    return Document(
        id=doc_id,
        title=title if title is not None else doc_id,
        token_counts=dict(counts),
        total_tokens=sum(counts.values()),
    )


def dense(rows: TermRows) -> np.ndarray:
    """Every row of ``rows`` stacked into one N x V array (N >= 1)."""
    return np.vstack([rows.row(i) for i in range(rows.shape[0])])


def segment_parts(xs, ys) -> tuple[np.ndarray, np.ndarray, float, float, str | None]:
    """The scorer's Pearson of two equal-length samples as one segment of
    ``_pearson_segments``: the mean-centred samples dx and dy, the
    denominator sqrt(Sxx * Syy), r, and the reason r cannot be taken, or
    None when it can."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    dx, dy, [denom], [r], [fault] = _pearson_segments(x, y, np.array([0, x.size]))
    return dx, dy, float(denom), float(r), _FAULTS[fault]


def make_corpus(docs: Mapping[str, Mapping[str, int]]) -> Corpus:
    """Corpus from {doc_id: {term: count}}. A corpus applies no stop-word
    rule, so tests may use short artificial terms like "a" freely."""
    return Corpus(documents=tuple(make_doc(doc_id, counts) for doc_id, counts in docs.items()))


def pooled_counts(corpus: Corpus) -> Counter[str]:
    """Every term's count summed over the documents' ``token_counts`` by a
    plain ``Counter``, terms that sum to 0 left out."""
    return sum((Counter(doc.token_counts) for doc in corpus), Counter())


def fig3_text(corpus: Corpus) -> str:
    """fig3.csv as ``emit_plot_data`` writes it for ``corpus``."""
    sections = {layer: {"skipped": True, "reason": "not run"} for layer in LAYERS}
    with tempfile.TemporaryDirectory() as out:
        report = RunReport({"out_dir": out}, {}, sections, (), corpus)
        return emit_plot_data(report)[0].read_text(encoding="utf-8")


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Invoke a CLI entry point in-process, capturing stdout/stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_python(code: str, *args: str) -> str:
    """Run ``code`` with ``args`` in a fresh interpreter that imports the
    package from this checkout's ``src``; its stdout, once it exits 0."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
