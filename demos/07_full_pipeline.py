"""
Running the whole ladder end to end
===================================

Write a synthetic corpus to disk, run every layer over it, and emit the
full artifact set: a JSON report, the two ranking tables (TSV + JSON), and
the two plot-data CSVs. Identical inputs and config produce byte-identical
outputs -- the same thing the ``layerstack run`` CLI subcommand does.
"""

import tempfile
from pathlib import Path

from layerstack import (
    RunConfig,
    emit_plot_data,
    emit_tables,
    run_pipeline,
    synthetic_corpus,
    write_corpus,
    write_report,
)

workdir = Path(tempfile.mkdtemp(prefix="layerstack-demo-"))

# A corpus on disk: 24 documents over three topics, with a manifest that
# carries titles.
corpus, _ = synthetic_corpus((12, 8, 4), seed=5)
manifest = write_corpus(corpus, workdir / "corpus", manifest=True)
print(f"corpus manifest: {manifest}")

# One config object drives every layer; everything downstream is
# deterministic given this and the corpus bytes.
config = RunConfig(
    source=manifest, out_dir=workdir / "out", k=3, rounds=1, per_cluster=5, top_k=5, seed=42
)
report = run_pipeline(config)

for name, section in report.sections.items():
    status = f"skipped ({section['reason']})" if section["skipped"] else "computed"
    print(f"  {name:<12} {status}")

# Persist the artifact set next to the corpus.
paths = [
    write_report(report),
    *emit_tables(report),
    *emit_plot_data(report),
]
print("\nartifacts:")
for path in sorted(paths):
    print(f"  {path.relative_to(workdir)}")

# A taste of the report content: the knowledge layer's table rows ...
rows = report.sections["knowledge"]["ranking"]
print("\ntop of the ranking table:")
for row in rows[:3]:
    print(f"  {row['title']}: r = {row['correlation']:.3f}")

# ... and the belief layer's verdict over the most frequent keywords.
singletons = report.sections["belief"]["singletons"]
keyword, bracket = max(singletons.items(), key=lambda kv: kv[1]["belief"])
print(f"\nmost believed keyword: {keyword!r}")
print(f"  Bel {bracket['belief']:.3f} <= Pl {bracket['plausibility']:.3f}")

# Provenance ties the report to the exact input bytes.
print(f"\ninput sha256: {report.provenance['input_sha256'][:16]}...")
print(f"recorded warnings: {len(report.warnings)}")
