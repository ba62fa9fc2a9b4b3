"""The layerstack benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Generates the workload's corpus from the seed, then runs the ``layerstack``
CLI on it in a fresh process per run, one run at a time, for about
``--seconds``: at least three runs, or one untraced and traced pair when
tracing. Every run's outputs are checked: exit code 0, artifacts
byte-identical across the runs of this invocation, and at seed 0 equal to
the stored reference in ``reference/``.

With ``--trace 0`` it reports the end-to-end metrics: wall time of
``cli.main``, (document, term) pairs per second, peak RSS and the import
time of ``layerstack.cli``, each a median over runs. Times are reported in
reference seconds: each run's time is scaled by REF_CAL_S over the time of
a fixed calibration kernel run in the same process right after the call
(see ``child.py``), which cancels most of the host's speed drift. The raw
times are printed too. With ``--trace 1`` it alternates untraced and
traced runs and reports per-layer self times, call counts and memory from
spans recorded around each layer's public functions (see ``spans.py``).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. All files go to ``.bench_work/`` at the repository root.
``--write-reference`` stores the seed-0 outputs as the new reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import compare, digest
from spans import LAYER_UNITS, span_metrics
from workloads import WORKLOADS, corpus_sha256

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_SAMPLES = 3
#: no step starts after this many seconds and no run may take longer than
#: RUN_TIMEOUT_S, so that even a traced step (two runs) ends within 180 s
START_CAP_S = 50.0
RUN_TIMEOUT_S = 55.0

#: the calibration kernel's time on the 2-core reference machine, so that
#: reference seconds read close to seconds there
REF_CAL_S = 0.075

END_TO_END_UNITS = {"wall_ref_s": "s", "pairs_per_ref_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Sample:
    traced: bool
    exit_code: int | None = None
    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    cal_s: float = 0.0
    artifacts: dict[str, bytes] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    error: str = ""


def _child(workdir: Path, env: dict[str, str], trace: bool, argv: tuple[str, ...]) -> dict:
    result = workdir / "child.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(result), "1" if trace else "0", *argv]
    proc = subprocess.run(
        cmd, cwd=workdir, env=env, timeout=RUN_TIMEOUT_S, capture_output=True, text=True
    )
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def _run(workdir: Path, env: dict[str, str], trace: bool, argv: tuple[str, ...]) -> Sample:
    sample = Sample(traced=trace)
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    try:
        result = _child(workdir, env, trace, argv)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sample.error = str(exc)
        return sample
    sample.exit_code = result["exit_code"]
    sample.wall_s = result["wall_s"]
    sample.setup_s = result["setup_s"]
    sample.peak_rss_mb = result["peak_rss_mb"]
    sample.cal_s = result["cal_s"]
    sample.spans = result.get("spans", [])
    sample.missing = result.get("missing", [])
    paths = [workdir / "stdout.txt"] + (sorted(out.iterdir()) if out.is_dir() else [])
    sample.artifacts = {p.relative_to(workdir).as_posix(): p.read_bytes() for p in paths}
    sample.hashes = {k: hashlib.sha256(v).hexdigest() for k, v in sample.artifacts.items()}
    if sample.exit_code != 0:
        sample.error = f"exit code {sample.exit_code}: " + (workdir / "stderr.txt").read_text(
            encoding="utf-8"
        ).strip()[-400:]
    return sample


def _values(values: list[float]) -> str:
    return f"n={len(values)}: " + " ".join(f"{v:.4g}" for v in values)


def _corpus_size(corpus_dir: Path) -> dict[str, int]:
    """The stated input size, counted with the program's own tokenizer."""
    from layerstack.corpus import ingest_corpus

    corpus = ingest_corpus(corpus_dir)
    return {
        "corpus.bytes_in": sum(p.stat().st_size for p in corpus_dir.iterdir()),
        "corpus.docs": len(corpus),
        "corpus.pairs": sum(len(doc.token_counts) for doc in corpus),
        "corpus.vocab": len(corpus.vocabulary),
    }


def _measure(
    workdir: Path, env: dict[str, str], argv: tuple[str, ...], seconds: float, trace: bool
) -> list[Sample]:
    """Closed loop, one process at a time. A step is one untraced run, plus
    one traced run when tracing. Steps repeat while the next one, timed like
    the last, still ends within ``seconds``, and without tracing until at
    least MIN_SAMPLES runs are done."""
    samples: list[Sample] = []
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        samples.append(_run(workdir, env, False, argv))
        if trace:
            samples.append(_run(workdir, env, True, argv))
        now = time.perf_counter()
        fits = now - start + (now - step_start) <= seconds
        if now - start >= START_CAP_S or not (fits or (not trace and len(samples) < MIN_SAMPLES)):
            return samples


def _count_failures(samples: list[Sample], reference: dict | None, sha: str) -> int:
    """Runs failing a check: exit code 0, artifacts byte-identical to the
    first successful run (traced or not), and equal to the reference."""
    baseline = next((s for s in samples if not s.error), None)
    shared = []
    if reference is not None and baseline is not None:
        if reference["corpus_sha256"] != sha:
            shared.append("generated corpus differs from the reference corpus")
        shared += compare(reference["artifacts"], baseline.artifacts)
    failed = 0
    for i, sample in enumerate(samples):
        problems = [sample.error] if sample.error else []
        if not problems and sample.hashes != baseline.hashes:
            changed = sorted(k for k in baseline.hashes if sample.hashes.get(k) != baseline.hashes[k])
            problems.append(f"artifacts differ from the first successful run: {changed}")
        problems = problems or shared
        if problems:
            failed += 1
            print(f"run {i} failed: " + "; ".join(problems), file=sys.stderr)
    return failed


def _write_spans(path: Path, samples: list[Sample]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for run, sample in enumerate(samples):
            for name, start, end, parent, peak, info in sample.spans:
                record = {
                    "run": run,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "peak_bytes": peak,
                    "info": info,
                }
                handle.write(json.dumps(record) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not (SRC / "layerstack" / "cli.py").is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 1
    if args.write_reference and args.seed != 0:
        parser.error("--write-reference needs --seed 0")
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    corpus_dir = workdir / "corpus"
    workload.generate(corpus_dir, args.seed)
    sha = corpus_sha256(corpus_dir)
    size = _corpus_size(corpus_dir)
    reference_path = BENCH / "reference" / f"{workload.name}.json"
    reference = None
    if args.seed == 0 and not args.write_reference:
        reference = json.loads(reference_path.read_text(encoding="utf-8"))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one core per run: no BLAS worker threads
    samples = _measure(workdir, env, workload.argv, args.seconds, bool(args.trace))
    failed = _count_failures(samples, reference, sha)
    untraced = [s for s in samples if not s.error and not s.traced]
    traced = [s for s in samples if not s.error and s.traced]
    if not untraced or (args.trace and not traced):
        print("error: no run completed", file=sys.stderr)
        return 1
    if args.write_reference:
        stored = {
            "workload": workload.name,
            "seed": 0,
            "corpus_sha256": sha,
            "artifacts": {k: digest(k, v) for k, v in untraced[0].artifacts.items()},
        }
        reference_path.parent.mkdir(exist_ok=True)
        reference_path.write_text(json.dumps(stored, indent=1) + "\n", encoding="utf-8")

    print(
        f"workload {workload.name}, seed {args.seed}, corpus sha256 {sha}: "
        f"{size['corpus.docs']} docs, {size['corpus.vocab']} terms, "
        f"{size['corpus.pairs']} (document, term) pairs, {size['corpus.bytes_in']} bytes"
    )
    wall = [s.wall_s for s in untraced]
    if args.trace:
        if traced[0].missing:
            print(f"not traced, absent from the program: {traced[0].missing}", file=sys.stderr)
        runs = [span_metrics(s.spans) for s in traced]
        values = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
        values.update(size)
        values["pipeline.bytes_out"] = sum(len(v) for v in untraced[0].artifacts.values())
        values["trace.overhead_s"] = statistics.median(s.wall_s for s in traced) - statistics.median(wall)
        units = LAYER_UNITS
        notes = {}
        _write_spans(workdir / "spans.jsonl", samples)
    else:
        wall_ref = [s.wall_s * REF_CAL_S / s.cal_s for s in untraced]
        setup_ref = [s.setup_s * REF_CAL_S / s.cal_s for s in untraced]
        rss = [s.peak_rss_mb for s in untraced]
        values = {
            "wall_ref_s": statistics.median(wall_ref),
            "pairs_per_ref_s": size["corpus.pairs"] / statistics.median(wall_ref),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup_ref),
        }
        units = END_TO_END_UNITS
        notes = {
            "wall_ref_s": f"median of {_values(wall_ref)}; raw wall_s {_values(wall)}",
            "pairs_per_ref_s": f"at {size['corpus.pairs']} pairs; raw {size['corpus.pairs'] / statistics.median(wall):.6g} 1/s",
            "peak_rss_mb": f"median of {_values(rss)}",
            "setup_s": f"reference seconds, median of {_values(setup_ref)}; raw {_values([s.setup_s for s in untraced])}",
        }
        print(f"{'calibration kernel':40s} {_values([s.cal_s for s in untraced])} s")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"{'failed_ratio':40s} {failed / len(samples):.6g} ({failed} of {len(samples)} runs)")
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
