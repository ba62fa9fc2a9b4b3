"""Run one layerstack CLI call in a fresh process and record its cost.

    python3 child.py RESULT_JSON TRACE CLI_ARG...

The call's stdout goes to ``stdout.txt`` in the working directory, and
RESULT_JSON receives the exit code, the import time of ``layerstack.cli``,
the wall time of ``cli.main`` from argv to return, the process's peak RSS,
the time of a fixed calibration kernel run right after the call and, with
TRACE=1, the spans.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
from collections import Counter

CALIBRATION_REPEATS = 4


def calibrate() -> float:
    """Time a fixed mix of the program's kinds of work: string counting and
    sorting in the interpreter, and numpy passes over a 24 MB array."""
    import numpy as np

    start = time.perf_counter()
    counts = Counter(f"w{i % 5000}" for i in range(150_000))
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    values = np.arange(3_000_000, dtype=float)
    float((values * 1.0001).sum())
    float(np.sqrt(values).sum())
    return time.perf_counter() - start


def main() -> None:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    start = time.perf_counter()
    from layerstack import cli

    result = {"setup_s": time.perf_counter() - start}
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    with open("stdout.txt", "w", encoding="utf-8") as out, open(
        "stderr.txt", "w", encoding="utf-8"
    ) as err, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        result["exit_code"] = cli.main(argv)
        result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # after the RSS reading, so the kernel's memory does not count in it
    result["cal_s"] = statistics.median(calibrate() for _ in range(CALIBRATION_REPEATS))
    if tracer is not None:
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
