"""Compare a run's artifacts with a stored reference.

Each artifact is reduced to a skeleton, in which every float is replaced by
a placeholder, and the list of its floats in order. Ids, titles, row order
and integers live in the skeleton and must match exactly, through its
SHA-256. Floats must agree to 1e-9 relative (1e-12 absolute near zero), so
a change that only reorders float arithmetic still passes. Small artifacts
store every float; large ones (fig4.csv) store order-sensitive sums, which
hold the same tolerance.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from typing import Any

REL_TOL = 1e-9
ABS_TOL = 1e-12
MAX_STORED_FLOATS = 5000

# every float the program writes is a Python repr: a dot or a signed exponent
_FLOAT_RE = re.compile(r"-?(?:\d+\.\d+(?:e[-+]\d+)?|\d+e[-+]\d+)")


def _split(name: str, data: bytes) -> tuple[str, list[float]]:
    floats: list[float] = []
    text = data.decode("utf-8")
    if name.endswith(".json"):

        def mask(value: Any) -> Any:
            if isinstance(value, float):
                floats.append(value)
                return "<float>"
            if isinstance(value, dict):
                return {key: mask(item) for key, item in value.items()}
            if isinstance(value, list):
                return [mask(item) for item in value]
            return value

        return json.dumps(mask(json.loads(text)), ensure_ascii=False), floats
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
    else:
        rows = [line.split("\t") for line in text.split("\n")]
    for row in rows:
        for i, field in enumerate(row):
            if _FLOAT_RE.fullmatch(field):
                floats.append(float(field))
                row[i] = "<float>"
    return json.dumps(rows, ensure_ascii=False), floats


def _sums(floats: list[float]) -> list[float]:
    return [
        math.fsum(abs(v) for v in floats),
        math.fsum(v * v for v in floats),
        math.fsum(abs(v) * (1 + i % 7) for i, v in enumerate(floats)),
    ]


def digest(name: str, data: bytes) -> dict[str, Any]:
    """The stored form of one artifact."""
    skeleton, floats = _split(name, data)
    entry: dict[str, Any] = {
        "skeleton_sha256": hashlib.sha256(skeleton.encode()).hexdigest(),
        "float_count": len(floats),
    }
    if len(floats) <= MAX_STORED_FLOATS:
        entry["floats"] = floats
    else:
        entry["float_sums"] = _sums(floats)
    return entry


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare(reference: dict[str, dict[str, Any]], artifacts: dict[str, bytes]) -> list[str]:
    """Problems found comparing artifacts with the reference; empty if none."""
    problems = []
    if set(reference) != set(artifacts):
        problems.append(f"artifact set {sorted(artifacts)} != reference {sorted(reference)}")
    for name in sorted(set(reference) & set(artifacts)):
        want, got = reference[name], digest(name, artifacts[name])
        if got["skeleton_sha256"] != want["skeleton_sha256"]:
            problems.append(f"{name}: ids, titles, order or integers differ")
        elif got["float_count"] != want["float_count"]:
            problems.append(f"{name}: {got['float_count']} floats, reference has {want['float_count']}")
        elif "floats" in want:
            bad = [i for i, (a, b) in enumerate(zip(got["floats"], want["floats"])) if not _close(a, b)]
            if bad:
                problems.append(f"{name}: {len(bad)} floats differ, first at index {bad[0]}")
        elif not all(_close(a, b) for a, b in zip(got["float_sums"], want["float_sums"])):
            problems.append(f"{name}: float sums differ")
    return problems
