"""The CI workflow's hand-written lists match what they list.

``.github/workflows/tests.yml`` names the files of its Prescott step, which
reruns every bit-exact check under OpenBLAS's oldest kernel, and of its
baseline step, which reruns them with numpy's dispatched CPU features
switched off, by path or by a glob the shell expands, as
``tests/test_*oracle*.py`` names every oracle file. A golden or oracle
file left out would skip a rerun silently, so each named pattern is
expanded here and checked against the test files.
The bench-smoke trace step requires that the one line naming absent span
targets names exactly those the program no longer has, written once in the
step; it is checked against ``RETIRED`` of ``test_bench_targets.py``. The
seed-1 step, which checks that a workload's runs are byte-identical to each
other, must run on every workload of the matrix. The workflow is read as
text: the step is the lines from its ``- name:`` to the
next line indented no deeper than that one.
``tests/test_acceptance.py``, the eight acceptance criteria, is never
edited (ROADMAP aim 3), so its SHA-256 is pinned here.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

from test_bench_targets import RETIRED, span_targets

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
PRESCOTT_STEP = "goldens and oracles under OPENBLAS_CORETYPE=Prescott"
BASELINE_STEP = "goldens and oracles under numpy's baseline kernels"
TRACE_STEP = "${{ matrix.workload }} traces every span target but the retired ones"
SEED1_STEP = "${{ matrix.workload }} at seed 1 runs byte-identically without a failed run"
ABSENT = "not traced, absent from the program: "
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
ACCEPTANCE_SHA256 = "42a1e18964ebd1c83721bd76d8a46a1cb2f1da2641d3aba2c00d0ba0e9c5bc7a"


def step_lines(text: str, name: str) -> list[str]:
    """The lines of the workflow step called ``name``."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {name}")
    indent = len(lines[start]) - len(lines[start].lstrip())
    end = start + 1
    while end < len(lines) and (
        not lines[end].strip() or len(lines[end]) - len(lines[end].lstrip()) > indent
    ):
        end += 1
    return lines[start:end]


def test_step_lines_stop_at_the_next_step():
    text = "steps:\n  - name: a\n    run: x tests/one.py\n\n  - name: b\n    run: tests/two.py\n"
    assert step_lines(text, "a") == ["  - name: a", "    run: x tests/one.py", ""]


def assert_step_reruns_every_golden_and_oracle_file(name: str) -> list[str]:
    """Check that the step called ``name`` names every golden and oracle
    file, each pattern once and matching a file; return its lines."""
    step = step_lines(WORKFLOW.read_text(), name)
    patterns = re.findall(r"tests/\S+\.py", "\n".join(step))
    assert len(patterns) == len(set(patterns))
    expanded = {pattern: list(ROOT.glob(pattern)) for pattern in patterns}
    assert [pattern for pattern, paths in expanded.items() if not paths] == []
    named = {path.relative_to(ROOT).as_posix() for paths in expanded.values() for path in paths}
    required = {"tests/test_golden.py"} | {
        path.relative_to(ROOT).as_posix() for path in (ROOT / "tests").glob("test_*oracle*.py")
    }
    assert required <= named, sorted(required - named)
    return step


def test_prescott_step_reruns_every_golden_and_oracle_file():
    assert_step_reruns_every_golden_and_oracle_file(PRESCOTT_STEP)


def test_baseline_step_reruns_every_golden_and_oracle_file():
    step = assert_step_reruns_every_golden_and_oracle_file(BASELINE_STEP)
    assert any(line.strip().startswith("export NPY_DISABLE_CPU_FEATURES=") for line in step)


def test_trace_step_requires_the_retired_targets_in_targets_order():
    step = "\n".join(step_lines(WORKFLOW.read_text(), TRACE_STEP))
    copies = re.findall(re.escape(ABSENT) + r"(\[[^]]*\])", step)
    retired = [f"{module}.{path}" for name, module, path in span_targets() if name in RETIRED]
    assert copies == [str(retired)]  # bench/run.py prints the list of missing targets


def test_seed1_step_runs_on_every_workload():
    step = step_lines(WORKFLOW.read_text(), SEED1_STEP)
    assert not [line for line in step if line.strip().startswith("if:")]
    assert any("--workload ${{ matrix.workload }} --seed 1" in line for line in step)


def test_acceptance_criteria_are_unchanged():
    digest = hashlib.sha256(ACCEPTANCE.read_bytes()).hexdigest()
    assert digest == ACCEPTANCE_SHA256, (
        "tests/test_acceptance.py changed; ROADMAP aim 3 keeps it untouched, and "
        "ACCEPTANCE_SHA256 changes only by a ROADMAP decision"
    )
