"""The CI workflow's hand-written lists match what they list.

``.github/workflows/tests.yml`` names the files of its Prescott step, which
reruns every bit-exact check under OpenBLAS's oldest kernel, by path or by
a glob the shell expands, as ``tests/test_*oracle*.py`` names every oracle
file. A golden or oracle file left out would skip the rerun silently, so
each named pattern is expanded here and checked against the test files.
The bench-smoke trace step requires that the one line naming absent span
targets names exactly those the program no longer has, written once in the
step; it is checked against ``RETIRED`` of ``test_bench_targets.py``. The
seed-1 step, which checks that a workload's runs are byte-identical to each
other, must run on every workload of the matrix. The workflow is read as
text: the step is the lines from its ``- name:`` to the
next line indented no deeper than that one.
"""

from __future__ import annotations

import re
from pathlib import Path

from test_bench_targets import RETIRED, span_targets

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
PRESCOTT_STEP = "goldens and oracles under OPENBLAS_CORETYPE=Prescott"
TRACE_STEP = "${{ matrix.workload }} traces every span target but the retired ones"
SEED1_STEP = "${{ matrix.workload }} at seed 1 runs byte-identically without a failed run"
ABSENT = "not traced, absent from the program: "


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


def test_prescott_step_reruns_every_golden_and_oracle_file():
    patterns = re.findall(r"tests/\S+\.py", "\n".join(step_lines(WORKFLOW.read_text(), PRESCOTT_STEP)))
    assert len(patterns) == len(set(patterns))
    expanded = {pattern: list(ROOT.glob(pattern)) for pattern in patterns}
    assert [pattern for pattern, paths in expanded.items() if not paths] == []
    named = {path.relative_to(ROOT).as_posix() for paths in expanded.values() for path in paths}
    required = {"tests/test_golden.py"} | {
        path.relative_to(ROOT).as_posix() for path in (ROOT / "tests").glob("test_*oracle*.py")
    }
    assert required <= named, sorted(required - named)


def test_trace_step_requires_the_retired_targets_in_targets_order():
    step = "\n".join(step_lines(WORKFLOW.read_text(), TRACE_STEP))
    copies = re.findall(re.escape(ABSENT) + r"(\[[^]]*\])", step)
    retired = [f"{module}.{path}" for name, module, path in span_targets() if name in RETIRED]
    assert copies == [str(retired)]  # bench/run.py prints the list of missing targets


def test_seed1_step_runs_on_every_workload():
    step = step_lines(WORKFLOW.read_text(), SEED1_STEP)
    assert not [line for line in step if line.strip().startswith("if:")]
    assert any("--workload ${{ matrix.workload }} --seed 1" in line for line in step)
