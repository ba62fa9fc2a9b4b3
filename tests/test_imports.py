"""Importing the package and its CLI loads numpy but not scipy, whose import
would add most of a CLI process's start-up time and memory; and a command
run after that import loads no further numpy module, since each CLI process
would pay a lazy import (``np.unique`` loads ``numpy.ma`` on numpy 2.x)
inside ``cli.main``. Neither the import nor ``aggregate`` loads
``numpy.random``, which k-means does not draw from, or the ``secrets`` and
``hashlib`` modules it brings, with OpenSSL; only ``run``, which hashes its
input, loads ``hashlib``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: modules no CLI process needs at start-up, and the one command that may
#: load each of them
UNNEEDED = {"numpy.random": None, "secrets": None, "hashlib": "run", "_hashlib": "run"}


def _command_argv(tmp_path: Path, command: str) -> list[str]:
    """A command's argv on a small two-topic corpus."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    topics = ["alpha beta gamma delta", "kappa lambda sigma omega"]
    for i in range(8):
        words = topics[i % 2].split()
        text = " ".join(word * (1 + (i + j) % 3) for j, word in enumerate(words))
        (corpus / f"d{i}.txt").write_text(f"{text} {words[i % 4]} shared common", encoding="utf-8")
    argv = [command, str(corpus), "--k", "2", "--per-cluster", "2"]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    return argv


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, layerstack, layerstack.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert _run(code).strip() == "[]"


def test_cli_import_loads_no_random_or_hashing_module():
    code = (
        "import sys, layerstack, layerstack.cli\n"
        f"print(sorted(m for m in {sorted(UNNEEDED)!r} if m in sys.modules))"
    )
    assert _run(code).strip() == "[]"


@pytest.mark.parametrize("command", ["aggregate", "run"])
def test_command_loads_only_the_random_or_hashing_modules_it_needs(tmp_path, command):
    code = (
        "import sys\n"
        "from layerstack import cli\n"
        "status = cli.main(sys.argv[1:])\n"
        f"print(status, sorted(m for m in {sorted(UNNEEDED)!r} if m in sys.modules))"
    )
    allowed = sorted(m for m, user in UNNEEDED.items() if user == command)
    assert _run(code, *_command_argv(tmp_path, command)).splitlines()[-1] == f"0 {allowed}"


@pytest.mark.parametrize("command", ["aggregate", "run"])
def test_command_loads_no_numpy_module_the_cli_import_did_not(tmp_path, command):
    argv = _command_argv(tmp_path, command)
    code = (
        "import sys\n"
        "from layerstack import cli\n"
        "def numpy_modules():\n"
        "    return {m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')}\n"
        "before = numpy_modules()\n"
        "status = cli.main(sys.argv[1:])\n"
        "print(status, sorted(numpy_modules() - before))"
    )
    assert _run(code, *argv).splitlines()[-1] == "0 []"
