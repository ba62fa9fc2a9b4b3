"""What each CLI process loads, as a table.

Importing the package and its CLI loads numpy but not scipy, whose import
would add most of a CLI process's start-up time and memory; and a command
run after that import loads no further numpy module, since each CLI process
would pay a lazy import (``np.unique`` loads ``numpy.ma`` on numpy 2.x)
inside ``cli.main``.

``UNNEEDED`` names the modules no CLI process needs at start-up and the
commands that may load each. Neither the import nor ``aggregate`` loads
``numpy.random``, which k-means does not draw from, or the ``secrets`` and
``hashlib`` modules it brings, with OpenSSL; only ``run``, which hashes its
input, loads ``hashlib``. The import, ``aggregate``, ``rank``, ``entropy``
and ``belief`` load neither ``pipeline``, the largest module, nor
``wisdom`` or ``csv``, which only the pipeline uses: ``entropy`` and
``belief`` print through ``config.json_text``. Only ``run``, which walks
every layer, and ``scatter``, which writes fig4 through the pipeline's CSV
writer, load them inside their handlers. No command loads ``synthetic``,
which only the library's test-corpus generator needs."""

from pathlib import Path

import pytest

from helpers import run_python


#: the commands that run a pipeline stage or write a pipeline artifact
PIPELINE_COMMANDS = {"run", "scatter"}

#: modules no CLI process needs at start-up, and the commands that may load
#: each of them
UNNEEDED = {
    "numpy.random": set(),
    "secrets": set(),
    "hashlib": {"run"},
    "_hashlib": {"run"},
    "layerstack.pipeline": PIPELINE_COMMANDS,
    "layerstack.wisdom": PIPELINE_COMMANDS,
    "csv": PIPELINE_COMMANDS,
    "layerstack.synthetic": set(),
}

COMMANDS = ["run", "aggregate", "rank", "scatter", "entropy", "belief"]


def _command_argv(tmp_path: Path, command: str) -> list[str]:
    """A command's argv on a small two-topic corpus."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    topics = ["alpha beta gamma delta", "kappa lambda sigma omega"]
    for i in range(8):
        words = topics[i % 2].split()
        text = " ".join(word * (1 + (i + j) % 3) for j, word in enumerate(words))
        (corpus / f"d{i}.txt").write_text(f"{text} {words[i % 4]} shared common", encoding="utf-8")
    if command == "entropy":
        return [command, str(corpus / "d0.txt")]
    if command == "belief":
        mass = tmp_path / "mass.json"
        mass.write_text('{"a": 0.6, "a,b": 0.4}', encoding="utf-8")
        return [command, "--frame", "a,b", "--evidence", str(mass)]
    argv = [command, str(corpus)]
    if command in ("run", "aggregate"):
        argv += ["--k", "2", "--per-cluster", "2"]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    return argv


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, layerstack, layerstack.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert run_python(code).strip() == "[]"


def test_cli_import_loads_no_unneeded_module():
    code = (
        "import sys, layerstack, layerstack.cli\n"
        f"print(sorted(m for m in {sorted(UNNEEDED)!r} if m in sys.modules))"
    )
    assert run_python(code).strip() == "[]"


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_the_unneeded_modules_it_runs(tmp_path, command):
    code = (
        "import sys\n"
        "from layerstack import cli\n"
        "status = cli.main(sys.argv[1:])\n"
        f"print(status, sorted(m for m in {sorted(UNNEEDED)!r} if m in sys.modules))"
    )
    allowed = sorted(m for m, users in UNNEEDED.items() if command in users)
    assert run_python(code, *_command_argv(tmp_path, command)).splitlines()[-1] == f"0 {allowed}"


@pytest.mark.parametrize("command", COMMANDS)
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
    assert run_python(code, *argv).splitlines()[-1] == "0 []"
