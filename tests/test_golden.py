"""``layerstack run`` compared byte for byte with frozen golden outputs.

Each case writes its corpus to ``corpus`` and runs into ``out`` inside a
fresh working directory, so the relative paths in the config echo and on
stdout are the same everywhere. Outputs under 64 KB are stored verbatim,
larger ones as ``NAME.sha256``. After an intended output change, say in
CHANGES.md which bytes moved and regenerate with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from layerstack import synthetic_corpus, write_corpus
from layerstack.cli import main

from helpers import run_cli

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
VERBATIM_LIMIT = 64 * 1024

DEGENERATE = {
    "empty": "",
    "stopwords": "The and of it 42\n",
    "oneterm": "entropy\n",
    "alpha": "signal noise channel signal entropy signal noise channel code\n",
    "bravo": "signal noise channel entropy signal noise code code channel\n",
    "charlie": "cluster vector centroid cluster vector signal noise channel\n",
}


def _write_degenerate(root: Path) -> Path:
    root.mkdir()
    for stem, text in DEGENERATE.items():
        (root / f"{stem}.txt").write_text(text, encoding="utf-8")
    return root


# id -> (title, text): ids and titles that CSV and TSV writers must quote or
# pass through (comma, double quote, space, non-ASCII letters)
QUOTED = {
    "alpha,beta": ("Signal, noise and café", "signal noise café channel signal café noise code\n"),
    'say "ñandú"': ('The "ñandú" survey', "ñandú signal noise channel ñandú straße signal\n"),
    "Ünïcode straße": ("Straße, Ünïcode", "straße café signal noise straße channel naïve\n"),
    "plain": ("Plain title", "signal noise channel café code code naïve signal\n"),
    'q"uote,both': ('Comma, "quote" Ω', "channel naïve straße ñandú signal noise code\n"),
}


def _write_quoted(root: Path) -> Path:
    root.mkdir()
    lines = []
    for index, (doc_id, (title, text)) in enumerate(QUOTED.items()):
        name = f"doc{index}.txt"
        (root / name).write_text(text, encoding="utf-8")
        record = {"id": doc_id, "title": title, "path": name}
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    manifest = root / "manifest.jsonl"
    manifest.write_text("".join(lines), encoding="utf-8")
    return manifest


# stem -> text: Latin-1, Greek, Cyrillic and CJK letters between non-ASCII
# separators (curly quotes, dashes, guillemets, NBSP, U+2028, U+3000,
# combining marks, and İ, which lowercases to i + U+0307). Every character
# has the same isalnum(), isdigit(), isspace() and lower() under Unicode 13.0
# (Python 3.10) and 15.1 (Python 3.13). "latin" starts with a byte-order mark.
SEPARATORS = {
    "latin": "\ufeffCafé—signal “noise” naïve\u00a0straße, don’t «λόγος» café–noise øre ÅNGSTRÖM\n",
    "greek": "Λόγος\u2028ψυχή—σήμα «λόγος» signal noise café ψυχή’s straße\n",
    "cyrillic": "Слово—знание «слово» сигнал\u00a0шум signal noise λόγος\u2028слово café\n",
    "cjk": "日本語の信号「雑音」signal—noise 日本語\u3000café слово 信号 ψυχή signal 日本語\n",
    "combining": "cafe\u0301 nai\u0308ve signal noise İstanbul İZMIR café слово λόγος signal café\n",
    "mixed": "signal–noise—channel ‘café’ “straße” «ñandú» ñandú\u2028日本語 λόγος signal\n",
}


def _write_separators(root: Path) -> Path:
    root.mkdir()
    for stem, text in SEPARATORS.items():
        (root / f"{stem}.txt").write_text(text, encoding="utf-8")
    return root


# case name -> (corpus writer, extra ``run`` arguments)
CASES = {
    "synthetic36": (
        lambda root: write_corpus(synthetic_corpus((18, 12, 6), seed=0)[0], root, manifest=True),
        ["--force-bit-layer"],
    ),
    "synthetic324": (
        lambda root: write_corpus(synthetic_corpus((270, 36, 18), seed=0)[0], root),
        ["--k", "9"],
    ),
    "degenerate": (_write_degenerate, []),
    "quoted": (_write_quoted, ["--k", "2"]),
    "separators": (_write_separators, ["--k", "2", "--force-bit-layer"]),
}


def _outputs(case: str, workdir: Path) -> dict[str, bytes]:
    """Run one case in ``workdir`` (the current directory) and return its
    stdout, stderr and every artifact by name."""
    write, extra = CASES[case]
    source = write(Path("corpus"))
    code, out, err = run_cli(main, ["run", source.as_posix(), "--out", "out", *extra])
    assert code == 0, err
    return {"stdout.txt": out.encode(), "stderr.txt": err.encode(), **_artifacts(workdir / "out")}


def _artifacts(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _assert_matches_golden(case: str, actual: dict[str, bytes]) -> None:
    expected_dir = GOLDEN / case
    expected_names = sorted(p.name.removesuffix(".sha256") for p in expected_dir.iterdir())
    assert sorted(actual) == expected_names
    for path in sorted(expected_dir.iterdir()):
        if path.suffix == ".sha256":
            name = path.name.removesuffix(".sha256")
            digest = hashlib.sha256(actual[name]).hexdigest()
            assert digest == path.read_text(encoding="ascii").strip(), f"{case}/{name}"
        else:
            assert actual[path.name] == path.read_bytes(), f"{case}/{path.name}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _assert_matches_golden(case, _outputs(case, tmp_path))


def _assert_module_run_matches_golden(case: str, tmp_path: Path, **env_vars: str) -> None:
    """``python -m layerstack run`` on ``case`` with ``env_vars`` set writes
    the golden bytes."""
    write, extra = CASES[case]
    source = write(tmp_path / "corpus").relative_to(tmp_path)
    # stdout and stderr as UTF-8, like the golden's in-process capture
    env = {**os.environ, **env_vars, "PYTHONIOENCODING": "utf-8"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["run", source.as_posix(), "--out", "out", *extra]
    done = subprocess.run(
        [sys.executable, "-m", "layerstack", *argv], cwd=tmp_path, env=env, capture_output=True
    )
    assert done.returncode == 0, done.stderr.decode()
    outputs = {"stdout.txt": done.stdout, "stderr.txt": done.stderr}
    _assert_matches_golden(case, {**outputs, **_artifacts(tmp_path / "out")})


@pytest.mark.parametrize("seed", ["2", "3"])
@pytest.mark.parametrize("case", ["quoted", "synthetic36"])
def test_run_output_is_independent_of_the_hash_seed(case, seed, tmp_path):
    """Under string-hash seeds 2 and 3 the run writes the golden bytes,
    whatever seed the suite itself runs under."""
    _assert_module_run_matches_golden(case, tmp_path, PYTHONHASHSEED=seed)


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OpenBLAS core type names are x86-64 ones",
)
@pytest.mark.parametrize("case", ["quoted", "synthetic36"])
def test_run_output_is_independent_of_the_blas_kernel(case, tmp_path):
    """Under OpenBLAS's oldest x86-64 kernel, which sums in other lanes than
    the kernels of newer CPUs, the run still writes the golden bytes: no
    BLAS routine feeds an output float. Where numpy does not use OpenBLAS
    the variable does nothing. A newer kernel is not forced, as a CPU
    without its instructions would die with SIGILL."""
    _assert_module_run_matches_golden(case, tmp_path, OPENBLAS_CORETYPE="Prescott")


def _regenerate() -> None:
    for case in sorted(CASES):
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        for stale in target.iterdir():
            stale.unlink()
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                outputs = _outputs(case, Path(tmp))
            finally:
                os.chdir(cwd)
        for name, data in outputs.items():
            if len(data) < VERBATIM_LIMIT:
                (target / name).write_bytes(data)
            else:
                digest = hashlib.sha256(data).hexdigest()
                (target / f"{name}.sha256").write_text(digest + "\n", encoding="ascii")
        print(f"wrote {target}")


if __name__ == "__main__":
    _regenerate()
