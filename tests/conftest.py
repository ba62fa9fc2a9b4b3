import pytest
from hypothesis import settings

# The same examples on every machine and no per-example time limit, so a
# property test cannot pass on one run and flake on a slower host.
settings.register_profile("layerstack", derandomize=True, deadline=None)
settings.load_profile("layerstack")


@pytest.fixture
def text_corpus_dir(tmp_path):
    """Four small .txt files with a clear shared-vocabulary structure."""
    files = {
        "alpha": "signal noise channel signal entropy signal noise channel code",
        "bravo": "signal noise channel entropy signal noise code code channel",
        "charlie": "signal noise channel entropy code signal noise entropy",
        "delta": "cluster vector centroid cluster vector signal noise channel",
    }
    root = tmp_path / "corpus"
    root.mkdir()
    for stem, text in files.items():
        (root / f"{stem}.txt").write_text(text, encoding="utf-8")
    return root
