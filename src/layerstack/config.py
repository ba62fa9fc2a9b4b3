"""What a pipeline run depends on, and how it fails.

Every ``layerstack`` command loads this module: the parser reads its
options' defaults from :class:`RunConfig`, and ``cli.main`` catches
:class:`PipelineError`. The pipeline itself is loaded only by the commands
that run it. :func:`json_text` is the one JSON writer, for the report,
the tables and the ``entropy`` and ``belief`` commands.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any


def json_text(value: Any) -> str:
    """Pretty-printed, key-sorted JSON text; a NaN or infinity is a ``ValueError``."""
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"


class PipelineError(RuntimeError):
    """Fatal failure of one named pipeline stage."""

    def __init__(self, layer: str, cause: Exception) -> None:
        super().__init__(f"{layer} layer failed: {cause}")
        self.layer = layer


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run depends on, so equal configs plus equal
    inputs give byte-identical outputs. Each field is one ``layerstack run``
    argument, and its default is that argument's default."""

    source: Path
    out_dir: Path = Path("layerstack-out")
    stop_words_path: Path | None = None
    k: int = 3
    rounds: int = 1
    per_cluster: int = 5
    top_k: int = 5
    seed: int = 42
    reservoir_strength: float = 1.0
    force_bit_layer: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", Path(self.source))
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if self.stop_words_path is not None:
            object.__setattr__(self, "stop_words_path", Path(self.stop_words_path))
        # a numpy integer is stored as the equal int; a float is a TypeError
        for name, low in (("k", 1), ("rounds", 0), ("per_cluster", 1), ("top_k", 1), ("seed", 0)):
            value = operator.index(getattr(self, name))
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
            object.__setattr__(self, name, value)
        if not math.isfinite(self.reservoir_strength) or self.reservoir_strength <= 0.0:
            raise ValueError(
                f"reservoir_strength must be positive, got {self.reservoir_strength!r}"
            )

    def echo(self) -> dict[str, Any]:
        """JSON-safe snapshot of every field, paths as strings."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: str(v) if isinstance(v, Path) else v for k, v in values.items()}
