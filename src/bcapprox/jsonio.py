"""Deterministic JSON serialization for report files.

Reports must be byte-identical across runs with equal inputs, so the writer
avoids anything environment-dependent: object keys are emitted sorted, the
text is ASCII with no spaces, and every float is written as its repr, the
shortest text that reads back as the same double (still a float, with the
sign of a zero kept).  NaN and inf are refused with a ValueError.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, no spaces, repr floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def dump_path(obj, path: str | Path) -> None:
    Path(path).write_text(dumps(obj) + "\n", encoding="ascii")


def load_path(path: str | Path):
    """Parse a JSON file with the cyclic garbage collector paused.

    A parsed document holds no reference cycles, so the collections a large
    file would trigger mid-parse (a series at N = 2048 is ~6000 containers)
    cannot free any of it.  They would only promote the half-built tree into
    older generations, which brings on full collections of the whole
    process later.  A document nested beyond the parser's recursion limit
    is refused as a ValueError that names the file.
    """
    text = Path(path).read_text(encoding="utf-8")
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None
    finally:
        if enabled:
            gc.enable()
