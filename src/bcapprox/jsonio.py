"""Deterministic JSON serialization for report files.

Reports must be byte-identical across runs with equal inputs, so the writer
avoids anything environment-dependent: object keys are emitted sorted and
every float is rendered with %.17g (17 significant decimal digits round-trip
IEEE doubles exactly).
"""

from __future__ import annotations

import gc
import json
import math
from pathlib import Path


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in report; encode it upstream as a string")
    return "%.17g" % x


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, 17-significant-digit floats."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def _write(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _write(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to report JSON")


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
