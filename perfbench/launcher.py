"""Traced cold child: `python perfbench/launcher.py SPANS_OUT ARGV...`.

Installs the same span wrappers as the in-process traced run, times
`import bcapprox`, calls bcapprox.cli.main(ARGV) and writes the spans and
counts to SPANS_OUT.  Exits with main's exit code, so it stands in for
`python -m bcapprox ARGV...` in the traced run of cli-cold.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import tracer as tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t = perf_counter()
    import bcapprox.cli
    import_s = perf_counter() - t
    tracer = tracing.Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return bcapprox.cli.main(argv)
    finally:
        tracer.enabled = False
        Path(out).write_text(json.dumps(dict(tracer.to_json(), import_s=import_s)))


if __name__ == "__main__":
    sys.exit(main())
