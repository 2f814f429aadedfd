"""Process entry of ``python -m bcapprox`` and the ``bcapprox`` script.

A command runs once and exits, so the cyclic garbage collector has nothing
to do: the objects it would walk live until the process ends.  ``run``
switches it off before the command's modules load, which skips the passes
that about two hundred imports (numpy's among them) would trigger, and
freezes every tracked object before returning, so the full collection at
interpreter shutdown has nothing left to walk.  ``cli.main`` keeps no such
policy, because in-process callers share it.
"""

import gc
import sys


def run() -> int:
    gc.disable()
    from .cli import main

    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
