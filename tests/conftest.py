import os
import sys
from pathlib import Path

import bcapprox

# make the plain-complex reference module importable from every test file
sys.path.insert(0, str(Path(__file__).parent))

# CLI tests spawn `python -m bcapprox` from a temporary directory, where a
# relative PYTHONPATH entry such as `src` names nothing.  Put the absolute
# directory of the package this process imported first, so every child runs
# the code under test rather than failing to import or finding another copy.
_PACKAGE_ROOT = str(Path(bcapprox.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_PACKAGE_ROOT, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
)

# pyproject.toml turns a RuntimeWarning in a test into an error; children get
# the same rule, so an overflow in a CLI run fails instead of printing a line
os.environ["PYTHONWARNINGS"] = ",".join(
    filter(None, [os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning"])
)
