"""The runtime dependencies declared in pyproject.toml are exactly the
third-party packages the source imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent


def _imported_packages() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "bcapprox").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"bcapprox"}


def test_declared_dependencies_are_the_imported_ones():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}
    assert _imported_packages() == declared == {"numpy"}


def test_library_draws_no_random_numbers():
    # every sample is a boundary point equispaced by arclength
    banned = ("numpy.random", "np.random")
    hits = []
    for path in sorted((ROOT / "src" / "bcapprox").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]  # e.g. 'np.random.default_rng'
            elif isinstance(node, ast.Name):
                names = [node.id]
            for name in names:
                if name.startswith(banned) or name.split(".")[-1] == "default_rng":
                    hits.append(f"{path.name}:{node.lineno}: {name}")
    assert hits == []
