"""Every third-party module imported at module level is a declared dependency.

A module-level import runs as soon as its package is imported, so the
package cannot even be imported without it.  Such a module must therefore
be listed under ``[project] dependencies`` in ``pyproject.toml``; optional
packages have to be imported lazily, inside the function that needs them.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ImportError:  # Python 3.10
    tomllib = pytest.importorskip("tomli")

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"


def _declared_dependencies() -> set[str]:
    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    # "scipy>=1.9" -> "scipy"; distribution names compare case-insensitively
    return {
        re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()
        for requirement in project["dependencies"]
    }


def _module_level_imports() -> dict[str, set[str]]:
    """Top-level imported module name -> the files importing it at module level."""
    found: dict[str, set[str]] = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                found.setdefault(top, set()).add(str(path.relative_to(REPO_ROOT)))
    return found


def test_module_level_imports_are_declared_dependencies():
    declared = _declared_dependencies()
    undeclared = {
        module: sorted(files)
        for module, files in _module_level_imports().items()
        if module not in sys.stdlib_module_names
        and module != "repro"
        and module.lower() not in declared
    }
    assert not undeclared, (
        f"imported at module level but missing from [project] dependencies: "
        f"{undeclared}"
    )


def test_the_walk_sees_the_hard_dependencies():
    imports = _module_level_imports()
    assert "numpy" in imports and "scipy" in imports
