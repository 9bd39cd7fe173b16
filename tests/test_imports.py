"""Every import in the package is used.

A name a module imports must be read in that module or listed in its
__all__; an import line marked `# noqa: F401` is a deliberate re-export and
is skipped.  No linter is needed: the walk is over the modules' syntax trees.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cablefloer"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_unused_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import sys\n"
              "from json import dumps as d, loads  # noqa: F401\n"
              "from re import (\n    compile,\n    escape,\n)\n"
              "__all__ = ['escape']\n"
              "print(sys.argv)\n")
    assert unused_imports(source) == ["os (line 2)", "compile (line 6)"]


def test_cli_import_adds_no_unneeded_module():
    """A process that only computes loads none of: the plot module, which cli
    imports where an svg or ascii rendering is asked for; dataclasses, with
    its inspect, ast and dis chain; fractions and decimal, which only the
    printing of a grading reads; json, which only --input reads.  The
    interpreter's start-up already loads some modules (site brings
    collections, re and typing), so one fresh process lists what the import
    adds to what it had loaded before it."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    probe = ("import sys; before = set(sys.modules); import cablefloer.cli; "
             "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    added = set(out.stdout.split())
    assert "cablefloer.cli" in added
    assert sorted(added & {"cablefloer.plot", "dataclasses", "inspect", "fractions", "decimal", "json"}) == []
