"""Each script in scripts/ runs to completion against the current library.

A script is copied into a temporary directory first, so anything it writes
next to itself lands there.
"""

import runpy
import shutil
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_runs(script, tmp_path, capsys):
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    runpy.run_path(str(copy), run_name="__main__")
    assert capsys.readouterr().out
