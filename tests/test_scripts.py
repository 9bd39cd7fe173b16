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


def test_default_output_digest_is_pinned(capsys):
    """The default output_digest run (golden 11n50, SQUARES and WIDE[0] in
    all five formats, the rest of WIDE, --mode selfcheck) prints this line,
    so every change keeps those CLI outputs byte-identical; a change that
    alters outputs on purpose updates the pin and says why."""
    digest = runpy.run_path(str(SCRIPTS[0].parent / "output_digest.py"), run_name="output_digest")
    digest["main"]([])
    assert capsys.readouterr().out == (
        "27 outputs, sha256 3a2937a4c7c41cfd392d035fa3d8e7b7355a7a188795b6284b0768acbbb73139\n")
