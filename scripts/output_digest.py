#!/usr/bin/env python3
"""One sha256 over CLI outputs: the check that a change keeps them byte-identical.

Runs `cablefloer.cli.main` in process on a fixed list of argv and prints the
number of runs and one sha256 over each run's argv, stdout, stderr and exit
code.  Run it against two checkouts (with PYTHONPATH pointing at each one's
src/) and compare the two lines.

    python3 scripts/output_digest.py              # golden 11n50 in all five formats, --mode selfcheck
    python3 scripts/output_digest.py --workloads  # also every benchmark case at seeds 1 and 2

The benchmark cases are read from cablebench/workloads.py of the checkout
whose cablefloer is imported, and rendered to JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

from cablefloer import cli

GOLDEN = ["--delta", "2,-6,9,-6,2", "--tau", "0", "--p", "5", "--n", "3"]
FORMATS = ("json", "tsv", "poly", "svg", "ascii")


def workload_argvs() -> list[list[str]]:
    """argv of every case of the four benchmark workloads at seeds 1 and 2."""
    path = Path(cli.__file__).resolve().parents[2] / "cablebench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [["--delta", case.delta_text, "--tau", str(case.tau), "--p", str(case.p), "--n", str(case.n)]
            for seed in (1, 2) for name in workloads.WORKLOADS for case in workloads.generate(name, seed)]


def digest(argvs: list[list[str]]) -> str:
    total = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        for part in ("\0".join(argv), out.getvalue(), err.getvalue(), str(code)):
            total.update(part.encode() + b"\0")
    return total.hexdigest()


def main(args: list[str]) -> None:
    argvs = [GOLDEN + ["--format", fmt] for fmt in FORMATS] + [["--mode", "selfcheck"]]
    if "--workloads" in args:
        argvs += workload_argvs()
    print(f"{len(argvs)} outputs, sha256 {digest(argvs)}")


if __name__ == "__main__":
    main(sys.argv[1:])
