#!/usr/bin/env python3
"""One sha256 over CLI outputs: the check that a change keeps them byte-identical.

Runs `cablefloer.cli.main` in process on a fixed list of argv and prints the
number of runs and one sha256 over each run's argv, stdout, stderr and exit
code.  Run it against two checkouts (with PYTHONPATH pointing at each one's
src/) and compare the two lines.

    python3 scripts/output_digest.py              # golden 11n50, SQUARES and WIDE[0] in all five
                                                  # formats, the rest of WIDE, --mode selfcheck
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
# 55 squares on levels -10..10, 19 of them listed more than once: the rank
# table keeps the square's survivors as lines over those levels
SQUARES = ("-2,6,-8,10,-12,14,-14,12,-11,13,-13,11,-13,13,-11,12,-14,14,-12,10,-8,6,-2", 10, 10, 30)
FORMATS = ("json", "tsv", "poly", "svg", "ascii")
# (delta, tau, p, n) of wide patterns, whose grading families are long: squares
# on three to five levels, chains of both signs (m = 2tau - n), n = 0 and |n| = 1,
# p over 100 with chains of both signs, and chains of both signs at least as
# long as a family (|m| - 1 >= p - 1)
WIDE = (("3,-6,7,-6,3", 2, 33, 1),            # squares 2, 1, 2 at levels -1..1; m = 3
        ("-1,5,-9,11,-9,5,-1", 0, 34, 0),     # squares on five levels; n = 0, m = 0
        ("-1,5,-9,11,-9,5,-1", 0, 37, -4),    # the same squares; m = 4
        ("1,-1,1,-1,1", -2, 35, 3),           # no squares; m = -7
        ("-2,5,-5,5,-2", -1, 36, -1),         # squares 2, 2 at levels -1 and 1; m = -1
        ("-2,5,-5,5,-2", -1, 33, 5),          # the same squares; m = -7
        ("1,-1,2,-3,2,-1,1", 3, 40, 0),       # one square; n = 0, m = 6
        ("-1,5,-7,5,-1", 1, 33, 2),           # squares 1, 2, 1 at levels -1..1; n = 2tau
        ("-1,5,-9,11,-9,5,-1", 0, 101, -3),   # squares on five levels; m = 3
        ("3,-6,7,-6,3", 2, 120, 9),           # squares 2, 1, 2 at levels -1..1; m = -5
        ("3,-6,7,-6,3", 2, 26, -30),          # the same squares; m = 34
        ("-2,5,-5,5,-2", -1, 30, 40))         # squares 2, 2 at levels -1 and 1; m = -42


def workload_argvs() -> list[list[str]]:
    """argv of every case of the four benchmark workloads at seeds 1 and 2."""
    path = Path(cli.__file__).resolve().parents[2] / "cablebench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [cable_argv(case.delta_text, case.tau, case.p, case.n)
            for seed in (1, 2) for name in workloads.WORKLOADS for case in workloads.generate(name, seed)]


def cable_argv(delta: str, tau: int, p: int, n: int) -> list[str]:
    """argv of one cable; --delta=TEXT, since argparse reads a separate
    argument that starts with '-' as an option."""
    return [f"--delta={delta}", "--tau", str(tau), "--p", str(p), "--n", str(n)]


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
    wide = [cable_argv(*cable) for cable in WIDE]
    argvs = [argv + ["--format", fmt] for argv in (GOLDEN, cable_argv(*SQUARES), wide[0]) for fmt in FORMATS]
    argvs += wide[1:] + [["--mode", "selfcheck"]]
    if "--workloads" in args:
        argvs += workload_argvs()
    print(f"{len(argvs)} outputs, sha256 {digest(argvs)}")


if __name__ == "__main__":
    main(sys.argv[1:])
