"""Command-line interface.

Computes the bigraded knot Floer homology of the (p, p*n+1)-cable of a thin
knot from (delta, tau, p, n), or just tau of a (p, q)-cable, and renders the
result as JSON, TSV, polynomial text, an SVG scatter or an ASCII grid.

Exit codes: 0 success, 1 invalid input, usage or a cable over the size
budget, 2 internal consistency failure (a failed symmetry, Euler or
total-rank table check, a complement generator with two edges of one label,
a mis-graded arrow, a generator on two arrows or any other exception signals
a bug, not bad input).
"""

from __future__ import annotations

import argparse
import io
import sys
from typing import NamedTuple

from . import invariants
from .gradings import GradingError
from .homology import ComplexError, RankTable
from .pipeline import CableHomology, compute_cable_hfk
from .thin import ThinInputError, build_model, parse_delta, synthesize_delta


class RunConfig(NamedTuple):
    delta: str
    tau: int
    p: int
    mode: str = "hfk"  # hfk | tau | selfcheck
    n: int | None = None
    q: int | None = None
    fmt: str = "json"  # json | tsv | poly | svg | ascii


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cablefloer",
        description="Knot Floer homology and tau of cables of thin knots.",
    )
    parser.add_argument("--delta", help="symmetrized Alexander polynomial as a centered "
                        'coefficient list, e.g. "2,-6,9,-6,2"')
    parser.add_argument("--tau", type=int, help="tau invariant of the companion knot")
    parser.add_argument("--p", type=int, help="cabling parameter p > 1")
    parser.add_argument("--n", type=int, help="framing parameter; the cable is (p, p*n+1)")
    parser.add_argument("--q", type=int, help="second cable parameter (tau mode only)")
    parser.add_argument("--mode", choices=("hfk", "tau", "selfcheck"), default="hfk")
    parser.add_argument("--format", dest="fmt", choices=("json", "tsv", "poly", "svg", "ascii"),
                        default="json")
    parser.add_argument("--input", help='JSON file with {"delta": [ints], "tau": int}')
    parser.add_argument("--output", help="write to this path instead of stdout")
    return parser


def _poly_text(table: RankTable) -> str:
    """rank * x^alexander * y^maslov terms, descending lexicographic order."""
    terms = []
    for a, m, rank in table.entries():
        factors = []
        if rank != 1:
            factors.append(str(rank))
        if a != 0:
            factors.append("x" if a == 1 else f"x^{a}")
        if m != 0:
            factors.append("y" if m == 1 else f"y^{m}")
        terms.append("".join(factors) or "1")
    return " + ".join(terms)


def _tsv_text(table: RankTable) -> str:
    return "".join(f"{a}\t{m}\t{rank}\n" for a, m, rank in table.entries())


_JSON_BOOL = {True: "true", False: "false"}


def _json_text(result: CableHomology) -> str:
    """The JSON schema of the README, written directly and byte-identical to
    `json.dumps(payload, indent=2) + "\n"` of its dict payload.

    With `indent`, CPython's encoder runs in pure Python, so no part of the
    text goes through it: every member is an f-string in the layout indent=2
    gives, each list item on its own line one level deeper than its list
    (one delta coefficient per line at six spaces, one rank cell per object
    at four) and the check flags as `true`/`false`.  The delta list always
    has a coefficient; an empty rank table is written `[]`, as json.dumps
    writes an empty list.
    """
    delta, g, checks = result.delta, result.model.params.g, result.checks
    coeffs = ",\n".join([f"      {delta.coeff(d)}" for d in range(-g, g + 1)])
    cells = ",\n".join([f'    {{\n      "a": {a},\n      "m": {m},\n      "rank": {rank}\n    }}'
                        for a, m, rank in result.table.entries()])
    ranks = f"[\n{cells}\n  ]" if cells else "[]"
    # symmetry, euler, table in that order; table also carries its closed form
    return (f'{{\n  "input": {{\n    "delta": [\n{coeffs}\n    ],\n    "tau": {result.tau},\n'
            f'    "p": {result.p},\n    "n": {result.n},\n    "q": {result.q}\n  }},\n'
            f'  "tau": {result.cable_tau},\n  "total_rank": {result.table.total},\n  "ranks": {ranks},\n'
            f'  "checks": {{\n    "symmetry": {_JSON_BOOL[checks["symmetry"]]},\n'
            f'    "euler": {_JSON_BOOL[checks["euler"]]},\n    "table": {{\n'
            f'      "value": {result.table_value},\n      "match": {_JSON_BOOL[checks["table"]]}\n'
            f'    }}\n  }}\n}}\n')


def _render(outcome: CableHomology, fmt: str) -> str:
    if fmt == "json":
        return _json_text(outcome)
    if fmt == "tsv":
        return _tsv_text(outcome.table)
    if fmt == "poly":
        return _poly_text(outcome.table) + "\n"
    from .plot import emit_plot  # imported only where a plot is rendered

    return emit_plot(outcome.table, fmt)


def run(config: RunConfig, stream=None) -> int:
    """Execute one configured run, writing the rendering to the stream."""
    stream = stream if stream is not None else sys.stdout
    try:
        if config.mode == "selfcheck":
            return _selfcheck(stream)
        delta = parse_delta(config.delta)
        if config.mode == "tau":
            if (config.q is None) == (config.n is None):
                raise ThinInputError("tau mode needs exactly one of --q / --n")
            build_model(delta, config.tau)  # reject non-thin input early
            q = config.q if config.q is not None else config.p * config.n + 1
            stream.write(f"{invariants.tau_pq(config.tau, config.p, q)}\n")
            return 0
        if config.q is not None:
            raise ThinInputError("hfk mode does not take --q (the cable is (p, p*n+1))"
                                 + ("; give --n" if config.n is None else ""))
        if config.n is None:
            raise ThinInputError("hfk mode needs --n (the cable is (p, p*n+1))")
        outcome = compute_cable_hfk(delta, config.tau, config.p, config.n)
        text = _render(outcome, config.fmt)
    # GradingError is a ValueError, so the internal-failure clause comes first
    except (ComplexError, GradingError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except (ThinInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # any other failure is a bug: exit 2, never a traceback
        print(f"internal consistency failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    stream.write(text)
    if not outcome.consistent:
        print(f"internal consistency failure: {', '.join(outcome.failed_checks)} check failed",
              file=sys.stderr)
        return 2
    return 0


def _selfcheck(stream) -> int:
    """Run the property grid; one line per property family."""
    grid = []
    for tau in (-2, -1, 0, 1, 2):
        for counts in ({}, {0: 1}, {1: 1, -1: 1}):
            delta = synthesize_delta(tau, counts)
            for p in (2, 3):
                for n in range(-2, 3):
                    grid.append((delta, tau, p, n))
    grid.append((synthesize_delta(0, {1: 2, 0: 2, -1: 2}), 0, 5, 3))

    failures: list[str] = []
    results = {}
    for delta, tau, p, n in grid:
        results[(delta, tau, p, n)] = compute_cable_hfk(delta, tau, p, n)

    def check(name: str, bad: list) -> None:
        if bad:
            failures.append(name)
            stream.write(f"FAIL {name}: {len(bad)} case(s), first {bad[0]}\n")
        else:
            stream.write(f"ok   {name} ({len(grid)} runs)\n")

    for name, label in (("symmetry", "symmetry"), ("euler", "euler characteristic"),
                        ("table", "total-rank table")):
        check(label, [key for key, r in results.items() if not r.checks[name]])

    per_square = []
    for (delta, tau, p, n), r in results.items():
        base = results.get((synthesize_delta(tau, {}), tau, p, n))
        if base is not None and r.model.params.s:
            expected = base.table.total + r.model.params.s * (6 * p - 4)
            if r.table.total != expected:
                per_square.append((tau, p, n))
    check("per-square rank contribution", per_square)

    check("mirror consistency (p=2)",
          [(tau, n) for (delta, tau, p, n), r in results.items()
           if p == 2 and (mirror := results.get((delta, -tau, 2, -n - 1)))
           and not invariants.mirror_check(r.table, mirror.table)])

    tau_mismatch = []
    for (_, tau, p, n), r in results.items():
        if invariants.tau_pq(tau, p, p * n + 1) != r.cable_tau:
            tau_mismatch.append((tau, p, n))
    check("tau closed forms agree", tau_mismatch)

    grading_mismatch = []
    for (delta, tau, p, n), r in results.items():
        computed = {(g.a_side, g.d_side): (g.N, g.Aprime) for g in r.complex.generators}
        for key, want in invariants.closed_form_gradings(r.model, p, n).items():
            if computed[key] != want:
                grading_mismatch.append((tau, p, n, key))
    check("closed-form gradings agree", grading_mismatch)

    golden = results[(synthesize_delta(0, {1: 2, 0: 2, -1: 2}), 0, 5, 3)]
    check("(5,16)-cable of 11n50 totals 181",
          [] if golden.table.total == 181 and golden.cable_tau == 30 else [golden.table.total])

    return 2 if failures else 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error and 0 after --help
        return 1 if exc.code else 0

    delta_text = args.delta
    tau = args.tau
    if args.input:
        import json  # loaded only where an input file is read

        try:
            with open(args.input, encoding="utf-8") as handle:
                payload = json.load(handle)
            delta, tau = payload["delta"], payload["tau"]
            # bool is an int subclass, int() would truncate 1.7, and a string
            # element would be split at its commas by parse_delta
            if type(delta) is not list or any(type(c) is not int for c in delta):
                raise TypeError(f"delta must be a JSON list of integers, got {delta!r}")
            if type(tau) is not int:
                raise TypeError(f"tau must be a JSON integer, got {tau!r}")
            delta_text = ",".join(map(str, delta))
        # json raises RecursionError on nesting deeper than the interpreter's recursion limit
        except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
            print(f"error: cannot read input file: {exc}", file=sys.stderr)
            return 1

    if args.mode != "selfcheck":
        missing = [flag for flag, value in
                   (("--delta", delta_text), ("--tau", tau), ("--p", args.p)) if value is None]
        if missing:
            print(f"error: missing {', '.join(missing)}", file=sys.stderr)
            return 1

    config = RunConfig(
        delta=delta_text or "",
        tau=tau if tau is not None else 0,
        p=args.p if args.p is not None else 2,
        mode=args.mode,
        n=args.n,
        q=args.q,
        fmt=args.fmt,
    )

    if not args.output:
        return run(config)
    # the file is opened only once there is text for it, so a refused run
    # neither creates it nor truncates an existing one
    buffer = io.StringIO()
    code = run(config, buffer)
    text = buffer.getvalue()  # each getvalue() copies the whole text
    if text:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write output file: {exc}", file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
