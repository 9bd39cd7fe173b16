#!/usr/bin/env python3
"""Showcase run: the (5,16)-cable of the knot 11n50.

Computes the full bigraded homology from (delta, tau) = (2t^-2 - 6t^-1 + 9
- 6t + 2t^2, 0) with p = 5, n = 3, prints the rank polynomial and the
consistency report, and writes an SVG scatter next to this script.
"""

from __future__ import annotations

import pathlib
import time

from cablefloer import compute_cable_hfk, parse_delta
from cablefloer.cli import _poly_text
from cablefloer.plot import render_ascii, render_svg


def main() -> None:
    delta = parse_delta("2,-6,9,-6,2")
    start = time.perf_counter()
    result = compute_cable_hfk(delta, tau=0, p=5, n=3)
    elapsed = time.perf_counter() - start

    print(f"companion delta : {delta}")
    print(f"cable           : (5, 16),  tau = {result.cable_tau}")
    print(f"total rank      : {result.table.total}  (closed form: {result.table_value})")
    print(f"checks          : {' '.join(f'{name}={ok}' for name, ok in result.checks.items())}")
    print(f"elapsed         : {elapsed:.4f}s")
    print()
    print(_poly_text(result.table))
    print()
    print(render_ascii(result.table))

    out = pathlib.Path(__file__).with_name("golden_11n50.svg")
    out.write_text(render_svg(result.table), encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
