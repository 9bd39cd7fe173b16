#!/usr/bin/env python3
"""Benchmark for cablefloer: closed-loop cable runs with independent oracles.

    python3 cablebench/run.py --workload grid --seed 1 --seconds 15 --trace 0
    python3 cablebench/run.py --workload all --seed 1 --seconds 15 --trace 0

One process runs one workload (``all`` runs each in its own child process,
one after another).  Cables run one at a time, the next starting when the
last finishes, in whole passes over the workload's case list until at least
two passes and ``--seconds`` are done.  Every result is checked against the
oracles in ``oracles.py``; failures are counted, not raised.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a separate traced pass.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a traced run
are written to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import bisect
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import oracles
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
MIN_PASSES = 2
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
CLI_SAMPLE_STRIDE = 20  # grid cases re-run through the library to compare with the CLI
REF_SECONDS = 0.0015  # reference-kernel time of the machine that end-to-end times are scaled to
REF_EVERY = 0.1  # wall seconds between reference-kernel timings

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "run_p50_ms": "ms", "run_tail_ms": "ms",
             "peak_rss_mb": "MB"}
# span layer -> per-layer self-time metric; the sum over this table is the traced e2e
SELF_TIME_METRICS = {
    "cli": "cli.overhead_ms", "pipeline": "pipeline.glue_ms", "thin": "thin.build_ms",
    "type_d": "type_d.build_ms", "type_a": "type_a.build_ms",
    "gradings": "gradings.normalize_ms", "pairing": "pairing.pair_ms",
    "homology.filter": "homology.filter_ms", "homology.reduce": "homology.reduce_ms",
    "invariants": "invariants.checks_ms",
}
LAYER_UNITS = {
    "thin.build_ms": "ms", "thin.squares": "count", "thin.levels": "count",
    "type_d.build_ms": "ms", "type_d.generators": "count", "type_d.edges": "count",
    "type_d.mu": "count",
    "type_a.build_ms": "ms", "type_a.hat_ops": "count", "type_a.chord_letters": "count",
    "gradings.normalize_ms": "ms", "gradings.normalize_us": "us", "gradings.calls": "count",
    "pairing.pair_ms": "ms", "pairing.gradings_ms": "ms", "pairing.differential_ms": "ms",
    "pairing.generators": "count", "pairing.arrows": "count", "pairing.match_yield": "ratio",
    "homology.filter_ms": "ms", "homology.reduce_ms": "ms", "homology.blocks": "count",
    "homology.max_block_arrows": "count", "homology.cancelled_pairs": "count",
    "homology.survival": "ratio",
    "invariants.checks_ms": "ms", "invariants.satellite_poly_terms": "count",
    "invariants.advisory_mismatches": "count",
    "pipeline.glue_ms": "ms", "cli.overhead_ms": "ms", "cli.json_bytes": "bytes",
    "trace.e2e_ms": "ms", "trace.overhead_frac": "ratio",
}


def load_program():
    """Import cablefloer from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "cablefloer" / "__init__.py").is_file():
        raise SystemExit(f"error: no cablefloer package under {src}")
    sys.path.insert(0, str(src))
    import cablefloer
    from cablefloer import cli, pairing
    if not Path(cablefloer.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported cablefloer from {cablefloer.__file__}, not {src}")
    return cablefloer, cli, pairing


class Workload:
    """The generated cases of one workload, bound to the program's entry point.

    ``grid`` renders every cable through ``cli.run`` to JSON in memory; the
    other workloads call ``compute_cable_hfk``.
    """

    def __init__(self, name: str, seed: int):
        self.lib, self.cli, self.pairing = load_program()
        self.name = name
        self.cases = workloads.generate(name, seed)
        self.via_cli = name == "grid"
        self.inputs = [self.cli_config(c) if self.via_cli else self.library_args(c) for c in self.cases]
        # the warm-up case: smallest pattern, then fewest tensor generators
        self.smallest = min(range(len(self.cases)),
                            key=lambda i: (self.cases[i].p, workloads.predicted_generators(self.cases[i])))

    def cli_config(self, case):
        return self.cli.RunConfig(delta=case.delta_text, tau=case.tau, p=case.p, n=case.n, fmt="json")

    def library_args(self, case):
        return (self.lib.LaurentPolynomial.from_centered_list(list(case.delta)), case.tau, case.p, case.n)

    def run_cli(self, config):
        out = io.StringIO()
        return self.cli.run(config, out), out.getvalue()

    def call(self, inp):
        return self.run_cli(inp) if self.via_cli else self.lib.compute_cable_hfk(*inp)

    def outcome(self, raw):
        """(ranks, cable tau) of one result; raises on an exception or exit code."""
        if isinstance(raw, Exception):
            raise raw
        if isinstance(raw, tuple):
            code, text = raw
            if code != 0:
                raise RuntimeError(f"cli exit code {code}")
            doc = json.loads(text)
            return {(e["a"], e["m"]): e["rank"] for e in doc["ranks"]}, doc["tau"]
        return dict(raw.table.ranks), raw.cable_tau


class Checker:
    """Counts attempted and failed cables; the first result per case meets every oracle."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.results: dict[int, tuple[dict, int]] = {}
        self.advisory: set[int] = set()
        self.attempted = 0
        self.failed = 0

    def __call__(self, index: int, raw) -> None:
        self.attempted += 1
        case = self.workload.cases[index]
        try:
            ranks, tau = self.workload.outcome(raw)
            if index in self.results:
                problems = [] if (ranks, tau) == self.results[index] else ["result differs from the first run"]
            else:
                problems, advisory = oracles.check(case, ranks, tau)
                self.results[index] = (ranks, tau)
                if advisory:
                    self.advisory.add(index)
        except Exception as exc:  # a cable that raises counts as failed
            problems = [f"{type(exc).__name__}: {exc}"]
        self.fail(case, problems)

    def fail(self, case, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAIL {case}: {'; '.join(problems)}", file=sys.stderr)

    def cli_matches_library(self, indices) -> None:
        """CLI JSON ranks and tau equal the library's for the same cable."""
        wl = self.workload
        for i in indices:
            case = wl.cases[i]
            try:
                code, text = wl.run_cli(wl.cli_config(case))
                lib = wl.lib.compute_cable_hfk(*wl.library_args(case))
                ok = code == 0 and wl.outcome((code, text)) == wl.outcome(lib)
            except Exception:  # counted like any other failing cable
                ok = False
            self.fail(case, [] if ok else ["CLI JSON differs from the library"])


def reference_seconds() -> float:
    """Time one run of a fixed pure-Python kernel: tuple-keyed dict and int work.

    The machine's speed drifts by up to 1.7x over seconds to minutes.  This
    kernel, timed next to the cables, measures that drift (see README.md).
    """
    start = perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(4000):
        table[(i, i & 7)] = table.get((i - 1, (i - 1) & 7), 0) + i
    return perf_counter() - start


class SpeedMarks:
    """Reference-kernel timings taken every REF_EVERY seconds of wall time.

    A SIGALRM handler runs the kernel between the program's bytecodes, so
    the machine's speed is sampled during long cables too; the handler's own
    time is kept in ``spent`` and subtracted from the cable it interrupted.
    """

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        self.refs.append(reference_seconds())
        self.times.append(start)
        self.spent += perf_counter() - start

    def __enter__(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def scale(self, start: float, end: float) -> float:
        """REF_SECONDS over the mean reference time during [start, end],
        or over the marks just before and after it when none fell inside."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return REF_SECONDS / statistics.fmean(self.refs[lo:hi] or self.refs[max(lo - 1, 0):hi + 1])


def closed_loop(workload: Workload, seconds: float, min_passes: int, on_result):
    """Whole passes until both bounds are met; per case, a list of (seconds, scale)."""
    timed = []  # (case index, start, end, seconds without the reference handler)
    with SpeedMarks() as marks:
        start = perf_counter()
        passes = 0
        while passes < min_passes or perf_counter() - start < seconds:
            for i, inp in enumerate(workload.inputs):
                spent = marks.spent
                t0 = perf_counter()
                try:
                    raw = workload.call(inp)
                except Exception as exc:  # recorded as a failed cable by on_result
                    raw = exc
                t1 = perf_counter()
                timed.append((i, t0, t1, t1 - t0 - (marks.spent - spent)))
                on_result(i, raw)
            passes += 1
    samples = [[] for _ in workload.cases]
    for i, t0, t1, elapsed in timed:
        samples[i].append((elapsed, marks.scale(t0, t1)))
    return samples


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    return next(q for q in TAIL_LADDER if samples - math.ceil(q / 100 * samples) >= 10)


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh processes of: import, generate the cases, one warm-up cable."""
    times = []
    for _ in range(SETUP_PROBES):
        child = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                                "--setup-probe"], capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{child.stderr}")
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


def setup_probe(name: str, seed: int) -> None:
    before = reference_seconds()
    start = perf_counter()
    warm_up(Workload(name, seed))
    elapsed = perf_counter() - start
    print(elapsed * 2 * REF_SECONDS / (before + reference_seconds()))


def warm_up(workload: Workload) -> None:
    """One untimed cable; its case is checked when the timed passes reach it."""
    try:
        workload.call(workload.inputs[workload.smallest])
    except Exception:  # the same case fails again, and is counted, in the timed passes
        pass


def measure_e2e(workload: Workload, seed: int, seconds: float, checker: Checker) -> dict:
    setup = setup_seconds(workload.name, seed)
    warm_up(workload)
    samples = closed_loop(workload, seconds, MIN_PASSES, checker)
    if workload.via_cli:
        checker.cli_matches_library(range(seed % CLI_SAMPLE_STRIDE, len(workload.cases), CLI_SAMPLE_STRIDE))
    else:
        checker.cli_matches_library([workload.smallest])

    scaled = [[elapsed * scale for elapsed, scale in per_case] for per_case in samples]
    flat = sorted(t for per_case in scaled for t in per_case)
    q = tail_percentile(MIN_PASSES * len(workload.cases))
    rank = math.ceil(q / 100 * len(flat))
    passes = len(samples[0])
    print(f"passes {passes}, samples {len(flat)}; run_tail_ms is p{q:g} with {len(flat) - rank} "
          f"samples beyond it; unscaled mean pass {sum(t for c in samples for t, _ in c) / passes:.3f} s, "
          f"mean scale {statistics.fmean(s for c in samples for _, s in c):.3f}")
    return {
        "setup_s": setup,
        "wall_s": sum(statistics.median(per_case) for per_case in scaled),
        "run_p50_ms": statistics.median(flat) * 1e3,
        "run_tail_ms": flat[rank - 1] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


class LayerCounts:
    """Work counts of one traced pass, read from the stage functions' results."""

    def __init__(self):
        self.values = dict.fromkeys(
            ("thin.squares", "thin.levels", "type_d.generators", "type_d.edges", "type_d.mu",
             "type_a.hat_ops", "type_a.chord_letters", "pairing.generators", "pairing.arrows",
             "homology.blocks", "homology.max_block_arrows", "homology.cancelled_pairs",
             "invariants.satellite_poly_terms"), 0)
        self.tried = 0
        self.rank = 0

    def add(self, workload: Workload, case, returns: dict) -> list[str]:
        v = self.values
        model, module_d, module_a = (returns.get(k) for k in ("build_model", "build_typed", "build_typea_minus"))
        complex_, table = returns.get("pair_modules"), returns.get("reduce_complex")
        if model is not None:
            v["thin.squares"] += model.params.s
            v["thin.levels"] += len(model.square_counts)
        if module_d is not None:
            v["type_d.generators"] += len(module_d.generators)
            v["type_d.edges"] += len(module_d.edges)
            v["type_d.mu"] += sum(g.kind == "mu" for g in module_d.generators)
        if module_a is not None:
            hat = workload.pairing.hat_operations(module_a)
            v["type_a.hat_ops"] += len(hat)
            v["type_a.chord_letters"] += sum(len(op.inputs) for op in module_a.finite_operations)
            if module_d is not None:  # (hat op, D generator) pairs with matching idempotents
                ops = Counter(module_a.pairs_with(src) for src, _ in hat)
                self.tried += sum(ops[g.idempotent] for g in module_d.generators)
        if complex_ is not None:
            v["pairing.generators"] += len(complex_.generators)
            v["pairing.arrows"] += len(complex_.arrows)
            blocks: dict[int, int] = {}
            for src, _ in complex_.arrows:
                a = complex_.generators[src].alexander
                blocks[a] = blocks.get(a, 0) + 1
            v["homology.blocks"] += len(blocks)
            v["homology.max_block_arrows"] = max(v["homology.max_block_arrows"], *blocks.values(), 0)
            if table is not None:
                self.rank += table.total
                v["homology.cancelled_pairs"] += (len(complex_.generators) - table.total) // 2
        if "cable_alexander" in returns:
            v["invariants.satellite_poly_terms"] += len(list(returns["cable_alexander"].items()))
        if complex_ is not None and len(complex_.generators) != workloads.predicted_generators(case):
            return [f"{len(complex_.generators)} tensor generators, predicted "
                    f"{workloads.predicted_generators(case)}"]
        return []


def measure_layers(workload: Workload, seed: int, seconds: float, checker: Checker) -> dict:
    """Untraced passes, then traced passes with probes; per-layer metrics per pass."""
    warm_up(workload)
    untraced = closed_loop(workload, seconds / 2, 1, checker)
    untraced_pass = sum(t for per_case in untraced for t, _ in per_case) / len(untraced[0])

    tracer = Tracer()
    counts = LayerCounts()
    probes = {}  # case index -> probe timings, first traced pass
    root = "cli" if workload.via_cli else "pipeline"
    passes = 0
    start = perf_counter()
    while passes < 1 or perf_counter() - start < seconds / 2:
        for i, inp in enumerate(workload.inputs):
            tracer.cable = (passes, i)
            tracer.returns.clear()
            with tracer.patched():
                try:
                    raw = tracer.call(root, workload.call, inp)
                except Exception as exc:  # recorded as a failed cable by the checker
                    raw = exc
            checker(i, raw)
            if passes == 0 and not isinstance(raw, Exception):
                case = workload.cases[i]
                checker.fail(case, counts.add(workload, case, tracer.returns))
                probes[i] = probe(workload, case, tracer.returns, raw)
        passes += 1
    tracer.dump(ROOT / ".bench_out" / f"trace_{workload.name}_seed{seed}.jsonl.gz")

    per_pass = [dict.fromkeys(SELF_TIME_METRICS.values(), 0.0) for _ in range(passes)]
    for layer, cable, secs in tracer.self_times():
        per_pass[cable[0]][SELF_TIME_METRICS[layer]] += secs * 1e3
    metrics = {name: statistics.fmean(p[name] for p in per_pass) for name in SELF_TIME_METRICS.values()}
    root_ms = {span[4]: (span[2] - span[1]) * 1e3 for span in tracer.roots()}
    e2e_ms = sum(root_ms.values()) / passes
    if not math.isclose(sum(metrics.values()), e2e_ms, rel_tol=1e-9):
        raise RuntimeError(f"self times sum to {sum(metrics.values())} ms, traced e2e is {e2e_ms} ms")
    probe_totals = Counter()  # off grid this replaces the cli.overhead_ms the span tree lacks
    for values in probes.values():
        probe_totals.update(values)
    metrics.update(probe_totals)
    first_pass = [acc for (parent, _), acc in tracer.rollups.items() if tracer.spans[parent][4][0] == 0]
    total_calls = sum(c for c, _ in tracer.rollups.values())
    metrics.update(counts.values)
    metrics.update({
        "gradings.normalize_us": sum(s for _, s in tracer.rollups.values()) / total_calls * 1e6
        if total_calls else 0.0,
        "gradings.calls": sum(c for c, _ in first_pass),
        "pairing.match_yield": counts.values["pairing.arrows"] / counts.tried if counts.tried else 0.0,
        "homology.survival": counts.rank / counts.values["pairing.generators"]
        if counts.values["pairing.generators"] else 0.0,
        "invariants.advisory_mismatches": len(checker.advisory),
        "trace.e2e_ms": e2e_ms,
        "trace.overhead_frac": e2e_ms / (untraced_pass * 1e3) - 1,
    })
    print(f"untraced pass {untraced_pass:.3f} s, traced passes {passes}")
    for i in [i for i in range(workloads.RECORDS[workload.name]) if i in probes]:
        ms = root_ms[(0, i)]
        normalize = sum(s for (parent, _), (_, s) in tracer.rollups.items() if tracer.spans[parent][4] == (0, i))
        print(f"case of record {workload.cases[i]}: traced {ms:.1f} ms, normalize_double_coset "
              f"{normalize * 1e3 / ms:.0%} of it; probes: tensor_gradings "
              f"{probes[i]['pairing.gradings_ms']:.1f} ms, tensor_differential "
              f"{probes[i]['pairing.differential_ms']:.1f} ms")
    return {name: metrics[name] for name in LAYER_UNITS}


def probe(workload: Workload, case, returns: dict, raw) -> dict:
    """Timings outside the span tree: the two tensor stages again on the same
    modules and, for library workloads, one CLI run of the same cable."""
    out = {"pairing.gradings_ms": 0.0, "pairing.differential_ms": 0.0}
    model, module_d, module_a = (returns.get(k) for k in ("build_model", "build_typed", "build_typea_minus"))
    pairing = workload.pairing
    if None not in (model, module_d, module_a):
        c = pairing.shift_constant(model.params.l, case.p, case.n)
        t0 = perf_counter()
        pairing.tensor_gradings(module_a, module_d, c)
        t1 = perf_counter()
        pairing.tensor_differential(module_a, module_d)
        t2 = perf_counter()
        out["pairing.gradings_ms"] = (t1 - t0) * 1e3
        out["pairing.differential_ms"] = (t2 - t1) * 1e3
    if workload.via_cli:
        out["cli.json_bytes"] = len(raw[1])
        return out
    tracer = Tracer()
    with tracer.patched():
        _, text = tracer.call("cli", workload.run_cli, workload.cli_config(case))
    out["cli.overhead_ms"] = sum(s for layer, _, s in tracer.self_times() if layer == "cli") * 1e3
    out["cli.json_bytes"] = len(text)
    return out


def run_one(args) -> int:
    workload = Workload(args.workload, args.seed)
    checker = Checker(workload)
    print(f"workload {args.workload}, seed {args.seed}: {len(workload.cases)} cases, "
          f"{sum(map(workloads.predicted_generators, workload.cases))} predicted tensor generators per pass")
    if args.trace:
        metrics, units = measure_layers(workload, args.seed, args.seconds, checker), LAYER_UNITS
    else:
        metrics, units = measure_e2e(workload, args.seed, args.seconds, checker), E2E_UNITS
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    print(f"  {'fail_frac':34s} {checker.failed / max(checker.attempted, 1):.6g} ratio "
          f"({checker.failed}/{checker.attempted}); advisory-cell mismatches "
          f"{len(checker.advisory)} of {len(workload.cases)} cases (counted, not failed)")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, one at a time."""
    results = {}
    for name in workloads.WORKLOADS:
        child = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace)],
                               capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
