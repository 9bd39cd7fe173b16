"""Spans at the program's layer boundaries, recorded from outside the program.

The pipeline and the CLI look up their stage functions as module globals at
call time.  While ``Tracer.patched()`` is active each of those names is bound
to a wrapper that records a span around the real call, so the unmodified
``compute_cable_hfk`` and ``cli.run`` run with their own glue code, and a
layer's self time is its span minus the spans it caused.

``normalize_double_coset`` runs once per tensor generator, so it is rolled
up per parent span (call count and busy time) instead of one span per call.
"""

from __future__ import annotations

import gzip
import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, layer).  A name the program no longer has is skipped,
# and its layer then reads zero.
SPANS = (
    ("cablefloer.cli", "compute_cable_hfk", "pipeline"),
    ("cablefloer.pipeline", "build_model", "thin"),
    ("cablefloer.pipeline", "build_typed", "type_d"),
    ("cablefloer.pipeline", "build_typea_minus", "type_a"),
    ("cablefloer.pipeline", "pair_modules", "pairing"),
    ("cablefloer.pipeline", "grading_filter", "homology.filter"),
    ("cablefloer.pipeline", "reduce_complex", "homology.reduce"),
    ("cablefloer.invariants", "table_rank", "invariants"),
    ("cablefloer.invariants", "euler_characteristic", "invariants"),
    ("cablefloer.invariants", "cable_alexander", "invariants"),
    ("cablefloer.invariants", "tau_cable", "invariants"),
    ("cablefloer.invariants", "check_symmetry", "invariants"),
)
ROLLUPS = (("cablefloer.pairing", "normalize_double_coset", "gradings"),)


class Tracer:
    """Spans (layer, start, end, parent index, cable id) kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.rollups: dict[tuple[int, str], list] = {}  # (parent, layer) -> [calls, seconds]
        self.returns: dict[str, object] = {}  # function name -> last result, for counts
        self.cable = None
        self._stack: list[int] = []

    def call(self, layer: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [layer, 0.0, 0.0, parent, self.cable]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        self.returns[fn.__name__] = result
        return result

    def _span_wrapper(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)
        return wrapper

    def _rollup_wrapper(self, layer: str, fn):
        rollups, stack = self.rollups, self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (stack[-1] if stack else -1, layer)
                acc = rollups.get(key)
                if acc is None:
                    acc = rollups[key] = [0, 0.0]
                acc[0] += 1
                acc[1] += elapsed
        return wrapper

    @contextmanager
    def patched(self):
        saved = []
        try:
            for targets, make in ((SPANS, self._span_wrapper), (ROLLUPS, self._rollup_wrapper)):
                for module_name, attr, layer in targets:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr, None)
                    if fn is not None:
                        saved.append((module, attr, fn))
                        setattr(module, attr, make(layer, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> list[tuple[str, object, float]]:
        """(layer, cable, self seconds) per span and per rollup."""
        cover = [0.0] * len(self.spans)
        out = []
        for (parent, layer), (_, seconds) in self.rollups.items():
            if parent >= 0:
                cover[parent] += seconds
            out.append((layer, self.spans[parent][4] if parent >= 0 else None, seconds))
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                cover[parent] += end - start
        out += [(layer, cable, end - start - cover[i])
                for i, (layer, start, end, _, cable) in enumerate(self.spans)]
        return out

    def roots(self):
        return [span for span in self.spans if span[3] < 0]

    def dump(self, path) -> None:
        """Write spans, then rollups, as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            for (parent, layer), (calls, seconds) in self.rollups.items():
                out.write(json.dumps({"rollup": layer, "parent": parent,
                                      "calls": calls, "seconds": seconds}) + "\n")
