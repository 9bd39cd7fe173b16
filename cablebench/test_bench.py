"""Tests of the benchmark itself.

    python3 -m pytest cablebench/test_bench.py

They run the benchmark command on the cheapest workload, and the traced
measurement in-process on the three smallest cases of every workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS_OF_RECORD = (1, 2)
# per-layer metrics that count work, so they must not depend on timing
EXACT = [name for name, unit in run.LAYER_UNITS.items()
         if unit in ("count", "bytes") or name in ("pairing.match_yield", "homology.survival")]


def run_command(workload: str, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                          "--seconds", "1", "--trace", str(trace)],
                         capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(trace, key):
    doc = run_command("chain", trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[key]}
    assert all(m["value"] > 0 for name, m in doc["metrics"].items() if key == "end_to_end")


def smallest_cases(name: str, seed: int, keep: int = 3) -> run.Workload:
    workload = run.Workload(name, seed)
    order = sorted(range(len(workload.cases)),
                   key=lambda i: (workload.cases[i].p, workloads.predicted_generators(workload.cases[i])))[:keep]
    workload.cases = [workload.cases[i] for i in order]
    workload.inputs = [workload.inputs[i] for i in order]
    workload.smallest = 0
    return workload


@pytest.mark.parametrize("seed", SEEDS_OF_RECORD)
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_count_metrics_repeat_exactly(name, seed):
    counts = []
    for seconds in (0, 0.5):  # one traced pass, then several
        workload = smallest_cases(name, seed)
        checker = run.Checker(workload)
        metrics = run.measure_layers(workload, seed, seconds, checker)
        assert checker.failed == 0
        counts.append({k: metrics[k] for k in EXACT})
    assert counts[0] == counts[1]
    assert counts[0]["pairing.generators"] == sum(map(workloads.predicted_generators, workload.cases))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7) != workloads.generate(name, 8)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(6120) == 99
    assert run.tail_percentile(20) == 50
