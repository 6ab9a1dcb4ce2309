"""Cross-checks of the GENesis benchmark at smoke scale.

    python3 -m pytest genesis_bench/test_genesis_bench.py -k smoke

Each workload runs through the real runner on tiny decks (the runner
unsets the ``REPRO_*_CHECK`` shadow modes), and the tests assert that

* the printed metric names are exactly the ones ``BENCHMARK.json``
  declares, with the declared units;
* the spans timed from outside agree with the program's own counters;
* two runs at one seed give the same ``outputs_digest`` and the same
  count metrics, and tracing does not change the digest.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SEED = 3


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """``bench(workload, trace, attempt=0)`` -> (JSON line, record)."""
    runs: dict[tuple[str, int, int], tuple[dict, dict]] = {}

    def run(workload: str, trace: int, attempt: int = 0):
        key = (workload, trace, attempt)
        if key not in runs:
            out = tmp_path_factory.mktemp("bench") / "record.json"
            completed = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload",
                 workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--scale", "smoke",
                 "--out", str(out)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            assert completed.returncode == 0, (
                completed.stdout + completed.stderr
            )
            line = json.loads(completed.stdout.strip().splitlines()[-1])
            record = json.loads(out.read_text())["records"][0]
            runs[key] = (line, record)
        return runs[key]

    return run


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_printed_names_are_declared(bench, workload, trace):
    line, _record = bench(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_spans_agree_with_program_counters(bench, workload):
    _line, record = bench(workload, 1)
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    counters = record["program_counters"]
    assert metrics["analysis.deps.calls"] == (
        metrics["analysis.full_rebuilds"]
        + metrics["analysis.incremental_updates"]
    )
    assert metrics["service.jobs"] == counters["service.submitted"]
    assert metrics["search.executions"] == counters["search.backend_executions"]
    assert metrics["synth.admit.calls"] == metrics["synth.screened"]
    # each workload exercises its own layer
    own = {
        "scalar-pipeline": "analysis.deps.calls",
        "catalog-suite": "match.sweep.calls",
        "search-campaign": "service.jobs",
        "infer-campaign": "synth.admit.calls",
    }
    assert metrics[own[workload]] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_same_seed_same_outputs(bench, workload):
    _line, first = bench(workload, 1)
    _line, second = bench(workload, 1, attempt=1)
    _line, untraced = bench(workload, 0)
    assert first["outputs_digest"] == second["outputs_digest"]
    assert untraced["outputs_digest"] == first["outputs_digest"]

    def counts(record):
        return {
            name: metric["value"]
            for name, metric in record["metrics"].items()
            if metric["unit"] == "count"
        }

    assert counts(first) == counts(second)
