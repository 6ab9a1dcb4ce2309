"""Service batch throughput: serial vs process pool vs warm cache.

Optimizes a fixed batch of synthetic programs through the same 10-pass
pipeline three ways:

* **serial** — the in-process backend, one worker, caching disabled:
  the baseline a lone ``optimize()`` loop would give;
* **process pool** — ``WORKERS`` forked workers, caching disabled: the
  tentpole's parallel throughput claim (only asserted on hosts with at
  least ``WORKERS`` usable cores — the measured ratio is recorded
  either way);
* **warm cache** — the same batch resubmitted to a service that has
  already computed it: every job is a fingerprint-keyed cache hit;
* **disk tier** — the batch recomputed by a *fresh* service instance
  sharing a persistent cache directory with a previous one (the
  warm-restart story: memory tier empty, every job served from disk).

All arms must produce byte-identical optimized sources; the numbers
go to ``BENCH_service.json`` at the repository root in the shared
BENCH schema (see ``bench_schema.py``).  On hosts with fewer usable
cores than ``WORKERS`` the parallel entry is annotated as
host-qualified rather than asserted — a sub-1x "speedup" on a 1-CPU
host measures fork overhead, not a regression.

``test_smoke_service_batch`` and ``test_smoke_disk_cache_batch`` are
the cheap CI entry points (select with ``-k smoke``): small batches on
the in-process backend, asserting cache-hit behaviour rather than any
timing ratio.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import pytest

from bench_schema import host_info, write_bench
from repro.frontend.unparse import unparse_program
from repro.genesis.driver import DriverOptions
from repro.service import ServiceClient, run_batch
from repro.service.job import Job
from repro.workloads.synthetic import random_program

#: The 10-pass pipeline every job runs (duplicates = multiple passes).
PASSES = ("CTP", "CFO", "CPP", "DCE") * 2 + ("CTP", "DCE")

#: The batch: one synthetic program per seed at this statement budget.
SEEDS = tuple(range(100, 108))
SIZE = 120

WORKERS = 4

#: Required process-pool batch speedup (hosts with >= WORKERS cores).
TARGET_PARALLEL_SPEEDUP = 3.0

#: Required warm-cache speedup over recomputing the batch.
TARGET_WARM_SPEEDUP = 10.0

#: Required disk-tier (warm-restart) speedup over recomputing.
TARGET_DISK_SPEEDUP = 5.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def _batch(size: int = SIZE, seeds=SEEDS) -> list[Job]:
    options = DriverOptions(apply_all=True)
    jobs = []
    for seed in seeds:
        program = random_program(seed, size=size, max_depth=2)
        jobs.append(
            Job.from_source(
                unparse_program(program, name=program.name),
                PASSES,
                options,
            )
        )
    return jobs


def _timed(client: ServiceClient, jobs: list[Job]) -> tuple[float, list]:
    start = time.perf_counter()
    results = run_batch(client, jobs, timeout=600.0)
    elapsed = time.perf_counter() - start
    assert all(result.ok for result in results), [
        str(result) for result in results if not result.ok
    ]
    return elapsed, results


def test_service_throughput():
    host = host_info(backend="process")

    with ServiceClient(
        backend="inprocess", max_workers=1, cache_capacity=0
    ) as client:
        serial_s, serial_results = _timed(client, _batch())

    with ServiceClient(
        backend="process", max_workers=WORKERS, cache_capacity=0
    ) as client:
        parallel_s, parallel_results = _timed(client, _batch())

    with ServiceClient(backend="inprocess", max_workers=1) as client:
        cold_s, _ = _timed(client, _batch())
        warm_s, warm_results = _timed(client, _batch())
        warm_stats = client.stats

    # the disk tier: a fresh service lifetime over a shared directory
    with tempfile.TemporaryDirectory() as cache_dir:
        with ServiceClient(
            backend="inprocess", max_workers=1, cache_capacity=0,
            cache_dir=cache_dir,
        ) as client:
            disk_cold_s, _ = _timed(client, _batch())
        with ServiceClient(
            backend="inprocess", max_workers=1, cache_capacity=0,
            cache_dir=cache_dir,
        ) as client:
            disk_warm_s, disk_results = _timed(client, _batch())
            disk_stats = client.stats.disk

    # every arm must optimize the batch identically
    serial_sources = [result.source for result in serial_results]
    assert [r.source for r in parallel_results] == serial_sources
    assert [r.source for r in warm_results] == serial_sources
    assert [r.source for r in disk_results] == serial_sources
    assert all(result.cached for result in warm_results)
    assert warm_stats.cache_served == len(SEEDS)
    assert all(result.cached for result in disk_results)
    assert disk_stats is not None and disk_stats.hits == len(SEEDS)

    parallel_speedup = serial_s / parallel_s
    warm_speedup = cold_s / warm_s
    disk_speedup = disk_cold_s / disk_warm_s
    entry = {
        "size": SIZE,
        "jobs": len(SEEDS),
        "serial_s": round(serial_s, 4),
        "process_pool_s": round(parallel_s, 4),
        "parallel_speedup": round(parallel_speedup, 2),
        "cache_cold_s": round(cold_s, 4),
        "cache_warm_s": round(warm_s, 4),
        "warm_cache_speedup": round(warm_speedup, 2),
        "disk_cold_s": round(disk_cold_s, 4),
        "disk_warm_s": round(disk_warm_s, 4),
        "disk_warm_speedup": round(disk_speedup, 2),
    }
    if host["cpus"] < WORKERS:
        entry["parallel_speedup_note"] = (
            f"host-qualified: measured with {host['cpus']} usable "
            f"core(s) (cpu_count={host['cpu_count']}), fewer than "
            f"workers={WORKERS}; the {TARGET_PARALLEL_SPEEDUP}x "
            f"target is asserted only on hosts with >= {WORKERS} "
            f"cores, so this ratio measures fork overhead, not a "
            f"regression"
        )
    write_bench(
        RESULTS_PATH,
        {
            "pipeline": list(PASSES),
            "jobs": len(SEEDS),
            "workers": WORKERS,
            "target_parallel_speedup": TARGET_PARALLEL_SPEEDUP,
            "target_warm_cache_speedup": TARGET_WARM_SPEEDUP,
            "target_disk_warm_speedup": TARGET_DISK_SPEEDUP,
            "host": host,
            "sizes": [entry],
        },
    )
    assert disk_speedup >= TARGET_DISK_SPEEDUP, (
        f"disk tier gave only {disk_speedup:.2f}x over recomputing "
        f"(need {TARGET_DISK_SPEEDUP}x); see {RESULTS_PATH}"
    )
    assert warm_speedup >= TARGET_WARM_SPEEDUP, (
        f"warm cache gave only {warm_speedup:.2f}x over recomputing "
        f"(need {TARGET_WARM_SPEEDUP}x); see {RESULTS_PATH}"
    )
    if host["cpus"] < WORKERS:
        pytest.skip(
            f"host has {host['cpus']} usable core(s); the "
            f"{TARGET_PARALLEL_SPEEDUP}x/{WORKERS}-worker claim needs "
            f">= {WORKERS} (measured {parallel_speedup:.2f}x, recorded "
            f"in {RESULTS_PATH.name})"
        )
    assert parallel_speedup >= TARGET_PARALLEL_SPEEDUP, (
        f"{WORKERS} process workers gave only {parallel_speedup:.2f}x "
        f"over serial (need {TARGET_PARALLEL_SPEEDUP}x); see "
        f"{RESULTS_PATH}"
    )


def test_smoke_service_batch():
    """CI smoke: tiny batch, in-process, cache-hit behaviour only."""
    jobs = _batch(size=30, seeds=(100, 101, 102))
    with ServiceClient(backend="inprocess") as client:
        _, cold = _timed(client, jobs)
        _, warm = _timed(client, _batch(size=30, seeds=(100, 101, 102)))
        assert [r.source for r in warm] == [r.source for r in cold]
        assert all(result.cached for result in warm)
        assert client.stats.cache.hits == len(jobs)


def test_smoke_disk_cache_batch(tmp_path):
    """CI smoke for the disk arm: two service lifetimes, one
    directory, the second fully disk-served and byte-identical."""
    seeds = (100, 101, 102)
    with ServiceClient(
        backend="inprocess", cache_capacity=0, cache_dir=str(tmp_path)
    ) as client:
        _, cold = _timed(client, _batch(size=30, seeds=seeds))
    with ServiceClient(
        backend="inprocess", cache_capacity=0, cache_dir=str(tmp_path)
    ) as client:
        _, warm = _timed(client, _batch(size=30, seeds=seeds))
        disk = client.stats.disk
    assert [r.source for r in warm] == [r.source for r in cold]
    assert all(result.cached for result in warm)
    assert disk is not None and disk.hits == len(seeds)
