"""Restart-from-top re-scan vs worklist-driven matching.

Runs a ten-pass scalar pipeline over synthetic workloads of growing
size, once through the paper's Figure 5 loop (``tests/figure5.py``:
after every application the listing restarts from the top of the
program) and once through the driver (shape-filtered seed scans plus
a dirty-region worklist, :mod:`repro.genesis.matching`).  Only the
matching phase is compared — each arm's discovery wall-clock is
accumulated in ``DriverResult.match_seconds`` — so action/analysis
time does not dilute the ratio.  The rescan arm's total also holds
``apply_at_point``'s second listing up to each chosen point.  Timings
for every size are recorded in ``BENCH_match.json`` at the repository
root; the largest size must show at least a :data:`TARGET_SPEEDUP`
matching-phase improvement.

``test_smoke_worklist_matches_rescan`` is the cheap CI entry point
(select with ``-k smoke``): a small size, asserting behavioural
equivalence between the arms rather than any timing ratio.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from bench_schema import write_bench
from repro.analysis.manager import AnalysisManager
from repro.genesis.driver import DriverOptions, run_optimizer
from repro.genesis.matching import MatchStats, engine_for
from repro.ir.program import Program
from repro.opts.catalog import standard_optimizers
from repro.workloads.synthetic import random_program
from tests.figure5 import run_figure5

#: The 10-pass pipeline: two cleanup rounds plus a final sweep.
PASSES = ["CTP", "CFO", "CPP", "DCE"] * 2 + ["CTP", "DCE"]

#: Synthetic workload sizes (requested statement counts).
SIZES = (80, 160, 320, 480)

SEED = 7

#: Required matching-phase improvement at the largest size.
TARGET_SPEEDUP = 2.5

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_match.json"


@pytest.fixture(scope="module")
def pipeline_optimizers():
    return standard_optimizers(("CTP", "CFO", "CPP", "DCE"))


#: the two arms: the paper's restart-from-top loop and the driver
DRIVERS = {"rescan": run_figure5, "worklist": run_optimizer}


def _run_pipeline(
    program: Program, optimizers, arm: str
) -> tuple[float, MatchStats]:
    manager = AnalysisManager(program)
    options = DriverOptions(apply_all=True)
    match_seconds = 0.0
    for name in PASSES:
        result = DRIVERS[arm](
            optimizers[name], program, options, manager=manager
        )
        match_seconds += result.match_seconds
    return match_seconds, engine_for(manager).stats


def _measure(
    base: Program, optimizers, arm: str
) -> tuple[float, float, Program, MatchStats]:
    program = base.clone()
    start = time.perf_counter()
    match_seconds, stats = _run_pipeline(program, optimizers, arm)
    return time.perf_counter() - start, match_seconds, program, stats


def test_worklist_speedup(pipeline_optimizers):
    """Sizes x rescan-vs-worklist sweep, recorded as JSON."""
    results: dict[str, object] = {
        "pipeline": PASSES,
        "seed": SEED,
        "target_match_speedup_at_largest": TARGET_SPEEDUP,
        "sizes": [],
    }
    speedup_at_largest = 0.0
    for size in SIZES:
        base = random_program(SEED, size=size, max_depth=2)
        rescan_total, rescan_match, rescan_prog, _ = _measure(
            base, pipeline_optimizers, arm="rescan"
        )
        work_total, work_match, work_prog, work_stats = _measure(
            base, pipeline_optimizers, arm="worklist"
        )
        # both arms must optimize identically, or the timing is moot
        assert [str(q) for q in work_prog] == [str(q) for q in rescan_prog]
        speedup = rescan_match / work_match
        results["sizes"].append(
            {
                "size": size,
                "quads": len(base),
                "rescan_match_s": round(rescan_match, 4),
                "worklist_match_s": round(work_match, 4),
                "match_speedup": round(speedup, 2),
                "rescan_total_s": round(rescan_total, 4),
                "worklist_total_s": round(work_total, 4),
                "total_speedup": round(rescan_total / work_total, 2),
                "worklist_arm": {
                    "candidates_scanned": work_stats.candidates_scanned,
                    "worklist_sweeps": work_stats.worklist_sweeps,
                    "full_sweeps": work_stats.full_sweeps,
                    "cached_sweeps": work_stats.cached_sweeps,
                    "points_survived": work_stats.points_survived,
                    "points_dropped": work_stats.points_dropped,
                    "points_rediscovered": work_stats.points_rediscovered,
                },
            }
        )
        if size == SIZES[-1]:
            speedup_at_largest = speedup
    write_bench(RESULTS_PATH, results)
    assert speedup_at_largest >= TARGET_SPEEDUP, (
        f"worklist matching gave only {speedup_at_largest:.2f}x at "
        f"size {SIZES[-1]} (need {TARGET_SPEEDUP}x); see {RESULTS_PATH}"
    )


def test_smoke_worklist_matches_rescan(pipeline_optimizers):
    """CI smoke: one small size, equivalence only (no timing assert)."""
    base = random_program(SEED, size=40, max_depth=2)
    _, _, rescan_prog, _ = _measure(
        base, pipeline_optimizers, arm="rescan"
    )
    _, _, work_prog, work_stats = _measure(
        base, pipeline_optimizers, arm="worklist"
    )
    assert [str(q) for q in work_prog] == [str(q) for q in rescan_prog]
    assert work_stats.worklist_sweeps + work_stats.cached_sweeps > 0
