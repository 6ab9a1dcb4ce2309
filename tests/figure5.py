"""The paper's Figure 5 driver loop: the reference for point discovery.

The driver (:func:`repro.genesis.driver.run_optimizer`) finds its next
application point through the matching engine, which keeps the last
sweep's points and re-enumerates only the region an application
touched.  The paper's driver instead restarts the scan from the top of
the program after every application.  :func:`run_figure5` is that
loop, built from the one enumerator
(:func:`repro.genesis.matching.enumerate_points`) and
:func:`repro.genesis.driver.apply_at_point`: list from the top, stop
at the first point not yet applied, act there, and repeat.

``tests/genesis/test_matching.py`` checks that the driver transforms
every program exactly as this loop does, and
``benchmarks/test_bench_match.py`` times the two against each other.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.analysis.manager import AnalysisManager, manager_for
from repro.genesis.driver import (
    DriverOptions,
    DriverResult,
    apply_at_point,
    make_context,
)
from repro.genesis.generator import GeneratedOptimizer
from repro.genesis.library import MatchContext
from repro.genesis.matching import enumerate_points
from repro.ir.program import Program


def run_figure5(
    optimizer: GeneratedOptimizer,
    program: Program,
    options: Optional[DriverOptions] = None,
    manager: Optional[AnalysisManager] = None,
) -> DriverResult:
    """Transform ``program`` in place the way the paper's driver does.

    Honours ``apply_all``, ``max_applications``, ``max_rollbacks`` and
    ``enforce_restrictions`` of ``options`` (default: apply at every
    point).  Dependences come from one ``manager`` for the whole run,
    refreshed before every listing.  ``match_seconds`` is the time
    spent listing from the top up to the first point not yet applied,
    as in the driver without the dependence refresh;
    ``apply_at_point`` lists once more, up to that point, before it
    acts, and that time counts only in ``elapsed_seconds``.
    """
    options = options or DriverOptions(apply_all=True)
    manager = manager_for(program, manager)
    result = DriverResult(optimizer=optimizer.name)
    applied: set[tuple] = set()
    start = time.perf_counter()
    while (
        len(result.applications) < options.max_applications
        and len(result.failures) < options.max_rollbacks
    ):
        ctx = make_context(program, manager=manager)
        ctx.enforce_restrictions = options.enforce_restrictions
        listing_started = time.perf_counter()
        found = _first_unapplied(optimizer, ctx, applied)
        result.match_seconds += time.perf_counter() - listing_started
        if found is None:
            break
        index, signature = found
        outcome = apply_at_point(
            optimizer, program, index, manager=manager, options=options
        )
        result.applications += outcome.applications
        result.failures += outcome.failures
        if outcome.applications:
            applied.add(signature)
            if not options.apply_all:
                break
    result.elapsed_seconds = time.perf_counter() - start
    return result


def _first_unapplied(
    optimizer: GeneratedOptimizer, ctx: MatchContext, applied: set[tuple]
) -> Optional[tuple[int, tuple]]:
    """Index and signature of the first listed point not yet applied."""
    points = enumerate_points(optimizer, ctx)
    try:
        for index, (signature, _bindings, _qids) in enumerate(points):
            if signature not in applied:
                return index, signature
    finally:
        points.close()
    return None
