"""Search cost: naive sequential search vs service-cached search.

Runs the same iterated-greedy search on the same evaluation budget two
ways:

* **sequential** — fingerprint pruning off, evaluated through an
  in-process service whose result cache holds nothing
  (``cache_capacity=0``): every candidate evaluation runs the driver,
  the way a naive phase-ordering loop would;
* **service-cached** — fingerprint pruning on and every candidate
  evaluated through the optimization service, so convergent orderings
  and repeated ``(state, pass)`` extensions are result-cache hits
  instead of backend executions.

Both arms spend the same *exploration* budget; the claim under test is
that pruning plus the fingerprint-keyed cache cuts the *work* (backend
executions) at least ``TARGET_EXECUTION_REDUCTION``-fold.  Iterated
greedy is the strategy that exercises the cache the way a real
campaign does: every destroy-and-rebuild round replays a prefix of the
incumbent and re-walks states earlier rounds visited, all free hits in
the cached arm and all re-executed in the sequential arm.  The two
arms may report different best pipelines — on a fixed budget, pruning
changes which states get explored — so best-pipeline equality is
deliberately not asserted; both winners are oracle-certified instead.

Numbers land in ``BENCH_search.json`` (shared BENCH schema, see
``bench_schema.py``), one ``sizes`` entry per budget: backend
executions and wall-clock for both arms, the execution-reduction
ratio, the cache-hit pruning rate, and ``search_speedup`` (sequential
wall-clock / service-cached wall-clock).

``test_smoke_search_cache`` is the cheap CI entry point (``-k
smoke``): a tiny search twice through one in-process service,
asserting the restart is served entirely from the cache.
"""

from __future__ import annotations

import time
from pathlib import Path

from bench_schema import host_info, write_bench
from repro.search import SearchConfig, certify, search_program
from repro.service import ServiceClient
from repro.workloads.suite import workload

WORKLOAD = "ordering"

PASSES = ("CTP", "CFO", "DCE", "FUS", "INX", "LUR")

BUDGETS = (60, 200)

#: Required reduction in backend executions, service-cached vs
#: sequential, on the same budget (the PR's acceptance criterion).
TARGET_EXECUTION_REDUCTION = 2.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_search.json"


def _config(budget: int, prune: bool) -> SearchConfig:
    return SearchConfig(
        opt_names=PASSES,
        strategy="iterated",
        iterations=8,
        depth=4,
        budget=budget,
        prune=prune,
    )


def test_search_cache_pruning():
    source = workload(WORKLOAD).source
    sizes = []
    for budget in BUDGETS:
        sequential_config = _config(budget, prune=False)
        with ServiceClient(backend="inprocess", cache_capacity=0) as client:
            start = time.perf_counter()
            sequential = search_program(
                source, sequential_config, client=client, name=WORKLOAD
            )
            sequential_s = time.perf_counter() - start

        cached_config = _config(budget, prune=True)
        with ServiceClient(backend="inprocess") as client:
            start = time.perf_counter()
            cached = search_program(
                source, cached_config, client=client, name=WORKLOAD
            )
            cached_s = time.perf_counter() - start

        # both explored the same budget; only the work may differ
        assert sequential.evaluator.evaluations <= budget
        assert cached.evaluator.evaluations <= budget
        assert sequential.backend_executions == (
            sequential.evaluator.evaluations
        )
        # both winners must still be semantics-preserving
        certify(sequential, source, options=sequential_config.driver_options())
        certify(cached, source, options=cached_config.driver_options())
        assert sequential.certified is True
        assert cached.certified is True

        reduction = sequential.backend_executions / max(
            1, cached.backend_executions
        )
        hit_rate = cached.cache_hits / max(1, cached.evaluator.evaluations)
        sizes.append(
            {
                "size": budget,
                "sequential_executions": sequential.backend_executions,
                "cached_executions": cached.backend_executions,
                "cache_hits": cached.cache_hits,
                "pruned_states": cached.pruned,
                "cache_hit_rate": round(hit_rate, 3),
                "execution_reduction": round(reduction, 2),
                "sequential_s": round(sequential_s, 4),
                "cached_s": round(cached_s, 4),
                "search_speedup": round(sequential_s / cached_s, 2),
                "sequential_best": list(sequential.best_sequence),
                "cached_best": list(cached.best_sequence),
            }
        )

    write_bench(
        RESULTS_PATH,
        {
            "workload": WORKLOAD,
            "passes": list(PASSES),
            "strategy": "iterated",
            "iterations": 8,
            "depth": 4,
            "target_execution_reduction": TARGET_EXECUTION_REDUCTION,
            "host": host_info(),
            "sizes": sizes,
        },
    )
    for entry in sizes:
        assert entry["execution_reduction"] >= TARGET_EXECUTION_REDUCTION, (
            f"budget {entry['size']}: cache-hit pruning cut backend "
            f"executions only {entry['execution_reduction']}x "
            f"(need {TARGET_EXECUTION_REDUCTION}x); see {RESULTS_PATH}"
        )


def test_smoke_search_cache():
    """CI smoke: a restarted tiny search is served from the cache."""
    source = workload("integrate").source
    config = SearchConfig(
        opt_names=("CTP", "CFO", "DCE"), strategy="beam",
        beam_width=2, depth=2, budget=16,
    )
    with ServiceClient(backend="inprocess") as client:
        first = search_program(source, config, client=client)
        second = search_program(source, config, client=client)
        assert first.backend_executions > 0
        assert second.backend_executions == 0
        assert second.cache_hits == second.evaluator.evaluations
        assert second.best_sequence == first.best_sequence
