"""Cache-hit pruning: convergent orderings must not re-run the driver.

Search states are keyed by ``Program.fingerprint()``, and each
extension is a one-pass service job keyed by ``(state fingerprint,
pass)`` — so two orderings converging to the same program, and a whole
search restarted with the same seed, are served by the service's
result cache instead of a backend execution.
"""

import pytest

from repro.search import PhaseOrderingEngine, SearchConfig, search_program
from repro.search.space import canonical_source
from repro.service import ServiceClient
from repro.workloads.suite import workload

PASSES = ("CTP", "CFO", "DCE")


def _client():
    return ServiceClient(backend="inprocess")


class TestConvergentOrderings:
    def test_same_extension_executes_once(self):
        """Two visits to one ``(fingerprint, pass)`` pair: one backend
        execution, one result-cache hit."""
        with _client() as client:
            engine = PhaseOrderingEngine(
                SearchConfig(opt_names=PASSES, depth=3, budget=20),
                client=client,
            )
            root = engine.start(
                canonical_source(workload("integrate").load())
            )
            first = engine.extend(root, "CTP")
            again = engine.extend(root, "CTP")
            assert first is not None and again is not None
            assert first.fingerprint == again.fingerprint
            assert engine.evaluator.stats.executed == 1
            assert engine.evaluator.stats.cache_hits == 1
            assert client.stats.cache.hits == 1

    def test_convergence_through_a_noop_pass(self):
        """FUS finds no point on ``integrate``: the orderings ``CTP``
        and ``FUS -> CTP`` converge, so the shared extension runs the
        backend exactly once."""
        with _client() as client:
            engine = PhaseOrderingEngine(
                SearchConfig(
                    opt_names=("FUS", "CTP"), depth=3, budget=20,
                ),
                client=client,
            )
            root = engine.start(
                canonical_source(workload("integrate").load())
            )
            noop = engine.extend(root, "FUS")
            assert noop is not None
            assert noop.fingerprint == root.fingerprint
            direct = engine.extend(root, "CTP")
            via_noop = engine.extend(noop, "CTP")
            assert direct is not None and via_noop is not None
            assert direct.fingerprint == via_noop.fingerprint
            # FUS and the first CTP executed; the second CTP is a hit
            assert engine.evaluator.stats.executed == 2
            assert engine.evaluator.stats.cache_hits == 1


class TestRestartedSearch:
    def test_restart_with_same_seed_is_all_cache_hits(self):
        source = workload("integrate").source
        config = SearchConfig(
            opt_names=PASSES, strategy="beam", beam_width=2,
            depth=2, budget=24, seed=7,
        )
        with _client() as client:
            first = search_program(source, config, client=client)
            assert first.backend_executions > 0
            second = search_program(source, config, client=client)
        assert second.best_sequence == first.best_sequence
        assert second.visit_order == first.visit_order
        assert second.backend_executions == 0
        assert second.cache_hits == second.evaluator.evaluations

    def test_memoless_evaluator_reexecutes(self):
        """A client without a result cache is the honest sequential
        baseline the search benchmark measures: a restart repeats every
        backend execution."""
        source = workload("integrate").source
        config = SearchConfig(
            opt_names=PASSES, strategy="greedy", depth=2, budget=24
        )
        with ServiceClient(backend="inprocess", cache_capacity=0) as client:
            first = search_program(source, config, client=client)
            second = search_program(source, config, client=client)
            completed = client.stats.completed
        assert first.backend_executions == first.evaluator.evaluations > 0
        assert second.backend_executions == first.backend_executions
        assert first.cache_hits == second.cache_hits == 0
        assert completed == 2 * first.backend_executions


@pytest.mark.slow
class TestProcessBackend:
    def test_search_through_worker_processes(self):
        """A real process-pool run: duplicated evaluations are served
        by the cache or coalesced onto in-flight jobs, never run
        twice."""
        source = workload("integrate").source
        config = SearchConfig(
            opt_names=PASSES, strategy="beam", beam_width=2,
            depth=2, budget=24,
        )
        with ServiceClient(backend="process", max_workers=2) as client:
            first = search_program(source, config, client=client)
            second = search_program(source, config, client=client)
            stats = client.stats
        assert first.best_sequence == second.best_sequence
        assert second.backend_executions == 0
        assert stats.cache_served + stats.coalesced >= (
            second.evaluator.evaluations
        )
