"""Unit tests for the search engine: config, budget, pruning, wiring."""

import pytest

from repro.genesis.session import OptimizerSession, SessionError
from repro.opts.catalog import standard_optimizers
from repro.search import (
    SearchConfig,
    SearchError,
    certify,
    make_strategy,
    search_program,
)
from repro.service import ServiceClient
from repro.workloads.suite import workload

PASSES = ("CTP", "CFO", "DCE")


def small_config(**overrides):
    settings = dict(
        opt_names=PASSES, strategy="greedy", depth=2, budget=20
    )
    settings.update(overrides)
    return SearchConfig(**settings)


class TestConfig:
    def test_validates_depth(self):
        with pytest.raises(SearchError):
            small_config(depth=0)

    def test_validates_budget(self):
        with pytest.raises(SearchError):
            small_config(budget=0)

    def test_validates_beam_width(self):
        with pytest.raises(SearchError):
            small_config(beam_width=0)

    def test_validates_objective(self):
        with pytest.raises(SearchError):
            small_config(objective="abacus")

    def test_needs_passes(self):
        with pytest.raises(SearchError):
            small_config(opt_names=())

    def test_unknown_strategy(self):
        with pytest.raises(SearchError, match="unknown search strategy"):
            make_strategy(small_config(strategy="dowsing"))


class TestSearchProgram:
    def test_finds_improvement(self):
        result = search_program(
            workload("integrate").source, small_config(), name="integrate"
        )
        assert result.best_sequence
        assert result.best_score < result.baseline_cycles["multiprocessor"]
        assert all(value >= 0 for value in result.benefit.values())

    def test_no_client_runs_through_one_owned_inprocess_service(
        self, monkeypatch
    ):
        """Without a client the search opens exactly one in-process
        service, sized to hold a result per evaluation, and closes it
        when the search ends."""
        opened, closed = [], []
        init, close = ServiceClient.__init__, ServiceClient.close

        def counting_init(client, *args, **kwargs):
            init(client, *args, **kwargs)
            opened.append(client)

        def counting_close(client):
            close(client)
            closed.append(client)

        monkeypatch.setattr(ServiceClient, "__init__", counting_init)
        monkeypatch.setattr(ServiceClient, "close", counting_close)
        config = small_config()
        result = search_program(workload("integrate").source, config)
        assert len(opened) == 1
        assert closed == opened
        service = opened[0].service
        assert service.backend.name == "inprocess"
        assert service.cache.capacity == config.budget
        stats = result.evaluator
        assert stats.evaluations > 0
        assert stats.executed + stats.cache_hits == stats.evaluations

    def test_budget_bounds_evaluations(self):
        result = search_program(
            workload("integrate").source,
            small_config(strategy="beam", beam_width=4, depth=3, budget=4),
        )
        assert result.evaluator.evaluations <= 4
        assert result.exhausted

    def test_prune_counts_convergent_branches(self):
        pruned = search_program(
            workload("ordering").source,
            small_config(
                opt_names=("CTP", "FUS", "INX", "LUR"),
                strategy="beam", beam_width=4, depth=3, budget=60,
            ),
        )
        unpruned = search_program(
            workload("ordering").source,
            small_config(
                opt_names=("CTP", "FUS", "INX", "LUR"),
                strategy="beam", beam_width=4, depth=3, budget=60,
                prune=False,
            ),
        )
        assert pruned.pruned > 0
        assert unpruned.pruned == 0

    def test_result_round_trips_to_dict(self):
        result = search_program(
            workload("poly").source, small_config(), name="poly"
        )
        payload = result.to_dict()
        assert payload["name"] == "poly"
        assert payload["best_sequence"] == list(result.best_sequence)
        assert payload["backend_executions"] == result.backend_executions
        assert "best pipeline" in result.summary()


class TestCertify:
    def test_certifies_winner(self):
        source = workload("integrate").source
        result = search_program(source, small_config())
        certify(result, source, trials=3)
        assert result.certified is True
        assert result.oracle_trials >= 3
        assert "oracle: PASSED" in result.summary()

    def test_fingerprint_mismatch_is_loud(self):
        source = workload("integrate").source
        result = search_program(source, small_config())
        result.best_fingerprint = "0" * 64
        with pytest.raises(SearchError, match="disagree"):
            certify(result, source)


class TestPipelineWiring:
    def test_optimize_searched_applies_winner(self):
        from repro.genesis.pipeline import optimize_searched

        program = workload("integrate").load()
        report, result = optimize_searched(
            program, PASSES, strategy="greedy", depth=2, budget=20
        )
        assert result.certified is True
        assert report.program.fingerprint() == result.best_fingerprint
        assert [r.optimizer for r in report.results] == list(
            result.best_sequence
        )


class TestSessionCommand:
    def _session(self):
        return OptimizerSession.from_source(
            workload("integrate").source,
            optimizers=standard_optimizers(PASSES).values(),
        )

    def test_search_command_reports_summary(self):
        session = self._session()
        output = session.execute_command("search greedy 2 20")
        assert "best pipeline" in output
        assert "oracle: PASSED" in output
        assert any(
            event.command.startswith("search") for event in session.history
        )

    def test_search_apply_transforms_the_program(self):
        session = self._session()
        before = session.program.fingerprint()
        session.execute_command("search apply greedy 2 20")
        assert session.program.fingerprint() != before

    def test_bad_strategy_is_a_session_error(self):
        session = self._session()
        with pytest.raises(SessionError):
            session.execute_command("search dowsing 2 20")
        assert session.history[-1].error is not None
