"""Transactional apply: rollback, quarantine, and budgets."""

import pytest

from repro.frontend.lower import parse_program
from repro.frontend.unparse import unparse_program
from repro.genesis.driver import DriverOptions, run_optimizer
from repro.genesis.pipeline import optimize
from repro.genesis.transaction import (
    ApplicationFailure,
    HealthLedger,
    ProgramTransaction,
)
from repro.ir.program import Program
from repro.opts.catalog import build_optimizer
from repro.verify.chaos import ChaosConfig, chaotic

#: plenty of constant-propagation points for CTP
SOURCE = """
program t
  integer x, y, z
  x = 1
  y = x + 2
  z = x + y
  write z
end
"""


def _program():
    return parse_program(SOURCE)


def _unparse(program):
    return unparse_program(program, name=program.name)


def _failing(name="CTP", seed=0):
    """A catalog optimizer whose every act raises."""
    return chaotic(
        build_optimizer(name), ChaosConfig(seed=seed, act_fault_rate=1.0)
    )


class TestProgramTransaction:
    def test_commit_keeps_changes(self):
        program = _program()
        txn = ProgramTransaction(program)
        txn.begin()
        target = next(q for q in program.quads if not q.is_structural())
        program.remove(target.qid)
        txn.commit()
        assert target.qid not in [q.qid for q in program.quads]

    def test_rollback_prefers_the_change_log(self):
        program = _program()
        baseline = _unparse(program)
        txn = ProgramTransaction(program)
        txn.begin()
        target = next(q for q in program.quads if not q.is_structural())
        program.remove(target.qid)
        assert txn.rollback() == 1  # one logged edit undone
        assert not txn.active
        assert _unparse(program) == baseline


class TestNoPerApplicationClone:
    def test_unverified_pipeline_makes_no_clone(self, monkeypatch):
        clones = []
        real_clone = Program.clone

        def counting_clone(self):
            clones.append(self.version)
            return real_clone(self)

        monkeypatch.setattr(Program, "clone", counting_clone)
        program = _program()
        passes = [build_optimizer(name) for name in ("CTP", "CFO", "DCE")]
        report = optimize(
            program, passes, DriverOptions(apply_all=True), in_place=True
        )
        assert report.total_applications >= 3
        assert clones == []


class TestHealthLedger:
    def _failure(self, name="CTP"):
        return ApplicationFailure(
            optimizer=name, phase="act", error_type="ChaosError",
            error="boom", bindings={}, restored="log",
        )

    def test_consecutive_rollbacks_trip_the_breaker(self):
        ledger = HealthLedger(quarantine_after=3)
        assert not ledger.record_rollback("CTP", self._failure())
        assert not ledger.record_rollback("CTP", self._failure())
        assert ledger.record_rollback("CTP", self._failure())
        assert ledger.is_quarantined("CTP")
        assert ledger.quarantined() == ["CTP"]

    def test_success_resets_the_streak(self):
        ledger = HealthLedger(quarantine_after=2)
        ledger.record_rollback("CTP", self._failure())
        ledger.record_success("CTP")
        ledger.record_rollback("CTP", self._failure())
        assert not ledger.is_quarantined("CTP")

    def test_revive_clears_quarantine(self):
        ledger = HealthLedger(quarantine_after=1)
        ledger.record_rollback("CTP", self._failure())
        assert ledger.is_quarantined("CTP")
        ledger.revive("CTP")
        assert not ledger.is_quarantined("CTP")
        assert "CTP" in ledger.summary()


class TestDriverContainment:
    def test_act_exception_is_contained_and_rolled_back(self):
        program = _program()
        baseline = _unparse(program)
        result = run_optimizer(
            _failing(), program,
            DriverOptions(apply_all=True, max_rollbacks=3),
        )
        assert not result.applications
        assert result.failures
        assert result.failures[0].phase == "act"
        assert result.failures[0].error_type == "ChaosError"
        assert result.failures[0].restored == "log"
        # rollback restored byte-identical source
        assert _unparse(program) == baseline

    def test_rollback_budget_stops_the_run(self):
        result = run_optimizer(
            _failing(), _program(),
            DriverOptions(apply_all=True, max_rollbacks=4),
        )
        assert result.stopped == "rollback-budget"
        assert len(result.failures) == 4

    def test_deadline_stops_the_run(self):
        result = run_optimizer(
            build_optimizer("CTP"), _program(),
            DriverOptions(apply_all=True, deadline_seconds=0.0),
        )
        assert result.stopped == "deadline"
        assert not result.applications

    def test_fuel_stops_the_run(self):
        result = run_optimizer(
            build_optimizer("CTP"), _program(),
            DriverOptions(apply_all=True, max_match_attempts=0),
        )
        assert result.stopped == "fuel"
        assert not result.applications

    def test_on_failure_raise_restores_then_propagates(self):
        from repro.verify.chaos import ChaosError

        program = _program()
        baseline = _unparse(program)
        with pytest.raises(ChaosError):
            run_optimizer(
                _failing(), program,
                DriverOptions(apply_all=True, on_failure="raise"),
            )
        assert _unparse(program) == baseline

    def test_on_failure_abort_leaves_damage_for_inspection(self):
        program = _program()
        baseline = _unparse(program)
        from repro.verify.chaos import ChaosError

        with pytest.raises(ChaosError):
            run_optimizer(
                _failing(), program,
                DriverOptions(apply_all=True, on_failure="abort"),
            )
        # the half-applied state is deliberately preserved
        assert _unparse(program) != baseline

    def test_ledger_quarantine_stops_the_run(self):
        ledger = HealthLedger(quarantine_after=2)
        result = run_optimizer(
            _failing(), _program(),
            DriverOptions(apply_all=True, max_rollbacks=10),
            health=ledger,
        )
        assert result.stopped == "quarantined"
        assert len(result.failures) == 2
        assert ledger.is_quarantined("CTP")

    def test_quarantined_optimizer_is_skipped(self):
        ledger = HealthLedger(quarantine_after=1)
        ledger.record_rollback(
            "CTP",
            ApplicationFailure(
                optimizer="CTP", phase="act", error_type="X",
                error="x", bindings={}, restored="log",
            ),
        )
        result = run_optimizer(
            build_optimizer("CTP"), _program(), DriverOptions(),
            health=ledger,
        )
        assert result.stopped == "quarantined"
        assert not result.applications and not result.failures


class TestPipelineQuarantine:
    def test_pipeline_survives_and_reports_quarantine(self):
        program = _program()
        report = optimize(
            program,
            [_failing("CTP"), build_optimizer("DCE")],
            options=DriverOptions(apply_all=True, max_rollbacks=10),
            quarantine_after=3,
        )
        assert report.quarantined == ["CTP"]
        assert report.total_rollbacks == 3
        assert report.failures()
        # the sound optimizer still ran after the quarantine
        assert [r.optimizer for r in report.results] == ["CTP", "DCE"]
        assert "quarantined" in str(report)
