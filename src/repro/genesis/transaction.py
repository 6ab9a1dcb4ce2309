"""Transactional optimization application and failure containment.

GENesis runs *generated* code: every GOSpeL spec compiles to
``set_up``/``match``/``pre``/``act`` procedures that mutate the program
in place, and the interactive interface even lets users override the
dependence restrictions — so a buggy (or deliberately overridden)
optimizer is an expected failure mode, not an exceptional one.  This
module keeps one bad application from corrupting a whole run:

* :class:`ProgramTransaction` wraps one ``act`` (plus its post-apply
  validation and equivalence verification) so that any exception,
  IR-validation failure or oracle divergence restores the program to
  its pre-apply state.  The restore is the change-log undo
  (:meth:`repro.ir.program.Program.rollback_to`): every logged edit
  carries its inverse, so the log alone reaches the pinned version,
  and analysis managers follow the undo incrementally.

* :class:`ApplicationFailure` is the structured record of one
  contained failure — which optimizer, at which bindings, in which
  phase, and how the program was restored.

* :class:`HealthLedger` is the per-optimizer circuit breaker: after
  ``quarantine_after`` *consecutive* rollbacks an optimizer is
  quarantined for the rest of the run, reported through
  :class:`~repro.genesis.pipeline.PipelineReport` and the session's
  ``stats``/``health`` commands.

The driver's budgets (``max_rollbacks``, ``deadline_seconds``,
``max_match_attempts``) live in
:class:`~repro.genesis.driver.DriverOptions`; the fault-injection
harness that exercises all of this is :mod:`repro.verify.chaos`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.program import Program


@dataclass
class ApplicationFailure:
    """One contained optimization-application failure.

    ``phase`` names where the failure surfaced: ``"act"`` (the
    generated action raised), ``"validate"`` (the transformed program
    failed IR validation), or ``"verify"`` (the equivalence oracle
    found a behaviour change).  ``restored`` says how the pre-apply
    state came back: ``"log"`` (the driver's change-log undo) or
    ``"isolation"`` (a service job failed in its own worker, so the
    caller's program was never touched).
    """

    optimizer: str
    phase: str
    error_type: str
    error: str
    bindings: dict[str, object] = field(default_factory=dict)
    restored: str = "log"

    def __str__(self) -> str:
        where = ", ".join(
            f"{name}={value}" for name, value in sorted(
                self.bindings.items(), key=lambda item: item[0]
            )
        )
        return (
            f"{self.optimizer} failed in {self.phase}"
            + (f" at [{where}]" if where else "")
            + f": {self.error_type}: {self.error} (restored via "
            f"{self.restored})"
        )


class ProgramTransaction:
    """Pin/undo scope around one optimization application.

    Usage::

        txn = ProgramTransaction(program)
        txn.begin()
        try:
            optimizer.act(ctx)
            ...validation / verification...
        except Exception:
            txn.rollback()
            ...record ApplicationFailure...
        else:
            txn.commit()

    ``begin`` pins the change log (no trimming while the transaction
    is open); ``rollback`` replays the inverse of every edit since the
    pin through the ordinary mutation API, so a shared
    :class:`~repro.analysis.manager.AnalysisManager` follows the
    rollback *incrementally* instead of rebuilding its dependence
    graph from scratch.
    """

    def __init__(self, program: Program):
        self.program = program
        self._mark: Optional[int] = None

    @property
    def active(self) -> bool:
        return self._mark is not None

    def begin(self) -> int:
        """Open the transaction; returns the pinned version."""
        if self.active:
            raise RuntimeError("transaction already open")
        self._mark = self.program.pin()
        return self._mark

    def commit(self) -> None:
        """Close the transaction, keeping the mutations."""
        self._close()

    def rollback(self) -> int:
        """Restore the pre-``begin`` program state; returns the number
        of logged edits undone."""
        if self._mark is None:
            raise RuntimeError("no open transaction to roll back")
        try:
            return self.program.rollback_to(self._mark)
        finally:
            self._close()

    def _close(self) -> None:
        if self._mark is not None:
            self.program.unpin(self._mark)
        self._mark = None


@dataclass
class OptimizerHealth:
    """Per-optimizer ledger entry."""

    name: str
    applications: int = 0
    rollbacks: int = 0
    consecutive_rollbacks: int = 0
    quarantined: bool = False
    reason: Optional[str] = None

    def __str__(self) -> str:
        state = "QUARANTINED" if self.quarantined else "healthy"
        text = (
            f"{self.name}: {state}, {self.applications} application(s), "
            f"{self.rollbacks} rollback(s)"
        )
        if self.reason:
            text += f" [{self.reason}]"
        return text


class HealthLedger:
    """The circuit breaker: quarantine optimizers that keep failing.

    ``quarantine_after`` consecutive rollbacks (successes reset the
    count) trip the breaker; a quarantined optimizer is skipped by the
    pipeline and refused by the session until :meth:`revive` is
    called.
    """

    def __init__(self, quarantine_after: int = 5):
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        self.quarantine_after = quarantine_after
        self._entries: dict[str, OptimizerHealth] = {}

    def entry(self, name: str) -> OptimizerHealth:
        health = self._entries.get(name)
        if health is None:
            health = self._entries[name] = OptimizerHealth(name=name)
        return health

    def record_success(self, name: str) -> None:
        health = self.entry(name)
        health.applications += 1
        health.consecutive_rollbacks = 0

    def record_rollback(self, name: str, failure: ApplicationFailure) -> bool:
        """Record one contained failure; True when it trips the breaker."""
        health = self.entry(name)
        health.rollbacks += 1
        health.consecutive_rollbacks += 1
        if (
            not health.quarantined
            and health.consecutive_rollbacks >= self.quarantine_after
        ):
            health.quarantined = True
            health.reason = (
                f"{health.consecutive_rollbacks} consecutive rollback(s); "
                f"last: {failure.phase}: {failure.error_type}"
            )
            return True
        return health.quarantined

    def is_quarantined(self, name: str) -> bool:
        health = self._entries.get(name)
        return health is not None and health.quarantined

    def revive(self, name: str) -> None:
        """Clear an optimizer's quarantine (the user takes the risk)."""
        health = self.entry(name)
        health.quarantined = False
        health.consecutive_rollbacks = 0
        health.reason = None

    def quarantined(self) -> list[str]:
        return sorted(
            name
            for name, health in self._entries.items()
            if health.quarantined
        )

    def entries(self) -> list[OptimizerHealth]:
        return [self._entries[name] for name in sorted(self._entries)]

    def summary(self) -> str:
        if not self._entries:
            return "health: no applications recorded"
        lines = ["health:"]
        lines.extend(f"  {health}" for health in self.entries())
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        return {
            "quarantine_after": self.quarantine_after,
            "optimizers": {
                health.name: {
                    "applications": health.applications,
                    "rollbacks": health.rollbacks,
                    "quarantined": health.quarantined,
                    "reason": health.reason,
                }
                for health in self.entries()
            },
        }
