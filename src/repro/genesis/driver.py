"""The standard optimizer driver (paper Figure 5).

The driver is the same for every generated optimizer: it calls the call
interface's ``set_up_OPT``, walks pattern matches (``match_OPT``),
checks preconditions (``pre_OPT``), and fires ``act_OPT`` at accepted
application points.  One loop runs those procedures,
:func:`repro.genesis.matching.enumerate_points`; the driver reads it
through the matching engine's sweeps, and the point listing reads it
directly.  Extensions over the paper's pseudocode, all exposed through
the interactive interface the paper describes: finding points without
applying, applying at one chosen point or at all points, overriding
dependence restrictions, and optionally recomputing dependences between
applications.  The paper's restart-from-top loop itself is not here: it
is the reference the test suite checks the driver against.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.graph import DependenceGraph
from repro.analysis.manager import AnalysisManager, manager_for
from repro.genesis.cost import ApplicationRecord, CostCounters
from repro.genesis.generator import GeneratedOptimizer
from repro.genesis.library import MatchContext
from repro.genesis.matching import engine_for, enumerate_points
from repro.genesis.transaction import (
    ApplicationFailure,
    HealthLedger,
    ProgramTransaction,
)
from repro.ir.program import Program


@dataclass
class DriverOptions:
    """Knobs of the interactive interface (Figure 4, step 3.b.iii).

    Point discovery has no knob: every run sweeps through the matching
    engine (:mod:`repro.genesis.matching`).
    """

    #: apply at every (re-discovered) point rather than just the first
    apply_all: bool = False
    #: safety bound on repeated application (enabling chains terminate
    #: in practice; this guards against oscillating transformations)
    max_applications: int = 200
    #: recompute the dependence graph after each application
    recompute_dependences: bool = True
    #: honour the Depend section's 'no' restrictions
    enforce_restrictions: bool = True
    #: validate IR well-formedness after every application; under
    #: containment a validation failure rolls the application back
    validate: bool = False
    #: differential-test every application against the equivalence
    #: oracle; under containment a divergence rolls the application
    #: back, otherwise it raises
    #: :class:`repro.verify.VerificationError`
    verify: bool = False
    #: random environments per oracle check when ``verify`` is on
    verify_trials: int = 3
    #: environment-generation seed for the in-line oracle
    verify_seed: int = 0
    #: what a failed application does — ``"rollback"`` restores the
    #: pre-apply state and records an :class:`ApplicationFailure`;
    #: ``"raise"`` restores the state, then re-raises; ``"abort"``
    #: re-raises with the half-transformed program left in place for
    #: inspection (the pre-containment behaviour)
    on_failure: str = "rollback"
    #: budget: stop this driver run after this many rolled-back
    #: applications (a pathological spec cannot spin forever)
    max_rollbacks: int = 8
    #: budget: wall-clock deadline for one driver run, in seconds
    deadline_seconds: Optional[float] = None
    #: budget: fuel — total pattern-match candidates considered across
    #: the run before the driver gives up
    max_match_attempts: Optional[int] = None


@dataclass
class DriverResult:
    """Outcome of one driver run."""

    optimizer: str
    applications: list[ApplicationRecord] = field(default_factory=list)
    #: contained (rolled-back) application failures, in order
    failures: list[ApplicationFailure] = field(default_factory=list)
    counters: CostCounters = field(default_factory=CostCounters)
    elapsed_seconds: float = 0.0
    #: wall-clock spent discovering application points: the matching
    #: engine's sweeps and the choice of the next point
    match_seconds: float = 0.0
    #: why the run ended early, if it did: ``"deadline"``, ``"fuel"``,
    #: ``"rollback-budget"`` or ``"quarantined"``
    stopped: Optional[str] = None

    @property
    def applied(self) -> int:
        return len(self.applications)

    @property
    def rollbacks(self) -> int:
        return len(self.failures)

    def __str__(self) -> str:
        text = (
            f"{self.optimizer}: {self.applied} application(s), "
            f"{self.counters}, {self.elapsed_seconds * 1e3:.2f} ms"
        )
        if self.failures:
            text += f", {len(self.failures)} rolled-back failure(s)"
        if self.stopped:
            text += f" [stopped: {self.stopped}]"
        return text


def make_context(
    program: Program,
    graph: Optional[DependenceGraph] = None,
    counters: Optional[CostCounters] = None,
    manager: Optional[AnalysisManager] = None,
) -> MatchContext:
    """Build a match context, computing dependences when not supplied.

    Dependences come from the ``manager`` (created on demand), which
    updates its graph incrementally from the program's change log
    instead of rebuilding from scratch.  An explicit ``graph`` wins —
    callers use that to hand in a deliberately stale graph.  The
    structure table always comes from the manager.
    """
    owner = manager_for(program, manager)
    return MatchContext(
        program=program,
        graph=owner.graph() if graph is None else graph,
        counters=counters,
        structure_provider=owner.structure,
    )


def find_application_points(
    optimizer: GeneratedOptimizer,
    program: Program,
    graph: Optional[DependenceGraph] = None,
    counters: Optional[CostCounters] = None,
    enforce_restrictions: bool = True,
    limit: Optional[int] = None,
    manager: Optional[AnalysisManager] = None,
) -> list[dict[str, object]]:
    """All application points of an optimizer, *without* applying it.

    Each point is the binding environment of one complete
    (Code_Pattern × Depend) match, in the order
    :func:`~repro.genesis.matching.enumerate_points` lists them.
    Points are deduplicated by binding signature.  On an early return
    (``limit`` reached) the listing is closed, so no half-finished scan
    keeps counting candidates against ``counters`` (or pins program
    state) after this call returns.
    """
    ctx = make_context(program, graph, counters, manager)
    ctx.enforce_restrictions = enforce_restrictions
    points = enumerate_points(optimizer, ctx)
    try:
        return [bindings for _, bindings, _ in itertools.islice(points, limit)]
    finally:
        points.close()


def _transactional_act(
    optimizer: GeneratedOptimizer,
    program: Program,
    ctx: MatchContext,
    bindings: dict[str, object],
    options: DriverOptions,
) -> Optional[ApplicationFailure]:
    """Fire the action inside a transaction; None means it committed.

    The transaction covers the generated ``act`` *and* its post-apply
    checks (IR validation with ``options.validate``, differential
    testing with ``options.verify``): any exception, validation
    failure or oracle divergence restores the pre-apply program state
    through the change-log undo and is returned as a structured
    :class:`ApplicationFailure`.  ``options.on_failure`` selects the
    legacy propagating behaviours instead (``"raise"`` rolls back then
    re-raises; ``"abort"`` re-raises over the half-transformed state).
    The program is cloned only when ``options.verify`` needs the
    pre-apply program as the oracle's baseline.
    """
    baseline = program.clone() if options.verify else None
    txn = ProgramTransaction(program)
    txn.begin()
    phase = "act"
    try:
        optimizer.act(ctx)
        if options.validate:
            phase = "validate"
            from repro.ir.validate import validate_program

            validate_program(program)
        if options.verify:
            phase = "verify"
            from repro.verify.oracle import (
                EquivalenceOracle,
                VerificationError,
            )

            assert baseline is not None
            oracle = EquivalenceOracle(
                trials=options.verify_trials, seed=options.verify_seed
            )
            report = oracle.check(baseline, program)
            if not report.equivalent:
                raise VerificationError(
                    f"{optimizer.name} changed behaviour at {bindings}:\n"
                    f"{report.summary()}",
                    report,
                )
    except Exception as error:
        if options.on_failure == "abort":
            txn.commit()  # leave the damaged state in place
            raise
        txn.rollback()
        if options.on_failure == "raise":
            raise
        return ApplicationFailure(
            optimizer=optimizer.name,
            phase=phase,
            error_type=type(error).__name__,
            error=str(error),
            bindings=dict(bindings),
            restored="log",
        )
    except BaseException:
        # KeyboardInterrupt/SystemExit: restore state, then propagate
        txn.rollback()
        raise
    txn.commit()
    return None


def _apply_point(
    optimizer: GeneratedOptimizer,
    program: Program,
    ctx: MatchContext,
    bindings: dict[str, object],
    options: DriverOptions,
    result: DriverResult,
) -> Optional[ApplicationFailure]:
    """Act at one point: re-run ``set_up``, bind the point's action
    names, fire :func:`_transactional_act`, and record the committed
    application or the contained failure on ``result``."""
    optimizer.set_up(ctx)
    ctx.bindings.update(bindings)
    before = ctx.counters.snapshot()
    failure = _transactional_act(optimizer, program, ctx, bindings, options)
    if failure is not None:
        result.failures.append(failure)
    else:
        result.applications.append(
            ApplicationRecord(
                opt_name=optimizer.name,
                bindings=bindings,
                cost=ctx.counters.minus(before),
            )
        )
    return failure


def run_optimizer(
    optimizer: GeneratedOptimizer,
    program: Program,
    options: Optional[DriverOptions] = None,
    graph: Optional[DependenceGraph] = None,
    manager: Optional[AnalysisManager] = None,
    health: Optional[HealthLedger] = None,
) -> DriverResult:
    """The Figure 5 driver: transform ``program`` in place.

    Returns the applications performed with their individual costs.
    The caller owns the program object (clone first to preserve the
    original).  When no ``graph`` is supplied, dependences come from
    the analysis ``manager`` (created here if absent), which refreshes
    the graph incrementally between applications instead of rebuilding
    it from scratch.

    Every application runs inside a transaction (see
    :func:`_transactional_act`): under the default
    ``on_failure="rollback"`` policy a failing application restores
    the pre-apply state, is recorded in ``result.failures``, and the
    point is retried on the next sweep (transient faults recover;
    deterministic ones burn the ``max_rollbacks`` budget and stop the
    run).  A ``health`` ledger, when supplied, feeds the per-optimizer
    circuit breaker shared across a pipeline or session.

    Points are discovered by sweeping through the
    :mod:`repro.genesis.matching` engine, which serves candidates from
    shape-bucket indexes and — after a committed application —
    re-enumerates only the dirty region its transaction touched.  The
    run applies at the first point, in the sweep's canonical order,
    that it has not applied yet.  The paper's Figure 5 loop, which
    restarts the scan from the top of the program after every
    application, is the reference the test suite checks this against;
    under ``REPRO_MATCH_CHECK=1`` every worklist sweep is also
    shadow-checked against a full re-scan.
    """
    options = options or DriverOptions()
    counters = CostCounters()
    result = DriverResult(optimizer=optimizer.name, counters=counters)
    if health is not None and health.is_quarantined(optimizer.name):
        result.stopped = "quarantined"
        return result
    applied_signatures: set[tuple] = set()
    start = time.perf_counter()
    fuel_used = 0

    def out_of_time() -> bool:
        return (
            options.deadline_seconds is not None
            and time.perf_counter() - start > options.deadline_seconds
        )

    manager = manager_for(program, manager)
    engine = engine_for(manager)
    current_graph = graph
    while len(result.applications) < options.max_applications:
        if len(result.failures) >= options.max_rollbacks:
            result.stopped = "rollback-budget"
            break
        if out_of_time():
            result.stopped = "deadline"
            break
        ctx = make_context(program, current_graph, counters, manager)
        ctx.enforce_restrictions = options.enforce_restrictions

        discovery_started = time.perf_counter()
        # the engine serves its cache only over the manager's current
        # graph: stale (recompute off) and explicit graphs take full
        # sweeps
        sweep = engine.sweep(optimizer, ctx)
        chosen = next(
            (point for point in sweep.points
             if point[0] not in applied_signatures),
            None,
        )
        result.match_seconds += time.perf_counter() - discovery_started
        fuel_used += sweep.attempts
        if (
            options.max_match_attempts is not None
            and fuel_used > options.max_match_attempts
        ):
            result.stopped = "fuel"
            break
        if out_of_time():
            result.stopped = "deadline"
            break
        if chosen is None:
            break

        signature, bindings = chosen
        applied_signatures.add(signature)
        failure = _apply_point(
            optimizer, program, ctx, bindings, options, result
        )
        if failure is not None:
            # the point may succeed on retry (transient fault), so its
            # signature is released; deterministic failures terminate
            # through the rollback budget or the circuit breaker
            applied_signatures.discard(signature)
            if health is not None and health.record_rollback(
                optimizer.name, failure
            ):
                result.stopped = "quarantined"
                break
            continue
        if health is not None:
            health.record_success(optimizer.name)
        if not options.apply_all:
            break
        current_graph = (
            None if options.recompute_dependences else ctx.graph
        )

    result.elapsed_seconds = time.perf_counter() - start
    return result


def apply_at_point(
    optimizer: GeneratedOptimizer,
    program: Program,
    point_index: int,
    graph: Optional[DependenceGraph] = None,
    manager: Optional[AnalysisManager] = None,
    options: Optional[DriverOptions] = None,
) -> DriverResult:
    """Apply an optimizer at the N-th application point only.

    This is the interface's "select application points" option; with
    ``options.enforce_restrictions=False`` it also implements
    "override dependence restrictions" (the Depend section's ``no``
    clauses are ignored — the user takes responsibility).  Point N is,
    by construction, the N-th point :func:`find_application_points`
    lists under the same restrictions: the listing stops there, and
    the action fires the way :func:`run_optimizer` fires it.  The
    application runs inside the same transaction as the full driver,
    under the same ``options`` (validation, verification, failure
    policy): under ``on_failure="rollback"`` a failure restores the
    pre-apply state and is recorded in ``result.failures``.  A stale
    ``point_index`` (the program changed since the points were listed)
    or a negative one finds no point and returns an empty result.
    """
    options = options or DriverOptions()
    counters = CostCounters()
    result = DriverResult(optimizer=optimizer.name, counters=counters)
    if point_index < 0:
        return result  # names no point (and must not wrap around)
    start = time.perf_counter()
    ctx = make_context(program, graph, counters, manager)
    ctx.enforce_restrictions = options.enforce_restrictions
    points = enumerate_points(optimizer, ctx)
    try:
        point = next(itertools.islice(points, point_index, None), None)
    finally:
        points.close()
    if point is not None:
        _apply_point(optimizer, program, ctx, point[1], options, result)
    result.elapsed_seconds = time.perf_counter() - start
    return result
