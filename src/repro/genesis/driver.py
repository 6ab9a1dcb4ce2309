"""The standard optimizer driver (paper Figure 5).

The driver is the same for every generated optimizer: it calls the call
interface's ``set_up_OPT``, walks pattern matches (``match_OPT``),
checks preconditions (``pre_OPT``), and fires ``act_OPT`` at accepted
application points.  Extensions over the paper's pseudocode, all
exposed through the interactive interface the paper describes: finding
points without applying, applying at one chosen point or at all points,
overriding dependence restrictions, and optionally recomputing
dependences between applications.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.graph import DependenceGraph
from repro.analysis.manager import AnalysisManager, manager_for
from repro.genesis.cost import ApplicationRecord, CostCounters
from repro.genesis.generator import GeneratedOptimizer
from repro.genesis.library import MatchContext
from repro.genesis.matching import engine_for, point_signature
from repro.genesis.transaction import (
    ApplicationFailure,
    HealthLedger,
    ProgramTransaction,
)
from repro.ir.program import Program


@dataclass
class DriverOptions:
    """Knobs of the interactive interface (Figure 4, step 3.b.iii)."""

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
    #: how application points are discovered between applications:
    #: ``"worklist"`` (default) sweeps through the matching engine
    #: (candidate indexes + dirty-region worklist, see
    #: :mod:`repro.genesis.matching`); ``"rescan"`` restarts the naive
    #: full scan from the top of the program after every application
    #: — the paper's Figure 5 behaviour, kept as the reference the
    #: worklist is tested and benchmarked against
    match_mode: str = "worklist"


@dataclass
class DriverResult:
    """Outcome of one driver run."""

    optimizer: str
    applications: list[ApplicationRecord] = field(default_factory=list)
    #: contained (rolled-back) application failures, in order
    failures: list[ApplicationFailure] = field(default_factory=list)
    counters: CostCounters = field(default_factory=CostCounters)
    elapsed_seconds: float = 0.0
    #: wall-clock spent discovering application points (the matching
    #: phase), under either ``match_mode``
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


def _point_bindings(
    optimizer: GeneratedOptimizer, ctx: MatchContext
) -> dict[str, object]:
    """The bindings that identify an application point.

    Restricted to names actually bound by ``any``/``all`` clauses —
    leftover bindings from failed ``no``-clause scans are not part of
    the point's identity.
    """
    relevant = optimizer.action_names
    return {
        name: value
        for name, value in ctx.snapshot_bindings().items()
        if name in relevant
    }


#: A hashable identity for an application point.  Every binding value
#: participates: hashable values key by value, unhashable ones fall
#: back to identity-based keys instead of being silently dropped (or
#: raising).  Shared with the matching engine so cached sweeps and the
#: driver agree on point identity.
_signature = point_signature


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
    callers use that to hand in a deliberately stale graph.
    """
    structure_provider = None
    if graph is None:
        owner = manager_for(program, manager)
        graph = owner.graph()
        structure_provider = owner.structure
    elif manager is not None and manager.program is program:
        structure_provider = manager.structure
    return MatchContext(
        program=program,
        graph=graph,
        counters=counters,
        structure_provider=structure_provider,
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
    (Code_Pattern × Depend) match.  Points are deduplicated by binding
    signature.  On an early return (``limit`` reached) the suspended
    ``match``/``pre`` generators are closed explicitly, so no
    half-finished scan keeps counting candidates against ``counters``
    (or pins program state) after this call returns.
    """
    ctx = make_context(program, graph, counters, manager)
    ctx.enforce_restrictions = enforce_restrictions
    optimizer.set_up(ctx)
    points: list[dict[str, object]] = []
    seen: set[tuple] = set()
    match_gen = optimizer.match(ctx)
    try:
        for _match in match_gen:
            pre_gen = optimizer.pre(ctx)
            try:
                for _pre in pre_gen:
                    bindings = _point_bindings(optimizer, ctx)
                    signature = _signature(bindings)
                    if signature in seen:
                        continue
                    seen.add(signature)
                    points.append(bindings)
                    if limit is not None and len(points) >= limit:
                        return points
            finally:
                pre_gen.close()
    finally:
        match_gen.close()
    return points


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

    Point discovery between applications is governed by
    ``options.match_mode``: the default ``"worklist"`` sweeps through
    the :mod:`repro.genesis.matching` engine, which serves candidates
    from shape-bucket indexes and — after a committed application —
    re-enumerates only the dirty region its transaction touched;
    ``"rescan"`` restarts the naive full scan from the top of the
    program each time (the paper's Figure 5 loop, kept as the
    reference).  Under ``REPRO_MATCH_CHECK=1`` every worklist sweep is
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
    engine = engine_for(manager) if options.match_mode != "rescan" else None
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

        chosen: Optional[dict[str, object]] = None
        chosen_signature: Optional[tuple] = None
        discovery_started = time.perf_counter()
        if engine is not None:
            # the worklist may only serve sweeps whose graph is the
            # manager's own, current one: disabled recomputation pins
            # full sweeps (the engine itself rejects foreign graphs)
            allow_worklist = (
                options.recompute_dependences
                and options.enforce_restrictions
            )
            sweep = engine.sweep(
                optimizer, ctx, allow_worklist=allow_worklist
            )
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
            for signature, bindings in sweep.points:
                if signature in applied_signatures:
                    continue
                chosen_signature = signature
                chosen = dict(bindings)
                break
            if chosen is not None:
                applied_signatures.add(chosen_signature)
                optimizer.set_up(ctx)
                ctx.bindings.update(chosen)
        else:
            optimizer.set_up(ctx)
            for _match in optimizer.match(ctx):
                fuel_used += 1
                if (
                    options.max_match_attempts is not None
                    and fuel_used > options.max_match_attempts
                ):
                    result.stopped = "fuel"
                    break
                if out_of_time():
                    result.stopped = "deadline"
                    break
                for _pre in optimizer.pre(ctx):
                    bindings = _point_bindings(optimizer, ctx)
                    signature = _signature(bindings)
                    if signature in applied_signatures:
                        continue
                    applied_signatures.add(signature)
                    chosen = bindings
                    chosen_signature = signature
                    break
                if chosen is not None:
                    break
        result.match_seconds += time.perf_counter() - discovery_started
        if result.stopped is not None:
            break
        if chosen is None:
            break

        before = counters.snapshot()
        failure = _transactional_act(
            optimizer, program, ctx, chosen, options
        )
        if failure is not None:
            result.failures.append(failure)
            # the point may succeed on retry (transient fault), so its
            # signature is released; deterministic failures terminate
            # through the rollback budget or the circuit breaker
            applied_signatures.discard(chosen_signature)
            if health is not None and health.record_rollback(
                optimizer.name, failure
            ):
                result.stopped = "quarantined"
                break
            continue
        if health is not None:
            health.record_success(optimizer.name)
        result.applications.append(
            ApplicationRecord(
                opt_name=optimizer.name,
                bindings=chosen,
                cost=counters.minus(before),
            )
        )
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
    clauses are ignored — the user takes responsibility).  The
    application runs inside the same transaction as the full driver,
    under the same ``options`` (validation, verification, failure
    policy): under ``on_failure="rollback"`` a failure restores the
    pre-apply state and is recorded in ``result.failures``.  A stale
    ``point_index`` (the program changed since the points were listed)
    simply finds no point and returns an empty result.
    """
    options = options or DriverOptions()
    counters = CostCounters()
    result = DriverResult(optimizer=optimizer.name, counters=counters)
    start = time.perf_counter()

    ctx = make_context(program, graph, counters, manager)
    ctx.enforce_restrictions = options.enforce_restrictions
    optimizer.set_up(ctx)
    seen = 0
    match_gen = optimizer.match(ctx)
    try:
        for _match in match_gen:
            pre_gen = optimizer.pre(ctx)
            try:
                for _pre in pre_gen:
                    if seen == point_index:
                        bindings = _point_bindings(optimizer, ctx)
                        before = counters.snapshot()
                        failure = _transactional_act(
                            optimizer, program, ctx, bindings, options
                        )
                        if failure is not None:
                            result.failures.append(failure)
                        else:
                            result.applications.append(
                                ApplicationRecord(
                                    opt_name=optimizer.name,
                                    bindings=bindings,
                                    cost=counters.minus(before),
                                )
                            )
                        result.elapsed_seconds = time.perf_counter() - start
                        return result
                    seen += 1
            finally:
                pre_gen.close()
    finally:
        match_gen.close()
    result.elapsed_seconds = time.perf_counter() - start
    return result
