"""The end-to-end optimization pipeline of paper Figure 3.

``source code -> intermediate code + data dependences -> OPT ->
optimized intermediate code``: a convenience layer over the session for
batch (non-interactive) use, as a conventional compiler phase would
drive it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.analysis.manager import AnalysisManager, AnalysisStats
from repro.frontend.lower import parse_program
from repro.genesis.driver import DriverOptions, DriverResult, run_optimizer
from repro.genesis.generator import GeneratedOptimizer
from repro.genesis.matching import MatchStats, engine_for
from repro.genesis.transaction import ApplicationFailure, HealthLedger
from repro.ir.program import Program


@dataclass
class PipelineReport:
    """What one pipeline run did."""

    program: Program
    results: list[DriverResult] = field(default_factory=list)
    #: analysis cache/incremental-update counters for the whole run
    analysis_stats: Optional[AnalysisStats] = None
    #: match-engine counters (candidates scanned, index hits,
    #: worklist vs full sweeps) for the whole run
    match_stats: Optional[MatchStats] = None
    #: per-optimizer health ledger (rollbacks, quarantine state)
    health: Optional[HealthLedger] = None

    @property
    def total_applications(self) -> int:
        return sum(result.applied for result in self.results)

    @property
    def total_rollbacks(self) -> int:
        return sum(result.rollbacks for result in self.results)

    @property
    def quarantined(self) -> list[str]:
        """Optimizers the circuit breaker took out of the run."""
        return self.health.quarantined() if self.health else []

    def failures(self) -> list[ApplicationFailure]:
        """Every contained failure across the run, in order."""
        collected: list[ApplicationFailure] = []
        for result in self.results:
            collected.extend(result.failures)
        return collected

    def applications_by_optimizer(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.results:
            counts[result.optimizer] = counts.get(result.optimizer, 0) + (
                result.applied
            )
        return counts

    def __str__(self) -> str:
        lines = [f"pipeline: {self.total_applications} application(s)"]
        if self.total_rollbacks:
            lines[0] += f", {self.total_rollbacks} rolled-back failure(s)"
        if self.quarantined:
            lines[0] += f", quarantined: {', '.join(self.quarantined)}"
        lines.extend(f"  {result}" for result in self.results)
        return "\n".join(lines)


def optimize(
    program: Program,
    optimizers: Sequence[GeneratedOptimizer],
    options: Optional[DriverOptions] = None,
    in_place: bool = False,
    verify: bool = False,
    manager: Optional[AnalysisManager] = None,
    health: Optional[HealthLedger] = None,
    quarantine_after: int = 5,
) -> PipelineReport:
    """Run a sequence of optimizers over a program (Figure 3's OPT box).

    Optimizers run in the given order, each to exhaustion by default;
    dependences are refreshed between applications through one shared
    :class:`AnalysisManager`, which updates the graph incrementally
    from the program's change log.  Returns the transformed program (a
    copy unless ``in_place``) and the per-optimizer driver results.

    With ``verify`` every single application is differential-tested
    in-line against the equivalence oracle; under the default
    containment policy a behaviour change rolls the application back
    and records an
    :class:`~repro.genesis.transaction.ApplicationFailure` (with
    ``options.on_failure="raise"`` it raises
    :class:`repro.verify.VerificationError` instead).

    Failures feed one :class:`HealthLedger` shared across the whole
    run: an optimizer that keeps rolling back (``quarantine_after``
    consecutive failures) is quarantined and skipped for the rest of
    the pipeline, and the report lists it.
    """
    options = options or DriverOptions(apply_all=True)
    if verify and not options.verify:
        options = replace(options, verify=True)
    working = program if in_place else program.clone()
    if manager is None or manager.program is not working:
        manager = AnalysisManager(working)
    if health is None:
        health = HealthLedger(quarantine_after=quarantine_after)
    report = PipelineReport(
        program=working,
        analysis_stats=manager.stats,
        match_stats=engine_for(manager).stats,
        health=health,
    )
    for optimizer in optimizers:
        report.results.append(
            run_optimizer(
                optimizer, working, options, manager=manager, health=health
            )
        )
    return report


def optimize_source(
    source: str,
    optimizers: Sequence[GeneratedOptimizer],
    options: Optional[DriverOptions] = None,
    verify: bool = False,
) -> PipelineReport:
    """Parse mini-Fortran source and optimize it (the full Figure 3)."""
    return optimize(
        parse_program(source), optimizers, options, in_place=True,
        verify=verify,
    )


def optimize_searched(
    program: Program,
    opt_names: Sequence[str],
    options: Optional[DriverOptions] = None,
    in_place: bool = False,
    client=None,
    certify_result: bool = True,
    oracle_trials: int = 3,
    **search_knobs,
):
    """Search for the best pass ordering, then run it (Figure 3 with
    the OPT box's order chosen by :mod:`repro.search`).

    Searches orderings of ``opt_names`` with the configured strategy
    (``search_knobs`` are :class:`repro.search.SearchConfig` fields:
    ``strategy``, ``depth``, ``beam_width``, ``budget``, ``seed``,
    ``objective``, ``prune``), oracle-certifies the winner unless
    ``certify_result=False``, and applies the winning sequence through
    the ordinary pipeline.  Returns ``(PipelineReport, SearchResult)``.
    A ``client`` routes candidate evaluation through the optimization
    service (process-pool parallelism + fingerprint-keyed caching).
    """
    from repro.opts.catalog import standard_optimizers
    from repro.search import SearchConfig, certify, search_program
    from repro.search.space import canonical_source

    config = SearchConfig(
        opt_names=tuple(opt_names),
        options=options or DriverOptions(apply_all=True),
        **search_knobs,
    )
    source = canonical_source(program)
    result = search_program(source, config, client=client,
                            name=program.name)
    if certify_result:
        certify(
            result,
            source,
            trials=oracle_trials,
            seed=config.seed,
            options=config.driver_options(),
        )
    catalog = standard_optimizers(tuple(result.best_sequence))
    winners = [catalog[name] for name in result.best_sequence]
    report = optimize(
        program, winners, options=config.driver_options(),
        in_place=in_place,
    )
    return report, result
