"""Fault injection: prove the containment layer actually contains.

A robustness mechanism that has never seen a failure is untested code.
This module wraps any :class:`~repro.genesis.generator.GeneratedOptimizer`
in a *chaos decorator* that injects three fault classes into its
``act`` procedure at seeded, configurable rates:

* **raise mid-act** — perform a partial (logged) mutation, then raise
  :class:`ChaosError`: exercises exception rollback of half-applied
  transformations;
* **corrupt** — let the real action complete, then tear the IR (drop a
  structural marker, or append a stray one): exercises
  validation-failure rollback;
* **stall** — sleep before acting: exercises the driver's wall-clock
  deadline budget.

Faults are deterministic given ``ChaosConfig.seed``, so every chaos
run is replayable.  :func:`run_chaos` drives whole pipelines with
injected faults and checks the containment invariants: the run
terminates within budget, every surviving program state passes
:func:`~repro.ir.validate.validate_program`, rollback restores
byte-identical source, and — when nothing was quarantined — the final
program matches the fault-free pipeline's output exactly.  The
``genesis chaos`` CLI subcommand is a thin wrapper over it.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.frontend.lower import parse_program
from repro.frontend.unparse import unparse_program
from repro.genesis.driver import DriverOptions
from repro.genesis.generator import GeneratedOptimizer
from repro.genesis.library import MatchContext
from repro.genesis.pipeline import optimize
from repro.ir.program import Program
from repro.ir.quad import Opcode, Quad
from repro.ir.validate import ValidationError, validate_program
from repro.opts.specs import PAPER_TEN
from repro.workloads.programs import SOURCES


class ChaosError(RuntimeError):
    """An injected (not organic) optimizer fault."""


@dataclass
class ChaosConfig:
    """Fault rates and determinism knobs for one chaos campaign."""

    seed: int = 0
    #: probability that an ``act`` call raises after a partial mutation
    act_fault_rate: float = 0.25
    #: probability that an ``act`` call completes, then corrupts the IR
    corrupt_rate: float = 0.0
    #: probability that an ``act`` call sleeps before acting
    stall_rate: float = 0.0
    stall_seconds: float = 0.01


@dataclass
class ChaosStats:
    """What the decorator actually injected (shared across wrappers)."""

    act_calls: int = 0
    raises: int = 0
    corruptions: int = 0
    stalls: int = 0

    @property
    def injected(self) -> int:
        """Faults that should surface as rollbacks."""
        return self.raises + self.corruptions

    def __str__(self) -> str:
        return (
            f"chaos: {self.act_calls} act call(s), {self.raises} "
            f"raise(s), {self.corruptions} corruption(s), "
            f"{self.stalls} stall(s)"
        )


def _partial_damage(program: Program) -> None:
    """One logged, rollback-coverable mutation simulating a half-done
    action: delete the last non-structural statement."""
    for quad in reversed(program):
        if not quad.is_structural():
            program.remove(quad.qid)
            return


def _corrupt(program: Program) -> None:
    """Tear the IR with a *logged* mutation so validation must fail."""
    for quad in program:
        if quad.opcode in (Opcode.ENDDO, Opcode.ENDIF):
            program.remove(quad.qid)
            return
    program.append(Quad(Opcode.ENDDO))


def chaotic(
    optimizer: GeneratedOptimizer,
    config: ChaosConfig,
    stats: Optional[ChaosStats] = None,
) -> GeneratedOptimizer:
    """Wrap an optimizer so its ``act`` injects faults at seeded rates.

    The wrapper is itself a :class:`GeneratedOptimizer` (same name,
    spec and generated source), so it drops into any driver, pipeline
    or session unchanged.  Fault draws are independent per ``act``
    call and deterministic given the config seed and optimizer name —
    a failed application that the driver retries gets a fresh draw,
    which is exactly how transient production faults behave.
    """
    stats = stats if stats is not None else ChaosStats()
    rng = random.Random(
        (config.seed << 16) ^ zlib.crc32(optimizer.name.encode())
    )
    real_act = optimizer.act

    def act(ctx: MatchContext) -> int:
        stats.act_calls += 1
        if config.stall_rate and rng.random() < config.stall_rate:
            stats.stalls += 1
            time.sleep(config.stall_seconds)
        if config.act_fault_rate and rng.random() < config.act_fault_rate:
            stats.raises += 1
            _partial_damage(ctx.program)
            raise ChaosError(
                f"injected fault in act_{optimizer.name} "
                f"(call {stats.act_calls})"
            )
        outcome = real_act(ctx)
        if config.corrupt_rate and rng.random() < config.corrupt_rate:
            stats.corruptions += 1
            _corrupt(ctx.program)
        return outcome

    return replace(optimizer, act=act)


def chaotic_catalog(
    optimizers: dict[str, GeneratedOptimizer],
    config: ChaosConfig,
    stats: Optional[ChaosStats] = None,
) -> tuple[dict[str, GeneratedOptimizer], ChaosStats]:
    """Chaos-wrap a whole optimizer catalog with one shared stats sink."""
    stats = stats if stats is not None else ChaosStats()
    return (
        {
            name: chaotic(optimizer, config, stats)
            for name, optimizer in optimizers.items()
        },
        stats,
    )


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------
@dataclass
class ChaosRun:
    """One program through the chaos pipeline, with its verdicts."""

    program_name: str
    baseline_applications: int
    chaos_applications: int
    rollbacks: int
    stats: ChaosStats
    quarantined: list[str] = field(default_factory=list)
    #: per-optimizer budget stops, e.g. ``"CTP: rollback-budget"``
    stopped: list[str] = field(default_factory=list)
    #: final chaos program passed validate_program
    valid: bool = True
    #: final chaos output == fault-free output (None: a quarantine or
    #: budget stop cut the run short, so the comparison was skipped)
    matches_baseline: Optional[bool] = None
    problems: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems

    def __str__(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        text = (
            f"{self.program_name}: {verdict}, "
            f"{self.chaos_applications}/{self.baseline_applications} "
            f"application(s), {self.rollbacks} rollback(s), "
            f"{self.stats.injected} injected fault(s)"
        )
        if self.quarantined:
            text += f", quarantined: {', '.join(self.quarantined)}"
        if self.stopped:
            text += f", stopped: {', '.join(self.stopped)}"
        for problem in self.problems:
            text += f"\n    problem: {problem}"
        return text


@dataclass
class ChaosReport:
    """Outcome of one whole chaos campaign."""

    config: ChaosConfig
    runs: list[ChaosRun] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)

    @property
    def total_injected(self) -> int:
        return sum(run.stats.injected for run in self.runs)

    @property
    def total_rollbacks(self) -> int:
        return sum(run.rollbacks for run in self.runs)

    def summary(self) -> str:
        lines = [
            f"chaos campaign (seed {self.config.seed}): "
            f"{len(self.runs)} program(s), {self.total_injected} injected "
            f"fault(s), {self.total_rollbacks} rollback(s), "
            f"{self.elapsed_seconds:.1f}s — "
            + ("ALL CONTAINED" if self.ok else "CONTAINMENT FAILED")
        ]
        lines.extend(f"  {run}" for run in self.runs)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.summary()


def run_chaos(
    config: Optional[ChaosConfig] = None,
    opt_names: Sequence[str] = PAPER_TEN,
    program_names: Optional[Sequence[str]] = None,
    options: Optional[DriverOptions] = None,
    quarantine_after: int = 10,
    optimizers: Optional[dict[str, GeneratedOptimizer]] = None,
    progress: Optional[Callable[[str], None]] = None,
    client=None,
) -> ChaosReport:
    """Run the fault-injection campaign over workload programs.

    For each program, a fault-free pipeline fixes the expected output;
    then the same pipeline runs with chaos-wrapped optimizers and the
    containment invariants are checked:

    1. the run terminates within its budgets (deadline/fuel/rollback
       caps — enforced by the driver, observed here by completion);
    2. the surviving program passes :func:`validate_program` (and the
       driver validated after every application, so no invalid
       intermediate state was ever visible);
    3. with no optimizer quarantined, the chaos output is
       byte-identical to the fault-free output — every injected fault
       was rolled back and retried to the same end state;
    4. quarantined optimizers are reported, never silently dropped.

    ``optimizers`` may inject pre-built (possibly deliberately broken)
    optimizers keyed by name; missing names come from the catalog.

    ``client`` (a :class:`repro.service.client.ServiceClient`)
    parallelizes the fault-free *baseline* pipelines across the
    service's workers; the chaos arms themselves always run locally —
    their fault-injecting closures cannot cross a process boundary.
    Injected ``optimizers`` force fully serial baselines, since the
    service can only rebuild catalog optimizations by name.
    """
    from repro.opts.catalog import build_optimizer

    config = config or ChaosConfig()
    base_options = options or DriverOptions(
        apply_all=True,
        validate=True,
        max_rollbacks=40,
        deadline_seconds=30.0,
        max_match_attempts=200_000,
    )
    if not base_options.validate:
        base_options = replace(base_options, validate=True)
    catalog: dict[str, GeneratedOptimizer] = dict(optimizers or {})
    for name in opt_names:
        if name not in catalog:
            catalog[name] = build_optimizer(name)
    names = list(program_names or SOURCES)
    baselines = None
    if client is not None and not optimizers:
        baselines = _baselines_via_service(
            client, names, tuple(opt_names), base_options, quarantine_after
        )
    report = ChaosReport(config=config)
    start = time.perf_counter()
    for program_name in names:
        run_start = time.perf_counter()
        program = parse_program(SOURCES[program_name])
        if baselines is not None:
            baseline_applications, baseline_out = baselines[program_name]
        else:
            baseline = optimize(
                program.clone(),
                [catalog[name] for name in opt_names],
                options=replace(base_options),
                in_place=True,
                quarantine_after=quarantine_after,
            )
            baseline_applications = baseline.total_applications
            baseline_out = unparse_program(
                baseline.program, name=baseline.program.name
            )

        wrapped, stats = chaotic_catalog(
            {name: catalog[name] for name in opt_names}, config
        )
        working = program.clone()
        chaos_report = optimize(
            working,
            [wrapped[name] for name in opt_names],
            options=replace(base_options),
            in_place=True,
            quarantine_after=quarantine_after,
        )
        run = ChaosRun(
            program_name=program_name,
            baseline_applications=baseline_applications,
            chaos_applications=chaos_report.total_applications,
            rollbacks=chaos_report.total_rollbacks,
            stats=stats,
            quarantined=chaos_report.quarantined,
            stopped=[
                f"{result.optimizer}: {result.stopped}"
                for result in chaos_report.results
                if result.stopped
            ],
        )
        try:
            validate_program(working)
        except ValidationError as error:
            run.valid = False
            run.problems.append(f"invalid final program: {error}")
        if not run.quarantined and not run.stopped:
            chaos_out = unparse_program(working, name=working.name)
            run.matches_baseline = chaos_out == baseline_out
            if not run.matches_baseline:
                run.problems.append(
                    "chaos output diverged from the fault-free pipeline "
                    "with no quarantine or budget stop"
                )
        run.elapsed_seconds = time.perf_counter() - run_start
        report.runs.append(run)
        if progress is not None:
            progress(str(run))
    report.elapsed_seconds = time.perf_counter() - start
    return report


def _baselines_via_service(
    client,
    names: Sequence[str],
    opt_names: tuple[str, ...],
    base_options: DriverOptions,
    quarantine_after: int,
) -> dict[str, tuple[int, str]]:
    """Fault-free baselines as service jobs: name -> (applications,
    optimized source).

    Each job carries the *same* workload text the serial path parses
    (``Job.from_source(SOURCES[name], ...)``) and the campaign's own
    ``quarantine_after`` (in the job payload, hence in the cache key),
    so the service baseline runs under exactly the serial pipeline's
    settings and is byte-identical to a local one.
    """
    from repro.service.client import run_batch
    from repro.service.job import Job

    jobs = [
        Job.from_source(
            SOURCES[program_name], opt_names, replace(base_options),
            payload={"quarantine_after": quarantine_after},
        )
        for program_name in names
    ]
    baselines: dict[str, tuple[int, str]] = {}
    for program_name, result in zip(names, run_batch(client, jobs)):
        if not result.ok:
            detail = str(result.failure) if result.failure else result.status
            raise RuntimeError(
                f"chaos baseline for {program_name!r} failed in the "
                f"service: {detail}"
            )
        baselines[program_name] = (result.applications, result.source)
    return baselines
