"""The differential fuzz harness.

Drives :func:`repro.workloads.synthetic.random_program` through every
catalog optimization — each alone, and all of them as one multi-pass
pipeline — and checks the equivalence oracle after every transformed
program.  Failures are shrunk to minimal counterexamples and saved as
replayable mini-Fortran files whose ``!`` comment header records the
optimization sequence and oracle settings.

Entry points:

* :func:`run_fuzz` — one whole campaign, returning a
  :class:`FuzzReport`;
* :func:`write_repro` / :func:`load_repro` / :func:`replay_repro` —
  the counterexample file format and its replay.

The ``genesis fuzz`` CLI subcommand is a thin wrapper over
:func:`run_fuzz`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.analysis.manager import AnalysisManager
from repro.frontend.lower import parse_program
from repro.frontend.unparse import unparse_program
from repro.genesis.driver import DriverOptions, run_optimizer
from repro.genesis.generator import GeneratedOptimizer
from repro.ir.program import Program
from repro.opts.specs import PAPER_TEN
from repro.verify.oracle import EquivalenceOracle, EquivalenceReport
from repro.verify.shrink import shrink_program
from repro.workloads.synthetic import random_program

#: spread multiplier turning (campaign seed, iteration) into a
#: program-generator seed
_SEED_STRIDE = 1_000_003

ProgressHook = Callable[[str], None]


@dataclass
class FuzzConfig:
    """Campaign parameters (all deterministic given ``seed``)."""

    seed: int = 0
    iterations: int = 50
    opt_names: tuple[str, ...] = PAPER_TEN
    size: int = 12
    max_depth: int = 2
    #: oracle environments per check (plus the two edge-case envs)
    trials: int = 3
    #: also run the whole catalog as one multi-pass pipeline
    pipeline: bool = True
    shrink: bool = True
    max_applications: int = 25
    max_shrink_attempts: int = 400
    #: containment budgets so one pathological program/optimizer pair
    #: cannot wedge a whole campaign: rolled-back failures per
    #: optimizer, wall-clock per driver run, and match-attempt fuel
    max_rollbacks: int = 10
    deadline_seconds: Optional[float] = 20.0
    max_match_attempts: Optional[int] = 100_000
    #: where to write counterexample files (None: keep in memory only)
    out_dir: Optional[str] = None

    def program_seed(self, iteration: int) -> int:
        return self.seed * _SEED_STRIDE + iteration


@dataclass
class FuzzFailure:
    """One oracle divergence, with its shrunk counterexample."""

    iteration: int
    program_seed: int
    opt_names: tuple[str, ...]
    report: EquivalenceReport
    source: str
    shrunk_source: Optional[str] = None
    shrunk_statements: Optional[int] = None
    repro_path: Optional[Path] = None

    def __str__(self) -> str:
        opts = "+".join(self.opt_names)
        where = f" -> {self.repro_path}" if self.repro_path else ""
        shrunk = (
            f", shrunk to {self.shrunk_statements} quad(s)"
            if self.shrunk_statements is not None
            else ""
        )
        return (
            f"iteration {self.iteration} (seed {self.program_seed}) "
            f"{opts}: {self.report.divergences[0]}{shrunk}{where}"
        )


@dataclass
class FuzzReport:
    """What one campaign did."""

    config: FuzzConfig
    programs: int = 0
    checks: int = 0
    applications: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.programs} program(s), {self.checks} oracle "
            f"check(s), {self.applications} application(s), "
            f"{len(self.failures)} failure(s), "
            f"{self.elapsed_seconds:.1f}s"
        ]
        lines.extend(f"  {failure}" for failure in self.failures)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.summary()


def _apply_sequence(
    optimizers: Sequence[GeneratedOptimizer],
    program: Program,
    config: FuzzConfig,
) -> int:
    """Apply optimizers in order to ``program`` (in place); total count.

    One :class:`AnalysisManager` serves the whole sequence, so the
    dependence graph carries incrementally across passes instead of
    being rebuilt per optimizer.  Driver budgets from the config bound
    each pass: a crashing ``act`` rolls back and is retried up to
    ``max_rollbacks`` times instead of killing the campaign, and the
    deadline/fuel caps stop runaway match loops.
    """
    options = _fuzz_driver_options(config)
    manager = AnalysisManager(program)
    applied = 0
    for optimizer in optimizers:
        applied += run_optimizer(
            optimizer, program, options, manager=manager
        ).applied
    return applied


def run_fuzz(
    config: Optional[FuzzConfig] = None,
    optimizers: Optional[dict[str, GeneratedOptimizer]] = None,
    progress: Optional[ProgressHook] = None,
    client=None,
) -> FuzzReport:
    """Run one fuzz campaign.

    ``optimizers`` may inject pre-built (possibly deliberately broken)
    optimizers keyed by name; missing names are generated from the
    catalog.

    ``client`` (a :class:`repro.service.client.ServiceClient`) batches
    every per-iteration transformation through the optimization
    service, parallelizing the campaign across the service's workers;
    oracle checking and counterexample shrinking stay local.  Injected
    ``optimizers`` force the serial path — ad-hoc callables cannot
    cross a process boundary.
    """
    config = config or FuzzConfig()
    optimizers = dict(optimizers or {})
    use_service = client is not None and not optimizers
    for name in config.opt_names:
        if name not in optimizers:
            optimizers[name] = _resolve_optimizer(name)
    oracle = EquivalenceOracle(trials=config.trials, seed=config.seed)
    report = FuzzReport(config=config)
    start = time.perf_counter()
    check_plan = [(name,) for name in config.opt_names]
    if config.pipeline and len(config.opt_names) > 1:
        check_plan.append(tuple(config.opt_names))
    if use_service:
        _run_fuzz_service(
            report, oracle, config, check_plan, optimizers, client, progress
        )
        report.elapsed_seconds = time.perf_counter() - start
        return report
    for iteration in range(config.iterations):
        seed = config.program_seed(iteration)
        program = random_program(
            seed, size=config.size, max_depth=config.max_depth
        )
        report.programs += 1
        for opt_names in check_plan:
            _check_one(
                report, oracle, config, iteration, seed, program,
                opt_names, [optimizers[name] for name in opt_names],
            )
        if progress is not None and (iteration + 1) % 10 == 0:
            progress(
                f"{iteration + 1}/{config.iterations} iterations, "
                f"{report.checks} checks, "
                f"{len(report.failures)} failure(s)"
            )
    report.elapsed_seconds = time.perf_counter() - start
    return report


def _fuzz_driver_options(config: FuzzConfig) -> DriverOptions:
    """The per-optimizer budgets both fuzz paths run under."""
    return DriverOptions(
        apply_all=True,
        max_applications=config.max_applications,
        max_rollbacks=config.max_rollbacks,
        deadline_seconds=config.deadline_seconds,
        max_match_attempts=config.max_match_attempts,
    )


def _run_fuzz_service(
    report: FuzzReport,
    oracle: EquivalenceOracle,
    config: FuzzConfig,
    check_plan: list[tuple[str, ...]],
    optimizers: dict[str, GeneratedOptimizer],
    client,
    progress: Optional[ProgressHook],
) -> None:
    """The service-backed campaign: one batch, verdicts locally.

    The whole campaign (iterations × check-plan entries) goes to the
    service as one :func:`~repro.service.client.run_batch` batch, which
    windows it to the admission queue and resubmits stray rejections;
    the oracle then checks the results locally, in campaign order.

    Only catalog optimizations can execute in a worker; a plan entry
    that names broken-fixture optimizers is transformed serially
    instead (they exist precisely to fail, and shrinking reruns them
    locally anyway).
    """
    from repro.service.client import run_batch
    from repro.service.job import Job
    from repro.service.scheduler import ServiceError
    from repro.verify.fixtures import BROKEN_SPECS

    options = _fuzz_driver_options(config)
    checks: list[tuple[int, int, Program, tuple[str, ...]]] = []
    jobs: list[Job] = []
    for iteration in range(config.iterations):
        seed = config.program_seed(iteration)
        program = random_program(
            seed, size=config.size, max_depth=config.max_depth
        )
        report.programs += 1
        for opt_names in check_plan:
            if any(name in BROKEN_SPECS for name in opt_names):
                _check_one(
                    report, oracle, config, iteration, seed, program,
                    opt_names, [optimizers[name] for name in opt_names],
                )
                continue
            checks.append((iteration, seed, program, opt_names))
            jobs.append(Job.from_program(program, opt_names, options))
    results = run_batch(client, jobs)
    for done, (check, result) in enumerate(zip(checks, results), 1):
        iteration, seed, program, opt_names = check
        if not result.ok:
            raise ServiceError(
                f"fuzz job {result.job_id} ({'+'.join(opt_names)}, "
                f"seed {seed}) did not complete: "
                f"{result.failure or result.status}"
            )
        report.applications += result.applications
        if progress is not None and done % 25 == 0:
            progress(
                f"{done} service check(s), "
                f"{len(report.failures)} failure(s)"
            )
        if result.applications == 0:
            continue
        report.checks += 1
        verdict = oracle.check(program, result.program())
        if verdict.equivalent:
            continue
        _record_failure(
            report, oracle, config, iteration, seed, program, opt_names,
            [optimizers[name] for name in opt_names], verdict,
        )


def _check_one(
    report: FuzzReport,
    oracle: EquivalenceOracle,
    config: FuzzConfig,
    iteration: int,
    seed: int,
    program: Program,
    opt_names: tuple[str, ...],
    optimizers: list[GeneratedOptimizer],
) -> None:
    transformed = program.clone()
    applied = _apply_sequence(optimizers, transformed, config)
    report.applications += applied
    if applied == 0:
        return
    report.checks += 1
    verdict = oracle.check(program, transformed)
    if verdict.equivalent:
        return
    _record_failure(
        report, oracle, config, iteration, seed, program, opt_names,
        optimizers, verdict,
    )


def _record_failure(
    report: FuzzReport,
    oracle: EquivalenceOracle,
    config: FuzzConfig,
    iteration: int,
    seed: int,
    program: Program,
    opt_names: tuple[str, ...],
    optimizers: list[GeneratedOptimizer],
    verdict: EquivalenceReport,
) -> None:
    """Shrink and save one oracle divergence (always runs locally)."""
    failure = FuzzFailure(
        iteration=iteration,
        program_seed=seed,
        opt_names=opt_names,
        report=verdict,
        source=unparse_program(program, name=program.name),
    )
    if config.shrink:
        def still_fails(candidate: Program) -> bool:
            candidate_transformed = candidate.clone()
            if _apply_sequence(optimizers, candidate_transformed, config) == 0:
                return False
            return not oracle.check(candidate, candidate_transformed).equivalent

        shrunk = shrink_program(
            program, still_fails, max_attempts=config.max_shrink_attempts
        )
        failure.shrunk_source = unparse_program(
            shrunk.program, name=f"repro_{seed}"
        )
        failure.shrunk_statements = shrunk.statements
    if config.out_dir is not None:
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        failure.repro_path = out_dir / (
            f"repro_{'_'.join(opt_names).lower()}_{seed}.f"
        )
        write_repro(failure.repro_path, failure, config)
    report.failures.append(failure)


# ----------------------------------------------------------------------
# counterexample files
# ----------------------------------------------------------------------
def write_repro(
    path: Path | str, failure: FuzzFailure, config: FuzzConfig
) -> Path:
    """Save a failure as a replayable mini-Fortran file.

    The ``!`` header comments carry everything replay needs; the body
    is the (shrunk, when available) program source, directly parsable
    by the frontend since the lexer skips comments.
    """
    path = Path(path)
    divergence = failure.report.divergences[0]
    header = [
        "! genesis-fuzz counterexample",
        f"! opts: {','.join(failure.opt_names)}",
        f"! program-seed: {failure.program_seed}",
        f"! oracle-trials: {config.trials}",
        f"! oracle-seed: {config.seed}",
        f"! divergence: {divergence}",
    ]
    body = failure.shrunk_source or failure.source
    path.write_text("\n".join(header) + "\n" + body)
    return path


def load_repro(path: Path | str) -> tuple[dict[str, str], Program]:
    """Parse a counterexample file into (metadata, program)."""
    text = Path(path).read_text()
    metadata: dict[str, str] = {}
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped.startswith("!"):
            continue
        comment = stripped.lstrip("!").strip()
        if ":" in comment:
            key, _, value = comment.partition(":")
            metadata.setdefault(key.strip(), value.strip())
    return metadata, parse_program(text)


def replay_repro(
    path: Path | str,
    optimizers: Optional[dict[str, GeneratedOptimizer]] = None,
) -> tuple[EquivalenceReport, int]:
    """Re-run a saved counterexample: (oracle verdict, applications).

    A still-broken optimizer replays as divergent; once the bug is
    fixed the same file replays as equivalent (or applies nowhere).
    Unknown optimizer names fall back to the broken-fixture catalog so
    the oracle's own regression files replay too.
    """
    metadata, program = load_repro(path)
    opt_names = tuple(
        name.strip()
        for name in metadata.get("opts", "").split(",")
        if name.strip()
    )
    if not opt_names:
        raise ValueError(f"{path}: no '! opts:' header to replay")
    optimizers = dict(optimizers or {})
    for name in opt_names:
        if name in optimizers:
            continue
        optimizers[name] = _resolve_optimizer(name, Path(path).parent)
    trials = int(metadata.get("oracle-trials", 3))
    seed = int(metadata.get("oracle-seed", 0))
    config = FuzzConfig(seed=seed, trials=trials, opt_names=opt_names)
    transformed = program.clone()
    applied = _apply_sequence(
        [optimizers[name] for name in opt_names], transformed, config
    )
    oracle = EquivalenceOracle(trials=trials, seed=seed)
    return oracle.check(program, transformed), applied


def _resolve_optimizer(
    name: str, search_dir: Optional[Path] = None
) -> GeneratedOptimizer:
    from repro.verify.fixtures import BROKEN_SPECS, broken_optimizer

    if name in BROKEN_SPECS:
        return broken_optimizer(name)
    from repro.opts.catalog import build_optimizer

    try:
        return build_optimizer(name)
    except KeyError:
        # Refuted inference candidates never join a catalog, but the
        # admission pipeline leaves their GOSpeL source next to the
        # counterexample as ``reject_<name>.gospel`` — replay from it.
        if search_dir is not None:
            sibling = search_dir / f"reject_{name}.gospel"
            if sibling.exists():
                from repro.genesis.generator import generate_optimizer

                return generate_optimizer(sibling.read_text(), name=name)
        raise
