"""The ``genesis`` command-line tool.

Subcommands::

    genesis generate <spec.gospel> [--name OPT] [--policy P]
        Parse a GOSpeL specification and print the generated code.

    genesis optimize <program.f> --opts CTP,DCE [--all] [--show]
        Optimize a mini-Fortran program with catalog optimizations.
        ``--verify`` differential-tests every single application
        against the equivalence oracle.

    genesis fuzz [--seed N] [--iterations N] [--opts ...]
        Differential-fuzz the catalog: random programs through every
        optimization and the multi-pass pipeline, checking semantic
        equivalence, shrinking and saving counterexamples on failure.
        ``genesis fuzz --replay FILE`` re-runs a saved counterexample.

    genesis chaos [--seed N] [--fault-rate R] [--programs ...]
        Fault-injection campaign: run pipelines whose optimizers
        raise mid-act, corrupt the IR, or stall at seeded rates, and
        check that the transactional driver contains every fault.

Exit status: 0 success; 1 a campaign/verification found failures;
2 usage error; 3 operational error (bad input, unknown optimization,
rejected session command) — reported as a one-line diagnostic.

    genesis interact <program.f> [--opts ...]
        Drive the interactive interface (paper Figure 4 step 3.b):
        list / points OPT / apply OPT [all|N] / override OPT N /
        recompute on|off / deps / show / history / reset / quit.

    genesis experiments [--only E1,E2,...] [--out FILE] [--parallel]
        Run the Section 4 reproduction and print the report.
        ``--parallel`` fans the experiment components out across
        service workers.

    genesis construct <dir> --opts CTP,DCE
        Write a self-contained optimizer package (the constructor).

    genesis suite
        List the workload programs.

    genesis search [programs...] --strategy beam --depth 4 --budget 200
        Phase-ordering search: find the best pass ordering per
        workload (seeded, deterministic), oracle-certify every
        winning pipeline, and report benefit under all three machine
        models.  ``--workers N`` evaluates candidates through the
        process-pool service so convergent orderings are cache hits.

    genesis infer [--seed N] [--pairs N] [--out DIR] [--workers N]
        Spec inference: mine candidate rewrites from before/after
        pairs, generalize them through the abstraction ladder, and
        admission-certify each rung (sema, legality, the differential
        oracle, the worklist matcher's shadow check).  Admitted specs
        print as GOSpeL source; rejections leave shrunk
        counterexamples.  ``--emit-module`` renders the admitted set
        as a catalog module (how ``repro.opts.inferred`` is made).

    genesis submit <program.f> --opts CTP,DCE [--backend process]
        One-shot optimization through the optimization service.

    genesis batch <p1.f> <p2.f> ... --opts CTP,DCE [--workers N]
        Optimize many programs concurrently through the service;
        identical submissions are cache-served/coalesced.

    genesis serve --listen [HOST:]PORT [--cache-dir DIR]
        Network optimization service: concurrent TCP JSON-lines
        sessions, a crash-safe persistent cache tier, graceful
        SIGTERM drain (exit 0).  Without --listen, the same dialect
        runs over stdin/stdout as a single-session debug loop.

    genesis submit|batch|search ... --connect HOST:PORT
        Send jobs to a running server instead of building a local
        service; retried with capped jittered backoff (idempotent
        under cache keys).

    genesis chaos --network
        Network chaos campaign: kill -9 servers mid-job, sever
        connections mid-response, crash cache writes — asserting
        byte-identical results and zero corrupt cache entries.

``genesis fuzz --workers N`` and ``genesis chaos --workers N`` run
their campaigns' transformation/baseline jobs through a process-pool
service instead of serially in-process.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments import (
    run_all_experiments,
    run_applicability,
    run_costbenefit,
    run_enabling_matrix,
    run_lur_variants,
    run_membership_strategies,
    run_ordering,
    run_quality,
)
from repro.frontend.errors import FrontendError
from repro.frontend.lower import parse_program
from repro.genesis.codegen import CodegenError
from repro.genesis.constructor import ConstructorError
from repro.genesis.driver import DriverOptions, run_optimizer
from repro.genesis.generator import generate_optimizer
from repro.genesis.library import GenesisRuntimeError
from repro.genesis.session import OptimizerSession, SessionError
from repro.genesis.strategy import StrategyPolicy
from repro.gospel.errors import GospelError
from repro.ir.printer import format_program
from repro.ir.program import IRError
from repro.ir.validate import ValidationError
from repro.opts.catalog import standard_optimizers
from repro.opts.extended import EXTENDED_SPECS
from repro.opts.inferred import INFERRED_SPECS
from repro.opts.specs import STANDARD_SPECS, VARIANT_SPECS
from repro.search.space import SearchError
from repro.service.scheduler import ServiceError
from repro.workloads.programs import SOURCES

#: exit code for operational failures caught at the CLI boundary
#: (0 = success, 1 = campaign failures, 2 = usage error)
EXIT_ERROR = 3

#: what the boundary turns into one-line diagnostics — everything a
#: bad input file, bad specification, or rejected session command can
#: legitimately raise; real bugs still traceback
_BOUNDARY_ERRORS = (
    OSError,
    FrontendError,
    GospelError,
    CodegenError,
    ConstructorError,
    GenesisRuntimeError,
    SessionError,
    SearchError,
    IRError,
    ValidationError,
    ServiceError,
    ValueError,
    KeyError,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``genesis`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "optimize": _cmd_optimize,
        "interact": _cmd_interact,
        "experiments": _cmd_experiments,
        "construct": _cmd_construct,
        "suite": _cmd_suite,
        "fuzz": _cmd_fuzz,
        "chaos": _cmd_chaos,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "batch": _cmd_batch,
        "search": _cmd_search,
        "infer": _cmd_infer,
    }.get(args.command)
    if handler is None:
        parser.print_help()
        return 2
    try:
        return handler(args)
    except _BOUNDARY_ERRORS as error:
        message = str(error) or error.__class__.__name__
        print(
            f"genesis {args.command}: error: {message}", file=sys.stderr
        )
        return EXIT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    from repro._version import __version__

    parser = argparse.ArgumentParser(
        prog="genesis",
        description="GENesis: generate global optimizers from GOSpeL "
        "specifications (Whitfield & Soffa, PLDI 1991)",
        epilog="exit status: 0 success; 1 campaign/verification "
        "failures; 2 usage error; 3 operational error (bad input, "
        "unknown optimization, rejected command), reported as a "
        "one-line diagnostic",
    )
    parser.add_argument(
        "--version", action="version", version=f"genesis {__version__}"
    )
    sub = parser.add_subparsers(dest="command")

    generate = sub.add_parser(
        "generate", help="generate optimizer code from a specification"
    )
    generate.add_argument("spec", help="GOSpeL file, or a catalog name "
                          "like CTP")
    generate.add_argument("--name", default=None, help="optimization name")
    generate.add_argument(
        "--policy",
        choices=[p.value for p in StrategyPolicy],
        default=StrategyPolicy.HEURISTIC.value,
        help="Depend-clause implementation policy",
    )

    optimize = sub.add_parser("optimize", help="optimize a program")
    optimize.add_argument("program", help="mini-Fortran source file, or a "
                          "workload name like 'fft'")
    optimize.add_argument(
        "--opts", default="CTP,CFO,DCE",
        help="comma-separated optimization sequence",
    )
    optimize.add_argument(
        "--once", action="store_true",
        help="apply each optimization at its first point only",
    )
    optimize.add_argument(
        "--show", action="store_true", help="print the optimized code"
    )
    optimize.add_argument(
        "--save", default=None, metavar="FILE",
        help="write the optimized program as mini-Fortran source",
    )
    optimize.add_argument(
        "--verify", action="store_true",
        help="oracle-check every application (differential testing)",
    )
    optimize.add_argument(
        "--analysis-stats", action="store_true",
        help="print the analysis manager's cache/incremental counters "
        "and the match engine's candidate/index/sweep counters",
    )
    optimize.add_argument(
        "--max-rollbacks", type=int, default=8, metavar="N",
        help="rolled-back failures per optimization before its run "
        "stops (default: 8)",
    )
    optimize.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per optimization run",
    )
    optimize.add_argument(
        "--on-failure", choices=["rollback", "raise", "abort"],
        default="rollback",
        help="contain a failing application by rolling it back "
        "(default), or re-raise after rollback, or abort unrepaired",
    )

    interact = sub.add_parser("interact", help="interactive session")
    interact.add_argument("program")
    interact.add_argument("--opts", default=",".join(sorted(STANDARD_SPECS)))

    service_flags = argparse.ArgumentParser(add_help=False)
    service_flags.add_argument(
        "--backend", choices=["inprocess", "process"], default="process",
        help="worker backend: forked worker processes (default) or "
        "synchronous in-process execution (deterministic; for tests "
        "and debugging)",
    )
    service_flags.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="concurrent workers (default: 4)",
    )
    service_flags.add_argument(
        "--queue-limit", type=int, default=256, metavar="N",
        help="admission-control queue bound (default: 256)",
    )
    service_flags.add_argument(
        "--job-deadline", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock deadline; overrunning workers are "
        "reaped and the job fails structurally",
    )
    service_flags.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent disk tier under the in-memory result cache "
        "(crash-safe, shareable across restarts and processes)",
    )
    service_flags.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="send jobs to a running 'genesis serve --listen' server "
        "instead of a local service (retried with capped jittered "
        "backoff; safe because submission is idempotent under cache "
        "keys); local backend/worker flags are ignored",
    )
    service_flags.add_argument(
        "--retry-attempts", type=int, default=5, metavar="N",
        help="retry budget per request for --connect (default: 5)",
    )
    service_flags.add_argument(
        "--connect-timeout", type=float, default=2.0, metavar="SECONDS",
        help="TCP connect timeout for --connect (default: 2)",
    )
    service_flags.add_argument(
        "--request-timeout", type=float, default=120.0, metavar="SECONDS",
        help="per-request read timeout for --connect (default: 120; "
        "heartbeats keep long jobs alive)",
    )

    experiments = sub.add_parser(
        "experiments", help="reproduce the paper's Section 4"
    )
    experiments.add_argument(
        "--only", default=None,
        help="comma-separated subset of E1,E2,E3,E4,E5,E6",
    )
    experiments.add_argument("--out", default=None, help="write report here")
    experiments.add_argument(
        "--parallel", action="store_true",
        help="fan the experiment components out across service "
        "workers (full report only; ignored with --only)",
    )
    experiments.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="service workers for --parallel (default: 4)",
    )

    construct = sub.add_parser(
        "construct", help="package generated optimizers on disk"
    )
    construct.add_argument("directory")
    construct.add_argument("--opts", default="CTP,CFO,DCE")

    sub.add_parser("suite", help="list the workload programs")

    fuzz = sub.add_parser(
        "fuzz", help="differential-fuzz the catalog optimizations"
    )
    fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz.add_argument(
        "--iterations", type=int, default=50,
        help="number of random programs to generate",
    )
    fuzz.add_argument(
        "--opts", default=None,
        help="comma-separated optimization subset (default: the paper's "
        "ten)",
    )
    fuzz.add_argument(
        "--size", type=int, default=12, help="statement budget per program"
    )
    fuzz.add_argument(
        "--trials", type=int, default=3,
        help="random oracle environments per check",
    )
    fuzz.add_argument(
        "--out", default=None, metavar="DIR",
        help="write shrunk counterexample files here",
    )
    fuzz.add_argument(
        "--no-pipeline", action="store_true",
        help="skip the all-optimizations multi-pass check",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without minimizing them",
    )
    fuzz.add_argument(
        "--replay", default=None, metavar="FILE",
        help="replay a saved counterexample file instead of fuzzing",
    )
    fuzz.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run transformations through a process-pool optimization "
        "service with N workers (default: 0, serial in-process)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection campaign against the transactional driver",
    )
    chaos.add_argument("--seed", type=int, default=0, help="campaign seed")
    chaos.add_argument(
        "--opts", default=None,
        help="comma-separated optimization subset (default: the paper's "
        "ten)",
    )
    chaos.add_argument(
        "--programs", default=None,
        help="comma-separated workload subset (default: all)",
    )
    chaos.add_argument(
        "--fault-rate", type=float, default=0.25, metavar="R",
        help="probability an act raises after a partial mutation "
        "(default: 0.25)",
    )
    chaos.add_argument(
        "--corrupt-rate", type=float, default=0.05, metavar="R",
        help="probability an act corrupts the IR after acting "
        "(default: 0.05)",
    )
    chaos.add_argument(
        "--stall-rate", type=float, default=0.0, metavar="R",
        help="probability an act stalls before acting (default: 0)",
    )
    chaos.add_argument(
        "--quarantine-after", type=int, default=10, metavar="N",
        help="consecutive rollbacks before quarantine (default: 10)",
    )
    chaos.add_argument(
        "--max-rollbacks", type=int, default=40, metavar="N",
        help="rollback budget per optimization run (default: 40)",
    )
    chaos.add_argument(
        "--deadline", type=float, default=30.0, metavar="SECONDS",
        help="wall-clock budget per optimization run (default: 30)",
    )
    chaos.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="compute fault-free baselines through a process-pool "
        "optimization service with N workers (default: 0, serial)",
    )
    chaos.add_argument(
        "--network", action="store_true",
        help="run the network chaos campaign instead: kill -9 servers "
        "mid-job, sever connections mid-response, crash cache writes "
        "mid-rename; asserts byte-identical results vs a serial "
        "baseline and zero corrupt disk entries",
    )
    chaos.add_argument(
        "--rounds", type=int, default=3, metavar="N",
        help="server lifetimes for --network (default: 3)",
    )
    chaos.add_argument(
        "--jobs", type=int, default=12, metavar="N",
        help="jobs per campaign for --network (default: 12)",
    )

    submit = sub.add_parser(
        "submit", parents=[service_flags],
        help="optimize one program through the optimization service",
    )
    submit.add_argument("program", help="mini-Fortran source file, or a "
                        "workload name like 'fft'")
    submit.add_argument(
        "--opts", default="CTP,CFO,DCE",
        help="comma-separated optimization sequence",
    )
    submit.add_argument(
        "--show", action="store_true", help="print the optimized source"
    )

    batch = sub.add_parser(
        "batch", parents=[service_flags],
        help="optimize many programs concurrently through the service",
    )
    batch.add_argument(
        "programs", nargs="+",
        help="mini-Fortran source files and/or workload names",
    )
    batch.add_argument(
        "--opts", default="CTP,CFO,DCE",
        help="comma-separated optimization sequence",
    )
    batch.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write every JobResult (and service stats) as JSON",
    )

    from repro.search import MODELS_BY_NAME, STRATEGIES

    search = sub.add_parser(
        "search",
        help="search pass orderings and report certified best pipelines",
    )
    search.add_argument(
        "programs", nargs="*",
        help="mini-Fortran source files and/or workload names "
        "(default: the whole workload suite)",
    )
    search.add_argument(
        "--opts", default=None,
        help="comma-separated candidate passes (default: the paper's "
        "ten)",
    )
    search.add_argument(
        "--strategy", choices=sorted(STRATEGIES), default="beam",
        help="search strategy (default: beam)",
    )
    search.add_argument(
        "--beam-width", type=int, default=4, metavar="W",
        help="frontier width for beam search (default: 4)",
    )
    search.add_argument(
        "--depth", type=int, default=4, metavar="D",
        help="maximum pipeline length (default: 4)",
    )
    search.add_argument(
        "--budget", type=int, default=200, metavar="N",
        help="candidate evaluations allowed per program (default: 200)",
    )
    search.add_argument(
        "--seed", type=int, default=0,
        help="strategy seed; same seed, same best pipeline and visit "
        "order (default: 0)",
    )
    search.add_argument(
        "--iterations", type=int, default=4, metavar="N",
        help="rounds for iterated greedy (default: 4)",
    )
    search.add_argument(
        "--model", choices=sorted(MODELS_BY_NAME),
        default="multiprocessor",
        help="objective machine model (default: multiprocessor)",
    )
    search.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="evaluate candidates through an optimization service "
        "with N workers (default: 0, serial in-process)",
    )
    search.add_argument(
        "--backend", choices=["inprocess", "process"], default="process",
        help="service backend for --workers (default: process)",
    )
    search.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="evaluate candidates through a running 'genesis serve "
        "--listen' server (implies service evaluation; --workers/"
        "--backend are ignored)",
    )
    search.add_argument(
        "--once", action="store_true",
        help="apply each pass at its first point only (user-directed "
        "mode)",
    )
    search.add_argument(
        "--no-prune", action="store_true",
        help="do not prune branches converging to a visited "
        "fingerprint",
    )
    search.add_argument(
        "--no-certify", action="store_true",
        help="skip the oracle-certification of winning pipelines",
    )
    search.add_argument(
        "--oracle-trials", type=int, default=3, metavar="N",
        help="seeded oracle environments per certification (default: 3)",
    )
    search.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write every SearchResult as JSON",
    )

    infer = sub.add_parser(
        "infer",
        help="mine, generalize, and admission-certify new GOSpeL specs",
    )
    infer.add_argument(
        "--seed", type=int, default=0,
        help="mining and admission seed; same seed, same admitted "
        "catalog (default: 0)",
    )
    infer.add_argument(
        "--pairs", type=int, default=18, metavar="N",
        help="seeded pair-generator stream length (default: 18, two "
        "passes over the plant templates)",
    )
    infer.add_argument(
        "--trace-programs", type=int, default=24, metavar="N",
        help="fuzz-corpus programs to trace-mine with statement-local "
        "catalog optimizers (default: 24; 0 disables the trace arm)",
    )
    infer.add_argument(
        "--trials", type=int, default=3, metavar="N",
        help="random oracle environments per admission check, on top "
        "of the zeros/ones/halves edge environments (default: 3)",
    )
    infer.add_argument(
        "--corpus-programs", type=int, default=5, metavar="N",
        help="random admission-corpus programs (default: 5)",
    )
    infer.add_argument(
        "--corpus-size", type=int, default=12, metavar="N",
        help="statement budget per corpus program (default: 12)",
    )
    infer.add_argument(
        "--max-windows", type=int, default=None, metavar="N",
        help="cap on mined windows entering the ladder (default: all; "
        "dropped windows are reported, not silent)",
    )
    infer.add_argument(
        "--out", default=None, metavar="DIR",
        help="write admitted .gospel files and shrunk rejection "
        "counterexamples here",
    )
    infer.add_argument(
        "--emit-module", default=None, metavar="FILE",
        help="also render the admitted set as a repro.opts catalog "
        "module (what src/repro/opts/inferred.py is)",
    )
    infer.add_argument(
        "--no-matcher-gate", action="store_true",
        help="skip the matcher shadow gate (gate 5)",
    )
    infer.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the full inference result as JSON",
    )
    infer.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="screen candidates through an optimization service with "
        "N workers (default: 0, serial in-process)",
    )
    infer.add_argument(
        "--backend", choices=["inprocess", "process"], default="process",
        help="service backend for --workers (default: process)",
    )
    infer.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="screen candidates through a running 'genesis serve "
        "--listen' server (--workers/--backend are ignored)",
    )

    serve = sub.add_parser(
        "serve", parents=[service_flags],
        help="run the optimization service over a TCP socket "
        "(--listen) or stdin/stdout (JSON-lines debug fallback)",
    )
    serve.add_argument(
        "--cache-capacity", type=int, default=256, metavar="N",
        help="result-cache entries before LRU eviction (default: 256)",
    )
    serve.add_argument(
        "--listen", default=None, metavar="[HOST:]PORT",
        help="serve the JSON-lines protocol over TCP (port 0 picks a "
        "free port; see --port-file); SIGTERM drains gracefully",
    )
    serve.add_argument(
        "--port-file", default=None, metavar="FILE",
        help="write the bound port here atomically once listening "
        "(the handshake for scripts using --listen :0)",
    )
    serve.add_argument(
        "--cache-disk-mb", type=int, default=64, metavar="MB",
        help="size cap for the --cache-dir tier before oldest-first "
        "GC (default: 64)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=64, metavar="N",
        help="unresolved waits per connection before a retryable "
        "Backpressure rejection (default: 64)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="SECONDS",
        help="seconds in-flight jobs get to land during a drain "
        "(default: 10)",
    )
    serve.add_argument(
        "--chaos-disconnect", type=float, default=0.0, metavar="R",
        help="test-only: sever connections after half a response at "
        "this seeded rate",
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for --chaos-disconnect (default: 0)",
    )
    return parser


def _load_program_arg(text: str):
    if text in SOURCES:
        return parse_program(SOURCES[text])
    return parse_program(Path(text).read_text())


_ALL_SPECS = {
    **STANDARD_SPECS, **EXTENDED_SPECS, **INFERRED_SPECS, **VARIANT_SPECS
}


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.spec in _ALL_SPECS:
        source = _ALL_SPECS[args.spec]
        name = args.name or args.spec
    else:
        source = Path(args.spec).read_text()
        name = args.name or Path(args.spec).stem.upper()
    optimizer = generate_optimizer(
        source, name=name, policy=StrategyPolicy(args.policy)
    )
    print(optimizer.source)
    print(f"# {optimizer.describe()}", file=sys.stderr)
    for warning in optimizer.warnings:
        print(f"# warning: {warning}", file=sys.stderr)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    program = _load_program_arg(args.program)
    names = tuple(name.strip().upper() for name in args.opts.split(","))
    from repro.opts.catalog import build_optimizer

    optimizers = {
        name: (
            standard_optimizers((name,))[name]
            if name in STANDARD_SPECS
            else build_optimizer(name)
        )
        for name in names
    }
    options = DriverOptions(
        apply_all=not args.once,
        verify=args.verify,
        on_failure=args.on_failure,
        max_rollbacks=args.max_rollbacks,
        deadline_seconds=args.deadline,
    )
    from repro.analysis.manager import AnalysisManager
    from repro.genesis.transaction import HealthLedger

    manager = AnalysisManager(program)
    health = HealthLedger()
    rollbacks = 0
    for name in names:
        result = run_optimizer(
            optimizers[name], program, options, manager=manager,
            health=health,
        )
        rollbacks += result.rollbacks
        print(result)
    if health.quarantined():
        print(f"quarantined: {', '.join(health.quarantined())}")
    if args.verify:
        if rollbacks:
            print(
                f"{rollbacks} application(s) failed and were rolled "
                "back; the surviving program is verified "
                "semantics-preserving"
            )
        else:
            print("all applications verified semantics-preserving")
    if args.analysis_stats:
        print(manager.stats.summary())
        from repro.genesis.matching import engine_for

        print(engine_for(manager).stats.summary())
    if args.show:
        print(format_program(program))
    if args.save:
        from repro.frontend.unparse import unparse_program

        Path(args.save).write_text(unparse_program(program))
        print(f"saved optimized source to {args.save}")
    return 0


def _cmd_interact(args: argparse.Namespace) -> int:
    program = _load_program_arg(args.program)
    names = tuple(name.strip().upper() for name in args.opts.split(","))
    session = OptimizerSession(program=program)
    for optimizer in standard_optimizers(names).values():
        session.register(optimizer)
    print("GENesis interactive optimizer. Type 'help' or 'quit'.")
    while True:
        try:
            command = input("genesis> ").strip()
        except EOFError:
            break
        if command in ("quit", "exit", "q"):
            break
        if command == "help":
            print(OptimizerSession.execute_command.__doc__)
            continue
        try:
            output = session.execute_command(command)
        except SessionError as error:
            output = f"error: {error}"
        if output:
            print(output)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.only is None:
        if args.parallel:
            with _service_client(
                args, backend="process", max_workers=args.workers
            ) as client:
                report = run_all_experiments(client=client)
        else:
            report = run_all_experiments()
        text = report.render()
        status = "ALL CLAIMS REPRODUCED" if report.all_claims_hold() else (
            "SOME CLAIMS FAILED"
        )
        text += f"\n\n{status}\n"
    else:
        chunks = []
        wanted = {part.strip().upper() for part in args.only.split(",")}
        if "E1" in wanted:
            chunks.append(run_quality().table())
        if "E2" in wanted:
            chunks.append(run_applicability().table())
        if "E3" in wanted:
            chunks.append(run_enabling_matrix().table())
        if "E4" in wanted:
            ordering = run_ordering()
            chunks.append(ordering.table())
            chunks.append(ordering.claims_table())
        if "E5" in wanted:
            chunks.append(run_costbenefit().table())
        if "E6" in wanted:
            chunks.append(run_lur_variants().table())
            chunks.append(run_membership_strategies().table())
        text = "\n\n".join(chunks) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    from repro.genesis.constructor import construct_package

    names = [name.strip().upper() for name in args.opts.split(",")]
    package = construct_package(names, args.directory)
    print(f"constructed optimizer package at {package}")
    print(f"run it with: python {package} <program.f> --show")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify import FuzzConfig, replay_repro, run_fuzz

    if args.replay is not None:
        report, applied = replay_repro(args.replay)
        print(f"replayed {args.replay}: {applied} application(s)")
        print(report.summary())
        return 0 if report.equivalent else 1

    from repro.opts.specs import PAPER_TEN

    if args.opts is None:
        opt_names = PAPER_TEN
    else:
        opt_names = tuple(
            name.strip().upper() for name in args.opts.split(",")
        )
    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        opt_names=opt_names,
        size=args.size,
        trials=args.trials,
        pipeline=not args.no_pipeline,
        shrink=not args.no_shrink,
        out_dir=args.out,
    )
    if args.workers > 0:
        with _service_client(
            args, backend="process", max_workers=args.workers
        ) as client:
            report = run_fuzz(config, progress=print, client=client)
    else:
        report = run_fuzz(config, progress=print)
    print(report.summary())
    if report.ok:
        if report.checks == 0:
            print("OK (vacuously): no optimization applied to any "
                  "checked program")
            return 0
        print(
            f"OK: all {len(opt_names)} optimization(s) semantics-"
            "preserving on every checked program"
        )
        return 0
    for failure in report.failures:
        if failure.shrunk_source and failure.repro_path is None:
            print(f"--- shrunk counterexample "
                  f"({'+'.join(failure.opt_names)}) ---")
            print(failure.shrunk_source, end="")
    return 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.genesis.driver import DriverOptions as _DriverOptions
    from repro.opts.specs import PAPER_TEN
    from repro.verify import ChaosConfig, run_chaos

    if args.network:
        from repro.verify.netchaos import NetChaosConfig, run_network_chaos

        report = run_network_chaos(
            NetChaosConfig(
                seed=args.seed,
                rounds=args.rounds,
                jobs=args.jobs,
            ),
            progress=print,
        )
        print(report.summary())
        return 0 if report.ok else 1

    if args.opts is None:
        opt_names = PAPER_TEN
    else:
        opt_names = tuple(
            name.strip().upper() for name in args.opts.split(",")
        )
    program_names = None
    if args.programs is not None:
        program_names = [
            name.strip() for name in args.programs.split(",")
        ]
        unknown = [name for name in program_names if name not in SOURCES]
        if unknown:
            raise SessionError(
                f"unknown workload(s): {', '.join(unknown)}; "
                f"known: {', '.join(SOURCES)}"
            )
    config = ChaosConfig(
        seed=args.seed,
        act_fault_rate=args.fault_rate,
        corrupt_rate=args.corrupt_rate,
        stall_rate=args.stall_rate,
    )
    options = _DriverOptions(
        apply_all=True,
        validate=True,
        max_rollbacks=args.max_rollbacks,
        deadline_seconds=args.deadline,
        max_match_attempts=200_000,
    )
    if args.workers > 0:
        with _service_client(
            args, backend="process", max_workers=args.workers
        ) as client:
            report = run_chaos(
                config,
                opt_names=opt_names,
                program_names=program_names,
                options=options,
                quarantine_after=args.quarantine_after,
                client=client,
            )
    else:
        report = run_chaos(
            config,
            opt_names=opt_names,
            program_names=program_names,
            options=options,
            quarantine_after=args.quarantine_after,
        )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_suite(_args: argparse.Namespace) -> int:
    for name, source in SOURCES.items():
        lines = source.strip().count("\n") + 1
        print(f"{name:<12} {lines:>4} lines")
    return 0


# ----------------------------------------------------------------------
# the optimization service verbs
# ----------------------------------------------------------------------
def _service_client(args: argparse.Namespace, **overrides):
    connect = getattr(args, "connect", None)
    if connect:
        from repro.service.net.client import (
            NetworkServiceClient,
            RetryPolicy,
        )
        from repro.service.net.server import _parse_hostport

        host, port = _parse_hostport(connect)
        return NetworkServiceClient(
            host,
            port,
            connect_timeout=getattr(args, "connect_timeout", 2.0),
            request_timeout=getattr(args, "request_timeout", 120.0),
            retry=RetryPolicy(
                attempts=getattr(args, "retry_attempts", 5)
            ),
            log=lambda message: print(
                message, file=sys.stderr, flush=True
            ),
        )
    from repro.service import ServiceClient

    settings = {
        "backend": getattr(args, "backend", "process"),
        "max_workers": getattr(args, "workers", 4),
        "queue_limit": getattr(args, "queue_limit", 256),
        "cache_dir": getattr(args, "cache_dir", None),
        "default_deadline": getattr(args, "job_deadline", None),
    }
    settings.update(overrides)
    return ServiceClient(**settings)


def _load_source_arg(text: str) -> tuple[str, str]:
    """Resolve a CLI program argument to (label, mini-Fortran text)."""
    if text in SOURCES:
        return text, SOURCES[text]
    return Path(text).stem, Path(text).read_text()


def _parse_opt_names(opts: str) -> tuple[str, ...]:
    from repro.opts.extended import EXTENDED_SPECS
    from repro.opts.inferred import INFERRED_SPECS
    from repro.opts.specs import STANDARD_SPECS, VARIANT_SPECS

    names = tuple(name.strip().upper() for name in opts.split(","))
    for name in names:
        if not (
            name in STANDARD_SPECS
            or name in EXTENDED_SPECS
            or name in INFERRED_SPECS
            or name in VARIANT_SPECS
        ):
            raise KeyError(
                f"unknown optimization {name!r}; catalog has "
                f"{sorted(STANDARD_SPECS) + sorted(EXTENDED_SPECS) + sorted(INFERRED_SPECS) + sorted(VARIANT_SPECS)}"
            )
    return names


def _cmd_submit(args: argparse.Namespace) -> int:
    _, source = _load_source_arg(args.program)
    with _service_client(args) as client:
        result = client.optimize_source(
            source, _parse_opt_names(args.opts),
            DriverOptions(apply_all=True),
        )
    print(result)
    for optimizer, reason in result.stopped.items():
        print(f"  stopped {optimizer}: {reason}")
    if result.quarantined:
        print(f"  quarantined: {', '.join(result.quarantined)}")
    if args.show and result.source is not None:
        print(result.source, end="")
    return 0 if result.ok else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service.job import Job

    labelled = [_load_source_arg(item) for item in args.programs]
    opt_names = _parse_opt_names(args.opts)
    options = DriverOptions(apply_all=True)
    with _service_client(args) as client:
        results = client.run_batch(
            [
                Job.from_source(source, opt_names, options)
                for _, source in labelled
            ]
        )
        stats = client.stats
    failed = 0
    for (label, _), result in zip(labelled, results):
        print(f"{label:<12} {result}")
        if not result.ok:
            failed += 1
    print(stats)
    if args.json:
        Path(args.json).write_text(
            _json.dumps(
                {
                    "results": [result.to_dict() for result in results],
                    "stats": str(stats),
                },
                indent=2,
            )
        )
        print(f"results written to {args.json}")
    return 0 if failed == 0 else 1


def _cmd_search(args: argparse.Namespace) -> int:
    import json as _json

    from repro.opts.specs import PAPER_TEN
    from repro.search import SearchConfig, certify, search_program

    config = SearchConfig(
        opt_names=(
            PAPER_TEN if args.opts is None
            else _parse_opt_names(args.opts)
        ),
        strategy=args.strategy,
        depth=args.depth,
        beam_width=args.beam_width,
        budget=args.budget,
        seed=args.seed,
        iterations=args.iterations,
        objective=args.model,
        prune=not args.no_prune,
        apply_all=not args.once,
    )
    if args.programs:
        targets = [_load_source_arg(item) for item in args.programs]
    else:
        targets = list(SOURCES.items())

    results = []

    def run(client=None) -> None:
        for label, source in targets:
            result = search_program(
                source, config, client=client, name=label
            )
            if not args.no_certify:
                certify(
                    result,
                    source,
                    trials=args.oracle_trials,
                    seed=args.seed,
                    options=config.driver_options(),
                )
            results.append(result)
            print(result.summary())

    if args.connect or args.workers > 0:
        with _service_client(args, max_workers=args.workers) as client:
            run(client)
    else:
        run()
    if args.json:
        Path(args.json).write_text(
            _json.dumps(
                [result.to_dict() for result in results], indent=2
            )
        )
        print(f"results written to {args.json}")
    return 0 if all(r.certified is not False for r in results) else 1


def _cmd_infer(args: argparse.Namespace) -> int:
    import json as _json

    from repro.synth.infer import (
        InferenceConfig,
        emit_module,
        run_inference,
    )

    config = InferenceConfig(
        seed=args.seed,
        pairs=args.pairs,
        trace_programs=args.trace_programs,
        corpus_programs=args.corpus_programs,
        corpus_size=args.corpus_size,
        trials=args.trials,
        out_dir=Path(args.out) if args.out else None,
        matcher_gate=not args.no_matcher_gate,
        max_windows=args.max_windows,
    )

    def run(client=None):
        return run_inference(
            config, client=client, progress=lambda line: print(f"  {line}")
        )

    if args.connect or args.workers > 0:
        with _service_client(args, max_workers=args.workers) as client:
            result = run(client)
    else:
        result = run()
    print(result.summary())
    if args.emit_module:
        Path(args.emit_module).write_text(emit_module(result))
        print(f"catalog module written to {args.emit_module}")
    if args.json:
        Path(args.json).write_text(
            _json.dumps(
                {
                    "windows": result.windows,
                    "screened": result.screened,
                    "elapsed_seconds": result.elapsed_seconds,
                    "admitted": [
                        {
                            "name": spec.name,
                            "origin": spec.origin,
                            "rung": spec.rung,
                            "rung_label": spec.rung_label,
                            "applications": spec.applications,
                            "fingerprint": spec.fingerprint,
                            "source": spec.source,
                        }
                        for spec in result.admitted
                    ],
                    "rejections": [
                        {
                            "name": report.name,
                            "rung": report.rung,
                            "gate": report.rejected_gate,
                            "counterexample": (
                                str(report.counterexample)
                                if report.counterexample
                                else None
                            ),
                        }
                        for report in result.rejections
                    ],
                    "duplicates": dict(result.duplicates),
                    "skipped_windows": dict(result.skipped_windows),
                },
                indent=2,
            )
        )
        print(f"results written to {args.json}")
    return 0 if result.admitted else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """The JSON-lines service: over TCP with --listen (concurrent
    sessions, events, graceful drain), else over stdin/stdout as a
    single-session debug fallback (same dialect, same job spellings —
    see docs/service.md)."""
    import json as _json

    from repro.service.net.protocol import job_from_request

    if args.listen is not None:
        from repro.service.net.server import (
            ServeConfig,
            _parse_hostport,
            run_server,
        )

        host, port = _parse_hostport(args.listen)
        return run_server(ServeConfig(
            host=host,
            port=port,
            backend=args.backend,
            max_workers=args.workers,
            queue_limit=args.queue_limit,
            cache_capacity=args.cache_capacity,
            cache_dir=args.cache_dir,
            cache_disk_bytes=args.cache_disk_mb * 1024 * 1024,
            default_deadline=args.job_deadline,
            max_pending=args.max_pending,
            drain_grace=args.drain_grace,
            port_file=args.port_file,
            chaos_disconnect=args.chaos_disconnect,
            chaos_seed=args.chaos_seed,
        ))

    def emit(payload: dict) -> None:
        print(_json.dumps(payload), flush=True)

    client = _service_client(
        args,
        cache_capacity=args.cache_capacity,
        log=lambda message: print(message, file=sys.stderr, flush=True),
    )
    with client:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                request = _json.loads(line)
            except _json.JSONDecodeError as error:
                emit({"error": f"bad JSON: {error}"})
                continue
            if not isinstance(request, dict):
                emit({"error": "request must be a JSON object"})
                continue
            command = request.get("cmd")
            try:
                if command == "quit":
                    break
                if command == "stats":
                    emit({"stats": str(client.stats)})
                elif command == "wait":
                    result = client.wait(
                        int(request["job_id"]),
                        timeout=request.get("timeout"),
                    )
                    emit(result.to_dict())
                else:
                    job_id = client.submit(job_from_request(request))
                    if request.get("wait", True):
                        emit(client.wait(job_id).to_dict())
                    else:
                        emit({"job_id": job_id, "status": "queued"})
            except _BOUNDARY_ERRORS as error:
                emit({"error": str(error) or type(error).__name__})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
