"""The constructed optimizer's interactive interface.

Paper Figure 4, step 3: "the constructor packages all of the produced
code and the library routines within an interface, which prompts
interaction with the user": read the source, convert to intermediate
code, compute dependences, then repeatedly let the user

1. select optimization(s) to perform,
2. select application points,
3. override dependence restrictions,

perform the optimization, and optionally recompute dependences between
executions.  :class:`OptimizerSession` is that interface in scriptable
form; :meth:`OptimizerSession.execute_command` adds a tiny textual
command language so the CLI (and tests) can drive it like the paper's
prompt-driven tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.graph import DependenceGraph
from repro.analysis.manager import AnalysisManager, AnalysisStats
from repro.frontend.lower import parse_program
from repro.genesis.cost import ApplicationRecord
from repro.genesis.driver import (
    DriverOptions,
    DriverResult,
    apply_at_point,
    find_application_points,
    run_optimizer,
)
from repro.genesis.generator import GeneratedOptimizer
from repro.genesis.matching import MatchStats, engine_for
from repro.genesis.transaction import HealthLedger
from repro.ir.printer import format_program
from repro.ir.program import Program


class SessionError(Exception):
    """Raised for bad interactive requests (unknown optimizer, point)."""


@dataclass
class SessionEvent:
    """One entry of the session history.

    Failed requests are history too: ``error`` carries the diagnostic
    of a rejected or malformed command, so an interactive transcript
    shows what was *attempted*, not only what succeeded.
    """

    command: str
    result: Optional[DriverResult] = None
    error: Optional[str] = None
    note: Optional[str] = None

    def __str__(self) -> str:
        if self.error is not None:
            return f"{self.command} -> error: {self.error}"
        text = self.command
        if self.result is not None:
            text += f" -> {self.result}"
        if self.note is not None:
            text += f" ({self.note})"
        return text


@dataclass
class OptimizerSession:
    """A constructed optimizer: program + generated optimizations.

    The session owns a working copy of the program; the original is
    kept for before/after comparisons.

    With ``recompute_dependences`` off (``recompute off``), the
    optimizers see the dependences as last computed: the graph of the
    session's :class:`AnalysisManager` as of its last refresh.  A
    recompute-on ``apply`` refreshes it between its applications, so
    it can be newer than the graph that apply started from.  Only
    ``deps``, or recomputation turned back on, refreshes it again.
    """

    program: Program
    optimizers: dict[str, GeneratedOptimizer] = field(default_factory=dict)
    #: recompute dependences between optimizer executions (step 3.b.vi)
    recompute_dependences: bool = True
    #: differential-test every application against the equivalence
    #: oracle (``verify on`` in the command language)
    verify: bool = False
    #: consecutive rolled-back failures before an optimizer is
    #: quarantined for the rest of the session
    quarantine_after: int = 5
    history: list[SessionEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.original = self.program.clone()
        self._manager = AnalysisManager(self.program)
        #: per-optimizer circuit breaker shared across the session
        self.health = HealthLedger(quarantine_after=self.quarantine_after)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_source(
        cls,
        source: str,
        optimizers: Sequence[GeneratedOptimizer] = (),
        quarantine_after: int = 5,
    ) -> "OptimizerSession":
        """Read source code and convert it to intermediate code
        (interface steps i and ii)."""
        session = cls(
            program=parse_program(source),
            quarantine_after=quarantine_after,
        )
        for optimizer in optimizers:
            session.register(optimizer)
        return session

    def register(self, optimizer: GeneratedOptimizer) -> None:
        """Add a generated optimization to the session."""
        self.optimizers[optimizer.name] = optimizer

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    @property
    def dependences(self) -> DependenceGraph:
        """The dependence graph of the current program version.

        Served by the session's :class:`AnalysisManager`: cached per
        program version and refreshed incrementally from the change
        log rather than rebuilt from scratch.
        """
        return self._manager.graph()

    @property
    def analysis_stats(self) -> AnalysisStats:
        """Cache/incremental-update counters of the session's manager."""
        return self._manager.stats

    @property
    def match_stats(self) -> MatchStats:
        """Match-engine counters: candidates scanned, index hits,
        worklist-served vs full sweeps."""
        return engine_for(self._manager).stats

    def _maybe_graph(self) -> DependenceGraph:
        """Graph to hand to the driver: with recomputation off, the
        manager's graph as of its last refresh (stale on purpose)."""
        if not self.recompute_dependences:
            stale = self._manager.last_graph()
            if stale is not None:
                return stale
        return self.dependences

    def list_optimizations(self) -> list[str]:
        """Names of the registered optimizations."""
        return sorted(self.optimizers)

    def _optimizer(self, name: str) -> GeneratedOptimizer:
        optimizer = self.optimizers.get(name)
        if optimizer is None:
            raise SessionError(
                f"no optimization named {name!r}; registered: "
                f"{self.list_optimizations()}"
            )
        return optimizer

    def points(
        self, name: str, override_dependences: bool = False
    ) -> list[dict[str, object]]:
        """Application points of one optimization on the current code.

        With ``override_dependences`` the Depend section's ``no``
        restrictions are ignored: this is the listing that
        ``apply(name, point=N, override_dependences=True)`` counts
        through.
        """
        return find_application_points(
            self._optimizer(name),
            self.program,
            self._maybe_graph(),
            enforce_restrictions=not override_dependences,
            manager=self._manager,
        )

    # ------------------------------------------------------------------
    # applying optimizations
    # ------------------------------------------------------------------
    def apply(
        self,
        name: str,
        point: Optional[int] = None,
        all_points: bool = False,
        override_dependences: bool = False,
    ) -> DriverResult:
        """Perform an optimization (interface step v).

        ``point`` selects the N-th application point; ``all_points``
        applies everywhere; neither applies at the first point.
        ``override_dependences`` ignores the Depend section's ``no``
        restrictions (step 3.b.iii.3 — the user takes responsibility
        for safety).

        Every application is transactional: a failing ``act`` (or a
        validation/verification failure) rolls the program back and is
        recorded on the returned result, never corrupting the session.
        An optimizer the circuit breaker has quarantined is refused
        with :class:`SessionError` until ``revive`` clears it.
        """
        command = f"apply {name}"
        try:
            optimizer = self._optimizer(name)
            if self.health.is_quarantined(name):
                entry = self.health.entry(name)
                raise SessionError(
                    f"{name} is quarantined ({entry.reason}); "
                    f"'revive {name}' to re-enable it"
                )
            graph = self._maybe_graph()
        except SessionError as error:
            self.history.append(
                SessionEvent(command=command, error=str(error))
            )
            raise
        options = DriverOptions(
            apply_all=all_points,
            recompute_dependences=self.recompute_dependences,
            enforce_restrictions=not override_dependences,
            verify=self.verify,
        )
        if point is not None:
            result = apply_at_point(
                optimizer, self.program, point, graph=graph,
                manager=self._manager, options=options,
            )
        else:
            result = run_optimizer(
                optimizer, self.program, options, graph,
                manager=self._manager, health=self.health,
            )
        note = None
        if point is not None:
            for failure in result.failures:
                self.health.record_rollback(name, failure)
            if result.applied:
                self.health.record_success(name)
            elif not result.failures:
                note = (
                    f"no application point {point} (the program may "
                    f"have changed since 'points')"
                )
        self.history.append(
            SessionEvent(command=command, result=result, note=note)
        )
        return result

    def apply_sequence(
        self, names: Sequence[str], all_points: bool = True
    ) -> list[DriverResult]:
        """Run several optimizations in the given order.

        "For a sequence of optimizations to be applied to program code,
        the various optimizers are called in the desired sequence."
        """
        return [self.apply(name, all_points=all_points) for name in names]

    def search(
        self,
        strategy: str = "beam",
        depth: int = 3,
        budget: int = 60,
        beam_width: int = 4,
        seed: int = 0,
        apply_winner: bool = False,
    ):
        """Search pass orderings of the registered optimizations.

        Runs a seeded phase-ordering search (:mod:`repro.search`) over
        the *current* program, oracle-certifies the winning pipeline,
        and — with ``apply_winner`` — applies the winning sequence to
        the session program through :meth:`apply_sequence`.  Returns
        the :class:`repro.search.SearchResult`.
        """
        from repro.search import (
            SearchConfig,
            SearchError,
            certify,
            search_program,
        )

        command = f"search {strategy} depth={depth} budget={budget}"
        names = tuple(self.list_optimizations())
        try:
            if not names:
                raise SessionError(
                    "no optimizations registered to search over"
                )
            try:
                config = SearchConfig(
                    opt_names=names,
                    strategy=strategy,
                    depth=depth,
                    budget=budget,
                    beam_width=beam_width,
                    seed=seed,
                )
                source = self.source_text()
                result = search_program(
                    source, config, name=self.program.name
                )
                certify(
                    result, source, seed=seed,
                    options=config.driver_options(),
                )
            except SearchError as error:
                raise SessionError(str(error)) from error
        except SessionError as error:
            self.history.append(
                SessionEvent(command=command, error=str(error))
            )
            raise
        self.history.append(
            SessionEvent(
                command=command,
                note=f"best {result.pipeline_text()}",
            )
        )
        if apply_winner and result.best_sequence:
            self.apply_sequence(result.best_sequence)
        return result

    def infer(self, pairs: int = 18, seed: int = 0):
        """Mine and admission-certify new specs; register the winners.

        Runs the spec-inference harness (:mod:`repro.synth`) with its
        seeded pair generator, registers every admitted optimizer into
        this session (so ``points``/``apply``/``search`` see them
        immediately), and returns the
        :class:`repro.synth.infer.InferenceResult`.  The trace-mining
        arm is left off here — a session wants fast turnaround; use
        ``genesis infer`` for full campaigns.
        """
        from repro.synth.infer import InferenceConfig, run_inference

        command = f"infer pairs={pairs} seed={seed}"
        try:
            result = run_inference(
                InferenceConfig(
                    seed=seed, pairs=pairs, trace_programs=0
                )
            )
        except Exception as error:
            raise self._record_error(command, str(error)) from error
        for admitted in result.admitted:
            self.register(admitted.optimizer())
        self.history.append(
            SessionEvent(
                command=command,
                note=(
                    f"admitted {len(result.admitted)} spec(s): "
                    + ", ".join(s.name for s in result.admitted)
                    if result.admitted
                    else "admitted 0 specs"
                ),
            )
        )
        return result

    def reset(self) -> None:
        """Restore the original program (fresh experiment)."""
        self.program = self.original.clone()
        self._manager = AnalysisManager(self.program)
        self.history.append(SessionEvent(command="reset"))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def applications(self) -> list[ApplicationRecord]:
        """Every application performed this session, in order."""
        records: list[ApplicationRecord] = []
        for event in self.history:
            if event.result is not None:
                records.extend(event.result.applications)
        return records

    def show(self) -> str:
        """The current intermediate code, printed."""
        return format_program(self.program)

    def source_text(self) -> str:
        """The current program as compilable mini-Fortran source."""
        from repro.frontend.unparse import unparse_program

        return unparse_program(self.program, name=self.program.name)

    # ------------------------------------------------------------------
    # the textual command interface
    # ------------------------------------------------------------------
    def execute_command(self, command: str) -> str:
        """One interactive command; returns the printable response.

        Commands::

            list                      registered optimizations
            points <OPT>              application points of <OPT>
            points <OPT> override     ...ignoring 'no' deps (the
                                      listing 'override' counts through)
            apply <OPT>               apply at the first point
            apply <OPT> all           apply at all points
            apply <OPT> <N>           apply at point N
            override <OPT> <N>        apply at point N ignoring 'no' deps
            recompute on|off          toggle dependence recomputation
            verify on|off             oracle-check every application
            deps                      dependence summary
            stats                     analysis + matching + health counters
            health                    per-optimizer rollback/quarantine
            revive <OPT>              clear <OPT>'s quarantine
            search [STRAT] [D] [B]    search pass orderings (certified)
            search apply [STRAT] ...  ...and apply the winning sequence
            infer [PAIRS] [SEED]      mine + certify new specs; register
                                      the admitted optimizers
            show                      print the intermediate code
            save <file>               write the program as source text
            history                   session history
            reset                     restore the original program

        A malformed or rejected command never aborts the session: it
        is recorded in the history as a failed :class:`SessionEvent`
        and reported as :class:`SessionError`.
        """
        try:
            return self._dispatch_command(command)
        except SessionError as error:
            # guarantee the failed attempt is in the history exactly
            # once (apply/revive record their own richer events)
            last = self.history[-1] if self.history else None
            if last is None or last.error != str(error):
                self.history.append(
                    SessionEvent(command=command, error=str(error))
                )
            raise
        except ValueError as error:
            failure = SessionError(f"malformed command {command!r}: {error}")
            self.history.append(
                SessionEvent(command=command, error=str(failure))
            )
            raise failure from error

    def _dispatch_command(self, command: str) -> str:
        words = command.split()
        if not words:
            return ""
        verb = words[0].lower()
        if verb == "list":
            return "\n".join(self.list_optimizations())
        override = len(words) == 3 and words[2].lower() == "override"
        if verb == "points" and (len(words) == 2 or override):
            points = self.points(words[1], override_dependences=override)
            lines = [
                f"{index}: "
                + ", ".join(f"{k}={v}" for k, v in sorted(point.items()))
                for index, point in enumerate(points)
            ]
            return "\n".join(lines) if lines else "(no application points)"
        if verb == "apply" and len(words) >= 2:
            name = words[1]
            if len(words) == 2:
                return str(self.apply(name))
            if words[2].lower() == "all":
                return str(self.apply(name, all_points=True))
            return str(self.apply(name, point=int(words[2])))
        if verb == "override" and len(words) == 3:
            return str(
                self.apply(words[1], point=int(words[2]),
                           override_dependences=True)
            )
        if verb == "recompute" and len(words) == 2:
            self.recompute_dependences = words[1].lower() == "on"
            return f"recompute_dependences = {self.recompute_dependences}"
        if verb == "verify" and len(words) == 2:
            self.verify = words[1].lower() == "on"
            return f"verify = {self.verify}"
        if verb == "deps":
            summary = self.dependences.summary()
            return ", ".join(f"{k}: {v}" for k, v in summary.items())
        if verb == "stats":
            return (
                self.analysis_stats.summary()
                + "\n" + self.match_stats.summary()
                + "\n" + self.health.summary()
            )
        if verb == "health":
            return self.health.summary()
        if verb == "revive" and len(words) == 2:
            name = words[1]
            if name not in self.optimizers:
                raise self._record_error(
                    command, f"no optimization named {name!r}"
                )
            self.health.revive(name)
            self.history.append(SessionEvent(command=command))
            return f"{name} revived"
        if verb == "search":
            rest = list(words[1:])
            apply_winner = bool(rest) and rest[0].lower() == "apply"
            if apply_winner:
                rest = rest[1:]
            strategy = rest[0] if len(rest) >= 1 else "beam"
            depth = int(rest[1]) if len(rest) >= 2 else 3
            budget = int(rest[2]) if len(rest) >= 3 else 60
            result = self.search(
                strategy=strategy, depth=depth, budget=budget,
                apply_winner=apply_winner,
            )
            return result.summary()
        if verb == "infer":
            pairs = int(words[1]) if len(words) >= 2 else 18
            seed = int(words[2]) if len(words) >= 3 else 0
            result = self.infer(pairs=pairs, seed=seed)
            return result.summary()
        if verb == "show":
            return self.show()
        if verb == "save" and len(words) == 2:
            from pathlib import Path

            Path(words[1]).write_text(self.source_text())
            return f"wrote {words[1]}"
        if verb == "history":
            return "\n".join(str(event) for event in self.history) or "(empty)"
        if verb == "reset":
            self.reset()
            return "program restored"
        raise self._record_error(command, f"unknown command {command!r}")

    def _record_error(self, command: str, message: str) -> SessionError:
        """Log a failed command to the history; returns the error."""
        self.history.append(SessionEvent(command=command, error=message))
        return SessionError(message)
