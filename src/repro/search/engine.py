"""The phase-ordering search engine.

The engine owns everything the strategies share: the service-backed
evaluator (see :mod:`repro.search.space`), the budget, the
fingerprint-keyed transposition table that prunes convergent branches,
the text-keyed memo that parses and scores each distinct state once,
the deterministic visit log, and the incumbent best.  A
:class:`~repro.search.strategy.SearchStrategy` only decides *which*
states to extend next; the engine decides what an extension costs and
what it produced.

Determinism is a contract, not an accident: candidate passes are
always tried in a stable order, ties in candidate ranking break on the
pass sequence itself, the only randomness is a ``random.Random`` seeded
from the config, and the incumbent is replaced only on a *strictly*
better score — so the reported best is the first visit that achieved
it, and ``same seed ⇒ same best pipeline, same visit order`` holds
bit-for-bit (the ``tests/search`` property suite replays this).

Every reported pipeline is routed through the PR 1 differential-testing
oracle before it is believed: :func:`certify` replays the sequence
through the ordinary driver pipeline, asserts the replay reaches the
recorded fingerprint, and then checks semantic equivalence against the
base program on randomized seeded environments.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.frontend.lower import parse_program
from repro.genesis.driver import DriverOptions
from repro.ir.program import Program
from repro.machine.estimate import estimate_time
from repro.machine.models import ALL_MODELS, MachineModel
from repro.search.space import (
    EvalRequest,
    EvaluatorStats,
    SearchError,
    SearchNode,
    ServiceEvaluator,
    canonical_source,
)
from repro.service.client import ServiceClient
from repro.service.job import JobResult

#: The objective machine models by CLI/config name.
MODELS_BY_NAME: dict[str, MachineModel] = {
    model.name: model for model in ALL_MODELS
}


@dataclass
class SearchConfig:
    """Knobs of one phase-ordering search."""

    #: the candidate passes (catalog names); order is the tie-break
    opt_names: tuple[str, ...]
    #: strategy name from :data:`repro.search.strategy.STRATEGIES`
    strategy: str = "beam"
    #: maximum pipeline length explored
    depth: int = 4
    #: frontier width for beam search
    beam_width: int = 4
    #: total candidate evaluations allowed (cache hits included —
    #: the budget bounds *exploration*, the cache bounds *work*)
    budget: int = 200
    #: seed for the strategy's random choices (iterated greedy)
    seed: int = 0
    #: greedy reconstruction rounds for iterated greedy
    iterations: int = 4
    #: objective machine model name (score = estimated cycles under it)
    objective: str = "multiprocessor"
    #: prune states whose fingerprint was already visited
    prune: bool = True
    #: may a pass appear more than once in a sequence
    allow_repeats: bool = True
    #: keep full-depth trajectories (exhaustive studies read these)
    record_leaves: bool = False
    #: driver knobs for every evaluation; ``apply_all=False`` applies
    #: each pass at its first point only, the user-directed mode the
    #: ordering experiment reproduces
    options: DriverOptions = field(
        default_factory=lambda: DriverOptions(apply_all=True)
    )

    def __post_init__(self) -> None:
        self.opt_names = tuple(self.opt_names)
        if not self.opt_names:
            raise SearchError("search needs at least one candidate pass")
        if self.depth < 1:
            raise SearchError("search depth must be >= 1")
        if self.budget < 1:
            raise SearchError("search budget must be >= 1")
        if self.beam_width < 1:
            raise SearchError("beam width must be >= 1")
        if self.objective not in MODELS_BY_NAME:
            raise SearchError(
                f"unknown objective model {self.objective!r}; "
                f"known: {sorted(MODELS_BY_NAME)}"
            )

    def driver_options(self) -> DriverOptions:
        return self.options


@dataclass
class SearchResult:
    """What one search found, in report-ready form."""

    name: str
    strategy: str
    seed: int
    opt_names: tuple[str, ...]
    depth: int
    beam_width: int
    budget: int
    objective: str
    prune: bool
    #: estimated cycles of the base program under every machine model
    baseline_cycles: dict[str, float] = field(default_factory=dict)
    best_sequence: tuple[str, ...] = ()
    best_fingerprint: str = ""
    best_source: str = ""
    best_score: float = 0.0
    #: estimated cycles of the best program under every machine model
    best_cycles: dict[str, float] = field(default_factory=dict)
    #: baseline - best, per machine model (positive = faster)
    benefit: dict[str, float] = field(default_factory=dict)
    evaluator: EvaluatorStats = field(default_factory=EvaluatorStats)
    #: states dropped because their fingerprint was already visited
    pruned: int = 0
    #: whether the budget ran out before the strategy finished
    exhausted: bool = False
    #: every evaluated extension's resulting sequence, in order
    visit_order: list[tuple[str, ...]] = field(default_factory=list)
    #: full-depth trajectories (``record_leaves`` searches only)
    leaves: list[SearchNode] = field(default_factory=list)
    #: oracle verdict: None = not checked, True/False = checked
    certified: Optional[bool] = None
    oracle_trials: int = 0
    oracle_summary: str = ""
    elapsed_seconds: float = 0.0

    @property
    def backend_executions(self) -> int:
        return self.evaluator.executed

    @property
    def cache_hits(self) -> int:
        return self.evaluator.cache_hits

    @property
    def improved(self) -> bool:
        return bool(self.best_sequence)

    def pipeline_text(self) -> str:
        return (
            " -> ".join(self.best_sequence)
            if self.best_sequence
            else "(empty: baseline is best found)"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "strategy": self.strategy,
            "seed": self.seed,
            "opt_names": list(self.opt_names),
            "depth": self.depth,
            "beam_width": self.beam_width,
            "budget": self.budget,
            "objective": self.objective,
            "prune": self.prune,
            "baseline_cycles": dict(self.baseline_cycles),
            "best_sequence": list(self.best_sequence),
            "best_fingerprint": self.best_fingerprint,
            "best_score": self.best_score,
            "best_cycles": dict(self.best_cycles),
            "benefit": dict(self.benefit),
            "evaluations": self.evaluator.evaluations,
            "backend_executions": self.evaluator.executed,
            "cache_hits": self.evaluator.cache_hits,
            "failures": self.evaluator.failures,
            "pruned": self.pruned,
            "exhausted": self.exhausted,
            "visit_order": [list(seq) for seq in self.visit_order],
            "certified": self.certified,
            "oracle_trials": self.oracle_trials,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }

    def summary(self) -> str:
        lines = [
            f"{self.name}: best pipeline {self.pipeline_text()}",
            "  benefit: "
            + ", ".join(
                f"{model} {self.benefit.get(model, 0.0):g} cycles"
                f" ({self.baseline_cycles.get(model, 0.0):g} -> "
                f"{self.best_cycles.get(model, 0.0):g})"
                for model in self.baseline_cycles
            ),
            f"  search: {self.evaluator}, {self.pruned} pruned"
            + (", budget exhausted" if self.exhausted else ""),
        ]
        if self.certified is not None:
            verdict = "PASSED" if self.certified else "FAILED"
            lines.append(
                f"  oracle: {verdict} on {self.oracle_trials} seeded "
                f"environment(s)"
            )
        return "\n".join(lines)


class PhaseOrderingEngine:
    """Shared machinery under every search strategy."""

    def __init__(self, config: SearchConfig, client):
        self.config = config
        self.evaluator = ServiceEvaluator(client, config.driver_options())
        self.model = MODELS_BY_NAME[config.objective]
        self.root: Optional[SearchNode] = None
        self.best: Optional[SearchNode] = None
        self.exhausted = False
        self.pruned = 0
        #: fingerprints of every state ever constructed
        self.visited: set[str] = set()
        #: resulting sequence of every evaluation, in order
        self.visit_order: list[tuple[str, ...]] = []
        self.leaves: list[SearchNode] = []
        #: state text -> (fingerprint, score), filled on first sight
        self._measured: dict[str, tuple[str, float]] = {}

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def start(self, source: str) -> SearchNode:
        """Install the root state (the unoptimized program)."""
        fingerprint, score = self._measure(source)
        self.root = SearchNode(
            sequence=(), source=source, fingerprint=fingerprint, score=score
        )
        self.best = self.root
        self.visited.add(self.root.fingerprint)
        return self.root

    def _measure(self, source: str) -> tuple[str, float]:
        """A state text's fingerprint and score, parsed once per text.

        Both are pure functions of the text: parsing is deterministic
        and the objective model is fixed per engine.  The key is the
        text, not a fingerprint a worker reports, because a DOALL loop
        unparses as a commented DO: a PAR result's in-memory
        fingerprint differs from that of its text.
        """
        measured = self._measured.get(source)
        if measured is None:
            program = parse_program(source)
            measured = (
                program.fingerprint(),
                estimate_time(program, self.model).cycles,
            )
            self._measured[source] = measured
        return measured

    def rank(self, node: SearchNode):
        """Deterministic candidate ordering: score, then the sequence."""
        return (node.score, node.depth, node.sequence)

    # ------------------------------------------------------------------
    # budget
    # ------------------------------------------------------------------
    @property
    def remaining_budget(self) -> int:
        return max(0, self.config.budget - self.evaluator.stats.evaluations)

    def candidate_passes(self, node: SearchNode) -> tuple[str, ...]:
        """The passes a node may be extended with, in stable order."""
        if self.config.allow_repeats:
            return self.config.opt_names
        used = set(node.sequence)
        return tuple(
            name for name in self.config.opt_names if name not in used
        )

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def expand(
        self,
        node: SearchNode,
        passes: Optional[Sequence[str]] = None,
        keep_unchanged: bool = False,
        dedup: Optional[bool] = None,
    ) -> list[SearchNode]:
        """All children of ``node``, in candidate order.

        Children whose program is unchanged (the pass found no
        application point) are dropped unless ``keep_unchanged`` —
        exhaustive studies keep them so every full-length ordering is
        enumerated.  With ``dedup`` (default: the config's ``prune``),
        children whose fingerprint was already visited are pruned from
        the returned list and counted.  Budget exhaustion truncates
        the expansion deterministically (earliest candidates first).
        """
        if node.depth >= self.config.depth:
            return []
        wanted = tuple(passes) if passes is not None else (
            self.candidate_passes(node)
        )
        if not wanted:
            return []
        allowance = self.remaining_budget
        if allowance < len(wanted):
            self.exhausted = True
            wanted = wanted[:allowance]
            if not wanted:
                return []
        requests = [EvalRequest(node, name) for name in wanted]
        results = self.evaluator.evaluate(requests)
        prune = self.config.prune if dedup is None else dedup
        children: list[SearchNode] = []
        for request, result in zip(requests, results):
            child = self._admit(request, result)
            if child is None:
                continue
            unchanged = child.fingerprint == node.fingerprint
            if unchanged and not keep_unchanged:
                continue
            if prune and not unchanged and (
                child.fingerprint in self.visited
            ):
                self.pruned += 1
                continue
            self.visited.add(child.fingerprint)
            children.append(child)
        return children

    def _admit(
        self, request: EvalRequest, result: JobResult
    ) -> Optional[SearchNode]:
        """Turn an evaluation's job result into a state; track the best."""
        if not result.ok or result.source is None:
            return None
        fingerprint, score = self._measure(result.source)
        child = SearchNode(
            sequence=request.node.sequence + (request.opt_name,),
            source=result.source,
            fingerprint=fingerprint,
            score=score,
            applied=request.node.applied + (result.applications,),
        )
        self.visit_order.append(child.sequence)
        # strictly-better-only: the incumbent is the *first* visit
        # that achieved its score, which keeps every strategy's best
        # independent of how later duplicates tie-break
        assert self.best is not None
        if child.score < self.best.score:
            self.best = child
        return child

    def extend(self, node: SearchNode, opt_name: str) -> Optional[SearchNode]:
        """One extension, no unchanged/visited filtering (replays)."""
        if self.remaining_budget < 1:
            self.exhausted = True
            return None
        request = EvalRequest(node, opt_name)
        child = self._admit(request, self.evaluator.evaluate([request])[0])
        if child is not None:
            self.visited.add(child.fingerprint)
        return child

    def replay(self, sequence: Sequence[str]) -> Optional[SearchNode]:
        """Walk a known sequence from the root (result-cache hits)."""
        assert self.root is not None
        node: Optional[SearchNode] = self.root
        for name in sequence:
            if node is None:
                return None
            node = self.extend(node, name)
        return node

    def record_leaf(self, node: SearchNode) -> None:
        if self.config.record_leaves:
            self.leaves.append(node)


# ----------------------------------------------------------------------
# running a search
# ----------------------------------------------------------------------
def search_program(
    program,
    config: SearchConfig,
    client=None,
    name: str = "",
) -> SearchResult:
    """Search pass orderings for one program (or source text).

    Candidates are evaluated through ``client``.  Without one, the
    search opens an in-process service and closes it when it ends; its
    result cache holds ``config.budget`` entries, and a search stores
    at most one result per evaluation, so nothing is evicted mid-search.
    """
    from repro.search.strategy import make_strategy

    if isinstance(program, Program):
        label = name or program.name
        source = canonical_source(program)
    else:
        label = name or "program"
        source = str(program)
    strategy = make_strategy(config)
    service = (
        nullcontext(client) if client is not None
        else ServiceClient(backend="inprocess", cache_capacity=config.budget)
    )
    with service as evaluating:
        engine = PhaseOrderingEngine(config, evaluating)
        started = time.perf_counter()
        engine.start(source)
        strategy.run(engine)
        elapsed = time.perf_counter() - started

    assert engine.root is not None and engine.best is not None
    base = parse_program(engine.root.source)
    best = parse_program(engine.best.source)
    baseline_cycles = {
        model.name: estimate_time(base, model).cycles
        for model in ALL_MODELS
    }
    best_cycles = {
        model.name: estimate_time(best, model).cycles
        for model in ALL_MODELS
    }
    return SearchResult(
        name=label,
        strategy=strategy.name,
        seed=config.seed,
        opt_names=config.opt_names,
        depth=config.depth,
        beam_width=config.beam_width,
        budget=config.budget,
        objective=config.objective,
        prune=config.prune,
        baseline_cycles=baseline_cycles,
        best_sequence=engine.best.sequence,
        best_fingerprint=engine.best.fingerprint,
        best_source=engine.best.source,
        best_score=engine.best.score,
        best_cycles=best_cycles,
        benefit={
            key: baseline_cycles[key] - best_cycles[key]
            for key in baseline_cycles
        },
        evaluator=engine.evaluator.stats,
        pruned=engine.pruned,
        exhausted=engine.exhausted,
        visit_order=list(engine.visit_order),
        leaves=list(engine.leaves),
        elapsed_seconds=elapsed,
    )


def replay_sequence(
    source: str,
    sequence: Sequence[str],
    options: Optional[DriverOptions] = None,
) -> Program:
    """Replay a reported pipeline through the ordinary driver path.

    This is deliberately *not* the evaluator: it re-runs the sequence
    through :func:`repro.genesis.pipeline.optimize` from scratch, so
    tests can assert that what the search recorded is what the driver
    actually does.
    """
    from repro.genesis.pipeline import optimize
    from repro.opts.catalog import standard_optimizers

    program = parse_program(source)
    catalog = standard_optimizers(tuple(sequence))
    optimizers = [catalog[name] for name in sequence]
    optimize(
        program,
        optimizers,
        options=options or DriverOptions(apply_all=True),
        in_place=True,
    )
    return program


def certify(
    result: SearchResult,
    base_source: str,
    trials: int = 3,
    seed: int = 0,
    options: Optional[DriverOptions] = None,
) -> SearchResult:
    """Oracle-certify a search result before anyone believes it.

    Replays the best sequence through the driver pipeline, checks the
    replay reaches the recorded fingerprint (a mismatch is a
    determinism bug, raised loudly as :class:`SearchError`), then
    differential-tests base vs optimized on ``trials`` randomized
    seeded environments.  The verdict lands in ``result.certified``.
    """
    from repro.verify.oracle import EquivalenceOracle

    replayed = replay_sequence(base_source, result.best_sequence, options)
    if replayed.fingerprint() != result.best_fingerprint:
        raise SearchError(
            f"replaying {result.pipeline_text()} reached fingerprint "
            f"{replayed.fingerprint()[:12]}…, but the search recorded "
            f"{result.best_fingerprint[:12]}… — search and driver "
            "disagree"
        )
    oracle = EquivalenceOracle(trials=trials, seed=seed)
    report = oracle.check(parse_program(base_source), replayed)
    result.certified = report.equivalent
    result.oracle_trials = report.trials
    result.oracle_summary = report.summary()
    return result


def search_suite(
    names: Optional[Sequence[str]] = None,
    config: Optional[SearchConfig] = None,
    client=None,
    certify_results: bool = True,
    oracle_trials: int = 3,
    oracle_seed: int = 0,
) -> list[SearchResult]:
    """Best-found pipelines per workload, oracle-certified by default.

    One shared service client (when given) serves every workload, so
    states reached from different workloads still share the
    fingerprint-keyed cache across the whole campaign.
    """
    from repro.workloads.suite import full_suite

    config = config or SearchConfig(opt_names=_default_passes())
    results: list[SearchResult] = []
    for item in full_suite(names):
        result = search_program(
            item.source, config, client=client, name=item.name
        )
        if certify_results:
            certify(
                result,
                item.source,
                trials=oracle_trials,
                seed=oracle_seed,
                options=config.driver_options(),
            )
        results.append(result)
    return results


def _default_passes() -> tuple[str, ...]:
    from repro.opts.specs import PAPER_TEN

    return PAPER_TEN
