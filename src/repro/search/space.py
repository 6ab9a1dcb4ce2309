"""The phase-ordering search space: states and candidate evaluation.

A search *state* (:class:`SearchNode`) is one program reached by
applying a sequence of catalog optimizations to a base program.  States
are identified by :meth:`repro.ir.program.Program.fingerprint` — the
same canonical content hash the service result cache and the match
indexes key on — so two orderings that converge to the same program
*are* the same state, wherever they sit in the search tree.

Extending a state by one pass is an :class:`EvalRequest`; executing it
is the evaluator's job.  Two interchangeable evaluators implement the
same contract:

* :class:`LocalEvaluator` runs the transactional pipeline
  (:func:`repro.genesis.pipeline.optimize`) in-process, with an
  optional ``(fingerprint, pass)``-keyed memo — the serial baseline;
* :class:`ServiceEvaluator` submits each extension as a one-pass
  :class:`~repro.service.job.Job` through an
  :class:`~repro.service.scheduler.OptimizationService`, so
  fingerprint-identical intermediate states are *free cache hits*
  (and identical in-flight extensions coalesce, single-flight), and a
  process-pool backend evaluates a whole frontier concurrently.

Both run the exact same driver path a ``genesis optimize`` run uses, so
a sequence found by search replays byte-identically through the
pipeline — the property the oracle-certification gate and the
``tests/search`` replay properties assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.genesis.driver import DriverOptions
from repro.ir.program import Program


class SearchError(Exception):
    """Misconfigured search or an evaluation the engine cannot use."""


@dataclass(frozen=True)
class SearchNode:
    """One explored state: a pass sequence and the program it reaches.

    ``applied`` records how many application points each step of
    ``sequence`` fired at (parallel to ``sequence``), so exhaustive
    studies can report per-pass activity without replaying.  ``score``
    is the estimated cycle count under the engine's objective machine
    model — lower is better.
    """

    sequence: tuple[str, ...]
    source: str
    fingerprint: str
    score: float
    applied: tuple[int, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.sequence)

    def describe(self) -> str:
        pipeline = " -> ".join(self.sequence) if self.sequence else "(empty)"
        return f"{pipeline} [score {self.score:g}]"


@dataclass(frozen=True)
class EvalRequest:
    """Extend ``node`` by one application of pass ``opt_name``."""

    node: SearchNode
    opt_name: str


@dataclass
class EvalOutcome:
    """What one extension produced.

    ``executed`` is False when the result came from a memo entry, the
    service result cache, or a coalesced single-flight ride — i.e. no
    backend actually ran the driver for this request.
    """

    source: str
    applications: int = 0
    executed: bool = True
    ok: bool = True
    failure: str = ""


@dataclass
class EvaluatorStats:
    """Work accounting shared by every evaluator."""

    #: extensions requested (the search budget counts these)
    evaluations: int = 0
    #: extensions that actually ran the driver on a backend
    executed: int = 0
    #: extensions served from a memo, the result cache, or coalescing
    cache_hits: int = 0
    #: extensions that failed structurally (worker death, bad job)
    failures: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "evaluations": self.evaluations,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "failures": self.failures,
        }

    def __str__(self) -> str:
        return (
            f"{self.evaluations} evaluation(s): {self.executed} executed, "
            f"{self.cache_hits} cache hit(s), {self.failures} failure(s)"
        )


class Evaluator:
    """The contract both evaluators implement."""

    stats: EvaluatorStats

    def evaluate(self, requests: Sequence[EvalRequest]) -> list[EvalOutcome]:
        """One outcome per request, in request order."""
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release owned resources (service-backed evaluators)."""


class LocalEvaluator(Evaluator):
    """Serial in-process evaluation through the transactional pipeline.

    With ``memo=True`` (the default) repeated ``(fingerprint, pass)``
    extensions are served from an in-memory memo — the local analogue
    of the service's fingerprint-keyed result cache.  ``memo=False``
    is the honest sequential baseline the search benchmark measures
    against.
    """

    def __init__(self, options: Optional[DriverOptions] = None,
                 memo: bool = True):
        self.options = options or DriverOptions(apply_all=True)
        self.stats = EvaluatorStats()
        self._memo: Optional[dict[tuple[str, str], EvalOutcome]] = (
            {} if memo else None
        )

    def evaluate(self, requests: Sequence[EvalRequest]) -> list[EvalOutcome]:
        return [self._evaluate_one(request) for request in requests]

    def _evaluate_one(self, request: EvalRequest) -> EvalOutcome:
        self.stats.evaluations += 1
        key = (request.node.fingerprint, request.opt_name)
        if self._memo is not None:
            hit = self._memo.get(key)
            if hit is not None:
                self.stats.cache_hits += 1
                return EvalOutcome(
                    source=hit.source,
                    applications=hit.applications,
                    executed=False,
                    ok=hit.ok,
                    failure=hit.failure,
                )
        outcome = self._run(request)
        self.stats.executed += 1
        if not outcome.ok:
            self.stats.failures += 1
        if self._memo is not None:
            self._memo[key] = outcome
        return outcome

    def _run(self, request: EvalRequest) -> EvalOutcome:
        from repro.frontend.lower import parse_program
        from repro.frontend.unparse import unparse_program
        from repro.genesis.pipeline import optimize
        from repro.opts.catalog import standard_optimizers

        program = parse_program(request.node.source)
        name = request.opt_name
        optimizer = standard_optimizers((name,))[name]
        report = optimize(
            program, [optimizer], options=self.options, in_place=True
        )
        return EvalOutcome(
            source=unparse_program(program, name=program.name),
            applications=report.total_applications,
        )


class ServiceEvaluator(Evaluator):
    """Evaluation through an :class:`OptimizationService`.

    Every extension is one single-pass job; the service's
    fingerprint-keyed result cache turns convergent orderings (and a
    restarted search) into free hits, its single-flight coalescing
    deduplicates identical extensions submitted in the same frontier,
    and a process-pool backend runs distinct extensions concurrently.
    :func:`~repro.service.client.run_batch` windows the submissions to
    the service's queue limit, so an arbitrarily wide frontier is never
    rejected with ``QueueFull``.
    """

    def __init__(self, client, options: Optional[DriverOptions] = None):
        # duck-typed so the network client (repro.service.net) plugs in
        # exactly like the in-process one
        for method in ("submit", "wait"):
            if not callable(getattr(client, method, None)):
                raise SearchError(
                    "ServiceEvaluator needs a service client with "
                    "submit/wait (repro.service.ServiceClient or "
                    "repro.service.net.NetworkServiceClient)"
                )
        self.client = client
        self.options = options or DriverOptions(apply_all=True)
        self.stats = EvaluatorStats()

    def evaluate(self, requests: Sequence[EvalRequest]) -> list[EvalOutcome]:
        from repro.service.client import run_batch
        from repro.service.job import Job

        self.stats.evaluations += len(requests)
        jobs = [
            Job(
                source=request.node.source,
                opt_names=(request.opt_name,),
                options=_options_dict(self.options),
                fingerprint=request.node.fingerprint,
            )
            for request in requests
        ]
        return [
            self._outcome(result) for result in run_batch(self.client, jobs)
        ]

    def _outcome(self, result) -> EvalOutcome:
        served = bool(result.cached or result.coalesced)
        if served:
            self.stats.cache_hits += 1
        else:
            self.stats.executed += 1
        if not result.ok or result.source is None:
            self.stats.failures += 1
            failure = (
                f"{result.failure.error_type}: {result.failure.error}"
                if result.failure is not None
                else f"job resolved {result.status} without a program"
            )
            return EvalOutcome(
                source="", executed=not served, ok=False, failure=failure
            )
        return EvalOutcome(
            source=result.source,
            applications=result.applications,
            executed=not served,
        )


def _options_dict(options: DriverOptions) -> dict[str, object]:
    from repro.service.job import options_to_dict

    return options_to_dict(options)


def canonical_source(program: Program) -> str:
    """A program as round-trip-stable mini-Fortran text.

    Search states live in the unparse/parse domain (the service wire
    format), so the root is rendered once up front; fingerprints
    survive the round trip (see :meth:`Program.fingerprint`).
    """
    from repro.frontend.unparse import unparse_program

    return unparse_program(program, name=program.name)
