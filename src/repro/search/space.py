"""The phase-ordering search space: states and candidate evaluation.

A search *state* (:class:`SearchNode`) is one program reached by
applying a sequence of catalog optimizations to a base program.  States
are identified by :meth:`repro.ir.program.Program.fingerprint` — the
same canonical content hash the service result cache and the match
indexes key on — so two orderings that converge to the same program
*are* the same state, wherever they sit in the search tree.

Extending a state by one pass is an :class:`EvalRequest`, and
:class:`ServiceEvaluator` is the one way to execute it: each extension
is a one-pass :class:`~repro.service.job.Job` submitted through an
optimization service client, so the service's fingerprint-keyed result
cache is the search's only memo.  Fingerprint-identical intermediate
states are *free cache hits*, identical in-flight extensions coalesce
(single-flight), and a process-pool backend evaluates a whole frontier
concurrently.  A search given no client runs through an in-process
service (see :func:`repro.search.engine.search_program`).

Every backend runs the exact same driver path a ``genesis optimize``
run uses, so a sequence found by search replays byte-identically
through the pipeline — the property the oracle-certification gate and
the ``tests/search`` replay properties assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.genesis.driver import DriverOptions
from repro.ir.program import Program
from repro.service.client import run_batch
from repro.service.job import Job, JobResult, options_to_dict


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
class EvaluatorStats:
    """Work accounting of one search's evaluations."""

    #: extensions requested (the search budget counts these)
    evaluations: int = 0
    #: extensions that actually ran the driver on a backend
    executed: int = 0
    #: extensions served from the result cache or by coalescing
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


class ServiceEvaluator:
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

    def __init__(self, client, options: DriverOptions):
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
        self.options = options
        self.stats = EvaluatorStats()

    def evaluate(self, requests: Sequence[EvalRequest]) -> list[JobResult]:
        """One job result per request, in request order."""
        self.stats.evaluations += len(requests)
        jobs = [
            Job(
                source=request.node.source,
                opt_names=(request.opt_name,),
                options=options_to_dict(self.options),
                fingerprint=request.node.fingerprint,
            )
            for request in requests
        ]
        results = run_batch(self.client, jobs)
        for result in results:
            if result.cached or result.coalesced:
                self.stats.cache_hits += 1
            else:
                self.stats.executed += 1
            if not result.ok or result.source is None:
                self.stats.failures += 1
        return results


def canonical_source(program: Program) -> str:
    """A program as round-trip-stable mini-Fortran text.

    Search states live in the unparse/parse domain (the service wire
    format), so the root is rendered once up front.  Fingerprints
    survive the round trip except where a ``DOALL`` loop parses back
    as ``DO`` (see :meth:`Program.fingerprint`), which is why the
    engine fingerprints and scores each state from its text.
    """
    from repro.frontend.unparse import unparse_program

    return unparse_program(program, name=program.name)
