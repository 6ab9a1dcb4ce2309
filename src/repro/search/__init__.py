"""Phase-ordering search over the generated optimizer catalog.

The paper's experimental study is about *enabling interactions* and
*application order* — which sequences of the generated optimizers
unlock each other and pay off under each machine model.  This package
searches that space: seeded, fully deterministic strategies (beam,
greedy, iterated greedy, exhaustive) explore pass sequences over a
program, each candidate ordering evaluated through the optimization
service so fingerprint-identical intermediate states are free cache
hits, convergent branches pruned via ``Program.fingerprint()``, and
every winning pipeline routed through the differential-testing oracle
before it is reported.  A search given no service client runs through
an in-process one.  See ``docs/search.md``.
"""

from repro.search.engine import (
    MODELS_BY_NAME,
    PhaseOrderingEngine,
    SearchConfig,
    SearchResult,
    certify,
    replay_sequence,
    search_program,
    search_suite,
)
from repro.search.space import (
    EvalRequest,
    EvaluatorStats,
    SearchError,
    SearchNode,
    ServiceEvaluator,
)
from repro.search.strategy import (
    STRATEGIES,
    BeamSearch,
    ExhaustiveSearch,
    GreedySearch,
    IteratedGreedy,
    SearchStrategy,
    make_strategy,
)

__all__ = [
    "MODELS_BY_NAME",
    "PhaseOrderingEngine",
    "SearchConfig",
    "SearchResult",
    "certify",
    "replay_sequence",
    "search_program",
    "search_suite",
    "EvalRequest",
    "EvaluatorStats",
    "SearchError",
    "SearchNode",
    "ServiceEvaluator",
    "STRATEGIES",
    "BeamSearch",
    "ExhaustiveSearch",
    "GreedySearch",
    "IteratedGreedy",
    "SearchStrategy",
    "make_strategy",
]
