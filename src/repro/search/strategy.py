"""Search strategies over pass orderings.

Every strategy drives the same :class:`PhaseOrderingEngine` primitives
(``expand``/``extend``/``replay``) and therefore inherits the engine's
budget, pruning, best-tracking and determinism guarantees; a strategy
only decides *which* states to extend next.

* **beam** — classic beam search: expand the whole frontier one level,
  keep the ``beam_width`` best children, repeat to ``depth``.
* **greedy** — beam search with width 1 (one walk, best child each
  step).  Kept as its own name because it is the building block the
  others are measured against.
* **iterated** — iterated greedy: a first greedy walk identical to
  ``greedy``, then seeded destroy-and-rebuild rounds — cut the
  incumbent's sequence at a random point, replay the prefix (free
  result-cache hits), and greedily rebuild with a shuffled candidate
  order.  With ``iterations=1`` it *is* greedy, bit for bit — the
  property suite asserts this.
* **exhaustive** — breadth-first enumeration of every sequence to
  ``depth`` (no-repeat sequences when ``allow_repeats=False``),
  recording full-depth trajectories; the ordering experiment (E4)
  rides this strategy.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.search.engine import PhaseOrderingEngine, SearchConfig
from repro.search.space import SearchError, SearchNode


class SearchStrategy:
    """The strategy contract: explore via the engine's primitives."""

    name: str = "strategy"

    def run(self, engine: PhaseOrderingEngine) -> None:
        raise NotImplementedError


class BeamSearch(SearchStrategy):
    """Frontier of the ``width`` best states, level by level."""

    name = "beam"

    def __init__(self, width: int):
        if width < 1:
            raise SearchError("beam width must be >= 1")
        self.width = width

    def run(self, engine: PhaseOrderingEngine) -> None:
        assert engine.root is not None
        frontier: list[SearchNode] = [engine.root]
        for _level in range(engine.config.depth):
            children: list[SearchNode] = []
            for node in frontier:
                children.extend(engine.expand(node))
            if not children:
                break
            children.sort(key=engine.rank)
            frontier = children[: self.width]


class GreedySearch(BeamSearch):
    """One walk, best child each step: beam search with width 1."""

    name = "greedy"

    def __init__(self):
        super().__init__(width=1)


class IteratedGreedy(SearchStrategy):
    """Greedy construction plus seeded destroy-and-rebuild rounds."""

    name = "iterated"

    def __init__(self, iterations: int, seed: int):
        if iterations < 1:
            raise SearchError("iterated greedy needs >= 1 iteration")
        self.iterations = iterations
        self.seed = seed

    def run(self, engine: PhaseOrderingEngine) -> None:
        assert engine.root is not None
        rng = random.Random(self.seed)
        # round 1: canonical-order greedy — identical to GreedySearch
        self._walk(engine, engine.root, engine.config.opt_names)
        for _round in range(self.iterations - 1):
            if engine.remaining_budget < 1:
                break
            assert engine.best is not None
            incumbent = engine.best.sequence
            order = list(engine.config.opt_names)
            rng.shuffle(order)
            start: Optional[SearchNode] = engine.root
            if incumbent:
                # destroy: keep a random prefix of the incumbent
                # (replayed for free through the result cache)
                cut = rng.randrange(len(incumbent) + 1)
                start = engine.replay(incumbent[:cut])
            if start is None:
                break
            self._walk(engine, start, tuple(order))

    def _walk(
        self,
        engine: PhaseOrderingEngine,
        node: SearchNode,
        order: Sequence[str],
    ) -> None:
        current = node
        while current.depth < engine.config.depth:
            if engine.config.allow_repeats:
                passes = tuple(order)
            else:
                used = set(current.sequence)
                passes = tuple(n for n in order if n not in used)
            if not passes:
                break
            children = engine.expand(current, passes=passes)
            if not children:
                break
            current = min(children, key=engine.rank)


class ExhaustiveSearch(SearchStrategy):
    """Breadth-first enumeration of every sequence to ``depth``.

    Keeps unchanged states (a pass that found no application point
    still occupies its slot in the ordering) and does not dedup
    convergent branches — the point of an exhaustive study is one
    trajectory per ordering.  Evaluation reuse still happens a layer
    down, in the service's result cache.
    """

    name = "exhaustive"

    def run(self, engine: PhaseOrderingEngine) -> None:
        assert engine.root is not None
        frontier: list[SearchNode] = [engine.root]
        for _level in range(engine.config.depth):
            next_frontier: list[SearchNode] = []
            for node in frontier:
                next_frontier.extend(
                    engine.expand(node, keep_unchanged=True, dedup=False)
                )
            if not next_frontier:
                break
            frontier = next_frontier
        for node in frontier:
            engine.record_leaf(node)


#: strategy name -> factory over the search config
STRATEGIES = {
    "beam": lambda config: BeamSearch(config.beam_width),
    "greedy": lambda config: GreedySearch(),
    "iterated": lambda config: IteratedGreedy(config.iterations,
                                              config.seed),
    "exhaustive": lambda config: ExhaustiveSearch(),
}


def make_strategy(config: SearchConfig) -> SearchStrategy:
    """Build the configured strategy (:class:`SearchError` if unknown)."""
    factory = STRATEGIES.get(config.strategy)
    if factory is None:
        raise SearchError(
            f"unknown search strategy {config.strategy!r}; "
            f"known: {sorted(STRATEGIES)}"
        )
    return factory(config)
