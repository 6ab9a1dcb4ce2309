"""Cross-checks: exhaustive enumeration vs beam search, and the E4
ordering experiment riding the same engine."""

from itertools import permutations

from repro.experiments.ordering import TRIO, run_ordering
from repro.genesis.driver import DriverOptions
from repro.search import SearchConfig, search_program
from repro.workloads.suite import workload


def _base(**overrides):
    settings = dict(
        opt_names=TRIO,
        depth=len(TRIO),
        budget=500,
        allow_repeats=False,
        options=DriverOptions(apply_all=False),
    )
    settings.update(overrides)
    return SearchConfig(**settings)


class TestExhaustiveEqualsWideBeam:
    def test_same_best_at_tiny_depth(self):
        """Exhaustive enumeration and an infinitely wide beam agree on
        the best pipeline: pruning and unchanged-dropping may skip
        duplicate states, but never the first state to achieve a
        score."""
        source = workload("ordering").source
        exhaustive = search_program(
            source,
            _base(strategy="exhaustive", prune=False, record_leaves=True),
        )
        wide_beam = search_program(
            source, _base(strategy="beam", beam_width=10_000)
        )
        assert wide_beam.best_score == exhaustive.best_score
        assert wide_beam.best_fingerprint == exhaustive.best_fingerprint
        assert wide_beam.best_sequence == exhaustive.best_sequence

    def test_leaves_enumerate_every_permutation_in_order(self):
        result = search_program(
            workload("ordering").source,
            _base(strategy="exhaustive", prune=False, record_leaves=True),
        )
        assert [leaf.sequence for leaf in result.leaves] == list(
            permutations(TRIO)
        )
        # a pass with no application point still occupies its slot
        assert all(len(leaf.applied) == len(TRIO) for leaf in result.leaves)


class TestOrderingExperiment:
    def test_rides_the_search_engine(self):
        result = run_ordering()
        assert result.search is not None
        assert result.search.strategy == "exhaustive"
        assert len(result.runs) == 6
        assert {run.order for run in result.runs} == set(
            permutations(TRIO)
        )
        # the paper's point: different orders, different programs
        assert result.distinct_programs > 1
        assert all(result.claims.values())
