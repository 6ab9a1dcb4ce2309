"""The four GENesis benchmark workloads.

Each workload is a fixed *deck* of units made from the run seed.  A
round runs every unit of the deck once; the runner repeats rounds for
as long as the run lasts, so every round does the same work and its
outputs must repeat exactly.  Each workload spends most of its time in
one layer:

* ``scalar-pipeline`` — the ten-pass scalar pipeline over synthetic
  programs; dependence upkeep dominates.
* ``catalog-suite`` — one pass of each of the 26 catalog specs over the
  paper suite; matching dominates.
* ``search-campaign`` — phase-ordering search through the process
  service; per-job service overhead and the result cache show here.
* ``infer-campaign`` — spec inference; GOSpeL codegen and the
  admission gates work mostly here.

The program under test only ever sees the generated inputs: program
text, suite programs, search and inference seeds, oracle seeds.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field

from repro.frontend.lower import parse_program
from repro.frontend.unparse import unparse_program
from repro.genesis.driver import DriverOptions
from repro.genesis.pipeline import optimize
from repro.opts.catalog import build_optimizer, standard_optimizers
from repro.opts.extended import EXTENDED_SPECS
from repro.opts.inferred import INFERRED_SPECS
from repro.opts.specs import STANDARD_SPECS
from repro.search import SearchConfig, certify, search_program
from repro.service import ServiceClient
from repro.synth.infer import InferenceConfig, run_inference
from repro.synth.mine import PLANT_TEMPLATES, PairGenerator
from repro.verify.oracle import EquivalenceOracle
from repro.workloads.suite import run_workload, workload
from repro.workloads.synthetic import random_program

@dataclass
class UnitOutcome:
    """What one unit did, and whether its outputs were right."""

    label: str
    seconds: float = 0.0
    #: the workload's unit of work (quads, evaluations or rungs)
    work: float = 0.0
    in_quads: int = 0
    out_quads: int = 0
    steps_before: int = 0
    steps_after: int = 0
    #: fingerprints of the unit's outputs, in order
    fingerprints: list[str] = field(default_factory=list)
    #: why the unit's outputs are wrong; empty when they are right
    failures: list[str] = field(default_factory=list)


def _oracle_check(outcome: UnitOutcome, before, after, seed: int) -> None:
    report = EquivalenceOracle(trials=3, seed=seed).check(before, after)
    outcome.in_quads += len(before)
    outcome.out_quads += len(after)
    outcome.steps_before += report.before_steps
    outcome.steps_after += report.after_steps
    outcome.fingerprints.append(after.fingerprint())
    if not report.equivalent:
        outcome.failures.append(f"{outcome.label}: {report.summary()}")


class Workload:
    """A deck of units plus its set-up; subclasses fill in the rest."""

    name = ""
    work_unit = ""
    #: the deck keeps every CPU busy, so calibrate on each of them
    parallel = False

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        #: "full", or "smoke" for tiny decks
        self.scale = scale

    def prepare(self) -> None:
        """Generate the code and the inputs every round uses."""

    def warm_up(self) -> None:
        """One unit on a tiny input, so lazy caches fill before timing."""

    def deck(self) -> list:
        raise NotImplementedError

    def begin_round(self) -> None:
        """Per-round resources (the search campaign's service)."""

    def end_round(self) -> None:
        """Release what :meth:`begin_round` acquired."""

    def run(self, unit) -> UnitOutcome:
        raise NotImplementedError

    def _order(self, items: list) -> list:
        items = list(items)
        random.Random(self.seed).shuffle(items)
        return items


class ScalarPipeline(Workload):
    """The ten-pass pipeline over a fixed pool of synthetic programs.

    The pool is a seeded draw made once: its programs differ enough in
    cost that drawing them from the run seed would swamp the bounds.
    The run seed orders the deck and seeds the oracle's environments.
    Each unit parses the program's text, so the frontend is in the
    loop the way a compiler sees it.
    """

    name = "scalar-pipeline"
    work_unit = "input quads"
    PASSES = ("CTP", "CFO", "CPP", "DCE") * 2 + ("CTP", "DCE")
    POOL = {"full": (range(4), 120), "smoke": (range(2), 24)}

    def prepare(self) -> None:
        optimizers = standard_optimizers(tuple(sorted(set(self.PASSES))))
        self.passes = [optimizers[name] for name in self.PASSES]
        seeds, size = self.POOL[self.scale]
        self.sources = [
            (index, unparse_program(random_program(index, size=size)))
            for index in seeds
        ]

    def warm_up(self) -> None:
        self.run((10_000, unparse_program(random_program(10_000, size=12))))

    def deck(self) -> list:
        return self._order(self.sources)

    def run(self, unit) -> UnitOutcome:
        index, source = unit
        outcome = UnitOutcome(label=f"synthetic_{index}")
        program = parse_program(source)
        outcome.work = len(program)
        report = optimize(program, self.passes, DriverOptions(apply_all=True))
        _oracle_check(outcome, program, report.program,
                      self.seed * 1000 + index)
        return outcome


class CatalogSuite(Workload):
    """One pass of every catalog spec over the paper suite.

    The catalog runs standard, then extended, then inferred specs, each
    sorted.  ``jacobian`` (~650 s under the network matcher), ``track``
    (~24 s), ``newton`` and ``ordering`` (2.5-7 s each) are left out so
    that a round stays near 2 s.  Each result must match the suite's
    reference outputs and pass the oracle.
    """

    name = "catalog-suite"
    work_unit = "input quads"
    PROGRAMS = {
        "full": ("poly", "fft", "gauss", "solve", "integrate", "tridiag"),
        "smoke": ("integrate", "tridiag"),
    }

    WARM = "integrate"

    def prepare(self) -> None:
        self.optimizers = [
            build_optimizer(name)
            for name in sorted(STANDARD_SPECS) + sorted(EXTENDED_SPECS)
            + sorted(INFERRED_SPECS)
        ]
        self.items = list(enumerate(
            workload(name) for name in self.PROGRAMS[self.scale]
        ))
        self.references = {
            name: run_workload(workload(name))
            for name in self.PROGRAMS[self.scale] + (self.WARM,)
        }

    def warm_up(self) -> None:
        self.run((-1, workload(self.WARM)))

    def deck(self) -> list:
        return self._order(self.items)

    def run(self, unit) -> UnitOutcome:
        index, item = unit
        outcome = UnitOutcome(label=item.name)
        program = item.load()
        outcome.work = len(program)
        report = optimize(program, self.optimizers,
                          DriverOptions(apply_all=True))
        reference = self.references[item.name]
        result = run_workload(item, report.program)
        if result.observable() != reference.observable():
            outcome.failures.append(f"{item.name}: reference outputs differ")
        _oracle_check(outcome, program, report.program,
                      self.seed * 1000 + index)
        outcome.steps_before = reference.steps
        outcome.steps_after = result.steps
        return outcome


class SearchCampaign(Workload):
    """Iterated-greedy phase-ordering search through the process service.

    Each round gets a fresh two-worker service, so its result cache
    starts empty and the hit rate is the campaign's own.  Every winner
    is certified (replay plus oracle) and must reproduce the suite's
    reference outputs.  The strategy's seed is fixed: drawn from the
    run seed it moves the evaluation count per program by ~6%, which
    alone would eat most of the throughput bound.  The run seed orders
    the deck and seeds the certifying oracle.
    """

    name = "search-campaign"
    work_unit = "candidate evaluations"
    PASSES = ("CTP", "CFO", "DCE", "FUS", "INX", "LUR")
    PROGRAMS = {
        "full": ("fft", "gauss", "tridiag"),
        "smoke": ("integrate",),
    }
    CONFIG = {
        "full": dict(iterations=8, depth=4, budget=200),
        "smoke": dict(iterations=2, depth=2, budget=24),
    }
    WORKERS = 2
    parallel = True
    STRATEGY_SEED = 0

    client = None

    def prepare(self) -> None:
        standard_optimizers(self.PASSES)  # forked workers inherit these
        self.config = SearchConfig(
            opt_names=self.PASSES, strategy="iterated",
            seed=self.STRATEGY_SEED,
            **self.CONFIG[self.scale],
        )
        self.items = [workload(name) for name in self.PROGRAMS[self.scale]]
        self.references = {item.name: run_workload(item) for item in self.items}

    def warm_up(self) -> None:
        source = workload("integrate").source
        config = SearchConfig(opt_names=("CTP", "DCE"), depth=1, budget=4)
        self.begin_round()
        try:
            certify(search_program(source, config, client=self.client), source)
        finally:
            self.end_round()

    def deck(self) -> list:
        return self._order(self.items)

    def begin_round(self) -> None:
        self.client = ServiceClient(backend="process",
                                    max_workers=self.WORKERS)

    def end_round(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None

    def run(self, item) -> UnitOutcome:
        outcome = UnitOutcome(label=item.name)
        result = search_program(item.source, self.config,
                                client=self.client, name=item.name)
        outcome.work = result.evaluator.evaluations
        if result.evaluator.failures:
            outcome.failures.append(
                f"{item.name}: {result.evaluator.failures} failed job(s)"
            )
        certify(result, item.source, seed=self.seed,
                options=self.config.driver_options())
        if not result.certified:
            outcome.failures.append(f"{item.name}: {result.oracle_summary}")
        best = parse_program(result.best_source)
        reference = self.references[item.name]
        after = run_workload(item, best)
        if after.observable() != reference.observable():
            outcome.failures.append(f"{item.name}: reference outputs differ")
        outcome.in_quads = len(item.load())
        outcome.out_quads = len(best)
        outcome.steps_before = reference.steps
        outcome.steps_after = after.steps
        outcome.fingerprints.append(result.best_fingerprint)
        return outcome


class InferCampaign(Workload):
    """Serial spec inference at seeds ``seed … seed+2``.

    The admitted specs are then checked the way a user would use them:
    applied, one pass each, to the run's planted rewrite pairs (one per
    template), with the oracle certifying every result.  Specs mined
    from the deliberately unsound templates must never be admitted.
    """

    name = "infer-campaign"
    work_unit = "rungs screened"
    RUNS = {"full": (3, 18, 18), "smoke": (1, 9, 2)}  # runs, pairs, traces

    def prepare(self) -> None:
        runs, pairs, traces = self.RUNS[self.scale]
        self.units = [(self.seed + offset, pairs, traces)
                      for offset in range(runs)]
        self.unsound = {t.key for t in PLANT_TEMPLATES if not t.sound}

    def warm_up(self) -> None:
        self.run((10_000, 3, 0))

    def deck(self) -> list:
        return list(self.units)

    def run(self, unit) -> UnitOutcome:
        seed, pairs, traces = unit
        outcome = UnitOutcome(label=f"infer_{seed}")
        result = run_inference(InferenceConfig(
            seed=seed, pairs=pairs, trace_programs=traces
        ))
        outcome.work = result.screened
        for spec in result.admitted:
            outcome.fingerprints.append(spec.fingerprint)
            source, _, template = spec.origin.partition(":")
            if source == "pairgen" and template.split(":")[0] in self.unsound:
                outcome.failures.append(f"unsound spec admitted: {spec.name}")
        optimizers = [spec.optimizer() for spec in result.admitted]
        generator = PairGenerator(seed=seed)
        for index in range(len(PLANT_TEMPLATES)):
            before = generator.pair(index).before
            report = optimize(before, optimizers, DriverOptions(apply_all=True))
            _oracle_check(outcome, before, report.program, seed)
        return outcome


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (ScalarPipeline, CatalogSuite, SearchCampaign, InferCampaign)
}


def timed_run(workload_: Workload, unit) -> UnitOutcome:
    """Run one unit; an exception is a failed unit, not a crash."""
    start = time.perf_counter()
    try:
        outcome = workload_.run(unit)
    except Exception as error:  # noqa: BLE001 - reported as a failed unit
        traceback.print_exc()
        outcome = UnitOutcome(label=str(unit)[:40])
        outcome.failures.append(f"{type(error).__name__}: {error}")
    outcome.seconds = time.perf_counter() - start
    return outcome
