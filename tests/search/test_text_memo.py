"""The engine's text memo: each distinct state text is parsed once.

A state's fingerprint and score are pure functions of its source text,
so :class:`PhaseOrderingEngine` keeps them per text and parses a text
the first time it sees it.  The reference below parses the text of
every evaluation; each strategy must report the same search either
way.
"""

from collections import Counter

import pytest

import repro.search.engine as engine_module
from repro.frontend.lower import parse_program
from repro.machine.estimate import estimate_time
from repro.search import PhaseOrderingEngine, SearchConfig, search_program
from repro.search.strategy import make_strategy
from repro.service import ServiceClient
from repro.workloads.suite import workload

PROGRAMS = ("fft", "gauss", "tridiag")

#: PAR's results hold DOALL loops, whose text parses back as DO
PASSES = ("CTP", "DCE", "PAR", "LUR", "FUS")

CASES = {
    "beam": dict(strategy="beam", beam_width=2, depth=2, budget=15),
    "greedy": dict(strategy="greedy", depth=3, budget=15),
    "iterated": dict(strategy="iterated", iterations=3, depth=2, budget=20),
    "exhaustive": dict(
        strategy="exhaustive", depth=2, budget=20, record_leaves=True
    ),
    "no-prune": dict(
        strategy="iterated", iterations=3, depth=2, budget=20, prune=False
    ),
    "no-repeats": dict(
        strategy="beam", beam_width=2, depth=3, budget=20,
        allow_repeats=False,
    ),
}


def _parse_every_text(engine, source):
    """The reference: parse and score the text on every evaluation."""
    program = parse_program(source)
    return program.fingerprint(), estimate_time(program, engine.model).cycles


def _report(result):
    report = result.to_dict()
    del report["elapsed_seconds"]
    return report, result.best_source, result.leaves


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", PROGRAMS)
def test_memo_equals_parsing_every_text(monkeypatch, name, case):
    source = workload(name).source
    config = SearchConfig(opt_names=PASSES, seed=3, **CASES[case])
    memoized = _report(search_program(source, config, name=name))
    monkeypatch.setattr(PhaseOrderingEngine, "_measure", _parse_every_text)
    reference = _report(search_program(source, config, name=name))
    assert memoized == reference


def test_each_state_text_is_parsed_once(monkeypatch):
    parsed = Counter()

    def counting_parse(text):
        parsed[text] += 1
        return parse_program(text)

    monkeypatch.setattr(engine_module, "parse_program", counting_parse)
    config = SearchConfig(
        opt_names=PASSES, strategy="iterated", iterations=4, depth=3,
        budget=60,
    )
    with ServiceClient(backend="inprocess") as client:
        engine = PhaseOrderingEngine(config, client)
        engine.start(workload("fft").source)
        make_strategy(config).run(engine)
    evaluations = engine.evaluator.stats.evaluations
    # repeated texts occur, so parsing per evaluation would show here
    assert len(parsed) < evaluations
    assert max(parsed.values()) == 1
