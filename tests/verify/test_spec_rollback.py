"""Every shipped spec's real ``act`` rolls back through the change log.

Each spec runs once on a program where it has an application point,
wrapped so that every ``act`` completes and then tears the IR.  IR
validation must reject each application, and the driver must restore
the byte-identical program from the log alone, while a shadow-checked
analysis manager follows the undo.  The chaos suite in
``test_chaos.py`` covers only the paper's ten specs, and its raise
faults fire before the real ``act``; this covers every edit shape the
26 generated actions make.
"""

import pytest

from repro.analysis.manager import AnalysisManager
from repro.frontend.lower import parse_program
from repro.frontend.unparse import unparse_program
from repro.genesis.driver import DriverOptions, run_optimizer
from repro.opts.catalog import standard_optimizers
from repro.opts.extended import EXTENDED_SPECS
from repro.opts.inferred import INFERRED_SPECS
from repro.opts.specs import STANDARD_SPECS
from repro.synth.mine import PairGenerator
from repro.verify.chaos import ChaosConfig, ChaosStats, chaotic
from repro.workloads.suite import workload
from repro.workloads.synthetic import random_program

#: the standard eleven, then extended, then inferred
SHIPPED = (
    tuple(sorted(STANDARD_SPECS))
    + tuple(sorted(EXTENDED_SPECS))
    + tuple(sorted(INFERRED_SPECS))
)

#: CSE and STR have no point in the generated inputs below; these are
#: the sources of their tests in ``tests/opts/test_extended_opts.py``
CSE_SOURCE = """
program t
  real x, y, a, b
  read x
  read y
  a = x * y
  b = x * y
  write a
  write b
end
"""

STR_SOURCE = """
program t
  real x, y
  read y
  x = y ** 2
  write x
end
"""

#: per spec, the first input with an application point, searching
#: ``PairGenerator(seed=0)`` pairs, then ``random_program(seed,
#: size=24)`` for seeds 0-19, then the suite programs
INPUTS = {
    "BMP": ("random", 0),
    "CFO": ("random", 0),
    "CPP": ("pair-after", 2),
    "CRC": ("suite", "jacobian"),
    "CTP": ("pair-before", 0),
    "DCE": ("pair-before", 0),
    "FUS": ("random", 0),
    "ICM": ("random", 2),
    "INX": ("suite", "jacobian"),
    "LUR": ("random", 0),
    "PAR": ("random", 0),
    "ALG": ("random", 0),
    "CSE": ("source", CSE_SOURCE),
    "FIS": ("random", 0),
    "PEL": ("random", 0),
    "RVS": ("random", 0),
    "STR": ("source", STR_SOURCE),
    "INF_ADD_0X": ("pair-before", 2),
    "INF_DEL_ASSIGN_X": ("pair-before", 6),
    "INF_MUL_1X": ("pair-before", 3),
    "INF_MUL_2X": ("pair-before", 4),
    "INF_MUL_X0": ("pair-before", 1),
    "INF_POW_X0": ("pair-before", 5),
    "INF_SUB_40": ("random", 12),
    "INF_SUB_X0": ("random", 15),
    "INF_SUB_XX": ("pair-before", 0),
}


def _load(kind, key):
    if kind == "random":
        return random_program(key, size=24)
    if kind == "pair-before":
        return PairGenerator(seed=0).pair(key).before
    if kind == "pair-after":
        return PairGenerator(seed=0).pair(key).after
    if kind == "suite":
        return workload(key).load()
    return parse_program(key)


def test_every_shipped_spec_has_an_input():
    assert len(SHIPPED) == 26
    assert sorted(INPUTS) == sorted(SHIPPED)


@pytest.mark.parametrize("name", SHIPPED)
def test_spec_rolls_back_through_the_log(name):
    program = _load(*INPUTS[name])
    baseline = unparse_program(program, name=program.name)
    stats = ChaosStats()
    corrupting = chaotic(
        standard_optimizers((name,))[name],
        ChaosConfig(seed=0, act_fault_rate=0.0, corrupt_rate=1.0),
        stats,
    )
    manager = AnalysisManager(program, full_check=True)
    result = run_optimizer(
        corrupting, program, DriverOptions(validate=True), manager=manager
    )
    assert result.failures, f"{name} found no application point"
    assert not result.applications
    # each failure followed a completed real act, then a torn IR
    assert stats.corruptions == len(result.failures)
    assert {failure.phase for failure in result.failures} == {"validate"}
    assert {failure.restored for failure in result.failures} == {"log"}
    assert unparse_program(program, name=program.name) == baseline
    manager.graph()  # the shadow check follows the undo exactly
