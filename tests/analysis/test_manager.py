"""Unit tests for the version-keyed analysis manager.

Covers the generic product cache, the change-log plumbing on
``Program``, the incremental dependence splice (against full rebuilds),
the full-rebuild fallbacks, the shadow-check debug mode (graph and
name index) and the stats counters.
"""

import pytest

from repro.analysis.dependence import DependenceAnalyzer, compute_dependences
from repro.analysis.manager import (
    AnalysisManager,
    IncrementalMismatchError,
    manager_for,
)
from repro.genesis.driver import DriverOptions
from repro.genesis.pipeline import optimize
from repro.ir.builder import IRBuilder
from repro.ir.program import Program
from repro.ir.quad import Opcode, Quad
from repro.ir.types import Const, Var
from repro.opts.catalog import standard_optimizers
from repro.workloads.suite import workload
from repro.workloads.synthetic import random_program

#: The benchmarked ten-pass scalar pipeline.
PIPELINE = ("CTP", "CFO", "CPP", "DCE") * 2 + ("CTP", "DCE")


def straight_line() -> Program:
    b = IRBuilder()
    b.assign("x", 1)
    b.binary("y", "x", "+", 2)
    b.assign("z", "y")
    b.write("z")
    return b.build()


def loopy() -> Program:
    b = IRBuilder()
    b.assign("n", 8)
    with b.loop("i", 1, 8):
        b.assign(b.arr("a", "i"), "i")
        b.binary("s", "s", "+", 1)
    b.write("s")
    return b.build()


def assert_matches_full(manager: AnalysisManager) -> None:
    got = manager.graph().edge_set()
    want = compute_dependences(manager.program).edge_set()
    assert got == want


class TestProductCache:
    def test_same_version_hits(self):
        manager = AnalysisManager(straight_line())
        first = manager.cfg()
        assert manager.cfg() is first
        assert manager.stats.hits["cfg"] == 1
        assert manager.stats.misses["cfg"] == 1

    def test_version_bump_invalidates(self):
        program = straight_line()
        manager = AnalysisManager(program)
        first = manager.reaching()
        qid = program[0].qid
        program.touch(qid, program.preimage(qid))
        assert manager.reaching() is not first
        assert manager.stats.misses["reaching"] == 2

    def test_all_products_available(self):
        manager = AnalysisManager(loopy())
        manager.cfg()
        manager.structure()
        manager.dominators()
        manager.reaching()
        manager.liveness()
        manager.control_deps()
        manager.graph()

    def test_graph_cached_per_version(self):
        manager = AnalysisManager(straight_line())
        assert manager.graph() is manager.graph()
        assert manager.stats.hits["dependences"] == 1


class TestChangeLog:
    def test_mutations_are_logged(self):
        program = straight_line()
        v0 = program.version
        added = program.append(Quad(Opcode.ASSIGN, result=Var("w"),
                                    a=Const(3)))
        program.touch(added.qid, program.preimage(added.qid))
        program.remove(added.qid)
        kinds = [c.kind for c in program.changes_since(v0)]
        assert kinds == ["add", "modify", "remove"]

    def test_clone_resets_log(self):
        program = straight_line()
        qid = program[0].qid
        program.touch(qid, program.preimage(qid))
        fresh = program.clone()
        assert fresh.changes_since(fresh.version) == []
        # history strictly before the clone's floor is unavailable
        assert fresh.changes_since(-1) is None

    def test_move_logs_single_move(self):
        program = straight_line()
        v0 = program.version
        program.move_to_front(program[1].qid)
        kinds = [c.kind for c in program.changes_since(v0)]
        assert kinds == ["move"]


class TestIncrementalUpdate:
    def test_modify_splices_exactly(self):
        program = straight_line()
        manager = AnalysisManager(program)
        manager.graph()
        target = program[1]
        before = program.preimage(target.qid)
        target.a = Const(5)
        target.opcode = Opcode.ASSIGN
        target.b = None
        program.touch(target.qid, before)
        assert_matches_full(manager)
        assert manager.stats.incremental_updates == 1

    def test_remove_drops_dead_endpoints(self):
        program = straight_line()
        manager = AnalysisManager(program)
        before = manager.graph()
        victim = program[2].qid
        program.remove(victim)
        after = manager.graph()
        assert all(victim not in (e.src, e.dst) for e in after)
        assert after is not before
        assert_matches_full(manager)

    def test_insert_adds_new_edges(self):
        program = straight_line()
        manager = AnalysisManager(program)
        manager.graph()
        program.insert_at(1, Quad(Opcode.ASSIGN, result=Var("x"),
                                  a=Const(9)))
        assert_matches_full(manager)
        assert manager.stats.incremental_updates == 1

    def test_move_non_marker_inside_loop(self):
        program = loopy()
        manager = AnalysisManager(program)
        manager.graph()
        store = next(q for q in program if q.defined_array() is not None)
        body_peer = next(q for q in program if q.opcode is Opcode.ADD)
        program.move_after(store.qid, body_peer.qid)
        assert_matches_full(manager)
        assert manager.stats.incremental_updates == 1

    def test_untouched_variable_edges_are_retained(self):
        program = loopy()
        manager = AnalysisManager(program)
        manager.graph()
        target = next(q for q in program if q.defined_array() is not None)
        program.touch(target.qid, program.preimage(target.qid))
        manager.graph()
        assert manager.stats.edges_retained > 0

    def test_refresh_builds_no_cfg(self):
        program = loopy()
        manager = AnalysisManager(program)
        manager.graph()
        qid = program[1].qid
        program.touch(qid, program.preimage(qid))
        manager.graph()
        assert "cfg" not in manager.stats.misses

    def test_scope_skips_quads_without_affected_names(self, monkeypatch):
        program = loopy()
        # no shadow check: its full rebuild scans every quad
        manager = AnalysisManager(program, full_check=False)
        manager.graph()
        scanned = []
        original = Quad.use_positions

        def spy(quad):
            scanned.append(quad.qid)
            return original(quad)

        target = next(q for q in program if q.opcode is Opcode.ADD)
        before = program.preimage(target.qid)
        monkeypatch.setattr(Quad, "use_positions", spy)
        program.touch(target.qid, before)  # touches only ``s``
        manager.graph()
        monkeypatch.undo()
        mentions_s = {
            q.qid for q in program
            if "s" in q.used_scalar_names() or q.defined_scalar() == "s"
        }
        assert set(scanned) == mentions_s
        assert_matches_full(manager)

    def test_batched_changes_one_update(self):
        program = straight_line()
        manager = AnalysisManager(program)
        manager.graph()
        for qid in (program[0].qid, program[2].qid):
            program.touch(qid, program.preimage(qid))
        program.insert_at(0, Quad(Opcode.ASSIGN, result=Var("q"),
                                  a=Const(1)))
        assert_matches_full(manager)
        assert manager.stats.incremental_updates == 1


class TestFullRebuildFallbacks:
    def test_marker_touch_forces_rebuild(self):
        program = loopy()
        manager = AnalysisManager(program)
        manager.graph()
        head = next(q for q in program if q.opcode is Opcode.DO)
        before = program.preimage(head.qid)
        head.opcode = Opcode.DOALL
        program.touch(head.qid, before)
        assert_matches_full(manager)
        assert manager.stats.full_rebuilds == 2

    def test_trimmed_history_forces_rebuild(self):
        program = straight_line()
        manager = AnalysisManager(program)
        manager.graph()
        qid = program[0].qid
        before = program.preimage(qid)
        for _ in range(5000):  # overflow the change log
            program.touch(qid, before)
        assert_matches_full(manager)
        assert manager.stats.full_rebuilds == 2

    def test_incremental_false_always_rebuilds(self):
        program = straight_line()
        manager = AnalysisManager(program, incremental=False)
        manager.graph()
        qid = program[0].qid
        program.touch(qid, program.preimage(qid))
        manager.graph()
        assert manager.stats.full_rebuilds == 2
        assert manager.stats.incremental_updates == 0


class TestShadowCheck:
    def test_full_check_counts(self):
        program = straight_line()
        manager = AnalysisManager(program, full_check=True)
        manager.graph()
        qid = program[0].qid
        program.touch(qid, program.preimage(qid))
        manager.graph()
        # the first build and the refresh are both checked
        assert manager.stats.shadow_checks == 2

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYSIS_CHECK", "1")
        assert AnalysisManager(straight_line()).full_check
        monkeypatch.setenv("REPRO_ANALYSIS_CHECK", "0")
        assert not AnalysisManager(straight_line()).full_check

    def test_divergence_raises(self):
        program = straight_line()
        manager = AnalysisManager(program, full_check=True)
        stale = manager.graph()
        # sabotage: mutate a quad without logging it, then log a
        # *different* quad so the splice retains stale edges
        program[1].a = Var("z")
        qid = program[3].qid
        program.touch(qid, program.preimage(qid))
        with pytest.raises(IncrementalMismatchError):
            manager.graph()
        assert stale is not None

    def test_full_rebuild_checked_against_all_pairs(self, monkeypatch):
        b = IRBuilder()
        b.assign(b.arr("a", 1), "x")
        b.assign("y", b.arr("a", 1))
        program = b.build()
        original = DependenceAnalyzer._array_pairs

        def drop_first(self, accesses):
            pairs = original(self, accesses)
            next(pairs, None)  # the store-to-load pair
            yield from pairs

        monkeypatch.setattr(DependenceAnalyzer, "_array_pairs", drop_first)
        manager = AnalysisManager(program, full_check=True)
        with pytest.raises(IncrementalMismatchError, match="first difference"):
            manager.graph()
        assert manager.stats.full_rebuilds == manager.stats.shadow_checks == 1

    def test_index_drift_raises(self, monkeypatch):
        program = straight_line()
        manager = AnalysisManager(program, full_check=True)
        manager.graph()
        skipped = []
        original = manager._reindex

        def skip_once(qid, old, new):
            if skipped:
                original(qid, old, new)
            else:
                skipped.append(qid)

        monkeypatch.setattr(manager, "_reindex", skip_once)
        program.insert_at(1, Quad(Opcode.ASSIGN, result=Var("w"),
                                  a=Var("x")))
        with pytest.raises(IncrementalMismatchError, match="name index"):
            manager.graph()
        assert skipped
        # the drifted index was dropped: the next refresh rebuilds
        assert_matches_full(manager)
        assert manager.stats.full_rebuilds == 2

    def test_index_tracks_edits(self):
        program = loopy()
        manager = AnalysisManager(program, full_check=True)
        manager.graph()
        store = next(q for q in program if q.defined_array() is not None)
        program.remove(store.qid)
        program.insert_at(1, Quad(Opcode.ASSIGN, result=Var("t"),
                                  a=Var("n")))
        manager.graph()
        assert store.qid not in manager._name_index["a"]
        assert manager.stats.shadow_checks == 2


@pytest.fixture(scope="module")
def pipeline_passes():
    optimizers = standard_optimizers(tuple(sorted(set(PIPELINE))))
    return [optimizers[name] for name in PIPELINE]


@pytest.mark.parametrize("seed", range(4))
def test_scalar_pipeline_refreshes_match_full_rebuilds(pipeline_passes, seed):
    """The benchmarked ten-pass pipeline, every incremental refresh
    shadowed by a full rebuild and a fresh index scan."""
    program = random_program(seed, size=40)
    manager = AnalysisManager(program, full_check=True)
    optimize(program, pipeline_passes, DriverOptions(apply_all=True),
             in_place=True, manager=manager)
    stats = manager.stats
    assert stats.incremental_updates > 0
    builds = stats.full_rebuilds + stats.incremental_updates
    assert stats.shadow_checks == builds


def test_unrolled_refreshes_match_all_pairs():
    """LUR, CTP and DCE over an unrolled suite program: one memo serves
    every version, and every build and refresh is checked against the
    all-pairs reference."""
    optimizers = standard_optimizers(("CTP", "DCE", "LUR"))
    program = workload("tridiag").load()
    manager = AnalysisManager(program, full_check=True)
    optimize(
        program, [optimizers[name] for name in ("CTP", "LUR", "CTP", "DCE")],
        DriverOptions(apply_all=True), in_place=True, manager=manager,
    )
    stats = manager.stats
    assert len(program) > 60  # unrolled
    assert stats.full_rebuilds > 1 and stats.incremental_updates > 0
    builds = stats.full_rebuilds + stats.incremental_updates
    assert stats.shadow_checks == builds
    assert manager._pair_memo.verdicts


class TestManagerFor:
    def test_reuses_matching_manager(self):
        program = straight_line()
        manager = AnalysisManager(program)
        assert manager_for(program, manager) is manager

    def test_replaces_foreign_manager(self):
        manager = AnalysisManager(straight_line())
        other = straight_line()
        resolved = manager_for(other, manager)
        assert resolved is not manager
        assert resolved.program is other

    def test_invalidate_clears_products(self):
        program = straight_line()
        manager = AnalysisManager(program)
        manager.graph()
        manager.cfg()
        manager.invalidate()
        manager.graph()
        assert manager.stats.misses["dependences"] == 2

    def test_stats_as_dict_roundtrip(self):
        manager = AnalysisManager(straight_line())
        manager.graph()
        snapshot = manager.stats.as_dict()
        assert snapshot["full_rebuilds"] == 1
        assert "dependences" in snapshot["misses"]
        assert "rebuild" in manager.stats.summary()
