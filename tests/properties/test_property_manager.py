"""Property test: incremental dependence graphs equal full rebuilds.

Drives random synthetic programs through random sequences of the
primitive transformations (modify / add / delete / move — the paper's
action primitives, applied directly to the IR) and asserts after every
step that the :class:`AnalysisManager`'s incrementally spliced graph is
edge-for-edge identical to a from-scratch recomputation, that the
in-place splice keeps every query bucket in edge order, and that the
name index the manager maintains equals a fresh scan.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.dependence import compute_dependences
from repro.analysis.graph import DependenceGraph
from repro.analysis.manager import AnalysisManager
from repro.ir.program import Program
from repro.ir.quad import Opcode, Quad, STRUCTURAL_OPS
from repro.ir.types import Const, Var
from repro.workloads.synthetic import random_program

COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_NAMES = ("x", "y", "z", "s", "w")


def _non_markers(program: Program) -> list[Quad]:
    return [q for q in program if q.opcode not in STRUCTURAL_OPS]


def _mutate_once(program: Program, rng: random.Random) -> bool:
    """One random primitive transformation; False when none applies.

    Mutations stay clear of the structural markers, exactly like the
    primitive actions the generated optimizers use (marker changes go
    through the full-rebuild path, exercised separately below).
    """
    candidates = _non_markers(program)
    if not candidates:
        return False
    kind = rng.choice(("modify", "add", "remove", "move"))
    if kind == "modify":
        quad = rng.choice(candidates)
        before = program.preimage(quad.qid)
        if quad.opcode is Opcode.ASSIGN:
            quad.a = rng.choice(
                (Const(rng.randint(0, 9)), Var(rng.choice(_NAMES)))
            )
        elif quad.a is not None and isinstance(quad.a, (Const, Var)):
            quad.a = Var(rng.choice(_NAMES))
        else:
            return False
        program.touch(quad.qid, before)
        return True
    if kind == "add":
        anchor = rng.choice(candidates)
        fresh = Quad(
            Opcode.ASSIGN,
            result=Var(rng.choice(_NAMES)),
            a=Const(rng.randint(0, 9)),
        )
        program.insert_after(anchor.qid, fresh)
        return True
    if kind == "remove":
        removable = [q for q in candidates if q.opcode is Opcode.ASSIGN]
        if not removable:
            return False
        program.remove(rng.choice(removable).qid)
        return True
    # move: relocate a statement after a sibling inside the same region
    # (moving across region boundaries would break structural nesting)
    quad = rng.choice(candidates)
    position = program.position(quad.qid)
    if position == 0:
        return False
    prev = program[position - 1]
    if prev.opcode in STRUCTURAL_OPS:
        return False
    program.move_after(quad.qid, prev.qid)  # swap with its predecessor
    return True


@settings(**COMMON)
@given(
    seed=st.integers(min_value=0, max_value=50_000),
    steps=st.integers(min_value=1, max_value=8),
)
def test_incremental_graph_equals_full_rebuild(seed, steps):
    program = random_program(seed, size=12, max_depth=2)
    manager = AnalysisManager(program)
    rng = random.Random(seed)
    manager.graph()
    for _ in range(steps):
        if not _mutate_once(program, rng):
            continue
        got = manager.graph().edge_set()
        want = compute_dependences(program).edge_set()
        assert got == want


@settings(**COMMON)
@given(
    seed=st.integers(min_value=0, max_value=50_000),
    steps=st.integers(min_value=2, max_value=6),
)
def test_batched_mutations_one_splice(seed, steps):
    """Several mutations between graph reads still splice exactly."""
    program = random_program(seed, size=12, max_depth=2)
    manager = AnalysisManager(program)
    rng = random.Random(seed + 1)
    manager.graph()
    mutated = 0
    for _ in range(steps):
        if _mutate_once(program, rng):
            mutated += 1
    if not mutated:
        return
    got = manager.graph().edge_set()
    want = compute_dependences(program).edge_set()
    assert got == want


@settings(**COMMON)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_marker_mutation_falls_back_soundly(seed):
    """DO -> DOALL flips (marker touches) rebuild and stay exact."""
    program = random_program(seed, size=12, max_depth=2)
    manager = AnalysisManager(program)
    manager.graph()
    heads = [q for q in program if q.opcode is Opcode.DO]
    if not heads:
        return
    head = heads[0]
    before = program.preimage(head.qid)
    head.opcode = Opcode.DOALL
    program.touch(head.qid, before)
    got = manager.graph().edge_set()
    want = compute_dependences(program).edge_set()
    assert got == want
    assert manager.stats.incremental_updates == 0


@settings(**COMMON)
@given(
    seed=st.integers(min_value=0, max_value=50_000),
    steps=st.integers(min_value=1, max_value=8),
)
def test_shadow_check_never_fires_on_logged_mutations(seed, steps):
    """full_check mode runs clean over random primitive sequences."""
    program = random_program(seed, size=10, max_depth=2)
    manager = AnalysisManager(program, full_check=True)
    rng = random.Random(seed + 2)
    manager.graph()
    for _ in range(steps):
        if _mutate_once(program, rng):
            manager.graph()  # raises IncrementalMismatchError on a bug


def _assert_refreshed_exactly(manager: AnalysisManager) -> None:
    graph = manager.graph()
    want = compute_dependences(manager.program).edge_set()
    assert graph.edge_set() == want
    fresh = DependenceGraph(graph.edges)
    assert graph._by_src == fresh._by_src
    assert graph._by_dst == fresh._by_dst
    manager._check_index()


@settings(**COMMON)
@given(
    seed=st.integers(min_value=0, max_value=50_000),
    script=st.lists(
        st.tuples(st.integers(min_value=1, max_value=4), st.booleans()),
        min_size=1,
        max_size=8,
    ),
)
def test_every_refresh_keeps_buckets_in_edge_order(seed, script):
    """An edit script of batches, each optionally rolled back before
    the refresh: a refresh interval then holds a quad added and
    removed, modified twice, removed and re-added, or moved and
    modified, and each refresh must still be exact."""
    program = random_program(seed, size=12, max_depth=2)
    manager = AnalysisManager(program)
    rng = random.Random(seed + 3)
    manager.graph()
    for edits, undo in script:
        mark = program.version
        for _ in range(edits):
            _mutate_once(program, rng)
        if undo:
            program.rollback_to(mark)
        _assert_refreshed_exactly(manager)
