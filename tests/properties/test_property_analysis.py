"""Property-based tests for analysis invariants on random programs."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.cfg import build_cfg
from repro.analysis.dependence import (
    AllPairsAnalyzer,
    DependenceAnalyzer,
    compute_dependences,
)
from repro.analysis.dominators import compute_dominators
from repro.analysis.manager import _quad_names
from repro.analysis.reaching import compute_reaching
from repro.genesis.driver import DriverOptions
from repro.genesis.pipeline import optimize
from repro.ir.builder import IRBuilder
from repro.ir.interp import run_program
from repro.ir.types import Affine, ArrayRef, Var
from repro.opts.catalog import standard_optimizers
from repro.workloads.synthetic import random_program

COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(**COMMON)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_dependence_endpoints_exist(seed):
    program = random_program(seed, size=12)
    graph = compute_dependences(program)
    for edge in graph:
        assert program.contains(edge.src)
        assert program.contains(edge.dst)


@settings(**COMMON)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_loop_independent_edges_respect_program_order(seed):
    program = random_program(seed, size=12)
    graph = compute_dependences(program)
    for edge in graph:
        if edge.kind == "ctrl" or edge.carried:
            continue
        if edge.src == edge.dst:
            continue
        assert program.position(edge.src) < program.position(edge.dst), edge


@settings(**COMMON)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_direction_vector_length_is_common_depth(seed):
    from repro.ir.loops import StructureTable

    program = random_program(seed, size=12, max_depth=3)
    graph = compute_dependences(program)
    structure = StructureTable(program)
    for edge in graph:
        if edge.kind == "ctrl":
            continue
        common = structure.common_loops(edge.src, edge.dst)
        assert len(edge.vector) == len(common), edge


@settings(**COMMON)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_entry_dominates_all_nodes(seed):
    program = random_program(seed, size=10)
    cfg = build_cfg(program)
    dom = compute_dominators(cfg)
    for node in range(cfg.node_count()):
        assert dom.dominates(cfg.entry, node)


@settings(**COMMON)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_acyclic_reaching_subset_of_full(seed):
    program = random_program(seed, size=12)
    reaching = compute_reaching(program)
    for position in range(len(program)):
        full = {d.index for d in reaching.reaching_in(position)}
        acyclic = {
            d.index for d in reaching.reaching_in(position, acyclic=True)
        }
        assert acyclic <= full


@settings(**COMMON)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_interpreter_is_deterministic(seed):
    program = random_program(seed, size=10)
    first = run_program(program).observable()
    second = run_program(program).observable()
    assert first == second


# ----------------------------------------------------------------------
# array pair partition == all pairs
# ----------------------------------------------------------------------

#: (name, rank) of the arrays the generator references; ``d`` is used
#: at two ranks, so a lower-rank access is loose in the deeper dimension
_ARRAYS = (("a", 1), ("b", 2), ("c", 3), ("d", 1), ("d", 2))


def _subscript(draw, lcvs):
    kind = draw(st.sampled_from(("const", "symbolic", "opaque") + (
        ("lcv",) if lcvs else ()
    )))
    if kind == "const":
        return Affine.constant(draw(st.integers(1, 3)))
    if kind == "opaque":
        return Var("m")
    offset = draw(st.integers(-1, 1))
    name = "n" if kind == "symbolic" else draw(st.sampled_from(lcvs))
    return Affine.var(name) + offset


def _ref(draw, lcvs):
    name, rank = draw(st.sampled_from(_ARRAYS))
    return ArrayRef(
        name, tuple(_subscript(draw, lcvs) for _ in range(rank))
    )


def _block(draw, b, lcvs, nest, size):
    for _ in range(size):
        shape = draw(st.sampled_from(
            ("store", "load", "copy") + (("loop", "if") if nest < 2 else ())
        ))
        if shape == "loop":
            lcv = ("i", "j")[len(lcvs)]
            with b.loop(lcv, 1, draw(st.sampled_from((3, "n")))):
                _block(draw, b, lcvs + (lcv,), nest + 1,
                       draw(st.integers(1, 3)))
        elif shape == "if":
            with b.if_else("x", ">", 0) as (_guard, orelse):
                _block(draw, b, lcvs, nest + 1, draw(st.integers(1, 2)))
                orelse.begin()
                _block(draw, b, lcvs, nest + 1, draw(st.integers(1, 2)))
        elif shape == "load":
            b.binary("x", _ref(draw, lcvs), "*", 2)
        elif shape == "copy":
            b.assign(_ref(draw, lcvs), _ref(draw, lcvs))
        else:
            b.binary(_ref(draw, lcvs), "x", "+", 1)


@st.composite
def array_programs(draw):
    """Programs whose array subscripts mix integer constants,
    ``lcv + k``, ``n + k`` and an opaque value, over ranks 1-3, in
    loops up to depth 2 and IF/ELSE blocks."""
    b = IRBuilder()
    b.assign("n", draw(st.integers(1, 4)))
    b.assign("m", 2)
    _block(draw, b, (), 0, draw(st.integers(2, 8)))
    return b.build()


def _assert_partition_matches_reference(program, names):
    """The partitioned analyzer yields the all-pairs reference's edges
    in the same order, and its notes, in full and restricted to
    ``names`` over the quads that mention them."""
    got = DependenceAnalyzer(program).analyze()
    want = AllPairsAnalyzer(program).analyze()
    assert got.edges == want.edges
    assert got.notes == want.notes
    scope = [quad.qid for quad in program if _quad_names(quad) & names]
    got = DependenceAnalyzer(
        program, restrict_names=names, scope=scope
    ).analyze()
    want = AllPairsAnalyzer(program, restrict_names=names).analyze()
    assert got.edges == want.edges
    assert got.notes == want.notes


def _some_names(draw, program):
    names = sorted(program.scalar_names() | program.array_names())
    return frozenset(draw(st.lists(st.sampled_from(names), unique=True)))


@settings(**COMMON)
@given(data=st.data())
def test_array_partition_matches_all_pairs(data):
    program = data.draw(array_programs())
    _assert_partition_matches_reference(
        program, _some_names(data.draw, program)
    )


@settings(**COMMON)
@given(seed=st.integers(min_value=0, max_value=50_000), data=st.data())
def test_array_partition_matches_all_pairs_after_unrolling(seed, data):
    """LUR turns ``i + k`` subscripts into constants."""
    lur = standard_optimizers(("LUR",))["LUR"]
    program = optimize(
        random_program(seed, size=24), [lur], DriverOptions(apply_all=True)
    ).program
    _assert_partition_matches_reference(
        program, _some_names(data.draw, program)
    )
