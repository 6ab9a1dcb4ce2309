"""The structure table and the region matcher, pinned by definition.

The reference below knows nothing of stacks: a region is the interval
from an opener at position h to the first position e where as many
markers have closed as have opened since h, and an IF's ELSE is the
ELSE between them at the IF's own nesting level.  From the intervals:

* a region's body is the positions strictly inside it;
* the quad at position p has as ``enclosing_loop`` the innermost loop
  and as ``controllers`` every region with h < p <= e, outermost first.

``match_regions`` must return exactly these pairs and ``StructureTable``
exactly these fields, on random programs, on builder programs that nest
IF/ELSE inside loops and loops inside both branches, and on suite
programs after loop fusion, interchange and unrolling.
"""

from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.genesis.driver import DriverOptions
from repro.genesis.pipeline import optimize
from repro.ir.builder import IRBuilder
from repro.ir.loops import StructureTable, match_regions
from repro.ir.program import Program
from repro.ir.quad import LOOP_HEADS, Opcode
from repro.opts.catalog import standard_optimizers
from repro.workloads import full_suite
from repro.workloads.synthetic import random_program

COMMON = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

OPENERS = LOOP_HEADS | {Opcode.IF}
CLOSERS = {Opcode.ENDDO, Opcode.ENDIF}


def _intervals(program: Program) -> dict[int, tuple[int, Optional[int]]]:
    """``{h: (e, else position or None)}`` for every region, by counting."""
    ops = [quad.opcode for quad in program]
    regions: dict[int, tuple[int, Optional[int]]] = {}
    for head, op in enumerate(ops):
        if op not in OPENERS:
            continue
        depth = 0
        orelse = None
        for position in range(head, len(ops)):
            if ops[position] in OPENERS:
                depth += 1
            elif ops[position] in CLOSERS:
                depth -= 1
            elif ops[position] is Opcode.ELSE and depth == 1:
                orelse = position
            if depth == 0:
                regions[head] = (position, orelse)
                break
    return regions


def _reference_fields(program: Program) -> dict:
    ops = [quad.opcode for quad in program]
    qids = [quad.qid for quad in program]
    regions = _intervals(program)
    heads = sorted(regions)
    loops = [h for h in heads if ops[h] in LOOP_HEADS]

    def around(position: int) -> list[int]:
        """Regions with h < p <= e, outermost first."""
        return [h for h in heads if h < position <= regions[h][0]]

    def enclosing(position: int) -> Optional[int]:
        inside = [h for h in around(position) if h in loops]
        return qids[inside[-1]] if inside else None

    loop_fields = {}
    for h in loops:
        e = regions[h][0]
        outer = [g for g in around(h) if g in loops]
        loop_fields[qids[h]] = (
            qids[e],
            len(outer) + 1,
            qids[outer[-1]] if outer else None,
            [qids[g] for g in loops if enclosing(g) == qids[h]],
            tuple(qids[h + 1:e]),
        )
    cond_fields = {}
    for h in heads:
        if ops[h] is not Opcode.IF:
            continue
        e, s = regions[h]
        if s is None:
            cond_fields[qids[h]] = (None, qids[e], tuple(qids[h + 1:e]), ())
        else:
            cond_fields[qids[h]] = (
                qids[s], qids[e], tuple(qids[h + 1:s]), tuple(qids[s + 1:e])
            )
    return {
        "loops": loop_fields,
        "conditionals": cond_fields,
        "enclosing_loop": {
            qids[p]: enclosing(p) for p in range(len(qids))
        },
        "controllers": {
            qids[p]: tuple(qids[h] for h in around(p))
            for p in range(len(qids))
        },
        "order": [qids[h] for h in loops],
    }


def _table_fields(table: StructureTable) -> dict:
    return {
        "loops": {
            head: (
                loop.end_qid, loop.depth, loop.parent, loop.children,
                loop.body_qids,
            )
            for head, loop in table.loops.items()
        },
        "conditionals": {
            guard: (
                cond.else_qid, cond.endif_qid, cond.then_qids,
                cond.else_qids,
            )
            for guard, cond in table.conditionals.items()
        },
        "enclosing_loop": table.enclosing_loop,
        "controllers": table.controllers,
        "order": [loop.head_qid for loop in table.loops_in_order()],
    }


def _assert_matches_definition(program: Program) -> None:
    regions = _intervals(program)
    pairs = match_regions(list(program))
    assert pairs.end == {h: e for h, (e, _s) in regions.items()}
    assert list(pairs.end) == sorted(regions)
    ifs = [h for h in regions if program[h].opcode is Opcode.IF]
    assert pairs.orelse == {h: regions[h][1] for h in ifs}
    table = StructureTable(program)
    assert _table_fields(table) == _reference_fields(program)
    # the table covers every quad, in program order
    assert list(table.controllers) == program.qids()
    assert list(table.enclosing_loop) == program.qids()


@settings(**COMMON)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    size=st.integers(min_value=1, max_value=40),
    max_depth=st.integers(min_value=0, max_value=3),
)
def test_random_programs_match_definition(seed, size, max_depth):
    _assert_matches_definition(
        random_program(seed, size=size, max_depth=max_depth)
    )


#: a region tree: a leaf statement, a loop, an IF or an IF/ELSE
_TREES = st.recursive(
    st.just(("stmt",)),
    lambda inner: st.one_of(
        st.tuples(st.just("loop"), st.lists(inner, max_size=3)),
        st.tuples(st.just("if"), st.lists(inner, max_size=3)),
        st.tuples(
            st.just("if_else"),
            st.lists(inner, max_size=3),
            st.lists(inner, max_size=3),
        ),
    ),
    max_leaves=20,
)


def _emit(builder: IRBuilder, node, depth: int = 0) -> None:
    kind = node[0]
    if kind == "stmt":
        builder.assign("x", len(builder))
    elif kind == "loop":
        with builder.loop(f"i{depth}", 1, 3):
            for child in node[1]:
                _emit(builder, child, depth + 1)
    elif kind == "if":
        with builder.if_("x", "<", 2):
            for child in node[1]:
                _emit(builder, child, depth)
    else:
        with builder.if_else("x", ">", 1) as (_guard, orelse):
            for child in node[1]:
                _emit(builder, child, depth)
            orelse.begin()
            for child in node[2]:
                _emit(builder, child, depth)


@settings(**COMMON)
@given(trees=st.lists(_TREES, min_size=1, max_size=4))
def test_builder_nests_match_definition(trees):
    builder = IRBuilder()
    for tree in trees:
        _emit(builder, tree)
    _assert_matches_definition(builder.build())


def test_builder_branches_hold_loops():
    """IF/ELSE inside a loop, and a loop in each branch."""
    builder = IRBuilder()
    with builder.loop("i", 1, 4):
        with builder.if_else("i", ">", 2) as (_guard, orelse):
            with builder.loop("j", 1, 2):
                with builder.if_else("j", "==", 1) as (_inner, inner_else):
                    builder.assign("x", 1)
                    inner_else.begin()
                    builder.assign("x", 2)
            orelse.begin()
            with builder.loop("k", 1, 2):
                builder.assign("y", 3)
    program = builder.build()
    _assert_matches_definition(program)
    table = StructureTable(program)
    outer = table.loops_in_order()[0]
    assert [table.loops[child].depth for child in outer.children] == [2, 2]


#: every suite program but jacobian and track, which unroll to 500-1,000
#: quads: there the all-pairs shadow check (``REPRO_ANALYSIS_CHECK``,
#: set when CI runs this directory) takes minutes per pass
LOOP_PASS_SUITE = [
    item for item in full_suite() if item.name not in ("jacobian", "track")
]


@pytest.mark.parametrize("item", LOOP_PASS_SUITE, ids=lambda item: item.name)
def test_suite_programs_after_loop_passes_match_definition(item):
    """CTP makes loop bounds constant, so LUR unrolls after it."""
    program = item.load()
    _assert_matches_definition(program)
    passes = ("CTP", "FUS", "INX", "LUR")
    catalog = standard_optimizers(passes)
    for name in passes:
        program = optimize(
            program, [catalog[name]], DriverOptions(apply_all=True)
        ).program
        _assert_matches_definition(program)
