"""Unit tests for the optimizer library (runtime routines)."""

import pytest

from repro.analysis.dependence import compute_dependences
from repro.analysis.manager import AnalysisManager
from repro.genesis import library as lib
from repro.genesis.driver import make_context
from repro.genesis.library import (
    GenesisRuntimeError,
    LoopBinding,
    MatchContext,
    PosBinding,
)
from repro.ir.builder import IRBuilder
from repro.ir.loops import StructureTable
from repro.ir.quad import Opcode
from repro.ir.types import Const, Var


def context_for(builder):
    program = builder.build()
    return MatchContext(
        program,
        compute_dependences(program),
        structure_provider=AnalysisManager(program).structure,
    )


def loop_program():
    b = IRBuilder()
    b.assign("n", 5)
    with b.loop("i", 1, "n") as head:
        body = b.binary(b.arr("a", "i"), b.arr("a", "i"), "+", 1)
    b.write(b.arr("a", 2))
    return b, head, body


def nest_program():
    """Two tightly nested loops, then an adjacent third loop."""
    b = IRBuilder()
    b.assign("n", 4)
    with b.loop("i", 1, "n"):
        with b.loop("j", 1, "n"):
            b.binary(b.arr("a", "i", "j"), b.arr("a", "i", "j"), "+", 1)
    with b.loop("k", 1, "n"):
        b.assign("x", "k")
    b.write("x")
    return b


def structure_view(table):
    """Loop heads and ends, then the nested/tight/adjacent pair tables."""
    return (
        [(loop.head_qid, loop.end_qid) for loop in table.loops_in_order()],
        table.nested_pairs(),
        table.tight_pairs(),
        table.adjacent_pairs(),
    )


class TestContext:
    def test_bind_get_unbind(self):
        ctx = context_for(loop_program()[0])
        ctx.bind("Si", 3)
        assert ctx.get("Si") == 3
        ctx.unbind("Si")
        with pytest.raises(GenesisRuntimeError):
            ctx.get("Si")

    def test_get_qid_unwraps_loops(self):
        ctx = context_for(loop_program()[0])
        ctx.bind("L1", LoopBinding(head=1, end=3))
        assert ctx.get_qid("L1") == 1

    def test_get_qid_rejects_non_statement(self):
        ctx = context_for(loop_program()[0])
        ctx.bind("pos", PosBinding("a", "x"))
        with pytest.raises(GenesisRuntimeError):
            ctx.get_qid("pos")

    def test_fresh_temp_avoids_existing_names(self):
        ctx = context_for(loop_program()[0])
        first = ctx.fresh_temp()
        second = ctx.fresh_temp()
        assert first != second
        assert first.name not in ctx.program.scalar_names()


class TestEnumeration:
    def test_statements_counts_candidates(self):
        builder, _h, _b = loop_program()
        ctx = context_for(builder)
        list(lib.statements(ctx))
        assert ctx.counters.candidates == len(ctx.program)

    def test_loops_yield_bindings(self):
        builder, head, _b = loop_program()
        ctx = context_for(builder)
        found = list(lib.loops(ctx))
        assert found == [LoopBinding(head=head.qid, end=head.qid + 2)]

    def test_tight_pairs(self):
        b = IRBuilder()
        with b.loop("i", 1, 3):
            with b.loop("j", 1, 3):
                b.assign("x", 1)
        ctx = context_for(b)
        pairs = list(lib.tight_loop_pairs(ctx))
        assert len(pairs) == 1
        outer, inner = pairs[0]
        assert outer.head < inner.head


class TestAttributes:
    def test_stmt_attrs(self):
        builder, _h, body = loop_program()
        ctx = context_for(builder)
        assert lib.stmt_attr(ctx, 0, "opc") == "assign"
        assert lib.stmt_attr(ctx, 0, "opr_1") == Var("n")
        assert lib.stmt_attr(ctx, 0, "opr_2") == Const(5)
        assert lib.stmt_attr(ctx, 0, "next") == 1
        assert lib.stmt_attr(ctx, 1, "prev") == 0

    def test_prev_at_start_raises(self):
        ctx = context_for(loop_program()[0])
        with pytest.raises(GenesisRuntimeError):
            lib.stmt_attr(ctx, 0, "prev")

    def test_loop_attrs(self):
        builder, head, body = loop_program()
        ctx = context_for(builder)
        binding = list(lib.loops(ctx))[0]
        assert lib.loop_attr(ctx, binding, "head") == head.qid
        assert lib.loop_attr(ctx, binding, "lcv") == Var("i")
        assert lib.loop_attr(ctx, binding, "init") == Const(1)
        assert lib.loop_attr(ctx, binding, "final") == Var("n")
        assert lib.loop_attr(ctx, binding, "body") == (body.qid,)

    def test_eval_ref_chains(self):
        builder, head, _body = loop_program()
        ctx = context_for(builder)
        ctx.bind("L1", list(lib.loops(ctx))[0])
        assert lib.eval_ref(ctx, "L1", ("head",)) == head.qid
        assert lib.eval_ref(ctx, "L1", ("head", "prev")) == 0
        assert lib.eval_ref(ctx, "L1", ("lcv",)) == Var("i")

    def test_eval_ref_of_operand_attribute_rejected(self):
        ctx = context_for(loop_program()[0])
        ctx.bind("Si", 0)
        with pytest.raises(GenesisRuntimeError):
            lib.eval_ref(ctx, "Si", ("opr_1", "opc"))


class TestValueFunctions:
    def test_kind_of(self):
        assert lib.kind_of(Const(1)) == "const"
        assert lib.kind_of(Var("x")) == "var"
        assert lib.kind_of(None) == "none"

    def test_class_of(self):
        builder, head, body = loop_program()
        ctx = context_for(builder)
        assert lib.class_of(ctx, 0) == "assign"
        assert lib.class_of(ctx, head.qid) == "loop_head"
        assert lib.class_of(ctx, body.qid) == "binop"

    def test_trip_of(self):
        b = IRBuilder()
        with b.loop("i", 2, 9, step=2) as head:
            b.assign("x", 1)
        ctx = context_for(b)
        assert lib.trip_of(ctx, head.qid) == 4

    def test_value_of_folds_constants(self):
        b = IRBuilder()
        stmt = b.binary("x", 6, "*", 7)
        ctx = context_for(b)
        assert lib.value_of(ctx, stmt.qid) == Const(42)

    def test_value_of_non_constant_raises(self):
        b = IRBuilder()
        stmt = b.binary("x", "y", "*", 7)
        ctx = context_for(b)
        with pytest.raises(GenesisRuntimeError):
            lib.value_of(ctx, stmt.qid)

    def test_operand_at_with_pos_binding(self):
        b = IRBuilder()
        stmt = b.binary("x", "y", "+", 2)
        ctx = context_for(b)
        assert lib.operand_at(ctx, stmt.qid, PosBinding("b", "y")) == Const(2)


class TestCompare:
    def ctx(self):
        return context_for(loop_program()[0])

    def test_symbols(self):
        ctx = self.ctx()
        assert lib.compare(ctx, "==", "assign", "assign")
        assert lib.compare(ctx, "!=", "assign", "+")

    def test_compute_class_symbol(self):
        ctx = self.ctx()
        assert lib.compare(ctx, "==", "binop", "compute")
        assert lib.compare(ctx, "==", "compute", "assign")
        assert not lib.compare(ctx, "==", "loop_head", "compute")

    def test_opcode_aliases(self):
        ctx = self.ctx()
        assert lib.compare(ctx, "==", "+", "add")
        assert lib.compare(ctx, "==", "div", "/")

    def test_operand_equality(self):
        ctx = self.ctx()
        assert lib.compare(ctx, "==", Var("x"), Var("x"))
        assert lib.compare(ctx, "!=", Var("x"), Var("y"))

    def test_constant_ordering(self):
        ctx = self.ctx()
        assert lib.compare(ctx, "<", Const(1), Const(2))
        assert lib.compare(ctx, "!=", Const(1), 2)
        assert lib.compare(ctx, "==", Const(1), 1)

    def test_none_comparisons(self):
        ctx = self.ctx()
        assert lib.compare(ctx, "==", None, None)
        assert lib.compare(ctx, "!=", None, Const(1)) or True  # operand path
        assert not lib.compare(ctx, "<", None, 3)

    def test_type_vs_symbol(self):
        ctx = self.ctx()
        assert lib.compare(ctx, "==", Var("x"), "var")
        assert lib.compare(ctx, "==", None, "none")

    def test_statement_identity(self):
        ctx = self.ctx()
        assert lib.compare(ctx, "!=", 1, 2)
        assert lib.compare(ctx, "==", 3, 3)

    def test_counts_pattern_checks(self):
        ctx = self.ctx()
        before = ctx.counters.pattern_checks
        lib.compare(ctx, "==", 1, 1)
        assert ctx.counters.pattern_checks == before + 1


class TestDependenceRoutines:
    def flow_ctx(self):
        b = IRBuilder()
        d = b.assign("x", 1)
        u = b.assign("y", "x")
        ctx = context_for(b)
        return ctx, d, u

    def test_dep_exists(self):
        ctx, d, u = self.flow_ctx()
        assert lib.dep_exists(ctx, "flow", d.qid, u.qid)
        assert not lib.dep_exists(ctx, "flow", u.qid, d.qid)

    def test_dep_exists_with_pos(self):
        ctx, d, u = self.flow_ctx()
        good = PosBinding("a", "x")
        bad = PosBinding("b", "x")
        assert lib.dep_exists(ctx, "flow", d.qid, u.qid, dst_pos=good)
        assert not lib.dep_exists(ctx, "flow", d.qid, u.qid, dst_pos=bad)

    def test_deps_from_and_to(self):
        ctx, d, u = self.flow_ctx()
        assert [e.dst for e in lib.deps_from(ctx, "flow", d.qid)] == [u.qid]
        assert [e.src for e in lib.deps_to(ctx, "flow", u.qid)] == [d.qid]

    def test_figure7_dep_routine(self):
        ctx, d, u = self.flow_ctx()
        assert lib.dep(ctx, "IF", "flow", d.qid, u.qid) == 1
        assert lib.dep(ctx, "IF", "flow", u.qid, d.qid) == 0
        assert lib.dep(ctx, "LST", "flow", d.qid, None) == u.qid
        assert lib.dep(ctx, "LST", "flow", None, u.qid) == d.qid

    def test_figure7_lst_no_match_returns_zero(self):
        ctx, d, u = self.flow_ctx()
        assert lib.dep(ctx, "LST", "anti", d.qid, None) == 0

    def test_dep_candidates_union(self):
        b = IRBuilder()
        use = b.assign("y", "x")
        redef = b.assign("x", 1)
        use2 = b.assign("z", "x")
        ctx = context_for(b)
        specs = [("flow", None), ("anti", None)]
        kinds = {e.kind for e in lib.dep_candidates(ctx, specs)}
        assert kinds == {"flow", "anti"}

    def test_counts_dep_checks(self):
        ctx, d, u = self.flow_ctx()
        before = ctx.counters.dep_checks
        lib.dep_exists(ctx, "flow", d.qid, u.qid)
        assert ctx.counters.dep_checks == before + 1


class TestSets:
    def test_loop_body_from_binding_positions(self):
        builder, head, body = loop_program()
        ctx = context_for(builder)
        binding = list(lib.loops(ctx))[0]
        assert lib.loop_body(ctx, binding) == (body.qid,)

    def test_member_counts(self):
        ctx = context_for(loop_program()[0])
        before = ctx.counters.mem_checks
        assert lib.member(ctx, 2, (1, 2, 3))
        assert not lib.member(ctx, 9, (1, 2, 3))
        assert ctx.counters.mem_checks == before + 2

    def test_path_set_interval(self):
        b = IRBuilder()
        s0 = b.assign("a", 1)
        s1 = b.assign("b", 2)
        s2 = b.assign("c", 3)
        s3 = b.assign("d", 4)
        ctx = context_for(b)
        assert lib.path_set(ctx, s0.qid, s3.qid) == (s1.qid, s2.qid)

    def test_path_set_widens_over_partial_loop(self):
        b = IRBuilder()
        copy = b.assign("x", "y")
        with b.loop("i", 1, 3):
            use = b.assign("z", "x")
            redef = b.assign("y", 2)
        b.write("z")
        ctx = context_for(b)
        path = lib.path_set(ctx, copy.qid, use.qid)
        assert redef.qid in path

    def test_path_set_keeps_endpoint_widened_into_loop(self):
        b = IRBuilder()
        copy = b.assign("v", "u")
        with b.loop("i", 1, 7):
            use = b.binary("u", "v", "+", -1)
        b.write("u")
        ctx = context_for(b)
        # the use's earlier-iteration instances run between the copy
        # and the use, so the endpoint stays in the widened path
        assert use.qid in lib.path_set(ctx, copy.qid, use.qid)

    def test_path_set_excludes_boundary_endpoints(self):
        b = IRBuilder()
        s0 = b.assign("a", 1)
        with b.loop("i", 1, 3):
            inner = b.assign("b", "a")
        last = b.write("b")
        ctx = context_for(b)
        path = lib.path_set(ctx, s0.qid, last.qid)
        assert s0.qid not in path and last.qid not in path
        assert inner.qid in path

    def test_set_operations(self):
        assert lib.set_inter((1, 2, 3), (2, 3, 4)) == (2, 3)
        assert lib.set_union((1, 2), (2, 3)) == (1, 2, 3)

    def test_uses_in_finds_subscript_uses(self):
        builder, _head, body = loop_program()
        ctx = context_for(builder)
        sites = lib.uses_in(ctx, Var("i"), (body.qid,))
        positions = {binding.pos for _qid, binding in sites}
        assert "a" in positions  # a(i) read
        assert all(binding.var == "i" for _q, binding in sites)

    def test_range_values(self):
        ctx = context_for(loop_program()[0])
        assert lib.range_values(ctx, Const(1), Const(7), Const(2)) == [
            1, 3, 5, 7,
        ]
        assert lib.range_values(ctx, Const(4), Const(1), Const(-1)) == [
            4, 3, 2, 1,
        ]

    def test_range_zero_step_raises(self):
        ctx = context_for(loop_program()[0])
        with pytest.raises(GenesisRuntimeError):
            lib.range_values(ctx, Const(1), Const(5), Const(0))

    def test_arith_folds(self):
        ctx = context_for(loop_program()[0])
        assert lib.arith(ctx, "-", Const(5), Const(2)) == Const(3)
        assert lib.arith(ctx, "/", Const(8), Const(2)) == Const(4)

    def test_arith_division_by_zero(self):
        ctx = context_for(loop_program()[0])
        with pytest.raises(GenesisRuntimeError):
            lib.arith(ctx, "/", Const(1), Const(0))


class TestActions:
    def test_delete_statement(self):
        b = IRBuilder()
        doomed = b.assign("x", 1)
        b.assign("y", 2)
        ctx = context_for(b)
        lib.act_delete(ctx, doomed.qid)
        assert not ctx.program.contains(doomed.qid)

    def test_delete_loop_binding_removes_region(self):
        builder, head, body = loop_program()
        ctx = context_for(builder)
        binding = list(lib.loops(ctx))[0]
        size_before = len(ctx.program)
        lib.act_delete(ctx, binding)
        assert len(ctx.program) == size_before - 3

    def test_move(self):
        b = IRBuilder()
        first = b.assign("x", 1)
        second = b.assign("y", 2)
        ctx = context_for(b)
        lib.act_move(ctx, first.qid, second.qid)
        assert ctx.program.qids() == [second.qid, first.qid]

    def test_copy_single(self):
        b = IRBuilder()
        stmt = b.assign("x", 1)
        ctx = context_for(b)
        new_qid = lib.act_copy(ctx, stmt.qid, stmt.qid)
        assert ctx.program.contains(new_qid)
        assert str(ctx.program.quad(new_qid)) == "x := 1"

    def test_copy_block_preserves_order(self):
        b = IRBuilder()
        s0 = b.assign("x", 1)
        s1 = b.assign("y", 2)
        anchor = b.assign("z", 3)
        ctx = context_for(b)
        new_qids = lib.act_copy(ctx, (s0.qid, s1.qid), anchor.qid)
        texts = [str(ctx.program.quad(q)) for q in new_qids]
        assert texts == ["x := 1", "y := 2"]
        positions = [ctx.program.position(q) for q in new_qids]
        assert positions == sorted(positions)

    def test_add_with_built_stmt(self):
        b = IRBuilder()
        anchor = b.assign("x", 1)
        ctx = context_for(b)
        quad = lib.build_stmt(ctx, Var("t"), "add", Var("x"), Const(2))
        new_qid = lib.act_add(ctx, anchor.qid, quad)
        assert str(ctx.program.quad(new_qid)) == "t := x + 2"

    def test_build_stmt_unknown_opcode(self):
        ctx = context_for(loop_program()[0])
        with pytest.raises(GenesisRuntimeError):
            lib.build_stmt(ctx, Var("t"), "frob", Var("x"))

    def test_modify_operand_whole(self):
        b = IRBuilder()
        stmt = b.binary("x", "y", "+", "z")
        ctx = context_for(b)
        lib.act_modify_operand(ctx, stmt.qid, PosBinding("a", "y"), Const(7))
        assert stmt.a == Const(7)

    def test_modify_operand_substitutes_into_subscript(self):
        builder, _head, body = loop_program()
        ctx = context_for(builder)
        lib.act_modify_operand(
            ctx, body.qid, PosBinding("a", "i"), Const(3)
        )
        assert str(ctx.program.quad(body.qid).a) == "a(3)"

    def test_modify_operand_mismatched_var_raises(self):
        b = IRBuilder()
        stmt = b.binary("x", "y", "+", "z")
        ctx = context_for(b)
        with pytest.raises(GenesisRuntimeError):
            lib.act_modify_operand(
                ctx, stmt.qid, PosBinding("a", "q"), Const(7)
            )

    def test_modify_attr_opcode(self):
        builder, head, _body = loop_program()
        ctx = context_for(builder)
        lib.act_modify_attr(ctx, head.qid, "opc", "doall")
        assert ctx.program.quad(head.qid).opcode is Opcode.DOALL

    def test_modify_attr_bounds(self):
        builder, head, _body = loop_program()
        ctx = context_for(builder)
        lib.act_modify_attr(ctx, head.qid, "init", Const(2))
        lib.act_modify_attr(ctx, head.qid, "final", Const(9))
        quad = ctx.program.quad(head.qid)
        assert quad.a == Const(2) and quad.b == Const(9)

    def test_modify_attr_none_clears_operand(self):
        b = IRBuilder()
        stmt = b.binary("x", 2, "*", 3)
        ctx = context_for(b)
        lib.act_modify_attr(ctx, stmt.qid, "opr_3", "none")
        assert stmt.b is None

    #: one application of each primitive action to ``nest_program``:
    #: (action, does it change the loop structure?)
    PRIMITIVES = {
        "delete": (lambda ctx, loops: lib.act_delete(ctx, loops[2]), True),
        "move": (
            lambda ctx, loops: lib.act_move(ctx, 0, loops[0].end), True
        ),
        "copy": (
            lambda ctx, loops: lib.act_copy(ctx, loops[2], loops[2]), True
        ),
        "add": (
            lambda ctx, loops: lib.act_add(
                ctx, loops[1],
                lib.build_stmt(ctx, Var("t"), "assign", Const(0)),
            ),
            True,
        ),
        "modify": (
            lambda ctx, loops: lib.act_modify_attr(
                ctx, loops[2].head, "final", Const(9)
            ),
            False,
        ),
    }

    @pytest.mark.parametrize("managed_graph", [False, True])
    @pytest.mark.parametrize("action", sorted(PRIMITIVES))
    def test_structure_follows_every_action(self, action, managed_graph):
        """``ctx.structure`` consulted before an action is never served
        stale after it, whether the context reads the manager's graph
        or an explicit one (whose table comes from the manager
        ``make_context`` creates)."""
        program = nest_program().build()
        if managed_graph:
            ctx = make_context(program, manager=AnalysisManager(program))
        else:
            ctx = make_context(program, graph=compute_dependences(program))
        loops = list(lib.loops(ctx))
        before = structure_view(ctx.structure)
        act, restructures = self.PRIMITIVES[action]
        act(ctx, loops)
        after = structure_view(ctx.structure)
        assert after == structure_view(StructureTable(program))
        assert (after != before) == restructures

    def test_actions_count_ops(self):
        b = IRBuilder()
        stmt = b.assign("x", 1)
        b.assign("y", 2)
        ctx = context_for(b)
        before = ctx.counters.action_ops
        lib.act_delete(ctx, stmt.qid)
        assert ctx.counters.action_ops > before
