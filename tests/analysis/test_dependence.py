"""Unit tests for whole-program dependence computation."""

from repro.analysis.dependence import (
    AllPairsAnalyzer,
    DependenceAnalyzer,
    compute_dependences,
)
from repro.frontend.lower import parse_program
from repro.genesis.driver import DriverOptions
from repro.genesis.pipeline import optimize
from repro.ir.builder import IRBuilder
from repro.workloads.suite import workload


def deps_of(source):
    program = parse_program(source)
    return program, compute_dependences(program)


def edges(graph, kind, **kw):
    return graph.query(kind, **kw)


class TestScalarFlow:
    def test_straight_line_flow(self):
        b = IRBuilder()
        d = b.assign("x", 1)
        u = b.assign("y", "x")
        graph = compute_dependences(b.build())
        found = edges(graph, "flow", src=d.qid, dst=u.qid)
        assert len(found) == 1
        assert found[0].var == "x"
        assert found[0].vector == ()
        assert found[0].dst_pos == "a"

    def test_killed_def_no_flow(self):
        b = IRBuilder()
        dead = b.assign("x", 1)
        b.assign("x", 2)
        use = b.assign("y", "x")
        graph = compute_dependences(b.build())
        assert not edges(graph, "flow", src=dead.qid, dst=use.qid)

    def test_accumulation_self_flow_carried(self):
        b = IRBuilder()
        with b.loop("i", 1, 5):
            s = b.binary("s", "s", "+", 1)
        graph = compute_dependences(b.build())
        self_edges = edges(graph, "flow", src=s.qid, dst=s.qid)
        assert any(e.vector == ("<",) for e in self_edges)

    def test_iteration_local_temp_not_carried(self):
        b = IRBuilder()
        with b.loop("i", 1, 5):
            t = b.binary("t", "i", "*", 2)
            u = b.assign("x", "t")
        graph = compute_dependences(b.build())
        found = edges(graph, "flow", src=t.qid, dst=u.qid)
        assert [e.vector for e in found] == [("=",)]

    def test_loop_head_flow_to_body_use(self):
        b = IRBuilder()
        with b.loop("i", 1, 5) as head:
            use = b.assign("x", "i")
        graph = compute_dependences(b.build())
        assert edges(graph, "flow", src=head.qid, dst=use.qid)

    def test_flow_into_loop_bound(self):
        program, graph = deps_of(
            """
            program t
              integer i, n
              real a(10)
              n = 5
              do i = 1, n
                a(i) = 1.0
              end do
              write a(2)
            end
            """
        )
        n_def = program[0].qid
        head = program[1].qid
        assert edges(graph, "flow", src=n_def, dst=head)


class TestAntiAndOutput:
    def test_anti_dependence(self):
        b = IRBuilder()
        use = b.assign("y", "x")
        redef = b.assign("x", 2)
        graph = compute_dependences(b.build())
        found = edges(graph, "anti", src=use.qid, dst=redef.qid)
        assert len(found) == 1
        assert found[0].var == "x"

    def test_output_dependence(self):
        b = IRBuilder()
        first = b.assign("x", 1)
        with b.if_("c", ">", 0):
            second = b.assign("x", 2)
        graph = compute_dependences(b.build())
        assert edges(graph, "out", src=first.qid, dst=second.qid)

    def test_no_out_dep_through_kill(self):
        b = IRBuilder()
        first = b.assign("x", 1)
        b.assign("x", 2)
        third = b.assign("x", 3)
        graph = compute_dependences(b.build())
        assert not edges(graph, "out", src=first.qid, dst=third.qid)

    def test_carried_anti_within_statement(self):
        b = IRBuilder()
        with b.loop("i", 1, 5):
            s = b.binary("s", "s", "+", 1)
        graph = compute_dependences(b.build())
        found = edges(graph, "anti", src=s.qid, dst=s.qid)
        assert any(e.vector == ("<",) for e in found)


class TestArrayDeps:
    def test_carried_flow_distance_one(self):
        program, graph = deps_of(
            """
            program t
              integer i, n
              real b(20)
              n = 10
              do i = 2, n
                b(i) = b(i-1) + 1.0
              end do
              write b(3)
            end
            """
        )
        stmt = program[2].qid
        found = edges(graph, "flow", src=stmt, dst=stmt, var="b")
        assert [e.vector for e in found] == [("<",)]

    def test_same_element_no_carried(self):
        program, graph = deps_of(
            """
            program t
              integer i, n
              real b(20)
              n = 10
              do i = 1, n
                b(i) = b(i) * 2.0
              end do
              write b(3)
            end
            """
        )
        stmt = program[2].qid
        assert not edges(graph, "flow", src=stmt, dst=stmt, var="b")

    def test_interchange_preventing_vector(self):
        program, graph = deps_of(
            """
            program t
              integer i, j, n
              real a(20,20)
              n = 10
              do i = 2, n
                do j = 1, n
                  a(i,j) = a(i-1,j+1) * 0.5
                end do
              end do
              write a(3,3)
            end
            """
        )
        stmt = program[3].qid
        found = edges(graph, "flow", src=stmt, dst=stmt, var="a")
        assert [e.vector for e in found] == [("<", ">")]

    def test_distinct_loops_reusing_lcv_name_still_depend(self):
        # two separate loops both named i: r(i) init feeds r(i+1) reads
        program, graph = deps_of(
            """
            program t
              integer i, n
              real r(20)
              n = 10
              do i = 1, n
                r(i) = 1.0
              end do
              do i = 1, 5
                r(i) = r(i+1) * 2.0
              end do
              write r(1)
            end
            """
        )
        init = program[2].qid
        update = program[5].qid
        assert edges(graph, "flow", src=init, dst=update, var="r")

    def test_branch_exclusive_statements_no_equal_dep(self):
        b = IRBuilder()
        with b.if_else("c", ">", 0) as (_g, orelse):
            first = b.assign(b.arr("a", 1), 1)
            orelse.begin()
            second = b.assign("x", b.arr("a", 1))
        graph = compute_dependences(b.build())
        assert not edges(graph, "flow", src=first.qid, dst=second.qid)

    def test_reads_do_not_depend_on_reads(self):
        b = IRBuilder()
        first = b.assign("x", b.arr("a", 1))
        second = b.assign("y", b.arr("a", 1))
        graph = compute_dependences(b.build())
        assert not edges(graph, "flow", src=first.qid, dst=second.qid)
        assert not edges(graph, "anti", src=first.qid, dst=second.qid)


class TestArrayPartition:
    def test_unrolled_ordering_tests_few_pairs(self, optimizers, monkeypatch):
        """After the standard catalog, ``ordering``'s subscripts are
        mostly constants: the partitioned analyzer finds the reference's
        edges, in order, with at most 1/20 of its pair tests."""
        program = optimize(
            workload("ordering").load(), list(optimizers.values()),
            DriverOptions(apply_all=True),
        ).program
        assert len(program) == 123
        calls = {DependenceAnalyzer: 0, AllPairsAnalyzer: 0}
        original = DependenceAnalyzer._array_pair

        def counted(self, name, src, dst):
            calls[type(self)] += 1
            original(self, name, src, dst)

        monkeypatch.setattr(DependenceAnalyzer, "_array_pair", counted)
        got = DependenceAnalyzer(program).analyze()
        want = AllPairsAnalyzer(program).analyze()
        assert got.edges == want.edges
        assert got.notes == want.notes
        assert any(edge.var == "a" for edge in got.edges)
        assert 0 < 20 * calls[DependenceAnalyzer] <= calls[AllPairsAnalyzer]

    def test_constant_subscripts_separate_only_their_dimension(self):
        b = IRBuilder()
        with b.loop("i", 1, 4):
            store = b.assign(b.arr("a", 1, "i"), 0)
            other_row = b.assign("x", b.arr("a", 2, "i"))
            same_row = b.assign("y", b.arr("a", 1, "i"))
            symbolic = b.assign("z", b.arr("a", "n", 1))
            short = b.assign("w", b.arr("a", 1))
        graph = compute_dependences(b.build())
        assert not edges(graph, "flow", src=store.qid, dst=other_row.qid)
        for sink in (same_row, symbolic, short):
            assert edges(graph, "flow", src=store.qid, dst=sink.qid)


class TestControl:
    def test_if_controls_branches(self):
        b = IRBuilder()
        with b.if_else("c", ">", 0) as (guard, orelse):
            then_stmt = b.assign("x", 1)
            orelse.begin()
            else_stmt = b.assign("x", 2)
        graph = compute_dependences(b.build())
        assert edges(graph, "ctrl", src=guard.qid, dst=then_stmt.qid)
        assert edges(graph, "ctrl", src=guard.qid, dst=else_stmt.qid)

    def test_loop_controls_body(self):
        b = IRBuilder()
        with b.loop("i", 1, 3) as head:
            stmt = b.assign("x", 1)
        graph = compute_dependences(b.build())
        assert edges(graph, "ctrl", src=head.qid, dst=stmt.qid)

    def test_statement_outside_not_controlled(self):
        b = IRBuilder()
        with b.if_("c", ">", 0) as guard:
            b.assign("x", 1)
        after = b.assign("y", 2)
        graph = compute_dependences(b.build())
        assert not edges(graph, "ctrl", src=guard.qid, dst=after.qid)


class TestGraphSummary:
    def test_summary_counts(self):
        b = IRBuilder()
        d = b.assign("x", 1)
        b.assign("y", "x")
        graph = compute_dependences(b.build())
        summary = graph.summary()
        assert summary["flow"] >= 1
        assert set(summary) == {"flow", "anti", "out", "ctrl"}


class TestInductionVariables:
    def test_no_anti_into_own_loop_header(self):
        b = IRBuilder()
        with b.loop("i", 1, 3) as head:
            use = b.assign("x", "i")
        graph = compute_dependences(b.build())
        assert not edges(graph, "anti", src=use.qid, dst=head.qid)

    def test_no_out_between_loop_headers(self):
        b = IRBuilder()
        with b.loop("i", 1, 3) as first:
            b.assign("x", "i")
        with b.loop("i", 1, 5) as second:
            b.assign("y", "i")
        graph = compute_dependences(b.build())
        assert not edges(graph, "out", src=first.qid, dst=second.qid)

    def test_flow_from_header_survives(self):
        b = IRBuilder()
        with b.loop("i", 1, 3) as head:
            b.assign("x", "i")
        after = b.write("i")
        graph = compute_dependences(b.build())
        assert edges(graph, "flow", src=head.qid, dst=after.qid)

    def test_anti_into_plain_redefinition_survives(self):
        b = IRBuilder()
        use = b.assign("x", "i")
        redef = b.assign("i", 9)
        graph = compute_dependences(b.build())
        assert edges(graph, "anti", src=use.qid, dst=redef.qid)
