"""Unit tests for the reference interpreter."""

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.interp import (
    InterpError,
    run_program,
    same_behaviour,
)
from repro.ir.quad import Opcode, Quad
from repro.ir.types import Const, Var
from repro.workloads.suite import run_workload, workload


#: (steps, "OPCODE:count ..." in key order) of every suite program run
#: on its inputs
SUITE_COUNTS = {
    "newton": (184, "ASSIGN:15 READ:1 DO:1 MUL:60 SUB:60 DIV:12 ABS:12 IF:12 WRITE:11"),
    "fft": (192, "ASSIGN:18 MUL:41 DIV:9 DO:4 READ:16 COS:8 SIN:8 SUB:32 ADD:24 WRITE:32"),
    "gauss": (277, "ASSIGN:7 DO:31 READ:42 SUB:86 ADD:5 DIV:15 MUL:85 WRITE:6"),
    "track": (558, "ASSIGN:24 READ:1 DO:11 ADD:110 SUB:160 MUL:250 WRITE:2"),
    "jacobian": (1145, "ASSIGN:2 DO:93 READ:8 MUL:640 SUB:136 ADD:192 DIV:64 WRITE:10"),
    "solve": (120, "ASSIGN:13 DO:17 READ:42 SUB:21 DIV:6 MUL:15 WRITE:6"),
    "poly": (167, "ASSIGN:26 DO:16 READ:17 MUL:48 ADD:48 WRITE:12"),
    "integrate": (71, "ASSIGN:4 SUB:12 DIV:2 DO:1 MUL:21 ADD:20 EXP:10 WRITE:1"),
    "tridiag": (92, "ASSIGN:18 DO:6 READ:16 DIV:16 MUL:14 SUB:14 WRITE:8"),
    "ordering": (145, "ASSIGN:11 DO:19 ADD:100 MUL:10 WRITE:5"),
}


class TestArithmetic:
    @pytest.mark.parametrize(
        "symbol,left,right,expected",
        [
            ("+", 2, 3, 5),
            ("-", 2, 3, -1),
            ("*", 4, 3, 12),
            ("/", 7, 2, 3.5),
            ("/", 8, 2, 4),
            ("mod", 7, 3, 1),
            ("**", 2, 5, 32),
        ],
    )
    def test_binary(self, symbol, left, right, expected):
        b = IRBuilder()
        b.binary("x", left, symbol, right)
        b.write("x")
        assert run_program(b.build()).output == [expected]

    @pytest.mark.parametrize(
        "name,value,expected",
        [
            ("neg", 3, -3),
            ("abs", -4, 4),
            ("sqrt", 9, 3.0),
        ],
    )
    def test_unary(self, name, value, expected):
        b = IRBuilder()
        b.unary("x", name, value)
        b.write("x")
        assert run_program(b.build()).output == [expected]

    def test_trig(self):
        import math

        b = IRBuilder()
        b.unary("s", "sin", 0)
        b.unary("c", "cos", 0)
        b.unary("e", "exp", 1)
        b.write("s")
        b.write("c")
        b.write("e")
        out = run_program(b.build()).output
        assert out[0] == 0 and out[1] == 1
        assert abs(out[2] - math.e) < 1e-12

    def test_division_by_zero(self):
        b = IRBuilder()
        b.binary("x", 1, "/", 0)
        with pytest.raises(InterpError):
            run_program(b.build())

    def test_sqrt_of_negative(self):
        b = IRBuilder()
        b.unary("x", "sqrt", -1)
        with pytest.raises(InterpError):
            run_program(b.build())

    def test_log_of_zero(self):
        b = IRBuilder()
        b.unary("x", "log", 0)
        with pytest.raises(InterpError):
            run_program(b.build())


class TestControlFlow:
    def test_loop_counts(self):
        b = IRBuilder()
        b.assign("s", 0)
        with b.loop("i", 1, 5):
            b.binary("s", "s", "+", "i")
        b.write("s")
        assert run_program(b.build()).output == [15]

    def test_loop_with_step(self):
        b = IRBuilder()
        b.assign("s", 0)
        with b.loop("i", 1, 9, step=3):
            b.binary("s", "s", "+", "i")
        b.write("s")
        assert run_program(b.build()).output == [1 + 4 + 7]

    def test_negative_step(self):
        b = IRBuilder()
        b.assign("s", 0)
        with b.loop("i", 3, 1, step=-1):
            b.binary("s", "s", "*", 10)
            b.binary("s", "s", "+", "i")
        b.write("s")
        assert run_program(b.build()).output == [321]

    def test_zero_trip_loop(self):
        b = IRBuilder()
        b.assign("s", 7)
        with b.loop("i", 5, 1):
            b.assign("s", 0)
        b.write("s")
        assert run_program(b.build()).output == [7]

    def test_lcv_after_loop_follows_fortran(self):
        b = IRBuilder()
        with b.loop("i", 1, 4):
            b.assign("x", "i")
        b.write("i")
        assert run_program(b.build()).output == [5]

    def test_zero_step_raises(self):
        b = IRBuilder()
        with b.loop("i", 1, 4, step=0):
            b.assign("x", "i")
        with pytest.raises(InterpError):
            run_program(b.build())

    def test_if_then_taken(self):
        b = IRBuilder()
        b.assign("x", 5)
        with b.if_("x", ">", 0):
            b.assign("y", 1)
        b.write("y")
        assert run_program(b.build()).output == [1]

    def test_if_then_skipped(self):
        b = IRBuilder()
        b.assign("x", -5)
        with b.if_("x", ">", 0):
            b.assign("y", 1)
        b.write("y")
        assert run_program(b.build()).output == [0]

    def test_if_else(self):
        b = IRBuilder()
        b.assign("x", -5)
        with b.if_else("x", ">", 0) as (_g, orelse):
            b.assign("y", 1)
            orelse.begin()
            b.assign("y", 2)
        b.write("y")
        assert run_program(b.build()).output == [2]

    @pytest.mark.parametrize("relop,expected", [
        ("<", 0), ("<=", 1), (">", 0), (">=", 1), ("==", 1), ("!=", 0),
    ])
    def test_relops(self, relop, expected):
        b = IRBuilder()
        b.assign("x", 3)
        with b.if_(Var("x"), relop, 3):
            b.assign("y", 1)
        b.write("y")
        assert run_program(b.build()).output == [expected]

    def test_doall_executes_sequentially(self):
        b = IRBuilder()
        b.assign("s", 0)
        with b.loop("i", 1, 4, parallel=True):
            b.binary("s", "s", "+", 1)
        b.write("s")
        assert run_program(b.build()).output == [4]

    def test_nested_loops(self):
        b = IRBuilder()
        b.assign("s", 0)
        with b.loop("i", 1, 3):
            with b.loop("j", 1, 4):
                b.binary("s", "s", "+", 1)
        b.write("s")
        assert run_program(b.build()).output == [12]


class TestIO:
    def test_read_consumes_inputs(self):
        b = IRBuilder()
        b.read("x")
        b.read("y")
        b.binary("z", "x", "+", "y")
        b.write("z")
        assert run_program(b.build(), inputs=[3, 4]).output == [7]

    def test_read_past_end_yields_zero(self):
        b = IRBuilder()
        b.read("x")
        b.write("x")
        assert run_program(b.build()).output == [0]

    def test_array_elements(self):
        b = IRBuilder()
        with b.loop("i", 1, 3):
            b.assign(b.arr("a", "i"), "i")
        b.write(b.arr("a", 2))
        assert run_program(b.build()).output == [2]

    def test_uninitialized_reads_are_zero(self):
        b = IRBuilder()
        b.write("nothing")
        b.write(b.arr("a", 5))
        assert run_program(b.build()).output == [0, 0]


class TestStateAndLimits:
    def test_initial_scalars_and_arrays(self):
        b = IRBuilder()
        b.binary("y", "x", "+", b.arr("a", 1))
        b.write("y")
        result = run_program(
            b.build(), scalars={"x": 10}, arrays={"a": {(1,): 5}}
        )
        assert result.output == [15]

    def test_result_carries_final_state(self):
        b = IRBuilder()
        b.assign("x", 42)
        b.assign(b.arr("a", 3), 7)
        result = run_program(b.build())
        assert result.scalars["x"] == 42
        assert result.arrays["a"][(3,)] == 7

    def test_step_budget(self):
        b = IRBuilder()
        with b.loop("i", 1, 1000):
            b.assign("x", "i")
        with pytest.raises(InterpError):
            run_program(b.build(), max_steps=100)

    def test_opcode_counts(self):
        b = IRBuilder()
        with b.loop("i", 1, 3):
            b.binary("x", "i", "*", 2)
        counts = run_program(b.build()).opcode_counts
        assert counts[Opcode.MUL] == 3

    def test_opcode_counts_keep_first_execution_order(self):
        """The ELSE branch runs first, the THEN branch (earlier in the
        program) only on the second trip: keys follow execution."""
        b = IRBuilder()
        with b.loop("i", 1, 2):
            with b.if_else("i", ">=", 2) as (_guard, orelse):
                b.binary("x", "i", "*", 2)
                orelse.begin()
                b.binary("y", "i", "+", 1)
        counts = run_program(b.build()).opcode_counts
        assert list(counts.items()) == [
            (Opcode.DO, 1), (Opcode.IF, 2), (Opcode.ADD, 1), (Opcode.MUL, 1),
        ]

    @pytest.mark.parametrize("name", sorted(SUITE_COUNTS))
    def test_suite_steps_and_counts_pinned(self, name):
        """Steps and ordered opcode counts of each suite program, as the
        per-step Counter of earlier interpreters reported them."""
        steps, rendered = SUITE_COUNTS[name]
        result = run_workload(workload(name))
        assert result.steps == steps
        assert " ".join(
            f"{op.name}:{n}" for op, n in result.opcode_counts.items()
        ) == rendered

    def test_step_budget_fires_at_the_same_step(self):
        item = workload("newton")
        steps = SUITE_COUNTS["newton"][0]
        assert run_program(item.load(), inputs=item.inputs,
                           max_steps=steps).steps == steps
        with pytest.raises(InterpError, match=rf"exceeded \({steps - 1}\)"):
            run_program(item.load(), inputs=item.inputs,
                        max_steps=steps - 1)

    def test_observable_rounds_floats(self):
        b1 = IRBuilder()
        b1.assign("x", 0.1 + 0.2)
        b1.write("x")
        b2 = IRBuilder()
        b2.assign("x", 0.3)
        b2.write("x")
        assert same_behaviour(b1.build(), b2.build())

    def test_same_behaviour_detects_difference(self):
        b1 = IRBuilder()
        b1.write(1)
        b2 = IRBuilder()
        b2.write(2)
        assert not same_behaviour(b1.build(), b2.build())

    def test_nop_is_skipped(self):
        from repro.ir.program import Program

        program = Program()
        program.append(Quad(Opcode.NOP))
        program.append(Quad(Opcode.WRITE, a=Const(1)))
        assert run_program(program).output == [1]


class TestTypedRuntimeErrors:
    """The oracle satellite: no raw KeyError/IndexError/ZeroDivisionError
    /OverflowError ever escapes the interpreter."""

    def test_strict_uninitialized_scalar(self):
        from repro.ir.interp import UninitializedError

        b = IRBuilder()
        b.binary("y", "x", "+", 1)
        b.write("y")
        program = b.build()
        assert run_program(program).output == [1]  # permissive default
        with pytest.raises(UninitializedError):
            run_program(program, strict=True)
        assert run_program(program, strict=True, scalars={"x": 2}).output == [3]

    def test_strict_uninitialized_array_cell(self):
        from repro.ir.interp import UninitializedError

        b = IRBuilder()
        b.assign("y", b.arr("a", 5))
        b.write("y")
        program = b.build()
        assert run_program(program).output == [0]
        with pytest.raises(UninitializedError):
            run_program(program, strict=True)
        result = run_program(program, strict=True, arrays={"a": {(5,): 9}})
        assert result.output == [9]

    def test_array_bounds_checked_on_load_and_store(self):
        from repro.ir.interp import BoundsError

        load = IRBuilder()
        load.assign("y", load.arr("a", 20))
        with pytest.raises(BoundsError):
            run_program(load.build(), array_bounds={"a": ((1, 12),)})

        store = IRBuilder()
        store.assign(store.arr("a", 0), 1)
        with pytest.raises(BoundsError):
            run_program(store.build(), array_bounds={"a": ((1, 12),)})

    def test_array_bounds_rank_mismatch(self):
        from repro.ir.interp import BoundsError

        b = IRBuilder()
        b.assign("y", b.arr("a", 2))
        with pytest.raises(BoundsError):
            run_program(b.build(), array_bounds={"a": ((1, 8), (1, 8))})

    def test_in_bounds_access_passes(self):
        b = IRBuilder()
        b.assign(b.arr("a", 3), 7)
        b.write(b.arr("a", 3))
        result = run_program(b.build(), array_bounds={"a": ((1, 12),)})
        assert result.output == [7]

    def test_pow_zero_to_negative_is_interp_error(self):
        b = IRBuilder()
        b.binary("x", 0, "**", -1)
        with pytest.raises(InterpError):
            run_program(b.build())

    def test_pow_negative_base_fractional_exponent(self):
        b = IRBuilder()
        b.binary("x", -2, "**", 0.5)
        with pytest.raises(InterpError):
            run_program(b.build())

    def test_pow_huge_integer_exponent_guarded(self):
        b = IRBuilder()
        b.binary("x", 2, "**", 1_000_000)
        with pytest.raises(InterpError):
            run_program(b.build())

    def test_float_pow_overflow_is_interp_error(self):
        b = IRBuilder()
        b.binary("x", 1e308, "**", 2)
        with pytest.raises(InterpError):
            run_program(b.build())

    def test_exp_overflow_is_interp_error(self):
        b = IRBuilder()
        b.unary("x", "exp", 1e9)
        with pytest.raises(InterpError):
            run_program(b.build())
