"""Tests for the unparser (IR back to mini-Fortran)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend.lower import parse_program
from repro.frontend.unparse import unparse_program
from repro.ir.builder import IRBuilder
from repro.ir.interp import run_program
from repro.ir.quad import Opcode
from repro.workloads.suite import full_suite
from repro.workloads.synthetic import random_program


def roundtrip(program, inputs=()):
    text = unparse_program(program)
    reparsed = parse_program(text)
    before = run_program(program, inputs=inputs).observable()
    after = run_program(reparsed, inputs=inputs).observable()
    return text, before, after


class TestShapes:
    def test_simple_statements(self):
        b = IRBuilder()
        b.assign("x", 1)
        b.binary("y", "x", "+", 2)
        b.unary("z", "sqrt", "y")
        b.write("z")
        text = unparse_program(b.build())
        assert "x = 1" in text
        assert "y = x + 2" in text
        assert "z = sqrt(y)" in text

    def test_mod_call(self):
        b = IRBuilder()
        b.binary("x", 7, "mod", 3)
        text = unparse_program(b.build())
        assert "x = mod(7, 3)" in text

    def test_negative_constant_parenthesized(self):
        b = IRBuilder()
        b.assign("x", -3)
        assert "x = (-3)" in unparse_program(b.build())

    def test_loop_and_if(self):
        b = IRBuilder()
        with b.loop("i", 1, 5, step=2):
            with b.if_("i", ">", 2):
                b.assign("x", "i")
        text = unparse_program(b.build())
        assert "do i = 1, 5, 2" in text
        assert "if (i > 2) then" in text
        assert "end if" in text and "end do" in text

    def test_doall_becomes_commented_do(self):
        b = IRBuilder()
        with b.loop("i", 1, 4, parallel=True):
            b.assign(b.arr("a", "i"), 0)
        b.write(b.arr("a", 2))
        program = b.build()
        text = unparse_program(program)
        assert "! parallel" in text
        reparsed = parse_program(text)  # stays reparsable
        # ... but as a plain DO, so the fingerprint does not survive
        # the round trip; search therefore keys its states on text
        heads = [quad.opcode for quad in reparsed if quad.is_loop_head()]
        assert heads == [Opcode.DO]
        assert reparsed.fingerprint() != program.fingerprint()
        again = unparse_program(reparsed)
        assert unparse_program(parse_program(again)) == again

    def test_subscript_rendering(self):
        from repro.ir.types import Affine

        b = IRBuilder()
        b.assign(b.arr("a", Affine.of(-1, i=2)), 1)
        text = unparse_program(b.build())
        assert "a(2 * i - 1)" in text

    def test_declarations_reconstructed(self):
        b = IRBuilder()
        with b.loop("i", 1, 3):
            b.assign(b.arr("a", "i"), "x")
        b.write(b.arr("a", 2))
        text = unparse_program(b.build())
        assert "integer i" in text
        assert "a(64)" in text


class TestRoundTrip:
    def test_workloads_roundtrip(self, suite):
        for item in suite:
            text, before, after = roundtrip(item.load(), item.inputs)
            assert before == after, item.name

    def test_optimized_workload_roundtrips(self, optimizers, suite_by_name):
        from repro.genesis.driver import DriverOptions, run_optimizer

        program = suite_by_name["fft"].load()
        run_optimizer(optimizers["CTP"], program,
                      DriverOptions(apply_all=True))
        run_optimizer(optimizers["PAR"], program,
                      DriverOptions(apply_all=True))
        _text, before, after = roundtrip(
            program, suite_by_name["fft"].inputs
        )
        assert before == after

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=50_000))
    def test_random_programs_roundtrip(self, seed):
        program = random_program(seed, size=12, max_depth=3)
        _text, before, after = roundtrip(program)
        assert before == after


class TestSessionSave:
    def test_save_command_writes_source(self, tmp_path, optimizers):
        from repro.genesis.session import OptimizerSession

        session = OptimizerSession.from_source(
            "program t\n  integer a, b\n  a = 6\n  b = a * 7\n  write b\nend",
            optimizers=[optimizers["CTP"], optimizers["CFO"]],
        )
        session.execute_command("apply CTP all")
        session.execute_command("apply CFO all")
        target = tmp_path / "out.f"
        session.execute_command(f"save {target}")
        text = target.read_text()
        assert "b = 42" in text
        reparsed = parse_program(text)
        assert run_program(reparsed).output == [42]


class TestDriverValidate:
    def test_validate_option_accepts_good_transformations(self, optimizers):
        from repro.genesis.driver import DriverOptions, run_optimizer

        program = parse_program(
            "program t\n  integer a, b\n  a = 6\n  b = a * 7\n  write b\nend"
        )
        result = run_optimizer(
            optimizers["CTP"], program,
            DriverOptions(apply_all=True, validate=True),
        )
        assert result.applied == 1
