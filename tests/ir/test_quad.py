"""Unit tests for quad statements."""

import pytest

from repro.ir.quad import (
    BINARY_OPS,
    COMPUTE_OPS,
    Opcode,
    Quad,
    UNARY_OPS,
    assign,
    binop,
)
from repro.ir.types import Affine, ArrayRef, Const, Var


def _arr(name, *subs):
    return ArrayRef(name, tuple(Affine.var(s) if isinstance(s, str)
                                else Affine.constant(s) for s in subs))


class TestConstruction:
    def test_assign_helper(self):
        quad = assign(Var("x"), Const(1))
        assert quad.opcode is Opcode.ASSIGN
        assert quad.result == Var("x")
        assert quad.a == Const(1)

    def test_binop_helper(self):
        quad = binop(Var("x"), Var("y"), Opcode.ADD, Const(2))
        assert quad.opcode is Opcode.ADD
        assert quad.b == Const(2)

    def test_binop_rejects_non_binary(self):
        with pytest.raises(ValueError):
            binop(Var("x"), Var("y"), Opcode.ASSIGN, Const(2))

    def test_if_requires_relop(self):
        with pytest.raises(ValueError):
            Quad(Opcode.IF, a=Var("x"), b=Const(0))

    def test_loop_head_requires_var_lcv(self):
        with pytest.raises(ValueError):
            Quad(Opcode.DO, result=Const(1), a=Const(1), b=Const(2))

    def test_loop_head_defaults_step_to_one(self):
        head = Quad(Opcode.DO, result=Var("i"), a=Const(1), b=Const(5))
        assert head.step == Const(1)


class TestClassification:
    def test_compute_classification(self):
        assert assign(Var("x"), Const(1)).is_assignment()
        assert binop(Var("x"), Var("y"), Opcode.MUL, Var("z")).is_assignment()
        assert not Quad(Opcode.ENDDO).is_assignment()

    def test_loop_head_classification(self):
        head = Quad(Opcode.DOALL, result=Var("i"), a=Const(1), b=Const(2))
        assert head.is_loop_head()
        assert head.is_structural()

    def test_compute_ops_cover_binary_and_unary(self):
        assert BINARY_OPS <= COMPUTE_OPS
        assert UNARY_OPS <= COMPUTE_OPS


class TestDefsAndUses:
    def test_scalar_definition(self):
        assert assign(Var("x"), Const(1)).defined_scalar() == "x"
        assert assign(_arr("a", "i"), Const(1)).defined_scalar() is None

    def test_array_definition(self):
        quad = assign(_arr("a", "i"), Const(1))
        assert quad.defined_array().name == "a"

    def test_loop_head_defines_lcv(self):
        head = Quad(Opcode.DO, result=Var("i"), a=Const(1), b=Var("n"))
        assert head.defined_scalar() == "i"

    def test_read_defines_its_operand(self):
        quad = Quad(Opcode.READ, a=Var("x"))
        assert quad.defined_scalar() == "x"

    def test_write_defines_nothing(self):
        assert Quad(Opcode.WRITE, a=Var("x")).defined_operand() is None

    def test_use_positions_of_binop(self):
        quad = binop(Var("x"), Var("y"), Opcode.ADD, Const(2))
        assert [(p, o) for p, o in quad.use_positions()] == [
            ("a", Var("y")), ("b", Const(2)),
        ]

    def test_array_result_subscripts_are_uses(self):
        quad = assign(_arr("a", "i"), Const(1))
        positions = dict(quad.use_positions())
        assert "result" in positions
        assert quad.used_scalar_names() == frozenset({"i"})

    def test_loop_head_uses_bounds_and_step(self):
        head = Quad(Opcode.DO, result=Var("i"), a=Var("lo"), b=Var("hi"),
                    step=Var("st"))
        assert head.used_scalar_names() == frozenset({"lo", "hi", "st"})

    def test_used_array_refs_excludes_result(self):
        quad = binop(_arr("a", "i"), _arr("b", "i"), Opcode.ADD, Const(1))
        refs = quad.used_array_refs()
        assert [ref.name for _pos, ref in refs] == ["b"]

    def test_write_uses_operand(self):
        quad = Quad(Opcode.WRITE, a=_arr("a", "i"))
        assert quad.used_scalar_names() == frozenset({"i"})
        assert [r.name for _p, r in quad.used_array_refs()] == ["a"]


class TestOperandAccess:
    def test_operand_at_positions(self):
        quad = binop(Var("x"), Var("y"), Opcode.SUB, Const(2))
        assert quad.operand_at("result") == Var("x")
        assert quad.operand_at("a") == Var("y")
        assert quad.operand_at("b") == Const(2)

    def test_operand_at_unknown_position(self):
        with pytest.raises(KeyError):
            assign(Var("x"), Const(1)).operand_at("q")

    def test_set_operand(self):
        quad = assign(Var("x"), Var("y"))
        quad.set_operand("a", Const(7))
        assert quad.a == Const(7)

    def test_set_operand_step(self):
        head = Quad(Opcode.DO, result=Var("i"), a=Const(1), b=Const(9))
        head.set_operand("step", Const(2))
        assert head.step == Const(2)


class TestCopyAndStr:
    def test_copy_clears_qid(self):
        quad = assign(Var("x"), Const(1))
        quad.qid = 42
        assert quad.copy().qid == -1

    def test_copy_is_equal_independent_and_unhashed(self):
        quad = binop(Var("x"), Var("y"), Opcode.ADD, Const(2))
        quad.qid = 7
        quad.source_line = 3
        quad.content_hash()
        copy = quad.copy()
        assert copy == Quad(Opcode.ADD, result=Var("x"), a=Var("y"),
                            b=Const(2), source_line=3)
        assert copy._chash is None
        copy.a = Var("z")
        assert quad.a == Var("y")

    def test_copy_restores_loop_step_default(self):
        head = Quad(Opcode.DO, result=Var("i"), a=Const(1), b=Const(5))
        head.step = None
        assert head.copy().step == Const(1)

    @pytest.mark.parametrize("field, value", [
        ("relop", None),  # an IF without a comparison
        ("result", Const(1)),  # a DO without a control variable
    ])
    def test_copy_of_malformed_quad_raises(self, field, value):
        quad = (
            Quad(Opcode.IF, a=Var("x"), b=Const(0), relop="<")
            if field == "relop"
            else Quad(Opcode.DO, result=Var("i"), a=Const(1), b=Const(5))
        )
        setattr(quad, field, value)
        with pytest.raises(ValueError):
            quad.copy()

    def test_str_assign(self):
        assert str(assign(Var("x"), Const(1))) == "x := 1"

    def test_str_binop(self):
        quad = binop(Var("x"), Var("y"), Opcode.MUL, Var("z"))
        assert str(quad) == "x := y * z"

    def test_str_loop_with_step(self):
        head = Quad(Opcode.DO, result=Var("i"), a=Const(2), b=Const(8),
                    step=Const(2))
        assert str(head) == "do i = 2, 8, 2"

    def test_str_if(self):
        quad = Quad(Opcode.IF, a=Var("x"), b=Const(0), relop=">=")
        assert str(quad) == "if x >= 0"

    def test_str_unary(self):
        quad = Quad(Opcode.SQRT, result=Var("x"), a=Var("y"))
        assert str(quad) == "x := sqrt(y)"
