"""Unit tests for the Program container's identity-stable mutations."""

import pytest

from repro.analysis.cfg import build_cfg
from repro.ir.interp import InterpError, run_program
from repro.ir.loops import StructureTable
from repro.ir.program import IRError, Program
from repro.ir.quad import Opcode, Quad, assign
from repro.ir.types import Const, Var
from repro.machine.estimate import estimate_time


def make_program(count=4):
    program = Program()
    for index in range(count):
        program.append(assign(Var(f"x{index}"), Const(index)))
    return program


class TestBasics:
    def test_append_assigns_fresh_qids(self):
        program = make_program(3)
        assert program.qids() == [0, 1, 2]

    def test_len_iter_getitem(self):
        program = make_program(3)
        assert len(program) == 3
        assert [q.qid for q in program] == [0, 1, 2]
        assert program[1].qid == 1

    def test_quad_lookup_by_qid(self):
        program = make_program(3)
        assert program.quad(2).result == Var("x2")

    def test_quad_lookup_unknown_raises(self):
        with pytest.raises(IRError):
            make_program(1).quad(99)

    def test_position_tracks_index(self):
        program = make_program(3)
        assert program.position(2) == 2

    def test_contains(self):
        program = make_program(2)
        assert program.contains(1)
        assert not program.contains(5)

    def test_next_prev(self):
        program = make_program(3)
        assert program.next_qid_of(0) == 1
        assert program.prev_qid_of(1) == 0
        assert program.next_qid_of(2) is None
        assert program.prev_qid_of(0) is None


class TestMutation:
    def test_insert_after(self):
        program = make_program(3)
        fresh = program.insert_after(0, assign(Var("y"), Const(9)))
        assert program.qids() == [0, fresh.qid, 1, 2]

    def test_insert_before(self):
        program = make_program(2)
        fresh = program.insert_before(0, assign(Var("y"), Const(9)))
        assert program.qids()[0] == fresh.qid

    def test_insert_at_bounds_checked(self):
        with pytest.raises(IRError):
            make_program(1).insert_at(5, assign(Var("y"), Const(1)))

    def test_remove_keeps_other_qids(self):
        program = make_program(3)
        program.remove(1)
        assert program.qids() == [0, 2]
        assert program.position(2) == 1

    def test_removed_qids_never_reused(self):
        program = make_program(3)
        program.remove(2)
        fresh = program.append(assign(Var("z"), Const(0)))
        assert fresh.qid == 3

    def test_move_after_preserves_identity(self):
        program = make_program(3)
        program.move_after(0, 2)
        assert program.qids() == [1, 2, 0]
        assert program.quad(0).result == Var("x0")

    def test_move_after_self_rejected(self):
        with pytest.raises(IRError):
            make_program(2).move_after(1, 1)

    def test_move_to_front(self):
        program = make_program(3)
        program.move_to_front(2)
        assert program.qids() == [2, 0, 1]

    def test_replace_keeps_qid(self):
        program = make_program(2)
        program.replace(1, assign(Var("q"), Const(5)))
        assert program.quad(1).result == Var("q")
        assert program.qids() == [0, 1]

    def test_duplicate_qid_rejected(self):
        program = make_program(1)
        stray = assign(Var("y"), Const(1))
        stray.qid = 0
        with pytest.raises(IRError):
            program.append(stray)

    def test_version_bumps_on_every_mutation(self):
        program = make_program(2)
        version = program.version
        program.insert_after(0, assign(Var("y"), Const(1)))
        assert program.version > version
        version = program.version
        program.remove(0)
        assert program.version > version
        version = program.version
        program.touch(1, program.preimage(1))
        assert program.version > version


class TestCloneAndQueries:
    def test_clone_preserves_qids_and_content(self):
        program = make_program(3)
        duplicate = program.clone()
        assert duplicate.qids() == program.qids()
        assert str(duplicate.quad(1)) == str(program.quad(1))

    def test_clone_is_independent(self):
        program = make_program(2)
        duplicate = program.clone()
        duplicate.remove(0)
        assert program.contains(0)

    def test_clone_continues_qid_sequence(self):
        program = make_program(2)
        duplicate = program.clone()
        fresh = duplicate.append(assign(Var("z"), Const(1)))
        assert fresh.qid == 2

    def test_scalar_names(self):
        program = Program()
        program.append(assign(Var("x"), Var("y")))
        assert program.scalar_names() == frozenset({"x", "y"})

    def test_array_names(self):
        from repro.ir.types import Affine, ArrayRef

        program = Program()
        program.append(
            assign(ArrayRef("a", (Affine.var("i"),)),
                   ArrayRef("b", (Affine.var("i"),)))
        )
        assert program.array_names() == frozenset({"a", "b"})


#: Torn marker layouts; ``x`` is one assignment.  Every consumer of the
#: region matcher must reject each one.
TORN_LAYOUTS = {
    "crossed": "DO IF x ENDDO ENDIF",
    "second-else": "IF x ELSE x ELSE x ENDIF",
    "else-inside-do": "IF DO ELSE ENDDO ENDIF",
    "endif-closes-do": "DO x ENDIF",
    "dangling-enddo": "x ENDDO",
    "unterminated-if": "IF x",
    "stray-else": "IF x ENDIF ELSE",
}

_MAKERS = {
    "x": lambda: assign(Var("x"), Const(1)),
    "DO": lambda: Quad(Opcode.DO, result=Var("i"), a=Const(1), b=Const(2)),
    "IF": lambda: Quad(Opcode.IF, a=Var("x"), b=Const(0), relop="<"),
    "ELSE": lambda: Quad(Opcode.ELSE),
    "ENDIF": lambda: Quad(Opcode.ENDIF),
    "ENDDO": lambda: Quad(Opcode.ENDDO),
}


def layout_program(layout):
    return Program(_MAKERS[token]() for token in layout.split())


#: readers of a program's regions, with the error each must raise
CONSUMERS = {
    "check_structure": (Program.check_structure, IRError),
    "StructureTable": (StructureTable, IRError),
    "build_cfg": (build_cfg, IRError),
    "run_program": (run_program, InterpError),
    "estimate_time": (estimate_time, IRError),
}


class TestStructureValidation:
    """One verdict on a torn program, whichever consumer reads it."""

    @pytest.mark.parametrize("consumer", CONSUMERS)
    @pytest.mark.parametrize("layout", TORN_LAYOUTS)
    def test_torn_program_rejected(self, layout, consumer):
        read, error = CONSUMERS[consumer]
        with pytest.raises(error):
            read(layout_program(TORN_LAYOUTS[layout]))

    def test_valid_nesting_passes(self):
        for read, _error in CONSUMERS.values():
            read(layout_program("DO IF x ELSE x ENDIF ENDDO"))
