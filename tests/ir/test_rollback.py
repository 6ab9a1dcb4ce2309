"""Program change-log undo: pin/rollback and the touch contract."""

import pytest

from repro.analysis.manager import AnalysisManager
from repro.frontend.lower import parse_program
from repro.frontend.unparse import unparse_program
from repro.ir.program import IRError, Program, RollbackUnavailable
from repro.ir.quad import Opcode, Quad
from repro.ir.types import Var

SOURCE = """
program t
  integer i, n
  real a(10), x, y
  n = 5
  x = 1.0
  do i = 1, n
    a(i) = x * 2.0
  end do
  y = x + 3.0
  write y
end
"""


def _program() -> Program:
    return parse_program(SOURCE)


def _unparse(program: Program) -> str:
    return unparse_program(program, name=program.name)


class TestRollbackTo:
    def test_rollback_undoes_remove(self):
        program = _program()
        baseline = _unparse(program)
        mark = program.pin()
        target = next(q for q in program.quads if not q.is_structural())
        program.remove(target.qid)
        assert _unparse(program) != baseline
        program.rollback_to(mark)
        program.unpin(mark)
        assert _unparse(program) == baseline

    def test_rollback_undoes_mixed_sequence(self):
        program = _program()
        baseline = _unparse(program)
        mark = program.pin()
        statements = [q for q in program.quads if not q.is_structural()]
        program.remove(statements[0].qid)
        program.append(Quad(Opcode.WRITE, a=Var("x")))
        before = program.preimage(statements[1].qid)
        statements[1].result = Var("y")
        program.touch(statements[1].qid, before=before)
        program.move_to_front(statements[2].qid)
        program.rollback_to(mark)
        program.unpin(mark)
        assert _unparse(program) == baseline

    def test_rollback_is_versioned_forward(self):
        # undos go through the normal mutation API: the version never
        # reuses a number, so analysis caches cannot alias states
        program = _program()
        mark = program.pin()
        version_before = program.version
        target = next(q for q in program.quads if not q.is_structural())
        program.remove(target.qid)
        program.rollback_to(mark)
        program.unpin(mark)
        assert program.version > version_before

    def test_rollback_without_changes_is_noop(self):
        program = _program()
        mark = program.pin()
        assert program.rollback_to(mark) == 0
        program.unpin(mark)

    def test_trimmed_log_rollback_unavailable(self):
        program = _program()
        stale = program.version
        # plenty of unpinned mutations so the log trims past `stale`
        for _ in range(2500):
            quad = program.append(Quad(Opcode.WRITE, a=Var("x")))
            program.remove(quad.qid)
        with pytest.raises(RollbackUnavailable):
            program.rollback_to(stale)

    def test_pin_blocks_log_trimming(self):
        program = _program()
        baseline = _unparse(program)
        mark = program.pin()
        for _ in range(2500):
            quad = program.append(Quad(Opcode.WRITE, a=Var("x")))
            program.remove(quad.qid)
        program.rollback_to(mark)
        program.unpin(mark)
        assert _unparse(program) == baseline


class TestTouchContract:
    def test_touch_requires_qid_and_preimage(self):
        program = _program()
        target = next(q for q in program.quads if not q.is_structural())
        with pytest.raises(TypeError):
            program.touch()  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            program.touch(target.qid)  # type: ignore[call-arg]

    def test_touch_rejects_foreign_preimage(self):
        program = _program()
        first, second = [
            q for q in program.quads if not q.is_structural()
        ][:2]
        version = program.version
        with pytest.raises(IRError):
            program.touch(first.qid, program.preimage(second.qid))
        with pytest.raises(IRError):
            program.touch(10_000, program.preimage(first.qid))
        assert program.version == version

    def test_touched_edit_rolls_back_exactly(self):
        program = _program()
        baseline = _unparse(program)
        fingerprint = program.fingerprint()
        mark = program.pin()
        target = next(q for q in program.quads if q.is_assignment())
        before = program.preimage(target.qid)
        target.result = Var("y")
        program.touch(target.qid, before)
        assert program.fingerprint() != fingerprint
        program.rollback_to(mark)
        program.unpin(mark)
        assert _unparse(program) == baseline
        assert program.fingerprint() == fingerprint


class TestManagerCoherence:
    def test_incremental_graph_follows_rollback(self):
        # full_check asserts splice == rebuild at every refresh
        program = _program()
        manager = AnalysisManager(program, full_check=True)
        manager.graph()
        mark = program.pin()
        statements = [q for q in program.quads if not q.is_structural()]
        program.remove(statements[0].qid)
        manager.graph()
        program.rollback_to(mark)
        program.unpin(mark)
        manager.graph()  # would raise if the splice diverged

    def test_preimage_requires_known_qid(self):
        program = _program()
        with pytest.raises(IRError):
            program.preimage(10_000)
