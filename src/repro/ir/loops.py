"""Loop and conditional structure recovered from the marker quads.

GOSpeL's loop types (``Loop``, ``Nested Loops``, ``Tight Loops``,
``Adjacent Loops``) and loop attributes (``.HEAD``, ``.END``, ``.BODY``,
``.LCV``, ``.INIT``, ``.FINAL``) are answered from the structures built
here.  The tables are pure views: they hold qids, not positions, and are
rebuilt whenever the program version changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.program import IRError, Program
from repro.ir.quad import Opcode, Quad
from repro.ir.types import Const


@dataclass
class Loop:
    """One loop of the program, identified by its head quad's qid."""

    head_qid: int
    end_qid: int
    depth: int
    parent: Optional[int] = None  # head qid of the enclosing loop
    children: list[int] = field(default_factory=list)
    body_qids: tuple[int, ...] = ()  # strictly between head and end

    @property
    def qid(self) -> int:
        """Alias: a loop is named by its head quad's qid."""
        return self.head_qid


@dataclass
class Conditional:
    """One IF region: the guard quad and its THEN/ELSE member qids."""

    if_qid: int
    else_qid: Optional[int]
    endif_qid: int
    then_qids: tuple[int, ...] = ()
    else_qids: tuple[int, ...] = ()


class StructureTable:
    """Loop and conditional structure for one program version."""

    def __init__(self, program: Program):
        self.program = program
        self.version = program.version
        self.loops: dict[int, Loop] = {}
        self.conditionals: dict[int, Conditional] = {}
        #: innermost enclosing loop head qid for every quad (or None)
        self.enclosing_loop: dict[int, Optional[int]] = {}
        #: guard qids (IF or loop head) controlling each quad, outermost first
        self.controllers: dict[int, tuple[int, ...]] = {}
        self._chain_cache: dict[int, tuple[int, ...]] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        loop_stack: list[tuple[int, list[int]]] = []
        cond_stack: list[tuple[int, Optional[int], list[int], list[int]]] = []
        control_stack: list[int] = []
        order: list[int] = []  # loop head qids in program order

        for quad in self.program:
            qid = quad.qid
            self.enclosing_loop[qid] = loop_stack[-1][0] if loop_stack else None
            self.controllers[qid] = tuple(control_stack)

            op = quad.opcode
            if op in (Opcode.DO, Opcode.DOALL):
                for _head, body in loop_stack:
                    body.append(qid)
                for entry in cond_stack:
                    (entry[3] if entry[1] is not None else entry[2]).append(qid)
                loop_stack.append((qid, []))
                control_stack.append(qid)
                order.append(qid)
            elif op is Opcode.ENDDO:
                if not loop_stack:
                    raise IRError(f"unmatched ENDDO at qid {qid}")
                head_qid, body = loop_stack.pop()
                control_stack.pop()
                depth = len(loop_stack) + 1
                parent = loop_stack[-1][0] if loop_stack else None
                loop = Loop(
                    head_qid=head_qid,
                    end_qid=qid,
                    depth=depth,
                    parent=parent,
                    body_qids=tuple(body),
                )
                self.loops[head_qid] = loop
                for _head, outer_body in loop_stack:
                    outer_body.append(qid)
                for entry in cond_stack:
                    (entry[3] if entry[1] is not None else entry[2]).append(qid)
            elif op is Opcode.IF:
                for _head, body in loop_stack:
                    body.append(qid)
                for entry in cond_stack:
                    (entry[3] if entry[1] is not None else entry[2]).append(qid)
                cond_stack.append((qid, None, [], []))
                control_stack.append(qid)
            elif op is Opcode.ELSE:
                if not cond_stack:
                    raise IRError(f"ELSE outside IF at qid {qid}")
                if_qid, _else, then_qids, else_qids = cond_stack.pop()
                cond_stack.append((if_qid, qid, then_qids, else_qids))
                for _head, body in loop_stack:
                    body.append(qid)
            elif op is Opcode.ENDIF:
                if not cond_stack:
                    raise IRError(f"unmatched ENDIF at qid {qid}")
                if_qid, else_qid, then_qids, else_qids = cond_stack.pop()
                control_stack.pop()
                self.conditionals[if_qid] = Conditional(
                    if_qid=if_qid,
                    else_qid=else_qid,
                    endif_qid=qid,
                    then_qids=tuple(then_qids),
                    else_qids=tuple(else_qids),
                )
                for _head, body in loop_stack:
                    body.append(qid)
                for entry in cond_stack:
                    (entry[3] if entry[1] is not None else entry[2]).append(qid)
            else:
                for _head, body in loop_stack:
                    body.append(qid)
                for entry in cond_stack:
                    (entry[3] if entry[1] is not None else entry[2]).append(qid)

        if loop_stack:
            raise IRError("unterminated loop region")
        if cond_stack:
            raise IRError("unterminated IF region")

        for loop in self.loops.values():
            if loop.parent is not None:
                self.loops[loop.parent].children.append(loop.head_qid)
        self._order = order

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def loops_in_order(self) -> list[Loop]:
        """All loops, by program order of their head quads."""
        return [self.loops[qid] for qid in self._order]

    def loop_of(self, head_qid: int) -> Loop:
        """The loop whose head quad has the given qid."""
        loop = self.loops.get(head_qid)
        if loop is None:
            raise IRError(f"qid {head_qid} is not a loop head")
        return loop

    def loop_head_quad(self, head_qid: int) -> Quad:
        """The DO/DOALL quad of a loop."""
        return self.program.quad(head_qid)

    def member(self, qid: int, head_qid: int) -> bool:
        """GOSpeL ``mem(S, L)``: is ``qid`` in the body of loop ``head_qid``?"""
        return qid in set(self.loop_of(head_qid).body_qids)

    def loop_chain(self, qid: int) -> tuple[int, ...]:
        """Head qids of the loops enclosing a quad, outermost first.

        Cached per quad: dependence analysis asks for the chain of both
        endpoints of every access pair it tests, and the table is
        immutable for its program version.
        """
        cached = self._chain_cache.get(qid)
        if cached is not None:
            return cached
        heads: list[int] = []
        current = self.enclosing_loop.get(qid)
        while current is not None:
            heads.append(current)
            current = self.loops[current].parent
        heads.reverse()
        chain = tuple(heads)
        self._chain_cache[qid] = chain
        return chain

    def common_loops(self, qid_a: int, qid_b: int) -> list[Loop]:
        """Loops enclosing both quads, outermost first.

        The length of this list is the length of the direction vectors
        for dependences between the two statements.
        """
        chain_a, chain_b = self.loop_chain(qid_a), self.loop_chain(qid_b)
        shared: list[Loop] = []
        for head_a, head_b in zip(chain_a, chain_b):
            if head_a != head_b:
                break
            shared.append(self.loops[head_a])
        return shared

    def nesting_depth(self, qid: int) -> int:
        """Number of loops enclosing the quad."""
        depth = 0
        current = self.enclosing_loop.get(qid)
        while current is not None:
            depth += 1
            current = self.loops[current].parent
        return depth

    # ------------------------------------------------------------------
    # GOSpeL loop-pair types
    # ------------------------------------------------------------------
    def nested_pairs(self) -> list[tuple[int, int]]:
        """All ``(outer, inner)`` loop pairs with outer enclosing inner."""
        pairs = []
        for outer_qid in self._order:
            for inner_qid in self._order:
                if inner_qid == outer_qid:
                    continue
                if self._encloses(outer_qid, inner_qid):
                    pairs.append((outer_qid, inner_qid))
        return pairs

    def _encloses(self, outer_qid: int, inner_qid: int) -> bool:
        current = self.loops[inner_qid].parent
        while current is not None:
            if current == outer_qid:
                return True
            current = self.loops[current].parent
        return False

    def tight_pairs(self) -> list[tuple[int, int]]:
        """Tightly nested ``(outer, inner)`` pairs.

        "Two loops are tightly nested if one surrounds the other without
        any statements between them" — no quads between the heads and
        none between the ends.
        """
        pairs = []
        for outer_qid, inner_qid in self.nested_pairs():
            outer = self.loops[outer_qid]
            inner = self.loops[inner_qid]
            if inner.parent != outer_qid:
                continue
            head_gap = self.program.next_qid_of(outer.head_qid)
            end_gap = self.program.next_qid_of(inner.end_qid)
            if head_gap == inner.head_qid and end_gap == outer.end_qid:
                pairs.append((outer_qid, inner_qid))
        return pairs

    def adjacent_pairs(self) -> list[tuple[int, int]]:
        """Adjacent ``(first, second)`` sibling loop pairs.

        Two loops are adjacent when the second's head immediately
        follows the first's end quad.
        """
        pairs = []
        for first_qid in self._order:
            first = self.loops[first_qid]
            follower = self.program.next_qid_of(first.end_qid)
            if follower is not None and follower in self.loops:
                pairs.append((first_qid, follower))
        return pairs

    def perfect_nest_from(self, outer_qid: int) -> list[int]:
        """The maximal tight nest starting at ``outer_qid`` (head qids)."""
        nest = [outer_qid]
        tight = dict(self.tight_pairs())
        while nest[-1] in tight:
            nest.append(tight[nest[-1]])
        return nest


def loop_attributes(program: Program, head_qid: int) -> dict[str, object]:
    """The GOSpeL pre-defined attributes of a loop.

    Returns a mapping with keys ``head``, ``end``, ``body``, ``lcv``,
    ``init``, ``final`` and ``step``.
    """
    table = StructureTable(program)
    loop = table.loop_of(head_qid)
    head = program.quad(head_qid)
    return {
        "head": loop.head_qid,
        "end": loop.end_qid,
        "body": loop.body_qids,
        "lcv": head.result,
        "init": head.a,
        "final": head.b,
        "step": head.step,
    }


def trip_count(head: Quad, default: Optional[int] = None) -> Optional[int]:
    """Trip count of a loop with constant bounds, else ``default``."""
    if (
        isinstance(head.a, Const)
        and isinstance(head.b, Const)
        and isinstance(head.step, Const)
        and head.step.value != 0
    ):
        span = head.b.value - head.a.value
        count = span // head.step.value + 1
        return max(0, int(count))
    return default
