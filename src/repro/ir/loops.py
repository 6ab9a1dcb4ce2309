"""Loop and conditional structure recovered from the marker quads.

:func:`match_regions` is the one reading of the IR's nesting rule: it
pairs every ``DO``/``DOALL`` with its ``ENDDO`` and every ``IF`` with
its optional ``ELSE`` and its ``ENDIF`` in a single stack pass, and
raises :class:`IRError` on any nesting fault.  The nesting check, the
CFG, the interpreter, the time estimator and the shrinker all read
their regions from it.

GOSpeL's loop types (``Loop``, ``Nested Loops``, ``Tight Loops``,
``Adjacent Loops``) and loop attributes (``.HEAD``, ``.END``, ``.BODY``,
``.LCV``, ``.INIT``, ``.FINAL``) are answered from the
:class:`StructureTable` built from those pairs.  The tables are pure
views: they hold qids, not positions, and are rebuilt whenever the
program version changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from repro.ir.program import IRError, Program
from repro.ir.quad import Opcode, Quad
from repro.ir.types import Const


class Regions(NamedTuple):
    """The region markers of a quad sequence, paired by position."""

    #: every DO/DOALL/IF position, in program order -> its ENDDO/ENDIF
    end: dict[int, int]
    #: every IF position -> its ELSE position, or None without one
    orelse: dict[int, Optional[int]]


def match_regions(quads: Iterable[Quad]) -> Regions:
    """Pair the region markers of ``quads`` in one stack pass.

    Raises :class:`IRError`, naming the offending qid, when an
    ``ENDDO`` or ``ENDIF`` does not close an innermost open region of
    its own kind, when an ``ELSE``'s innermost open region is not an
    ``IF`` or is an ``IF`` that already has an ``ELSE``, and when a
    region is still open at the end.
    """
    end: dict[int, int] = {}
    orelse: dict[int, Optional[int]] = {}
    stack: list[tuple[int, Quad]] = []
    # enum members as locals: this loop runs once per quad, and an
    # ``Opcode.X`` lookup costs more than the rest of a quad's work
    do, doall, if_ = Opcode.DO, Opcode.DOALL, Opcode.IF
    enddo, else_, endif = Opcode.ENDDO, Opcode.ELSE, Opcode.ENDIF
    for position, quad in enumerate(quads):
        op = quad.opcode
        if op is do or op is doall or op is if_:
            stack.append((position, quad))
            end[position] = -1  # set at the closer; keeps program order
            if op is if_:
                orelse[position] = None
        elif op is enddo or op is endif:
            if not stack or (stack[-1][1].opcode is if_) != (op is endif):
                raise IRError(f"unmatched {op.name} at qid {quad.qid}")
            end[stack.pop()[0]] = position
        elif op is else_:
            if not stack or stack[-1][1].opcode is not if_:
                raise IRError(f"ELSE outside IF at qid {quad.qid}")
            opener, opener_quad = stack[-1]
            if orelse[opener] is not None:
                raise IRError(
                    f"second ELSE at qid {quad.qid} for the IF at qid "
                    f"{opener_quad.qid}"
                )
            orelse[opener] = position
    if stack:
        _position, quad = stack[-1]
        raise IRError(
            f"unterminated {quad.opcode.name} region at qid {quad.qid}"
        )
    return Regions(end, orelse)


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
    """One IF region: the guard quad and its THEN/ELSE member qids.

    The members are every quad strictly between the IF and its ELSE
    (THEN) and between the ELSE and the ENDIF (ELSE), nested markers
    included.
    """

    if_qid: int
    else_qid: Optional[int]
    endif_qid: int
    then_qids: tuple[int, ...] = ()
    else_qids: tuple[int, ...] = ()


class StructureTable:
    """Loop and conditional structure for one program version.

    A region opened at position h and closed at e has the quads
    strictly inside as its body, and it controls the quads at
    positions h < p <= e: its own ``ENDDO``, ``ELSE`` and ``ENDIF``
    count as controlled by it.
    """

    def __init__(self, program: Program):
        self.program = program
        self.version = program.version
        #: every loop, by head qid in program order
        self.loops: dict[int, Loop] = {}
        self.conditionals: dict[int, Conditional] = {}
        quads = list(program)
        qids = [quad.qid for quad in quads]
        #: innermost enclosing loop head qid for every quad (or None)
        self.enclosing_loop: dict[int, Optional[int]] = dict.fromkeys(qids)
        #: guard qids (IF or loop head) controlling each quad, outermost first
        self.controllers: dict[int, tuple[int, ...]] = dict.fromkeys(
            qids, ()
        )
        self._chain_cache: dict[int, tuple[int, ...]] = {}
        end, orelse = match_regions(quads)
        controllers, enclosing = self.controllers, self.enclosing_loop
        # Openers come outermost first, so an inner region overwrites
        # the entries its enclosing region wrote.  Plain stores, not
        # bulk dict updates: the temporary dicts of a bulk update set
        # off about twice as many garbage collections inside the build.
        for head, close in end.items():
            head_qid = qids[head]
            chain = controllers[head_qid] + (head_qid,)
            for position in range(head + 1, close + 1):
                controllers[qids[position]] = chain
            if head in orelse:
                else_position = orelse[head]
                if else_position is None:
                    else_qid, then_stop, else_qids = None, close, ()
                else:
                    else_qid, then_stop = qids[else_position], else_position
                    else_qids = tuple(qids[else_position + 1:close])
                self.conditionals[head_qid] = Conditional(
                    if_qid=head_qid,
                    else_qid=else_qid,
                    endif_qid=qids[close],
                    then_qids=tuple(qids[head + 1:then_stop]),
                    else_qids=else_qids,
                )
                continue
            parent = enclosing[head_qid]
            self.loops[head_qid] = Loop(
                head_qid=head_qid,
                end_qid=qids[close],
                depth=1 if parent is None else self.loops[parent].depth + 1,
                parent=parent,
                body_qids=tuple(qids[head + 1:close]),
            )
            if parent is not None:
                self.loops[parent].children.append(head_qid)
            for position in range(head + 1, close + 1):
                enclosing[qids[position]] = head_qid

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def loops_in_order(self) -> list[Loop]:
        """All loops, by program order of their head quads."""
        return list(self.loops.values())

    def loop_of(self, head_qid: int) -> Loop:
        """The loop whose head quad has the given qid."""
        loop = self.loops.get(head_qid)
        if loop is None:
            raise IRError(f"qid {head_qid} is not a loop head")
        return loop

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
        for outer_qid in self.loops:
            for inner_qid in self.loops:
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
        for first_qid in self.loops:
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
