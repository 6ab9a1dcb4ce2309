"""Statement-level control-flow graph for the structured quad IR.

Because the IR is fully structured (DO/ENDDO, IF/ELSE/ENDIF, no gotos),
the CFG is derived directly from the markers:

* ``DO`` branches into its body and — for the zero-trip case — past the
  matching ``ENDDO``;
* ``ENDDO`` branches back to its ``DO`` (the *back edge*) and out;
* ``IF`` branches to the THEN part and to the ELSE part (or past the
  ``ENDIF`` when there is none);
* ``ELSE`` is the "end of THEN" jump and goes straight to ``ENDIF``;
* everything else falls through.

Nodes are list positions (ints); the virtual exit node is
``len(program)``.  Back edges are recorded so dependence analysis can
distinguish loop-independent from loop-carried reaching paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.loops import match_regions
from repro.ir.program import Program
from repro.ir.quad import LOOP_HEADS, Opcode


@dataclass
class CFG:
    """Control-flow graph over quad positions."""

    program: Program
    succs: list[list[int]] = field(default_factory=list)
    preds: list[list[int]] = field(default_factory=list)
    #: set of (src, dst) edges that are loop back edges
    back_edges: set[tuple[int, int]] = field(default_factory=set)
    #: position of matching ENDDO for each loop-head position
    enddo_of: dict[int, int] = field(default_factory=dict)

    @property
    def entry(self) -> int:
        return 0

    @property
    def exit(self) -> int:
        return len(self.program)

    def node_count(self) -> int:
        """Nodes = every quad position plus the virtual exit."""
        return len(self.program) + 1

    def successors(self, position: int) -> list[int]:
        return self.succs[position]

    def predecessors(self, position: int) -> list[int]:
        return self.preds[position]

    def forward_successors(self, position: int) -> list[int]:
        """Successors excluding back edges (the acyclic CFG)."""
        return [
            succ
            for succ in self.succs[position]
            if (position, succ) not in self.back_edges
        ]

    def forward_predecessors(self, position: int) -> list[int]:
        """Predecessors excluding back edges (the acyclic CFG)."""
        return [
            pred
            for pred in self.preds[position]
            if (pred, position) not in self.back_edges
        ]


def build_cfg(program: Program) -> CFG:
    """Construct the CFG for a structured program.

    The edges come from :func:`repro.ir.loops.match_regions`'s pairs,
    so malformed nesting raises the matcher's :class:`IRError`.
    """
    end, orelse = match_regions(program)
    size = len(program)
    cfg = CFG(
        program=program,
        succs=[[] for _ in range(size + 1)],
        preds=[[] for _ in range(size + 1)],
    )
    head_of_end = {close: head for head, close in end.items()}
    guard_of_else = {
        position: guard
        for guard, position in orelse.items()
        if position is not None
    }

    def add_edge(src: int, dst: int, back: bool = False) -> None:
        cfg.succs[src].append(dst)
        cfg.preds[dst].append(src)
        if back:
            cfg.back_edges.add((src, dst))

    for position, quad in enumerate(program):
        op = quad.opcode
        if op in LOOP_HEADS:
            enddo = end[position]
            cfg.enddo_of[position] = enddo
            add_edge(position, position + 1)  # enter the body
            add_edge(position, enddo + 1)  # zero-trip skip
        elif op is Opcode.ENDDO:
            # next iteration, then the loop exit
            add_edge(position, head_of_end[position], back=True)
            add_edge(position, position + 1)
        elif op is Opcode.IF:
            add_edge(position, position + 1)  # THEN part
            else_position = orelse[position]
            if else_position is not None:
                add_edge(position, else_position + 1)  # ELSE part
            else:
                add_edge(position, end[position])
        elif op is Opcode.ELSE:
            # skip the ELSE body
            add_edge(position, end[guard_of_else[position]])
        else:
            add_edge(position, position + 1)

    return cfg
