"""Static execution-time estimation over the structured IR.

Walks the program structure once, multiplying statement costs by
(estimated) trip counts; ``DOALL`` regions divide by the machine's
parallelism.  IF regions charge the more expensive branch (worst case,
deterministic).  This mirrors how the paper *estimates* (rather than
runs) the benefit of optimizations under different architectures.

Regions come from :func:`repro.ir.loops.match_regions`, once per call;
a program whose markers do not nest raises its :class:`IRError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.loops import Regions, match_regions, trip_count
from repro.ir.program import Program
from repro.ir.quad import LOOP_HEADS, Opcode, Quad
from repro.machine.models import MachineModel, SCALAR


@dataclass
class TimeEstimate:
    """Estimated cycles plus a breakdown for reports."""

    cycles: float
    sequential_cycles: float  # same program with DOALL treated as DO

    @property
    def parallel_speedup(self) -> float:
        if self.cycles == 0:
            return 1.0
        return self.sequential_cycles / self.cycles


def estimate_time(
    program: Program, model: MachineModel = SCALAR
) -> TimeEstimate:
    """Estimate execution time of a program under a machine model."""
    quads = list(program)
    regions = match_regions(quads)
    size = len(quads)
    parallel = _walk(quads, regions, model, 0, size, honour_doall=True)
    sequential = _walk(quads, regions, model, 0, size, honour_doall=False)
    return TimeEstimate(cycles=parallel, sequential_cycles=sequential)


def estimate_benefit(
    before: Program, after: Program, model: MachineModel = SCALAR
) -> float:
    """Estimated cycles saved by a transformation (positive = faster)."""
    return (
        estimate_time(before, model).cycles
        - estimate_time(after, model).cycles
    )


def _walk(
    quads: list[Quad],
    regions: Regions,
    model: MachineModel,
    start: int,
    stop: int,
    honour_doall: bool,
) -> float:
    total = 0.0
    position = start
    while position < stop:
        quad = quads[position]
        op = quad.opcode
        if op in LOOP_HEADS:
            end_position = regions.end[position]
            trip = trip_count(quad, default=model.default_trip) or 0
            body = _walk(
                quads, regions, model, position + 1, end_position,
                honour_doall,
            )
            control = model.cost_of(op) * trip
            if op is Opcode.DOALL and honour_doall:
                factor = model.doall_factor(trip)
                total += (
                    model.doall_startup
                    + (body * trip + control) / factor
                )
            else:
                total += body * trip + control
            position = end_position + 1
        elif op is Opcode.IF:
            else_position = regions.orelse[position]
            endif_position = regions.end[position]
            then_stop = (
                else_position if else_position is not None else endif_position
            )
            then_cost = _walk(
                quads, regions, model, position + 1, then_stop, honour_doall
            )
            else_cost = 0.0
            if else_position is not None:
                else_cost = _walk(
                    quads, regions, model, else_position + 1,
                    endif_position, honour_doall,
                )
            total += model.cost_of(op) + max(then_cost, else_cost)
            position = endif_position + 1
        else:
            total += model.cost_of(op)
            position += 1
    return total


def restrict_parallel(program: Program, policy: str) -> Program:
    """A copy with DOALL kept only at the chosen nesting extreme.

    Real targets exploit one level of a parallel nest: a multiprocessor
    runs the *outermost* DOALL (one fork/join), a vector unit the
    *innermost* (pipelined elements).  ``policy`` is ``"outermost"`` or
    ``"innermost"``; other DOALLs demote to sequential DO.
    """
    if policy not in ("outermost", "innermost"):
        raise ValueError(f"unknown parallel policy {policy!r}")
    copy = program.clone()
    quads = list(copy)
    end = match_regions(quads).end
    doalls = [
        position
        for position, quad in enumerate(quads)
        if quad.opcode is Opcode.DOALL
    ]
    if policy == "outermost":
        # keep a DOALL unless the last kept one's region encloses it
        reach = -1
        for position in doalls:
            if position < reach:
                _demote(copy, quads[position].qid)
            else:
                reach = end[position]
    else:
        # demote every DOALL that contains another one: the next DOALL
        # in program order is its first candidate
        for this, following in zip(doalls, doalls[1:]):
            if following < end[this]:
                _demote(copy, quads[this].qid)
    return copy


def _demote(program: Program, qid: int) -> None:
    """Turn the DOALL ``qid`` into a sequential DO, reported to the log."""
    before = program.preimage(qid)
    program.quad(qid).opcode = Opcode.DO
    program.touch(qid, before)
