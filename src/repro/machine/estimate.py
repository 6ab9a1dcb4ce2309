"""Static execution-time estimation over the structured IR.

Walks the program structure once, multiplying statement costs by
(estimated) trip counts; ``DOALL`` regions divide by the machine's
parallelism.  IF regions charge the more expensive branch (worst case,
deterministic).  This mirrors how the paper *estimates* (rather than
runs) the benefit of optimizations under different architectures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir.loops import trip_count
from repro.ir.program import Program
from repro.ir.quad import LOOP_HEADS, Opcode
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
    parallel = _walk(program, model, 0, len(program), honour_doall=True)
    sequential = _walk(program, model, 0, len(program), honour_doall=False)
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
    program: Program,
    model: MachineModel,
    start: int,
    stop: int,
    honour_doall: bool,
) -> float:
    total = 0.0
    position = start
    while position < stop:
        quad = program[position]
        op = quad.opcode
        if op in LOOP_HEADS:
            end_position = _matching_enddo(program, position)
            trip = trip_count(quad, default=model.default_trip) or 0
            body = _walk(
                program, model, position + 1, end_position, honour_doall
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
            else_position, endif_position = _matching_else_endif(
                program, position
            )
            then_stop = (
                else_position if else_position is not None else endif_position
            )
            then_cost = _walk(
                program, model, position + 1, then_stop, honour_doall
            )
            else_cost = 0.0
            if else_position is not None:
                else_cost = _walk(
                    program, model, else_position + 1, endif_position,
                    honour_doall,
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
    stack: list[tuple[int, bool]] = []  # (position, is_doall)
    doall_depth = 0
    innermost_doall: list[int] = []
    for position, quad in enumerate(copy):
        if quad.opcode in LOOP_HEADS:
            is_doall = quad.opcode is Opcode.DOALL
            if is_doall:
                if policy == "outermost" and doall_depth > 0:
                    _demote(copy, quad.qid)
                    is_doall = False
                else:
                    doall_depth += 1
                    if policy == "innermost":
                        innermost_doall.append(position)
            stack.append((position, is_doall))
        elif quad.opcode is Opcode.ENDDO:
            _position, was_doall = stack.pop()
            if was_doall:
                doall_depth -= 1
    if policy == "innermost":
        # demote every DOALL that still contains another DOALL
        for outer in innermost_doall:
            end = _matching_enddo(copy, outer)
            for inner in innermost_doall:
                if inner != outer and outer < inner < end:
                    _demote(copy, copy[outer].qid)
                    break
    return copy


def _demote(program: Program, qid: int) -> None:
    """Turn the DOALL ``qid`` into a sequential DO, reported to the log."""
    before = program.preimage(qid)
    program.quad(qid).opcode = Opcode.DO
    program.touch(qid, before)


def _matching_enddo(program: Program, head_position: int) -> int:
    depth = 0
    for position in range(head_position, len(program)):
        op = program[position].opcode
        if op in LOOP_HEADS:
            depth += 1
        elif op is Opcode.ENDDO:
            depth -= 1
            if depth == 0:
                return position
    raise ValueError("unterminated loop")


def _matching_else_endif(
    program: Program, if_position: int
) -> tuple[Optional[int], int]:
    depth = 0
    else_position: Optional[int] = None
    for position in range(if_position, len(program)):
        op = program[position].opcode
        if op is Opcode.IF:
            depth += 1
        elif op is Opcode.ELSE and depth == 1:
            else_position = position
        elif op is Opcode.ENDIF:
            depth -= 1
            if depth == 0:
                return else_position, position
    raise ValueError("unterminated IF")
