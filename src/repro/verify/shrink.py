"""Counterexample minimization for oracle failures.

Given a program on which some transformation diverges, the shrinker
greedily deletes code while a caller-supplied predicate ("does the
divergence persist?") stays true.  Three reduction operators, tried
from coarsest to finest each round:

* delete a whole ``DO``/``ENDDO`` or ``IF``/``ELSE``/``ENDIF`` region;
* *unwrap* a region (drop the markers, keep the body) — turns loop
  bodies into straight-line code so the finer operator can bite;
* delete one non-structural statement.

The regions are read from :func:`repro.ir.loops.match_regions`, so
the input program must nest properly (the matcher raises
:class:`IRError` otherwise).  Every candidate is then a structurally
valid program by construction (regions are removed or unwrapped
atomically, an IF with its ELSE), so the predicate never sees torn IR.
The result is typically a handful of statements — small enough to
eyeball the miscompile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.ir.interp import InterpError
from repro.ir.loops import match_regions
from repro.ir.program import IRError, Program
from repro.ir.quad import Quad
from repro.ir.validate import ValidationError

#: predicate: True while the candidate still exhibits the failure
Predicate = Callable[[Program], bool]


@dataclass
class ShrinkResult:
    """Outcome of one shrink run."""

    program: Program
    original_statements: int
    statements: int
    rounds: int
    attempts: int

    def __str__(self) -> str:
        return (
            f"shrunk {self.original_statements} -> {self.statements} "
            f"quad(s) in {self.rounds} round(s), {self.attempts} attempt(s)"
        )


def _rebuild(quads: list[Quad], name: str) -> Program:
    return Program(
        quads=(quad.copy() for quad in quads), name=name
    )


def _candidates(quads: list[Quad], name: str) -> Iterator[Program]:
    """Candidate reductions, coarsest first."""
    regions = match_regions(quads)
    spans_by_size = sorted(
        regions.end.items(), key=lambda span: span[1] - span[0], reverse=True
    )
    # 1. whole-region deletion, biggest regions first
    for start, stop in spans_by_size:
        yield _rebuild(quads[:start] + quads[stop + 1:], name)
    # 2. region unwrapping (drop markers, keep the body)
    for start, stop in spans_by_size:
        # an IF's ELSE goes with it (``None`` matches no position)
        markers = {start, stop, regions.orelse.get(start)}
        kept = [
            quad
            for position, quad in enumerate(quads)
            if position not in markers
        ]
        yield _rebuild(kept, name)
    # 3. single-statement deletion
    for position, quad in enumerate(quads):
        if quad.is_structural():
            continue
        yield _rebuild(quads[:position] + quads[position + 1:], name)


def shrink_program(
    program: Program,
    still_fails: Predicate,
    max_attempts: int = 1000,
    name: Optional[str] = None,
) -> ShrinkResult:
    """Minimize ``program`` while ``still_fails`` holds.

    The input program itself must satisfy the predicate; the returned
    program always does.  Greedy first-improvement search with restart
    after every accepted reduction, bounded by ``max_attempts``
    predicate evaluations.
    """
    name = name or f"{program.name}_shrunk"
    current = list(program)
    original_statements = len(current)
    rounds = 0
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        rounds += 1
        for candidate in _candidates(current, name):
            if len(candidate) >= len(current):
                continue
            if attempts >= max_attempts:
                break
            attempts += 1
            try:
                failed = still_fails(candidate)
            except (InterpError, IRError, ValidationError):
                # a candidate the interpreter/IR machinery rejects is
                # not a repro; anything else is a real bug — propagate
                failed = False
            if failed:
                current = list(candidate)
                improved = True
                break
    return ShrinkResult(
        program=_rebuild(current, name),
        original_statements=original_statements,
        statements=len(current),
        rounds=rounds,
        attempts=attempts,
    )
