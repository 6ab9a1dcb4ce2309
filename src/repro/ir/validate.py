"""Whole-program well-formedness validation.

The nesting of region markers is checked first, by
:meth:`Program.check_structure`, which applies the IR's one region
matcher (:func:`repro.ir.loops.match_regions`).  Beyond it,
:func:`validate_program` enforces the IR's semantic rules — the
invariants every frontend-produced program satisfies and every
transformation must preserve.  Property tests run it after each
optimization; it is also handy when building IR by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.program import Program
from repro.ir.quad import (
    BINARY_OPS,
    COMPUTE_OPS,
    LOOP_HEADS,
    Opcode,
    Quad,
    RELOPS,
    UNARY_OPS,
)
from repro.ir.types import ArrayRef, Const, Operand, Var


@dataclass
class ValidationReport:
    """Collected violations (empty means the program is well formed)."""

    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, quad: Quad, message: str) -> None:
        self.problems.append(f"S{quad.qid}: {message}")

    def __str__(self) -> str:
        if self.ok:
            return "program is well formed"
        return "\n".join(self.problems)


class ValidationError(Exception):
    """Raised by :func:`validate_program` in strict mode."""


def validate_program(program: Program, strict: bool = True) -> ValidationReport:
    """Check structural and semantic well-formedness.

    Rules:

    * region markers nest (delegates to ``check_structure``);
    * computing quads have the operands their opcode requires;
    * ``IF`` quads carry a valid relop and two operands;
    * loop heads have a ``Var`` control variable, bounds and a step;
    * ``READ`` targets are assignable (variable or element);
    * no statement assigns an enclosing loop's control variable
      (FORTRAN DO semantics — the analyses rely on it);
    * array references have at least one subscript.

    With ``strict`` (default) a failing program raises
    :class:`ValidationError`; otherwise the report is returned for
    inspection.
    """
    report = ValidationReport()
    try:
        program.check_structure()
    except Exception as error:  # IRError
        report.problems.append(str(error))
        if strict:
            raise ValidationError(str(report)) from None
        return report

    active_lcvs: list[str] = []
    for quad in program:
        op = quad.opcode
        if op in LOOP_HEADS:
            _check_loop_head(quad, report)
            if isinstance(quad.result, Var):
                if quad.result.name in active_lcvs:
                    report.add(
                        quad,
                        f"control variable {quad.result.name!r} already "
                        "controls an enclosing loop",
                    )
                active_lcvs.append(quad.result.name)
            else:
                active_lcvs.append("?")
        elif op is Opcode.ENDDO:
            if active_lcvs:
                active_lcvs.pop()
        elif op is Opcode.IF:
            _check_if(quad, report)
        elif op in COMPUTE_OPS:
            _check_compute(quad, report)
            target = quad.defined_scalar()
            if target is not None and target in active_lcvs:
                report.add(
                    quad,
                    f"assigns the active loop control variable {target!r}",
                )
        elif op is Opcode.READ:
            if not isinstance(quad.a, (Var, ArrayRef)):
                report.add(quad, "READ target must be a variable or element")
            target = quad.defined_scalar()
            if target is not None and target in active_lcvs:
                report.add(
                    quad,
                    f"reads into the active loop control variable {target!r}",
                )
        elif op is Opcode.WRITE:
            if quad.a is None:
                report.add(quad, "WRITE needs an operand")
        _check_array_refs(quad, report)

    if strict and not report.ok:
        raise ValidationError(str(report))
    return report


def _check_loop_head(quad: Quad, report: ValidationReport) -> None:
    if not isinstance(quad.result, Var):
        report.add(quad, "loop head needs a Var control variable")
    for label, operand in (("init", quad.a), ("final", quad.b),
                           ("step", quad.step)):
        if operand is None:
            report.add(quad, f"loop head missing {label}")
    if isinstance(quad.step, Const) and quad.step.value == 0:
        report.add(quad, "loop step must be nonzero")


def _check_if(quad: Quad, report: ValidationReport) -> None:
    if quad.relop not in RELOPS:
        report.add(quad, f"IF carries invalid relop {quad.relop!r}")
    if quad.a is None or quad.b is None:
        report.add(quad, "IF needs two comparison operands")


def _check_compute(quad: Quad, report: ValidationReport) -> None:
    op = quad.opcode
    if quad.result is None or not isinstance(quad.result, (Var, ArrayRef)):
        report.add(quad, "computation needs an assignable result")
    if quad.a is None:
        report.add(quad, "computation missing its first operand")
    if op in BINARY_OPS and quad.b is None:
        report.add(quad, f"{op.value} needs a second operand")
    if op is Opcode.ASSIGN and quad.b is not None:
        report.add(quad, "assign must not have a second operand")
    if op in UNARY_OPS and quad.b is not None:
        report.add(quad, f"{op.value} must not have a second operand")


def _check_array_refs(quad: Quad, report: ValidationReport) -> None:
    operands: list[Operand] = []
    for attr in ("result", "a", "b", "step"):
        operand = getattr(quad, attr if attr != "step" else "step", None)
        if attr == "result":
            operand = quad.result
        if operand is not None:
            operands.append(operand)
    for operand in operands:
        if isinstance(operand, ArrayRef) and not operand.subscripts:
            report.add(quad, f"array reference {operand.name} lacks "
                       "subscripts")
