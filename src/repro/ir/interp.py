"""A reference interpreter for the quad IR.

The interpreter is the *semantic oracle* for the whole reproduction:
every optimization (generated or hand-coded) is validated by executing
the program before and after transformation on concrete inputs and
comparing the observable behaviour (the ``write`` trace and final
variable state).  It also drives the machine-model *benefit* estimates
of experiment E5 by counting executed quads per opcode.

Regions are paired once, when an :class:`Interpreter` is constructed,
by :func:`repro.ir.loops.match_regions`.  A program whose markers do
not nest raises :class:`InterpError` there, so an oracle sees a torn
program as one more runtime failure of that side.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.ir.loops import match_regions
from repro.ir.program import IRError, Program
from repro.ir.quad import BINARY_OPS, Opcode, Quad, UNARY_OPS
from repro.ir.types import Affine, ArrayRef, Const, Number, Operand, Var

# Opcode members bound once.  On Python 3.11 every ``Opcode.X`` load
# goes through ``EnumType.__getattr__`` and every Enum hash (a set
# membership test, a Counter key) runs Python code; the run loop would
# pay both for every executed quad.
_DO, _DOALL, _IF, _READ, _WRITE, _ASSIGN = (
    Opcode.DO, Opcode.DOALL, Opcode.IF, Opcode.READ, Opcode.WRITE,
    Opcode.ASSIGN,
)
_ADD, _SUB, _MUL, _DIV, _MOD, _POW = (
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD, Opcode.POW,
)
_NEG, _ABS, _SQRT, _SIN, _COS, _EXP, _LOG = (
    Opcode.NEG, Opcode.ABS, Opcode.SQRT, Opcode.SIN, Opcode.COS,
    Opcode.EXP, Opcode.LOG,
)
#: markers the run loop steps over (tuples test membership by identity)
_PASSIVE = (Opcode.ELSE, Opcode.ENDIF, Opcode.ENDDO, Opcode.NOP)
_BINARY = tuple(BINARY_OPS)
_UNARY = tuple(UNARY_OPS)


class InterpError(Exception):
    """Raised for runtime errors (unbound variable, step overrun...).

    Every runtime failure surfaces as (a subclass of) this type — the
    interpreter never leaks ``KeyError``/``IndexError``/
    ``ZeroDivisionError``/``OverflowError``, so differential-testing
    oracles can treat "raises :class:`InterpError`" as one well-defined
    observable behaviour.
    """


class UninitializedError(InterpError):
    """Strict mode: a scalar or array cell was read before any write."""


class BoundsError(InterpError):
    """An array subscript fell outside the declared index bounds."""


@dataclass
class ExecutionResult:
    """Observable outcome of running a program."""

    output: list[Number]
    scalars: dict[str, Number]
    arrays: dict[str, dict[tuple[int, ...], Number]]
    steps: int
    opcode_counts: Counter = field(default_factory=Counter)

    def observable(self) -> tuple:
        """The behaviour two semantically-equal programs must share.

        Only the ``write`` trace counts: optimizations may legitimately
        change which temporaries exist or which dead values linger.
        Floating point values are rounded to 9 significant digits so
        re-association-free transformations compare cleanly.
        """
        return tuple(_normalize(value) for value in self.output)


def _normalize(value: Number):
    if isinstance(value, float):
        if math.isnan(value):
            # canonical token: two programs that both computed NaN
            # behaved the same, but nan != nan would call it divergent
            return "nan"
        if value == 0:
            return 0.0
        return float(f"{value:.9g}")
    return value


class Interpreter:
    """Executes a program over integer/float scalars and dense arrays.

    ``strict`` switches the permissive FORTRAN defaults off: reading an
    uninitialized scalar or array cell raises
    :class:`UninitializedError` instead of yielding 0.  ``array_bounds``
    optionally declares inclusive per-dimension index ranges; any
    subscript outside them raises :class:`BoundsError` (on load *and*
    store), whether or not strict mode is on.
    """

    def __init__(
        self,
        program: Program,
        max_steps: int = 2_000_000,
        strict: bool = False,
        array_bounds: Optional[
            dict[str, tuple[tuple[int, int], ...]]
        ] = None,
    ):
        self.program = program
        self.max_steps = max_steps
        self.strict = strict
        self.array_bounds = array_bounds
        self._quads = list(program)
        try:
            self._end, self._orelse = match_regions(self._quads)
        except IRError as error:
            raise InterpError(str(error)) from None

    def run(
        self,
        inputs: Sequence[Number] = (),
        scalars: Optional[dict[str, Number]] = None,
        arrays: Optional[dict[str, dict[tuple[int, ...], Number]]] = None,
    ) -> ExecutionResult:
        """Execute the whole program and return its observable result.

        ``inputs`` feeds ``read`` quads in order; reading past the end
        yields zeros (so randomly generated programs always run).
        Uninitialized scalars and array elements read as 0.
        """
        state = _State(
            scalars=dict(scalars or {}),
            arrays={name: dict(cells) for name, cells in (arrays or {}).items()},
            inputs=list(inputs),
            strict=self.strict,
            array_bounds=dict(self.array_bounds or {}),
            executions=[0] * len(self._quads),
        )
        self._run_range(state, 0, len(self.program))
        return ExecutionResult(
            output=state.output,
            scalars=state.scalars,
            arrays=state.arrays,
            steps=state.steps,
            opcode_counts=self._opcode_counts(state),
        )

    def _opcode_counts(self, state: "_State") -> Counter:
        """Fold the per-position execution counts into per-opcode
        counts.  Folding in first-execution order of the positions
        inserts each opcode at its first execution, the key order a
        per-step count would have given."""
        counts: Counter = Counter()
        quads, executions = self._quads, state.executions
        for position in state.first_executed:
            counts[quads[position].opcode] += executions[position]
        return counts

    # ------------------------------------------------------------------
    def _run_range(self, state: "_State", start: int, stop: int) -> None:
        """Execute quads in positions [start, stop)."""
        position = start
        quads = self._quads
        executions = state.executions
        max_steps = self.max_steps
        while position < stop:
            quad = quads[position]
            state.steps += 1
            if executions[position]:
                executions[position] += 1
            else:
                executions[position] = 1
                state.first_executed.append(position)
            if state.steps > max_steps:
                raise InterpError(f"step budget exceeded ({max_steps})")
            op = quad.opcode
            if op is _DO or op is _DOALL:
                position = self._run_loop(state, position)
            elif op is _IF:
                position = self._run_if(state, position)
            elif op in _PASSIVE:
                position += 1
            elif op is _READ:
                state.store(quad.a, state.next_input())
                position += 1
            elif op is _WRITE:
                state.output.append(state.load(quad.a))
                position += 1
            else:
                self._run_compute(state, quad)
                position += 1

    def _run_compute(self, state: "_State", quad: Quad) -> None:
        op = quad.opcode
        if op is _ASSIGN:
            value = state.load(quad.a)
        elif op in _BINARY:
            value = _apply_binary(op, state.load(quad.a), state.load(quad.b))
        elif op in _UNARY:
            value = _apply_unary(op, state.load(quad.a))
        else:
            raise InterpError(f"cannot execute opcode {op}")
        state.store(quad.result, value)

    def _run_loop(self, state: "_State", head_position: int) -> int:
        head = self._quads[head_position]
        end_position = self._end[head_position]
        lcv = head.result
        assert isinstance(lcv, Var)
        init = state.load(head.a)
        final = state.load(head.b)
        step = state.load(head.step)
        if step == 0:
            raise InterpError(f"zero loop step at qid {head.qid}")
        value = init
        while (step > 0 and value <= final) or (step < 0 and value >= final):
            state.scalars[lcv.name] = value
            self._run_range(state, head_position + 1, end_position)
            # FORTRAN semantics: the lcv may be read but not written in
            # the body; re-load in case a transformation renamed it.
            value = state.scalars[lcv.name] + step
        state.scalars[lcv.name] = value
        return end_position + 1

    def _run_if(self, state: "_State", if_position: int) -> int:
        guard = self._quads[if_position]
        else_position = self._orelse[if_position]
        endif_position = self._end[if_position]
        taken = _apply_relop(
            guard.relop, state.load(guard.a), state.load(guard.b)
        )
        if taken:
            stop = else_position if else_position is not None else endif_position
            self._run_range(state, if_position + 1, stop)
        elif else_position is not None:
            self._run_range(state, else_position + 1, endif_position)
        return endif_position + 1


@dataclass
class _State:
    scalars: dict[str, Number]
    arrays: dict[str, dict[tuple[int, ...], Number]]
    inputs: list[Number]
    output: list[Number] = field(default_factory=list)
    steps: int = 0
    input_cursor: int = 0
    #: times each position executed, and the positions in the order
    #: they first executed (folded into opcode counts by ``run``)
    executions: list[int] = field(default_factory=list)
    first_executed: list[int] = field(default_factory=list)
    strict: bool = False
    array_bounds: dict[str, tuple[tuple[int, int], ...]] = field(
        default_factory=dict
    )

    def next_input(self) -> Number:
        if self.input_cursor < len(self.inputs):
            value = self.inputs[self.input_cursor]
            self.input_cursor += 1
            return value
        return 0

    # -- operand evaluation --------------------------------------------
    def load(self, operand: Optional[Operand]) -> Number:
        if operand is None:
            raise InterpError("load of missing operand")
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, Var):
            if self.strict and operand.name not in self.scalars:
                raise UninitializedError(
                    f"read of uninitialized scalar {operand.name!r}"
                )
            return self.scalars.get(operand.name, 0)
        if isinstance(operand, ArrayRef):
            index = self._index_of(operand)
            self._check_bounds(operand.name, index)
            cells = self.arrays.setdefault(operand.name, {})
            if self.strict and index not in cells:
                subscript = ",".join(str(coord) for coord in index)
                raise UninitializedError(
                    f"read of uninitialized element "
                    f"{operand.name}({subscript})"
                )
            return cells.get(index, 0)
        raise InterpError(f"cannot load {operand!r}")

    def store(self, operand: Optional[Operand], value: Number) -> None:
        if isinstance(operand, Var):
            self.scalars[operand.name] = value
        elif isinstance(operand, ArrayRef):
            index = self._index_of(operand)
            self._check_bounds(operand.name, index)
            self.arrays.setdefault(operand.name, {})[index] = value
        else:
            raise InterpError(f"cannot store to {operand!r}")

    def _check_bounds(self, name: str, index: tuple[int, ...]) -> None:
        bounds = self.array_bounds.get(name)
        if bounds is None:
            return
        subscript = ",".join(str(coord) for coord in index)
        if len(index) != len(bounds):
            raise BoundsError(
                f"{name}({subscript}): rank {len(index)} subscript for "
                f"rank {len(bounds)} array"
            )
        for coord, (low, high) in zip(index, bounds):
            if not low <= coord <= high:
                raise BoundsError(
                    f"{name}({subscript}): index {coord} outside "
                    f"[{low}, {high}]"
                )

    def _index_of(self, ref: ArrayRef) -> tuple[int, ...]:
        index = []
        for sub in ref.subscripts:
            if isinstance(sub, Var):
                index.append(int(self.scalars.get(sub.name, 0)))
            else:
                index.append(int(self._eval_affine(sub)))
        return tuple(index)

    def _eval_affine(self, expr: Affine) -> Number:
        total: Number = expr.const
        for var, coeff in expr.terms:
            total += coeff * self.scalars.get(var, 0)
        return total


def _apply_binary(op: Opcode, left: Number, right: Number) -> Number:
    if op is _ADD:
        return left + right
    if op is _SUB:
        return left - right
    if op is _MUL:
        return left * right
    if op is _DIV:
        if right == 0:
            raise InterpError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            quotient = left / right
            return int(quotient) if float(quotient).is_integer() else quotient
        return left / right
    if op is _MOD:
        if right == 0:
            raise InterpError("mod by zero")
        return left % right
    if op is _POW:
        if (
            isinstance(left, int)
            and isinstance(right, int)
            and abs(left) > 1
            and right > 4096
        ):
            raise InterpError(f"pow overflow: {left} ** {right}")
        try:
            value = left ** right
        except (ZeroDivisionError, OverflowError) as error:
            raise InterpError(f"pow domain error: {error}") from None
        if isinstance(value, complex):
            raise InterpError(
                f"pow of negative base to fractional exponent: "
                f"{left} ** {right}"
            )
        return value
    raise InterpError(f"not a binary opcode: {op}")


def _apply_unary(op: Opcode, value: Number) -> Number:
    if op is _NEG:
        return -value
    if op is _ABS:
        return abs(value)
    if op is _SQRT:
        if value < 0:
            raise InterpError("sqrt of negative value")
        return math.sqrt(value)
    if op is _SIN:
        return math.sin(value)
    if op is _COS:
        return math.cos(value)
    if op is _EXP:
        try:
            return math.exp(value)
        except OverflowError:
            raise InterpError(f"exp overflow: exp({value})") from None
    if op is _LOG:
        if value <= 0:
            raise InterpError("log of non-positive value")
        return math.log(value)
    raise InterpError(f"not a unary opcode: {op}")


def _apply_relop(relop: Optional[str], left: Number, right: Number) -> bool:
    if relop == "<":
        return left < right
    if relop == "<=":
        return left <= right
    if relop == ">":
        return left > right
    if relop == ">=":
        return left >= right
    if relop == "==":
        return left == right
    if relop == "!=":
        return left != right
    raise InterpError(f"unknown relop {relop!r}")


def run_program(
    program: Program,
    inputs: Sequence[Number] = (),
    scalars: Optional[dict[str, Number]] = None,
    arrays: Optional[dict[str, dict[tuple[int, ...], Number]]] = None,
    max_steps: int = 2_000_000,
    strict: bool = False,
    array_bounds: Optional[dict[str, tuple[tuple[int, int], ...]]] = None,
) -> ExecutionResult:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    return Interpreter(
        program, max_steps=max_steps, strict=strict,
        array_bounds=array_bounds,
    ).run(inputs=inputs, scalars=scalars, arrays=arrays)


def same_behaviour(
    before: Program,
    after: Program,
    inputs: Sequence[Number] = (),
    scalars: Optional[dict[str, Number]] = None,
    arrays: Optional[dict[str, dict[tuple[int, ...], Number]]] = None,
) -> bool:
    """True when both programs produce the same ``write`` trace."""
    result_before = run_program(before, inputs, scalars, arrays)
    result_after = run_program(after, inputs, scalars, arrays)
    return result_before.observable() == result_after.observable()
