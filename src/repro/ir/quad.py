"""Quadruple statements for the intermediate representation.

The IR is the paper's "high level intermediate representation that
retains the loop structures from the source program": a linear list of
quads where ``DO``/``ENDDO`` and ``IF``/``ELSE``/``ENDIF`` markers keep
the structured control flow explicit, and all computation is expressed
as three-address statements ``result := a opc b``.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.ir.types import (
    ArrayRef,
    Const,
    Operand,
    Var,
    used_scalars,
)


class Opcode(enum.Enum):
    """Operation codes for quads.

    The arithmetic group implements ``result := a op b`` (or ``op a``
    for the unary intrinsics); the structural group delimits loops and
    conditionals; the I/O group models FORTRAN ``READ``/``WRITE``.
    """

    # straight copies
    ASSIGN = "assign"
    # binary arithmetic
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "mod"
    POW = "**"
    # unary intrinsics (operand in ``a``)
    NEG = "neg"
    ABS = "abs"
    SQRT = "sqrt"
    SIN = "sin"
    COS = "cos"
    EXP = "exp"
    LOG = "log"
    # structured control flow
    DO = "do"
    DOALL = "doall"
    ENDDO = "enddo"
    IF = "if"
    ELSE = "else"
    ENDIF = "endif"
    # input/output
    READ = "read"
    WRITE = "write"
    # no-op placeholder (used transiently by some transformations)
    NOP = "nop"

    # ``Enum.__hash__`` runs Python code, and every ``in COMPUTE_OPS``
    # test on the hot paths hashes an opcode; members compare by
    # identity, so the identity hash agrees with ``==``
    __hash__ = object.__hash__


#: Binary arithmetic opcodes: ``result := a op b``.
BINARY_OPS = frozenset(
    {Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD, Opcode.POW}
)

#: Unary opcodes: ``result := op(a)``.
UNARY_OPS = frozenset(
    {Opcode.NEG, Opcode.ABS, Opcode.SQRT, Opcode.SIN, Opcode.COS,
     Opcode.EXP, Opcode.LOG}
)

#: Opcodes that compute a value into ``result``.
COMPUTE_OPS = BINARY_OPS | UNARY_OPS | {Opcode.ASSIGN}

#: Opcodes that open a loop.
LOOP_HEADS = frozenset({Opcode.DO, Opcode.DOALL})

#: Structural markers that never compute.
STRUCTURAL_OPS = frozenset(
    {Opcode.DO, Opcode.DOALL, Opcode.ENDDO, Opcode.IF, Opcode.ELSE,
     Opcode.ENDIF}
)

#: Comparison operators usable in ``IF`` quads.
RELOPS = ("<", "<=", ">", ">=", "==", "!=")

#: Truncated length of one quad's content hash — the per-quad leaf of
#: the program fingerprint.  16 bytes keep per-state collision odds
#: negligible while halving the digest bytes the whole-program hash
#: streams over.
CONTENT_HASH_BYTES = 16


@dataclass
class Quad:
    """One intermediate-code statement.

    Field usage by opcode:

    ``ASSIGN``
        ``result := a`` (``b`` unused).
    binary arithmetic
        ``result := a op b``.
    unary intrinsics
        ``result := op(a)``.
    ``DO`` / ``DOALL``
        ``result`` is the loop control variable (a :class:`Var`),
        ``a`` the initial value, ``b`` the final value and ``step``
        the increment; ``DOALL`` marks a parallelized loop.
    ``IF``
        ``a relop b`` guards the THEN region.
    ``READ`` / ``WRITE``
        ``a`` is the operand read into / written out.
    structural markers
        no operands.

    ``qid`` is a program-unique, stable identity: transformations move
    and delete quads but never renumber them, so dependence edges and
    GOSpeL variable bindings remain valid names for statements.
    """

    opcode: Opcode
    result: Optional[Operand] = None
    a: Optional[Operand] = None
    b: Optional[Operand] = None
    relop: Optional[str] = None
    step: Optional[Operand] = None
    qid: int = -1
    source_line: Optional[int] = None

    #: cached content hash — never compared, shown, or carried through
    #: :meth:`copy` (copies recompute); invalidated through the
    #: :meth:`Program.touch`/``replace`` pre-image flow
    _chash: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.opcode is Opcode.IF and self.relop not in RELOPS:
            raise ValueError(f"IF quad needs a relop, got {self.relop!r}")
        if self.opcode in LOOP_HEADS:
            if not isinstance(self.result, Var):
                raise ValueError("loop head needs a Var control variable")
            if self.step is None:
                self.step = Const(1)

    # ------------------------------------------------------------------
    # classification helpers
    # ------------------------------------------------------------------
    def is_assignment(self) -> bool:
        """True for value-computing quads (GOSpeL type ``Stmt``)."""
        return self.opcode in COMPUTE_OPS

    def is_loop_head(self) -> bool:
        """True for ``DO`` and ``DOALL`` quads."""
        return self.opcode in LOOP_HEADS

    def is_structural(self) -> bool:
        """True for loop and conditional delimiters."""
        return self.opcode in STRUCTURAL_OPS

    # ------------------------------------------------------------------
    # definitions and uses
    # ------------------------------------------------------------------
    def defined_operand(self) -> Optional[Operand]:
        """The operand written by this quad, if any.

        Loop heads define their control variable; ``READ`` defines the
        operand it reads into.
        """
        if self.opcode in COMPUTE_OPS:
            return self.result
        if self.opcode in LOOP_HEADS:
            return self.result
        if self.opcode is Opcode.READ:
            return self.a
        return None

    def defined_scalar(self) -> Optional[str]:
        """Name of the scalar variable written, or None."""
        target = self.defined_operand()
        if isinstance(target, Var):
            return target.name
        return None

    def defined_array(self) -> Optional[ArrayRef]:
        """The array element written, or None."""
        target = self.defined_operand()
        if isinstance(target, ArrayRef):
            return target
        return None

    def use_positions(self) -> Iterator[tuple[str, Operand]]:
        """Yield ``(position, operand)`` for every operand *read*.

        Positions are ``"a"`` and ``"b"`` for the source operands and
        ``"result"`` when the result is an array reference (whose
        subscripts are read).  GOSpeL's ``(Sj, pos)`` dependence results
        report these position names.
        """
        if self.opcode in COMPUTE_OPS or self.opcode is Opcode.IF:
            if self.a is not None:
                yield "a", self.a
            if self.b is not None:
                yield "b", self.b
            if isinstance(self.result, ArrayRef):
                yield "result", self.result
        elif self.opcode in LOOP_HEADS:
            if self.a is not None:
                yield "a", self.a
            if self.b is not None:
                yield "b", self.b
            if self.step is not None:
                yield "step", self.step
        elif self.opcode is Opcode.WRITE:
            if self.a is not None:
                yield "a", self.a
        elif self.opcode is Opcode.READ:
            if isinstance(self.a, ArrayRef):
                yield "a", self.a

    def operand_at(self, position: str) -> Optional[Operand]:
        """The operand at a named position (``result``/``a``/``b``/``step``)."""
        if position == "result":
            return self.result
        if position == "a":
            return self.a
        if position == "b":
            return self.b
        if position == "step":
            return self.step
        raise KeyError(f"unknown operand position {position!r}")

    def set_operand(self, position: str, operand: Optional[Operand]) -> None:
        """Destructively replace the operand at a named position."""
        if position == "result":
            self.result = operand
        elif position == "a":
            self.a = operand
        elif position == "b":
            self.b = operand
        elif position == "step":
            self.step = operand
        else:
            raise KeyError(f"unknown operand position {position!r}")

    def used_scalar_names(self) -> frozenset[str]:
        """All scalar variable names read by this quad.

        Includes variables appearing in array subscripts (a use of the
        subscript variable) but not array names themselves.
        """
        names: set[str] = set()
        for _pos, operand in self.use_positions():
            names.update(used_scalars(operand))
        return frozenset(names)

    def used_array_refs(self) -> list[tuple[str, ArrayRef]]:
        """All array element reads, with their operand positions.

        The ``result`` position is excluded: an :class:`ArrayRef` in the
        result position is a *write* of the element (its subscript
        variables are reported by :meth:`used_scalar_names`).
        """
        refs = []
        for pos, operand in self.use_positions():
            if pos != "result" and isinstance(operand, ArrayRef):
                refs.append((pos, operand))
        return refs

    # ------------------------------------------------------------------
    # content hashing
    # ------------------------------------------------------------------
    def content_hash(self) -> bytes:
        """This quad's 16-byte rendering hash, cached on the quad.

        Two quads have equal content hashes exactly when they render to
        the same text (qids and source lines do not participate) — the
        per-quad leaf of :meth:`repro.ir.program.Program.fingerprint`.
        The cache is sound only under the mutation contract: in-place
        field edits must be reported through ``Program.touch`` (or
        ``replace``), which drops the stale entry.
        """
        cached = self._chash
        if cached is None:
            cached = hashlib.sha256(
                str(self).encode()
            ).digest()[:CONTENT_HASH_BYTES]
            self._chash = cached
        return cached

    def drop_content_hash(self) -> None:
        """Invalidate the cached content hash (pre-image flow)."""
        self._chash = None

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy(self) -> "Quad":
        """A field-for-field copy with *no* assigned qid.

        Copies the instance dict instead of re-running ``__init__``
        (a clone copies every quad of a program), but still runs
        ``__post_init__``, so a quad mutated into a malformed state
        raises here just as constructing it would.
        """
        duplicate = object.__new__(type(self))
        fields = duplicate.__dict__
        fields.update(self.__dict__)
        fields["qid"] = -1
        fields["_chash"] = None
        duplicate.__post_init__()
        return duplicate

    def __str__(self) -> str:
        op = self.opcode
        if op is Opcode.ASSIGN:
            return f"{self.result} := {self.a}"
        if op in BINARY_OPS:
            return f"{self.result} := {self.a} {op.value} {self.b}"
        if op in UNARY_OPS:
            return f"{self.result} := {op.value}({self.a})"
        if op in LOOP_HEADS:
            head = "doall" if op is Opcode.DOALL else "do"
            text = f"{head} {self.result} = {self.a}, {self.b}"
            if self.step != Const(1):
                text += f", {self.step}"
            return text
        if op is Opcode.ENDDO:
            return "enddo"
        if op is Opcode.IF:
            return f"if {self.a} {self.relop} {self.b}"
        if op is Opcode.ELSE:
            return "else"
        if op is Opcode.ENDIF:
            return "endif"
        if op is Opcode.READ:
            return f"read {self.a}"
        if op is Opcode.WRITE:
            return f"write {self.a}"
        return "nop"


def assign(result: Operand, source: Operand) -> Quad:
    """Convenience constructor for ``result := source``."""
    return Quad(Opcode.ASSIGN, result=result, a=source)


def binop(result: Operand, left: Operand, opcode: Opcode, right: Operand) -> Quad:
    """Convenience constructor for ``result := left op right``."""
    if opcode not in BINARY_OPS:
        raise ValueError(f"{opcode} is not a binary opcode")
    return Quad(opcode, result=result, a=left, b=right)
