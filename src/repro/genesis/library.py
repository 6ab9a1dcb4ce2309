"""The optimizer library: optimization-independent runtime routines.

"The generated code relies on a set of predefined routines found in the
optimizer library.  These routines are optimization independent and
only represent routines typically needed to perform optimizations.  The
library contains pattern matching routines, data dependence
verification procedures, and code transformation routines."

Generated optimizer code (see :mod:`repro.genesis.codegen`) imports
this module as ``lib`` and drives everything through a
:class:`MatchContext` — the runtime analogue of the paper's ``stlp``
structure — which carries the program, its dependence graph, the
current element bindings, and the cost counters of experiment E5.

Loop-typed elements bind to a :class:`LoopBinding` capturing the head
*and* end statement identities at match time (the stlp "entries are
filled in as the information relevant to the element is found"), so an
action sequence that moves loop delimiters — interchange, circulation —
keeps addressing the statements it matched, not whatever the mutated
nesting would now call ``L1.end``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from repro.analysis.graph import DepEdge, DependenceGraph
from repro.analysis.subscript import (
    LoopContext,
    expand_direction_vectors,
    matches_anchored_pattern,
    matches_direction_pattern,
    test_access_pair,
)
from repro.ir.loops import StructureTable, trip_count
from repro.ir.program import Program
from repro.ir.quad import (
    BINARY_OPS,
    Opcode,
    Quad,
    UNARY_OPS,
)
from repro.ir.types import Affine, ArrayRef, Const, Operand, Var, operand_kind

from repro.genesis.cost import CostCounters


class GenesisRuntimeError(Exception):
    """Raised when generated code hits an inconsistent state."""


@dataclass(frozen=True)
class PosBinding:
    """A bound dependence position: operand slot plus the variable that
    the dependence involves (needed to rewrite uses inside subscripts)."""

    pos: str  # "a", "b", "result", "step"
    var: str  # variable or array name involved in the dependence

    def __str__(self) -> str:
        return f"{self.pos}:{self.var}"


@dataclass(frozen=True)
class LoopBinding:
    """A loop element: its head and end quads, captured at match time."""

    head: int
    end: int

    def __str__(self) -> str:
        return f"loop({self.head}..{self.end})"


class MatchContext:
    """Runtime state for one optimizer run over one program.

    The paper's ``stlp`` table: "identifying information about each
    statement or loop variable specified in the TYPE section ... filled
    in as the information relevant to the element is found".
    """

    def __init__(
        self,
        program: Program,
        graph: DependenceGraph,
        counters: Optional[CostCounters] = None,
        *,
        structure_provider: Callable[[], StructureTable],
    ):
        self.program = program
        self.graph = graph
        #: version-keyed table source shared across contexts
        #: (``AnalysisManager.structure``)
        self.structure_provider = structure_provider
        self.counters = counters or CostCounters()
        self.bindings: dict[str, object] = {}
        self.declared: dict[str, str] = {}
        #: cleared when the user overrides dependence restrictions
        #: (paper Figure 4, step 3.b.iii.3) — 'no' clauses stop failing
        self.enforce_restrictions = True
        self._temp_counter = 0
        #: set by the matching engine for its sweeps: :func:`statements`
        #: then skips statements whose shapes miss the generated hint;
        #: unset, it is the naive full scan
        self.sweeping = False
        #: one-shot worklist restriction armed by the matching engine:
        #: the *first* seed enumeration after arming iterates only
        #: these statements, then the restriction is consumed so
        #: pre-phase enumerations see the whole program again
        self._seed_restriction: Optional[tuple[int, ...]] = None

    def arm_seed_restriction(self, qids: Sequence[int]) -> None:
        """Restrict the next seed enumeration to ``qids`` (one-shot)."""
        self._seed_restriction = tuple(qids)

    def take_seed_restriction(self) -> Optional[tuple[int, ...]]:
        """Consume the one-shot seed restriction, if armed."""
        restriction = self._seed_restriction
        self._seed_restriction = None
        return restriction

    # ------------------------------------------------------------------
    # stlp management (used by generated set_up_XXX)
    # ------------------------------------------------------------------
    def declare(self, name: str, elem_type: str) -> None:
        """Initialize an stlp entry for a TYPE-section variable."""
        self.declared[name] = elem_type
        self.bindings.pop(name, None)

    def bind(self, name: str, value: object) -> None:
        self.bindings[name] = value

    def unbind(self, name: str) -> None:
        self.bindings.pop(name, None)

    def get(self, name: str) -> object:
        if name not in self.bindings:
            raise GenesisRuntimeError(f"element {name!r} is not bound")
        return self.bindings[name]

    def get_qid(self, name: str) -> int:
        """The statement identity of a binding (a loop's head quad)."""
        value = self.get(name)
        if isinstance(value, LoopBinding):
            return value.head
        if not isinstance(value, int):
            raise GenesisRuntimeError(
                f"element {name!r} is bound to {value!r}, not a statement"
            )
        return value

    def fresh_temp(self) -> Var:
        """A fresh temporary for action templates (``newtemp``)."""
        existing = self.program.scalar_names()
        while True:
            candidate = Var(f"g${self._temp_counter}")
            self._temp_counter += 1
            if candidate.name not in existing:
                return candidate

    @property
    def structure(self) -> StructureTable:
        """The loop/conditional table, rebuilt lazily per program version.

        Laziness matters during action sequences: a transformation like
        loop distribution passes through intermediate states whose
        region markers don't nest (a copied DO head awaiting its
        ENDDO); the provider rebuilds — and validates — the table only
        when something actually consults it.  Every ``Program`` mutator
        bumps the version, so an action's edits need no explicit
        invalidation.
        """
        return self.structure_provider()


def _as_qid(value: object) -> int:
    if isinstance(value, LoopBinding):
        return value.head
    if isinstance(value, int):
        return value
    raise GenesisRuntimeError(f"expected a statement, got {value!r}")


# ----------------------------------------------------------------------
# pattern-matching routines (find_statement, find_nested_loops, ...)
# ----------------------------------------------------------------------
def statements(
    ctx: MatchContext, shape: Optional[Sequence[str]] = None
) -> Iterator[int]:
    """All statements in program order (candidate enumeration).

    A one-shot seed restriction (armed by the worklist engine) takes
    precedence: only the dirty region is enumerated, in its order.

    ``shape`` is an optional superset hint derived from the clause's
    format at generation time (see :func:`statement_shapes`): while
    the matching engine sweeps, a statement none of whose shapes is
    in the hint is skipped before it counts as a candidate.  The full
    format check still runs downstream, so the hint only filters.
    """
    restriction = ctx.take_seed_restriction()
    program = ctx.program
    quads = program if restriction is None else map(program.quad, restriction)
    wanted = frozenset(shape) if ctx.sweeping and shape is not None else None
    for quad in quads:
        if wanted is not None and wanted.isdisjoint(statement_shapes(quad)):
            continue
        ctx.counters.candidates += 1
        yield quad.qid


def loops(ctx: MatchContext) -> Iterator[LoopBinding]:
    """All loops, head and end captured."""
    for loop in ctx.structure.loops_in_order():
        ctx.counters.candidates += 1
        yield LoopBinding(head=loop.head_qid, end=loop.end_qid)


def _pair_binding(ctx: MatchContext, head_qid: int) -> LoopBinding:
    loop = ctx.structure.loop_of(head_qid)
    return LoopBinding(head=loop.head_qid, end=loop.end_qid)


def nested_loop_pairs(ctx: MatchContext) -> Iterator[tuple[LoopBinding, LoopBinding]]:
    """All (outer, inner) nested loop pairs."""
    for outer, inner in ctx.structure.nested_pairs():
        ctx.counters.candidates += 1
        yield _pair_binding(ctx, outer), _pair_binding(ctx, inner)


def tight_loop_pairs(ctx: MatchContext) -> Iterator[tuple[LoopBinding, LoopBinding]]:
    """All tightly nested (outer, inner) pairs."""
    for outer, inner in ctx.structure.tight_pairs():
        ctx.counters.candidates += 1
        yield _pair_binding(ctx, outer), _pair_binding(ctx, inner)


def adjacent_loop_pairs(ctx: MatchContext) -> Iterator[tuple[LoopBinding, LoopBinding]]:
    """All adjacent (first, second) loop pairs."""
    for first, second in ctx.structure.adjacent_pairs():
        ctx.counters.candidates += 1
        yield _pair_binding(ctx, first), _pair_binding(ctx, second)


# ----------------------------------------------------------------------
# attribute evaluation
# ----------------------------------------------------------------------
def stmt_attr(ctx: MatchContext, qid: int, attr: str) -> object:
    """Evaluate one statement attribute (.opc, .opr_2, .next, ...)."""
    quad = ctx.program.quad(qid)
    if attr == "opc":
        return "assign" if quad.opcode is Opcode.ASSIGN else quad.opcode.value
    if attr == "opr_1":
        return quad.result
    if attr == "opr_2":
        return quad.a
    if attr == "opr_3":
        return quad.b
    if attr == "next":
        follower = ctx.program.next_qid_of(qid)
        if follower is None:
            raise GenesisRuntimeError(f"S{qid}.next past end of program")
        return follower
    if attr == "prev":
        precursor = ctx.program.prev_qid_of(qid)
        if precursor is None:
            raise GenesisRuntimeError(f"S{qid}.prev before start of program")
        return precursor
    raise GenesisRuntimeError(f"unknown statement attribute .{attr}")


def loop_attr(ctx: MatchContext, loop: LoopBinding, attr: str) -> object:
    """Evaluate one loop attribute (.head, .body, .init, ...).

    ``head`` and ``end`` come from the binding (match-time identities);
    ``body`` is the statements *currently* between them.
    """
    if attr == "head":
        return loop.head
    if attr == "end":
        return loop.end
    head = ctx.program.quad(loop.head)
    if attr == "lcv":
        return head.result
    if attr == "init":
        return head.a
    if attr == "final":
        return head.b
    if attr == "step":
        return head.step
    if attr == "body":
        return loop_body(ctx, loop)
    if attr in ("next", "prev"):
        ordered = [
            LoopBinding(entry.head_qid, entry.end_qid)
            for entry in ctx.structure.loops_in_order()
        ]
        heads = [entry.head for entry in ordered]
        index = heads.index(loop.head) + (1 if attr == "next" else -1)
        if not 0 <= index < len(ordered):
            raise GenesisRuntimeError(f"loop.{attr} out of range")
        return ordered[index]
    raise GenesisRuntimeError(f"unknown loop attribute .{attr}")


def eval_ref(ctx: MatchContext, base: str, attrs: Sequence[str]) -> object:
    """Evaluate a GOSpeL reference chain against the current bindings."""
    value: object = ctx.get(base)
    for attr in attrs:
        if isinstance(value, LoopBinding):
            value = loop_attr(ctx, value, attr)
        elif isinstance(value, int):
            value = stmt_attr(ctx, value, attr)
        else:
            raise GenesisRuntimeError(
                f"cannot take .{attr} of {value!r} (in {base})"
            )
    return value


# ----------------------------------------------------------------------
# value functions: type(), class(), trip(), value(), operand()
# ----------------------------------------------------------------------
def kind_of(value: object) -> str:
    """GOSpeL ``type()``: const / var / array / none."""
    if value is None:
        return "none"
    if isinstance(value, (Const, Var, ArrayRef)):
        return operand_kind(value)
    raise GenesisRuntimeError(f"type() of non-operand {value!r}")


#: Statement classes reported by ``class()``.
_CLASS_BY_OPCODE = {
    Opcode.ASSIGN: "assign",
    Opcode.DO: "loop_head",
    Opcode.DOALL: "loop_head",
    Opcode.IF: "if_stmt",
    Opcode.READ: "io",
    Opcode.WRITE: "io",
}


def statement_class(quad: Quad) -> str:
    """The ``class()`` token of one quad (shared with the shape filter
    of :func:`statements`, which must classify by *exactly* this)."""
    opcode = quad.opcode
    if opcode in BINARY_OPS:
        return "binop"
    if opcode in UNARY_OPS:
        return "unop"
    return _CLASS_BY_OPCODE.get(opcode, "marker")


def statement_shapes(quad: Quad) -> tuple[str, ...]:
    """The shape tokens a seed scan's hint is tested against.

    Every quad carries its class token; assignments additionally carry
    an ``assign:<rhs-kind>`` token (const / var / array) so constant-
    and copy-propagation seed scans count only matching candidates.
    """
    token = statement_class(quad)
    if token == "assign" and quad.a is not None:
        return (token, f"assign:{operand_kind(quad.a)}")
    return (token,)


def class_of(ctx: MatchContext, stmt: object) -> str:
    """GOSpeL ``class()``: assign / binop / unop / loop_head / if_stmt /
    io / marker."""
    return statement_class(ctx.program.quad(_as_qid(stmt)))


def trip_of(ctx: MatchContext, loop: object) -> Optional[int]:
    """GOSpeL ``trip()``: the constant trip count, or None."""
    return trip_count(ctx.program.quad(_as_qid(loop)))


def value_of(ctx: MatchContext, stmt: object) -> Const:
    """GOSpeL ``value(S)``: fold a constant computation to its result.

    Defined for binary/unary statements whose source operands are all
    constants — the folding primitive Constant Folding (CFO) needs.
    """
    quad = ctx.program.quad(_as_qid(stmt))
    from repro.ir import interp

    if quad.opcode in BINARY_OPS:
        if not isinstance(quad.a, Const) or not isinstance(quad.b, Const):
            raise GenesisRuntimeError(f"value() of non-constant S{quad.qid}")
        result = interp._apply_binary(quad.opcode, quad.a.value, quad.b.value)
        return Const(result)
    if quad.opcode in UNARY_OPS:
        if not isinstance(quad.a, Const):
            raise GenesisRuntimeError(f"value() of non-constant S{quad.qid}")
        return Const(interp._apply_unary(quad.opcode, quad.a.value))
    if quad.opcode is Opcode.ASSIGN and isinstance(quad.a, Const):
        return quad.a
    raise GenesisRuntimeError(f"value() undefined for {quad}")


def position_of(ctx: MatchContext, stmt: object) -> int:
    """GOSpeL ``pos(S)``: the statement's current program position.

    Lets specifications order statements textually (``pos(Si) <
    pos(Sj)``), which common-subexpression elimination needs to pick
    the earlier computation as the one to reuse.
    """
    return ctx.program.position(_as_qid(stmt))


def operand_at(ctx: MatchContext, stmt: object, pos: Union[str, PosBinding]) -> object:
    """GOSpeL ``operand(S, pos)``: the operand at a bound position."""
    name = pos.pos if isinstance(pos, PosBinding) else pos
    return ctx.program.quad(_as_qid(stmt)).operand_at(name)


# ----------------------------------------------------------------------
# comparisons (short-circuit order preserved; every call is one check)
# ----------------------------------------------------------------------
def compare(ctx: MatchContext, relop: str, left: object, right: object) -> bool:
    """Evaluate ``left relop right`` with GOSpeL's overloading.

    Counts one pattern check.  Handles operand structural equality,
    statement identity, opcode/class symbols (including the ``compute``
    class covering assign/binop/unop), and numbers.
    """
    ctx.counters.pattern_checks += 1
    left = _unwrap(left)
    right = _unwrap(right)

    if isinstance(left, str) or isinstance(right, str):
        return _compare_symbol(relop, left, right)
    if isinstance(left, Operand) or isinstance(right, Operand):
        return _compare_operand(relop, left, right)
    if left is None or right is None:
        if relop == "==":
            return left is right
        if relop == "!=":
            return left is not right
        return False
    if relop == "==":
        return left == right
    if relop == "!=":
        return left != right
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise GenesisRuntimeError(f"cannot order {left!r} and {right!r}")
    return _numeric(relop, left, right)


def _unwrap(value: object) -> object:
    if isinstance(value, PosBinding):
        return value.pos
    if isinstance(value, LoopBinding):
        return value.head
    return value


#: symbol aliases: GOSpeL names -> sets of matching concrete values
_SYMBOL_CLASSES = {
    "compute": frozenset({"assign", "binop", "unop"}),
}

_OPCODE_ALIASES = {
    "add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "**",
}


def _compare_symbol(relop: str, left: object, right: object) -> bool:
    if relop not in ("==", "!="):
        raise GenesisRuntimeError("symbols only support == and !=")
    symbol = right if isinstance(right, str) else left
    other = left if isinstance(right, str) else right
    if isinstance(other, Operand) or other is None:
        other = kind_of(other)
    if not isinstance(other, str):
        return relop == "!="
    symbol_norm = _OPCODE_ALIASES.get(symbol, symbol)
    other_norm = _OPCODE_ALIASES.get(other, other)
    expansion = _SYMBOL_CLASSES.get(symbol_norm)
    if expansion is not None:
        result = other_norm in expansion
    else:
        expansion_other = _SYMBOL_CLASSES.get(other_norm)
        if expansion_other is not None:
            result = symbol_norm in expansion_other
        else:
            result = symbol_norm == other_norm
    return result if relop == "==" else not result


def _compare_operand(relop: str, left: object, right: object) -> bool:
    if relop not in ("==", "!=", "<", "<=", ">", ">="):
        raise GenesisRuntimeError(f"unknown relop {relop!r}")
    left_val = left.value if isinstance(left, Const) else left
    right_val = right.value if isinstance(right, Const) else right
    if isinstance(left_val, (int, float)) and isinstance(right_val, (int, float)):
        return _numeric(relop, left_val, right_val)
    if relop == "==":
        return left == right
    if relop == "!=":
        return left != right
    return False  # cannot order non-constant operands


def _numeric(relop: str, left: float, right: float) -> bool:
    if relop == "==":
        return left == right
    if relop == "!=":
        return left != right
    if relop == "<":
        return left < right
    if relop == "<=":
        return left <= right
    if relop == ">":
        return left > right
    return left >= right


# ----------------------------------------------------------------------
# dependence verification (the paper's Figure 7 ``dep`` routine)
# ----------------------------------------------------------------------
def _anchor_level(
    ctx: MatchContext,
    anchor: Optional[object],
    pattern: Optional[Sequence[str]],
) -> Optional[int]:
    """0-based nest level where an anchored pattern starts.

    The *last* element of the written vector names the anchor loop's
    own level (a ``(<,>)`` in a clause over the inner loop's body spans
    the pair's two levels; a ``(<)`` in a single-loop clause is that
    loop's level), so the pattern starts ``len(pattern) - 1`` levels
    above the anchor loop.
    """
    if anchor is None or pattern is None:
        return None
    head = _as_qid(anchor)
    depth = ctx.structure.nesting_depth(head)
    return max(0, depth - (len(pattern) - 1))


def _vector_ok(
    ctx: MatchContext,
    edge: DepEdge,
    pattern: Optional[Sequence[str]],
    anchor: Optional[object],
) -> bool:
    level = _anchor_level(ctx, anchor, pattern)
    if level is None:
        return matches_direction_pattern(edge.vector, pattern)
    return matches_anchored_pattern(edge.vector, pattern, level)


def dep_exists(
    ctx: MatchContext,
    kind: str,
    src: Optional[object],
    dst: Optional[object],
    pattern: Optional[Sequence[str]] = None,
    dst_pos: Optional[PosBinding] = None,
    anchor: Optional[object] = None,
) -> bool:
    """Figure 7's ``TYPE == IF`` mode: does the dependence exist?

    With ``dst_pos`` given, only dependences landing on that operand
    position (and variable) count — the unification semantics of a
    re-used ``pos`` name.  With ``anchor`` given, direction patterns
    are interpreted relative to that loop's nest level.
    """
    ctx.counters.dep_checks += 1
    src_qid = _as_qid(src) if src is not None else None
    dst_qid = _as_qid(dst) if dst is not None else None
    if kind == "fused":
        return bool(_fused_edges(ctx, src_qid, dst_qid, pattern))
    edges = ctx.graph.query(kind, src=src_qid, dst=dst_qid)
    for edge in edges:
        if not _vector_ok(ctx, edge, pattern, anchor):
            continue
        if dst_pos is not None and not (
            edge.dst_pos == dst_pos.pos and edge.var == dst_pos.var
        ):
            continue
        return True
    return False


def deps_from(
    ctx: MatchContext,
    kind: str,
    src: object,
    pattern: Optional[Sequence[str]] = None,
    anchor: Optional[object] = None,
) -> Iterator[DepEdge]:
    """Figure 7's ``TYPE == LST`` mode with the source known: enumerate
    terminating statements of matching dependences."""
    for edge in ctx.graph.query(kind, src=_as_qid(src)):
        ctx.counters.dep_checks += 1
        if not _vector_ok(ctx, edge, pattern, anchor):
            continue
        if not _edge_alive(ctx, edge):
            continue  # stale edge: the user kept an old dependence graph
        yield edge


def deps_to(
    ctx: MatchContext,
    kind: str,
    dst: object,
    pattern: Optional[Sequence[str]] = None,
    anchor: Optional[object] = None,
) -> Iterator[DepEdge]:
    """Figure 7's ``TYPE == LST`` mode with the sink known: enumerate
    emanating statements of matching dependences."""
    for edge in ctx.graph.query(kind, dst=_as_qid(dst)):
        ctx.counters.dep_checks += 1
        if not _vector_ok(ctx, edge, pattern, anchor):
            continue
        if not _edge_alive(ctx, edge):
            continue
        yield edge


def dep_edges(
    ctx: MatchContext,
    kind: str,
    pattern: Optional[Sequence[str]] = None,
    anchor: Optional[object] = None,
) -> Iterator[DepEdge]:
    """All dependences of a kind (both endpoints open)."""
    for edge in ctx.graph.query(kind):
        ctx.counters.dep_checks += 1
        if not _vector_ok(ctx, edge, pattern, anchor):
            continue
        if not _edge_alive(ctx, edge):
            continue
        yield edge


def dep_candidates(
    ctx: MatchContext,
    specs: Sequence[tuple[str, Optional[Sequence[str]]]],
    src: Optional[object] = None,
    dst: Optional[object] = None,
    anchor: Optional[object] = None,
) -> Iterator[DepEdge]:
    """Union of several dependence kinds' edge sets.

    Drives deps-first implementations of OR conditions like
    ``flow_dep(Sm, Sn, (<)) OR anti_dep(Sm, Sn, (<)) OR ...``: each
    ``(kind, pattern)`` spec enumerates as with :func:`deps_from` /
    :func:`deps_to` / :func:`dep_edges`, duplicates suppressed.
    """
    seen: set[DepEdge] = set()
    for kind, pattern in specs:
        if src is not None:
            edges = deps_from(ctx, kind, src, pattern, anchor)
        elif dst is not None:
            edges = deps_to(ctx, kind, dst, pattern, anchor)
        else:
            edges = dep_edges(ctx, kind, pattern, anchor)
        for edge in edges:
            if edge in seen:
                continue
            seen.add(edge)
            yield edge


def _edge_alive(ctx: MatchContext, edge: DepEdge) -> bool:
    """Both endpoints still exist (guards stale graphs when the user
    disables dependence recomputation between applications)."""
    return ctx.program.contains(edge.src) and ctx.program.contains(edge.dst)


def dep(
    ctx: MatchContext,
    search_type: str,
    kind: str,
    src: Optional[object],
    dst: Optional[object],
    pattern: Optional[Sequence[str]] = None,
) -> object:
    """A faithful port of the paper's Figure 7 ``dep`` routine.

    ``search_type`` is ``"IF"`` (both statements known: return 1/0) or
    ``"LST"`` (one endpoint known: return the first matching other
    endpoint's qid, or 0).
    """
    if search_type == "IF":
        return 1 if dep_exists(ctx, kind, src, dst, pattern) else 0
    if search_type == "LST":
        if src is not None:
            for edge in deps_from(ctx, kind, src, pattern):
                return edge.dst
            return 0
        if dst is not None:
            for edge in deps_to(ctx, kind, dst, pattern):
                return edge.src
            return 0
        raise GenesisRuntimeError("LST search needs one known endpoint")
    raise GenesisRuntimeError(f"unknown dep search type {search_type!r}")


# -- virtual fusion dependences ----------------------------------------
def _fused_edges(
    ctx: MatchContext,
    src: Optional[int],
    dst: Optional[int],
    pattern: Optional[Sequence[str]],
) -> list[tuple[int, int, tuple[str, ...]]]:
    """Dependences *as if* the loops containing src and dst were fused.

    Used by the FUS specification: its legality condition speaks about
    direction vectors in the fused loop, which do not exist in the
    unfused program.  Subscript tests run with the two loop control
    variables identified.
    """
    if src is None or dst is None:
        raise GenesisRuntimeError("fused_dep needs both statements")
    return fused_pair_directions(ctx.program, ctx.structure, src, dst, pattern)


def fused_pair_directions(
    program: Program,
    structure: StructureTable,
    src: int,
    dst: int,
    pattern: Optional[Sequence[str]],
) -> list[tuple[int, int, tuple[str, ...]]]:
    """Fused-loop dependence vectors for one statement pair.

    The per-pair legality core, shared with the hand-coded FUS baseline
    (:mod:`repro.opts.handcoded.loop`) so the two implementations'
    verdicts stay identical by construction.
    """
    # The loops being fused are the outermost ancestors on which the two
    # statements' loop chains diverge — not the innermost enclosing
    # loops, which may be nested inner loops with unrelated control
    # variables.
    src_chain = structure.loop_chain(src)
    dst_chain = structure.loop_chain(dst)
    src_loop: Optional[int] = None
    dst_loop: Optional[int] = None
    fork_depth = 0
    for depth in range(max(len(src_chain), len(dst_chain))):
        head_a = src_chain[depth] if depth < len(src_chain) else None
        head_b = dst_chain[depth] if depth < len(dst_chain) else None
        if head_a != head_b:
            src_loop, dst_loop, fork_depth = head_a, head_b, depth
            break
    if src_loop is None or dst_loop is None:
        return []
    src_head = program.quad(src_loop)
    dst_head = program.quad(dst_loop)
    src_lcv = src_head.result.name  # type: ignore[union-attr]
    dst_lcv = dst_head.result.name  # type: ignore[union-attr]

    def inner_lcvs(chain: Sequence[int]) -> set[str]:
        names = set()
        for head_qid in chain[fork_depth + 1 :]:
            result = program.quad(head_qid).result
            if isinstance(result, Var):
                names.add(result.name)
        return names

    # Variables of loops nested *inside* the fused loops vary within one
    # fused iteration; tagging them per side keeps the subscript tester
    # from identifying the two sides' unrelated instances (and from
    # treating them as loop-invariant symbols).
    src_varying = inner_lcvs(src_chain)
    dst_varying = inner_lcvs(dst_chain)

    results: list[tuple[int, int, tuple[str, ...]]] = []
    src_quad = program.quad(src)
    dst_quad = program.quad(dst)
    context = [LoopContext(var=src_lcv, trip_count=trip_count(src_head))]

    def rename(
        ref: ArrayRef, old: str, new: str, varying: set[str], tag: str
    ) -> ArrayRef:
        subs: list[Union[Affine, Var]] = []
        for sub in ref.subscripts:
            if isinstance(sub, Var) and sub.name == old:
                sub = Affine.var(new)
            if isinstance(sub, Affine):
                sub = sub.substitute(old, Affine.var(new))
                for name in varying:
                    sub = sub.substitute(name, Affine.var(name + tag))
            subs.append(sub)
        return ArrayRef(ref.name, tuple(subs))

    for src_ref, src_write in _element_accesses(src_quad):
        for dst_ref, dst_write in _element_accesses(dst_quad):
            if src_ref.name != dst_ref.name:
                continue
            if not (src_write or dst_write):
                continue
            aligned_src = rename(
                src_ref, src_lcv, src_lcv, src_varying, "#1"
            )
            aligned_dst = rename(
                dst_ref, dst_lcv, src_lcv, dst_varying, "#2"
            )
            per_level = test_access_pair(
                aligned_src.subscripts, aligned_dst.subscripts, context
            )
            if per_level is None:
                continue
            for vector in expand_direction_vectors(per_level):
                if matches_direction_pattern(vector, pattern):
                    results.append((src, dst, vector))
    # Scalars shared between the loop bodies also fuse into carried
    # dependences — in *any* of the three kinds: a value L1 computes and
    # L2 reads (flow), a value L1 reads and L2 overwrites (anti: the
    # original program finishes every L1 read before the first L2
    # write), or a value both redefine (output).  Direction unknown,
    # so all three are conservative matches.  The fused control
    # variables are exempt: L2's header reinitializes them.
    lcv_names = {src_lcv, dst_lcv}
    src_def = src_quad.defined_scalar()
    dst_def = dst_quad.defined_scalar()
    shared: set[str] = set()
    if src_def is not None and src_def in dst_quad.used_scalar_names():
        shared.add(src_def)
    if dst_def is not None and dst_def in src_quad.used_scalar_names():
        shared.add(dst_def)
    if src_def is not None and src_def == dst_def:
        shared.add(src_def)
    if shared - lcv_names:
        for vector_dir in ("<", "=", ">"):
            if matches_direction_pattern((vector_dir,), pattern):
                results.append((src, dst, (vector_dir,)))
                break
    return results


def _element_accesses(quad: Quad) -> list[tuple[ArrayRef, bool]]:
    accesses: list[tuple[ArrayRef, bool]] = []
    written = quad.defined_array()
    if written is not None:
        accesses.append((written, True))
    for _pos, ref in quad.used_array_refs():
        accesses.append((ref, False))
    return accesses


# ----------------------------------------------------------------------
# set operations
# ----------------------------------------------------------------------
def loop_body(ctx: MatchContext, loop: object) -> tuple[int, ...]:
    """The statements currently between a loop's head and end quads."""
    if isinstance(loop, LoopBinding):
        head_position = ctx.program.position(loop.head)
        end_position = ctx.program.position(loop.end)
        return tuple(
            ctx.program[i].qid for i in range(head_position + 1, end_position)
        )
    return tuple(ctx.structure.loop_of(_as_qid(loop)).body_qids)


def member(ctx: MatchContext, qid: object, elements: Sequence[int]) -> bool:
    """GOSpeL ``mem(S, Set)`` — counts one membership check."""
    ctx.counters.mem_checks += 1
    return _as_qid(qid) in set(elements)


def path_set(ctx: MatchContext, src: object, dst: object) -> tuple[int, ...]:
    """GOSpeL ``path(S, S')``: statements possibly executed between the
    two on some run.

    With structured control flow every acyclic path visits only
    statements between the two program positions; when the interval
    cuts *into* a loop, later iterations interleave the rest of that
    loop's body between the endpoints, so the interval is widened to
    whole loops before being returned.

    An endpoint that the widening pulled strictly inside the interval
    stays in the set: its other-iteration instances execute between
    the two endpoint executions (a use inside a loop that also kills
    the copied variable kills it for every later iteration).
    """
    src_position = ctx.program.position(_as_qid(src))
    dst_position = ctx.program.position(_as_qid(dst))
    low, high = sorted((src_position, dst_position))

    position = ctx.program.position
    intervals = [
        (position(loop.head_qid), position(loop.end_qid))
        for loop in ctx.structure.loops_in_order()
    ]
    changed = True
    while changed:
        changed = False
        for head_position, end_position in intervals:
            overlaps = head_position < high and end_position > low
            if not overlaps:
                continue
            if low > head_position and high < end_position:
                continue  # both endpoints inside the loop: no widening
            if head_position < low:
                low = head_position
                changed = True
            if end_position > high:
                high = end_position
                changed = True
    return tuple(
        ctx.program[i].qid for i in range(low + 1, high)
    )


def as_element_set(value: object) -> tuple[int, ...]:
    """Coerce a binding to a statement set.

    An ``all``-quantified clause binds its variable to a tuple of
    statements; a single statement coerces to a one-element set, so
    ``forall Sx in Sj`` works with either binding shape.
    """
    if isinstance(value, tuple):
        return value
    if isinstance(value, LoopBinding):
        raise GenesisRuntimeError(
            "a loop is not a statement set; use its .body"
        )
    if isinstance(value, int):
        return (value,)
    raise GenesisRuntimeError(f"not a statement set: {value!r}")


def region_set(ctx: MatchContext, start: object, stop: object) -> tuple[int, ...]:
    """GOSpeL ``region(S, S')``: statements textually strictly between.

    Unlike :func:`path_set` this is a *static* segment — no widening —
    used to name parts of a loop body (loop distribution's cut).
    """
    start_position = ctx.program.position(_as_qid(start))
    stop_position = ctx.program.position(_as_qid(stop))
    low, high = sorted((start_position, stop_position))
    return tuple(ctx.program[i].qid for i in range(low + 1, high))


def set_inter(left: Sequence[int], right: Sequence[int]) -> tuple[int, ...]:
    """GOSpeL ``inter(s1, s2)``, preserving the first set's order."""
    members = set(right)
    return tuple(qid for qid in left if qid in members)


def set_union(left: Sequence[int], right: Sequence[int]) -> tuple[int, ...]:
    """GOSpeL ``union(s1, s2)``, left order first."""
    seen = set(left)
    return tuple(left) + tuple(q for q in right if q not in seen)


def uses_in(
    ctx: MatchContext, operand: object, elements: Sequence[int]
) -> list[tuple[int, PosBinding]]:
    """Use sites of a scalar operand within a statement set.

    Yields ``(qid, PosBinding)`` for every operand position reading the
    variable — directly or inside an array subscript.
    """
    if isinstance(operand, Var):
        name = operand.name
    elif isinstance(operand, str):
        name = operand
    else:
        raise GenesisRuntimeError(f"uses() needs a variable, got {operand!r}")
    sites: list[tuple[int, PosBinding]] = []
    for qid in elements:
        quad = ctx.program.quad(qid)
        for pos, op in quad.use_positions():
            ctx.counters.mem_checks += 1
            if name in _operand_scalars(op):
                sites.append((qid, PosBinding(pos=pos, var=name)))
    return sites


def _operand_scalars(operand: object) -> frozenset[str]:
    from repro.ir.types import used_scalars

    return used_scalars(operand)


def range_values(
    ctx: MatchContext, init: object, final: object, step: object
) -> list[int]:
    """GOSpeL ``range(init, final, step)`` with DO-loop semantics."""
    start = _as_number(init)
    stop = _as_number(final)
    stride = _as_number(step)
    if stride == 0:
        raise GenesisRuntimeError("range() with zero step")
    values = []
    current = start
    while (stride > 0 and current <= stop) or (stride < 0 and current >= stop):
        values.append(int(current))
        current += stride
    return values


def _as_number(value: object) -> Union[int, float]:
    if isinstance(value, Const):
        return value.value
    if isinstance(value, (int, float)):
        return value
    raise GenesisRuntimeError(f"expected a constant, got {value!r}")


def arith(ctx: MatchContext, op: str, left: object, right: object) -> Const:
    """Action-time arithmetic over constants (folded immediately)."""
    left_num = _as_number(left)
    right_num = _as_number(right)
    if op == "+":
        result = left_num + right_num
    elif op == "-":
        result = left_num - right_num
    elif op == "*":
        result = left_num * right_num
    elif op == "/":
        if right_num == 0:
            raise GenesisRuntimeError("division by zero in action arithmetic")
        result = left_num / right_num
        if isinstance(left_num, int) and isinstance(right_num, int) and (
            left_num % right_num == 0
        ):
            result = left_num // right_num
    else:
        raise GenesisRuntimeError(f"unknown arithmetic operator {op!r}")
    return Const(result)


# ----------------------------------------------------------------------
# the five primitive actions
# ----------------------------------------------------------------------
def act_delete(ctx: MatchContext, target: object) -> None:
    """``Delete(a)``: delete a statement, a whole loop, or a block."""
    ctx.counters.action_ops += 1
    if isinstance(target, LoopBinding):
        head_position = ctx.program.position(target.head)
        end_position = ctx.program.position(target.end)
        doomed = [
            ctx.program[i].qid
            for i in range(head_position, end_position + 1)
        ]
        for qid in doomed:
            ctx.counters.action_ops += 1
            ctx.program.remove(qid)
    elif isinstance(target, int):
        ctx.program.remove(target)
    elif isinstance(target, (tuple, list)):
        for qid in list(target):
            ctx.counters.action_ops += 1
            if ctx.program.contains(qid):
                ctx.program.remove(qid)
    else:
        raise GenesisRuntimeError(f"cannot delete {target!r}")


def act_move(ctx: MatchContext, target: object, after: object) -> None:
    """``Move(a, b)``: remove ``a`` and place it following ``b``."""
    ctx.counters.action_ops += 1
    ctx.program.move_after(_as_qid(target), _anchor_qid(ctx, after))


def act_copy(ctx: MatchContext, source: object, after: object) -> object:
    """``Copy(a, b, c)``: copy ``a`` after ``b``; returns the new name's
    value (a qid, or a tuple of qids when copying a block)."""
    ctx.counters.action_ops += 1
    if isinstance(source, LoopBinding):
        head_position = ctx.program.position(source.head)
        end_position = ctx.program.position(source.end)
        source = tuple(
            ctx.program[i].qid for i in range(head_position, end_position + 1)
        )
    if isinstance(source, int):
        duplicate = ctx.program.quad(source).copy()
        placed = ctx.program.insert_after(_anchor_qid(ctx, after), duplicate)
        return placed.qid
    if isinstance(source, (tuple, list)):
        anchor = _anchor_qid(ctx, after)
        new_qids: list[int] = []
        for qid in source:
            ctx.counters.action_ops += 1
            duplicate = ctx.program.quad(qid).copy()
            placed = ctx.program.insert_after(anchor, duplicate)
            anchor = placed.qid
            new_qids.append(placed.qid)
        return tuple(new_qids)
    raise GenesisRuntimeError(f"cannot copy {source!r}")


def _anchor_qid(ctx: MatchContext, after: object) -> int:
    if isinstance(after, LoopBinding):
        return after.end
    if isinstance(after, int):
        return after
    if isinstance(after, (tuple, list)) and after:
        return after[-1]
    raise GenesisRuntimeError(f"bad placement target {after!r}")


def build_stmt(
    ctx: MatchContext,
    result: object,
    opcode_name: str,
    a: object,
    b: object = None,
) -> Quad:
    """Construct the quad described by an ``add`` template."""
    opcode = _opcode_by_name(opcode_name)
    return Quad(
        opcode,
        result=_as_operand_value(result),
        a=_as_operand_value(a),
        b=_as_operand_value(b) if b is not None else None,
    )


def _opcode_by_name(name: str) -> Opcode:
    canonical = _OPCODE_ALIASES.get(name, name)
    for opcode in Opcode:
        if opcode.value == canonical or opcode.name.lower() == canonical:
            return opcode
    raise GenesisRuntimeError(f"unknown opcode {name!r}")


def _as_operand_value(value: object) -> Optional[Operand]:
    if value is None or isinstance(value, Operand):
        return value
    if isinstance(value, (int, float)):
        return Const(value)
    if value == "none":
        return None
    raise GenesisRuntimeError(f"not an operand: {value!r}")


def act_add(ctx: MatchContext, after: object, quad: Quad) -> int:
    """``Add(a, description, b)``: insert a new statement after ``a``."""
    ctx.counters.action_ops += 1
    placed = ctx.program.insert_after(_anchor_qid(ctx, after), quad)
    return placed.qid


def act_modify_operand(
    ctx: MatchContext,
    stmt: object,
    pos: Union[str, PosBinding],
    new_value: object,
) -> None:
    """``Modify(Operand(S, i), New_operand)``.

    When the existing operand is an array reference and the dependence
    position names a variable inside its subscripts, the variable is
    substituted within the subscript expressions; otherwise the whole
    operand is replaced.
    """
    ctx.counters.action_ops += 1
    quad = ctx.program.quad(_as_qid(stmt))
    before = quad.copy()
    before.qid = quad.qid  # pre-image: makes the touch undoable
    operand = _as_operand_value(new_value)
    position = pos.pos if isinstance(pos, PosBinding) else pos
    existing = quad.operand_at(position)
    if (
        isinstance(pos, PosBinding)
        and isinstance(existing, ArrayRef)
        and pos.var != existing.name
    ):
        quad.set_operand(
            position, _substitute_subscripts(existing, pos.var, operand)
        )
    elif (
        isinstance(pos, PosBinding)
        and isinstance(existing, Var)
        and existing.name != pos.var
    ):
        raise GenesisRuntimeError(
            f"position {pos} does not match operand {existing} of S{quad.qid}"
        )
    else:
        quad.set_operand(position, operand)
    ctx.program.touch(quad.qid, before=before)  # invalidates caches


def _substitute_subscripts(
    ref: ArrayRef, var: str, new_operand: Optional[Operand]
) -> ArrayRef:
    subscripts: list[Union[Affine, Var]] = []
    for sub in ref.subscripts:
        if isinstance(sub, Affine) and sub.coefficient(var) != 0:
            if isinstance(new_operand, Const) and isinstance(
                new_operand.value, int
            ):
                subscripts.append(
                    sub.substitute(var, Affine.constant(new_operand.value))
                )
            elif isinstance(new_operand, Var):
                subscripts.append(
                    sub.substitute(var, Affine.var(new_operand.name))
                )
            else:
                raise GenesisRuntimeError(
                    f"cannot substitute {new_operand!r} into a subscript"
                )
        elif isinstance(sub, Var) and sub.name == var:
            if isinstance(new_operand, Var):
                subscripts.append(new_operand)
            elif isinstance(new_operand, Const) and isinstance(
                new_operand.value, int
            ):
                subscripts.append(Affine.constant(new_operand.value))
            else:
                raise GenesisRuntimeError(
                    f"cannot substitute {new_operand!r} into a subscript"
                )
        else:
            subscripts.append(sub)
    return ArrayRef(ref.name, tuple(subscripts))


def act_modify_attr(
    ctx: MatchContext, stmt: object, attr: str, new_value: object
) -> None:
    """``Modify`` overloaded on statement/loop attributes (.opc, .init...)."""
    ctx.counters.action_ops += 1
    quad = ctx.program.quad(_as_qid(stmt))
    before = quad.copy()
    before.qid = quad.qid  # pre-image: makes the touch undoable
    if attr == "opc":
        if not isinstance(new_value, str):
            raise GenesisRuntimeError("new opcode must be a symbol")
        quad.opcode = _opcode_by_name(new_value)
    elif attr in ("init", "opr_2"):
        quad.set_operand("a", _as_operand_value(new_value))
    elif attr in ("final", "opr_3"):
        quad.set_operand("b", _as_operand_value(new_value))
    elif attr == "step":
        quad.set_operand("step", _as_operand_value(new_value))
    elif attr in ("lcv", "opr_1"):
        quad.set_operand("result", _as_operand_value(new_value))
    else:
        raise GenesisRuntimeError(f"cannot modify attribute .{attr}")
    ctx.program.touch(quad.qid, before=before)
