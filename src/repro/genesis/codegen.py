"""Generation of optimizer code from analyzed GOSpeL specifications.

For an optimization ``xxx`` GENesis generates four procedures — exactly
the structure of the paper's Figure 6:

* ``set_up_xxx`` — initializes the stlp entries for the TYPE variables;
* ``match_xxx`` — a generator yielding once per Code_Pattern binding;
* ``pre_xxx``   — a generator yielding once per complete Depend
  binding (backtracking across clauses);
* ``act_xxx``   — executes the ACTION primitives against the bindings.

plus the *call interface* (``set_up_OPT``/``match_OPT``/``pre_OPT``/
``act_OPT``) that the standard driver invokes.  The emitted text is
real Python source: it is stored on the optimizer object, can be
written to disk, inspected, and is ``exec``-ed to obtain the callables.

Each Depend clause is compiled according to its
:class:`~repro.genesis.strategy.ClauseStrategy` — members-first
(method 1) or dependence-first (method 2) — which is where experiment
E6's cost differences come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.gospel.ast import (
    Action,
    AddAction,
    Arith,
    BoolOp,
    Compare,
    Cond,
    CopyAction,
    DeleteAction,
    DepCond,
    DependClause,
    ElemType,
    ForallAction,
    FuncVal,
    MemCond,
    ModifyAction,
    MoveAction,
    NewTemp,
    NotOp,
    NumberLit,
    PathSet,
    PatternClause,
    Quant,
    RangeSet,
    Ref,
    RegionSet,
    SetExpr,
    SetOp,
    SetRef,
    SymbolLit,
    UsesSet,
    Value,
)
from repro.gospel.sema import AnalyzedSpec, ClausePlan
from repro.genesis.strategy import (
    ClauseStrategy,
    StrategyPolicy,
    choose_strategy,
)


class CodegenError(Exception):
    """Raised when a specification cannot be compiled."""


#: statement/loop attributes assignable by ``modify``
_MODIFIABLE_ATTRS = frozenset(
    {"opc", "opr_1", "opr_2", "opr_3", "init", "final", "step", "lcv"}
)

#: pattern enumeration routine per pair type
_PAIR_FINDERS = {
    ElemType.NESTED_LOOPS: "nested_loop_pairs",
    ElemType.TIGHT_LOOPS: "tight_loop_pairs",
    ElemType.ADJACENT_LOOPS: "adjacent_loop_pairs",
}

#: ``.opc == <symbol>`` conjuncts narrow a seed scan to one shape
_SHAPE_BY_OPC = {
    "assign": "assign",
    "add": "binop", "sub": "binop", "mul": "binop", "div": "binop",
    "mod": "binop", "pow": "binop",
    "neg": "unop", "abs": "unop", "sqrt": "unop", "sin": "unop",
    "cos": "unop", "exp": "unop", "log": "unop",
    "do": "loop_head", "doall": "loop_head",
    "read": "io", "write": "io",
}

#: ``class(S) == <symbol>`` conjuncts map to shape sets
_SHAPE_BY_CLASS = {
    "assign": ("assign",),
    "binop": ("binop",),
    "unop": ("unop",),
    "compute": ("assign", "binop", "unop"),
    "loop_head": ("loop_head",),
    "if_stmt": ("if_stmt",),
    "io": ("io",),
    "marker": ("marker",),
}


def _conjuncts(cond: Cond) -> list[Cond]:
    """Flatten nested top-level ANDs into their conjunct list."""
    if isinstance(cond, BoolOp) and cond.op == "and":
        terms: list[Cond] = []
        for term in cond.terms:
            terms.extend(_conjuncts(term))
        return terms
    return [cond]


def bare_symbol(types: dict[str, ElemType], value: Value) -> Optional[str]:
    """The symbolic-constant name of a value, when it is one."""
    if isinstance(value, SymbolLit):
        return value.name
    if isinstance(value, Ref) and not value.attrs and (
        value.base not in types
    ):
        return value.base
    return None


def shape_hint(
    types: dict[str, ElemType],
    format_cond: Optional[Cond],
    var: str,
) -> Optional[tuple[str, ...]]:
    """Shapes covering every candidate for ``var``, or None.

    Only top-level AND conjuncts of the clause format are consulted,
    and only equality comparisons against symbolic constants — anything
    else widens the hint (drops it) rather than narrowing it, so the
    hint is always a superset filter: the emitted seed scan passes it
    to ``lib.statements``, which during a matching-engine sweep skips
    every statement none of whose
    :func:`~repro.genesis.library.statement_shapes` is in the hint.
    """
    if format_cond is None:
        return None
    classes: Optional[set[str]] = None
    rhs_kind: Optional[str] = None
    for term in _conjuncts(format_cond):
        if not isinstance(term, Compare) or term.relop != "==":
            continue
        for target, other in (
            (term.left, term.right), (term.right, term.left)
        ):
            symbol = bare_symbol(types, other)
            if symbol is None:
                continue
            if (
                isinstance(target, Ref)
                and target.base == var
                and target.attrs == ("opc",)
            ):
                token = _SHAPE_BY_OPC.get(symbol)
                if token is not None:
                    classes = _intersect(classes, {token})
            elif (
                isinstance(target, FuncVal)
                and target.func == "class"
                and len(target.args) == 1
                and isinstance(target.args[0], Ref)
                and target.args[0].base == var
                and not target.args[0].attrs
            ):
                tokens = _SHAPE_BY_CLASS.get(symbol)
                if tokens is not None:
                    classes = _intersect(classes, set(tokens))
            elif (
                isinstance(target, FuncVal)
                and target.func == "type"
                and len(target.args) == 1
                and isinstance(target.args[0], Ref)
                and target.args[0].base == var
                and target.args[0].attrs == ("opr_2",)
                and symbol in ("const", "var", "array")
            ):
                rhs_kind = symbol
    if classes is None:
        return None
    if rhs_kind is not None and classes == {"assign"}:
        return (f"assign:{rhs_kind}",)
    return tuple(sorted(classes))


def _intersect(
    current: Optional[set[str]], new: set[str]
) -> set[str]:
    return set(new) if current is None else current & new


class Emitter:
    """Accumulates indented source lines."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        if line:
            self.lines.append("    " * self.indent + line)
        else:
            self.lines.append("")

    def block(self) -> "_Block":
        return _Block(self)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Block:
    def __init__(self, emitter: Emitter):
        self.emitter = emitter

    def __enter__(self) -> None:
        self.emitter.indent += 1

    def __exit__(self, *_exc: object) -> None:
        self.emitter.indent -= 1


@dataclass
class GeneratedSource:
    """The emitted module text plus generation metadata."""

    name: str
    source: str
    strategies: list[ClauseStrategy] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


class CodeGenerator:
    """Compiles one analyzed specification to Python source."""

    def __init__(
        self,
        analyzed: AnalyzedSpec,
        policy: StrategyPolicy = StrategyPolicy.HEURISTIC,
    ):
        self.analyzed = analyzed
        self.spec = analyzed.spec
        self.types = analyzed.types
        self.policy = policy
        self.name = _sanitize(self.spec.name)
        self.emitter = Emitter()
        self.strategies: list[ClauseStrategy] = []
        self.warnings: list[str] = list(analyzed.warnings)
        self._scan_counter = 0
        self._pos_vars: set[str] = set()
        self._dynamic_names: set[str] = set()
        self._current_anchor: Optional[str] = None
        for plan in analyzed.depend_plans:
            self._pos_vars.update(plan.new_pos_vars)

    # ------------------------------------------------------------------
    def generate(self) -> GeneratedSource:
        e = self.emitter
        e.emit(f'"""Code generated by GENesis for optimization '
               f'{self.name}."""')
        e.emit("from repro.genesis import library as lib")
        e.emit("from repro.genesis.library import PosBinding")
        e.emit()
        self._emit_set_up()
        e.emit()
        self._emit_match()
        e.emit()
        self._emit_pre()
        e.emit()
        self._emit_act()
        e.emit()
        self._emit_call_interface()
        return GeneratedSource(
            name=self.name,
            source=e.text(),
            strategies=self.strategies,
            warnings=self.warnings,
        )

    # ------------------------------------------------------------------
    # set_up
    # ------------------------------------------------------------------
    def _emit_set_up(self) -> None:
        e = self.emitter
        e.emit(f"def set_up_{self.name}(ctx):")
        with e.block():
            e.emit('"""Initialize the stlp entries for the TYPE section."""')
            for decl in self.spec.declarations:
                for name in decl.names:
                    type_name = (
                        "Stmt" if decl.elem_type is ElemType.STMT else "Loop"
                    )
                    e.emit(f"ctx.declare({name!r}, {type_name!r})")
            e.emit("return 1")

    # ------------------------------------------------------------------
    # match (Code_Pattern)
    # ------------------------------------------------------------------
    def _emit_match(self) -> None:
        e = self.emitter
        scan_names = []
        for index, clause in enumerate(self.spec.patterns):
            plan = self.analyzed.pattern_plans[index]
            scan_names.append(self._emit_pattern_scan(index, clause, plan))
            e.emit()
        e.emit(f"def match_{self.name}(ctx):")
        with e.block():
            e.emit('"""Yields once per Code_Pattern binding."""')
            self._emit_clause_chain(scan_names,
                                    [c.quant for c in self.spec.patterns],
                                    [p.search_vars
                                     for p in self.analyzed.pattern_plans])

    def _emit_pattern_scan(
        self, index: int, clause: PatternClause, plan: ClausePlan
    ) -> str:
        e = self.emitter
        scan_name = f"_scan_{self.name}_p{index}"
        e.emit(f"def {scan_name}(ctx):")
        with e.block():
            e.emit(f'"""Code_Pattern clause {index + 1}: '
                   f'{_doc(clause)}"""')
            if clause.quant is Quant.NO:
                # "The no operator returns null and warns the user"
                e.emit("return")
                e.emit("yield True  # unreachable: 'no' matches nothing")
                self.warnings.append(
                    f"pattern clause {index + 1} uses 'no': matches nothing"
                )
                return scan_name
            depth = self._emit_pattern_enumeration(
                plan.search_vars, clause.format
            )
            if clause.format is not None:
                check = self._compile_cond(clause.format)
                e.emit(f"if not ({check}):")
                with e.block():
                    e.emit("continue" if depth else "return")
            e.emit("yield True")
            for _ in range(depth):
                e.indent -= 1
        return scan_name

    def _emit_pattern_enumeration(
        self,
        search_vars: Sequence[str],
        format_cond: Optional[Cond] = None,
    ) -> int:
        """Emit nested candidate loops; returns the loop depth opened.

        The emitter indent is left *inside* the innermost loop; the
        caller emits the body and closes via the enclosing block scope.
        Declared loop pairs constrain the enumeration: two unbound pair
        elements enumerate the pair table together; a pair whose other
        element is already bound filters the table on the bound side
        (this is how ``Tight Loops: (L1, L2), (L2, L3)`` chains a
        perfect nest).

        Statement enumerations carry a *shape hint* derived from the
        clause format's top-level conjuncts (``Si.opc == assign``,
        ``class(Si) == compute``, ``type(Si.opr_2) == const``): a
        superset of the shapes a candidate can have.  The format check
        still runs on every candidate, so the hint never affects what
        matches — only how many candidates an engine sweep visits.
        """
        e = self.emitter
        depth = 0
        pairs = self.spec.loop_pairs()
        pending = list(search_vars)
        bound: set[str] = set()

        def pair_for(var: str) -> Optional[tuple[str, str, ElemType, int]]:
            """(first, second, type, which-side-var-is) for ``var``."""
            for first, second, pair_type in pairs:
                if var == first:
                    return first, second, pair_type, 0
                if var == second:
                    return first, second, pair_type, 1
            return None

        while pending:
            var = pending.pop(0)
            info = pair_for(var)
            if info is not None:
                first, second, pair_type, side = info
                finder = _PAIR_FINDERS[pair_type]
                other = second if side == 0 else first
                if other in pending:
                    # both elements unbound: enumerate the pair table
                    e.emit(f"for _pair{depth} in lib.{finder}(ctx):")
                    e.indent += 1
                    e.emit(f"ctx.bind({first!r}, _pair{depth}[0])")
                    e.emit(f"ctx.bind({second!r}, _pair{depth}[1])")
                    pending.remove(other)
                    bound.update((first, second))
                    depth += 1
                    continue
                if other in bound or other not in pending:
                    # the other element is already bound: filter
                    e.emit(f"for _pair{depth} in lib.{finder}(ctx):")
                    e.indent += 1
                    e.emit(
                        f"if _pair{depth}[{1 - side}].head != "
                        f"ctx.get_qid({other!r}):"
                    )
                    with e.block():
                        e.emit("continue")
                    e.emit(f"ctx.bind({var!r}, _pair{depth}[{side}])")
                    bound.add(var)
                    depth += 1
                    continue
            elem_type = self.types[var]
            if elem_type is ElemType.STMT:
                shape = shape_hint(self.types, format_cond, var)
                call = (
                    f"lib.statements(ctx, shape={shape!r})"
                    if shape is not None else "lib.statements(ctx)"
                )
            else:
                call = "lib.loops(ctx)"
            e.emit(f"for _cand{depth} in {call}:")
            e.indent += 1
            e.emit(f"ctx.bind({var!r}, _cand{depth})")
            bound.add(var)
            depth += 1
        return depth

    # ------------------------------------------------------------------
    # pre (Depend)
    # ------------------------------------------------------------------
    def _emit_pre(self) -> None:
        e = self.emitter
        scan_names = []
        for index, clause in enumerate(self.spec.depends):
            plan = self.analyzed.depend_plans[index]
            strategy = choose_strategy(clause, plan, self.types, self.policy)
            self.strategies.append(strategy)
            scan_names.append(
                self._emit_depend_scan(index, clause, plan, strategy)
            )
            e.emit()
        e.emit(f"def pre_{self.name}(ctx):")
        with e.block():
            e.emit('"""Yields once per satisfied Depend precondition."""')
            self._emit_clause_chain(
                scan_names,
                [c.quant for c in self.spec.depends],
                [p.search_vars for p in self.analyzed.depend_plans],
                restrictions=True,
            )

    def _emit_clause_chain(
        self,
        scan_names: Sequence[str],
        quants: Sequence[Quant],
        search_vars: Sequence[Sequence[str]],
        restrictions: bool = False,
    ) -> None:
        """Emit the nested any/no/all chain over per-clause scanners."""
        e = self.emitter
        in_loop = 0

        def fail() -> None:
            e.emit("continue" if in_loop else "return")

        for index, scan in enumerate(scan_names):
            quant = quants[index]
            if quant is Quant.NO:
                e.emit(f"_found{index} = False")
                e.emit(f"for _m{index} in {scan}(ctx):")
                with e.block():
                    e.emit(f"_found{index} = True")
                    e.emit("break")
                guard = (
                    f"if _found{index} and ctx.enforce_restrictions:"
                    if restrictions
                    else f"if _found{index}:"
                )
                e.emit(guard)
                with e.block():
                    fail()
            elif quant is Quant.ALL:
                variables = list(search_vars[index])
                if len(variables) != 1:
                    raise CodegenError(
                        "'all' clauses must bind exactly one element"
                    )
                var = variables[0]
                e.emit(f"_acc{index} = []")
                e.emit(f"for _m{index} in {scan}(ctx):")
                with e.block():
                    e.emit(f"_acc{index}.append(ctx.get({var!r}))")
                e.emit(f"ctx.bind({var!r}, tuple(_acc{index}))")
            else:  # ANY
                e.emit(f"for _m{index} in {scan}(ctx):")
                e.indent += 1
                in_loop += 1
        e.emit("yield True")
        for _ in range(in_loop):
            e.indent -= 1

    def _emit_depend_scan(
        self,
        index: int,
        clause: DependClause,
        plan: ClausePlan,
        strategy: ClauseStrategy,
    ) -> str:
        e = self.emitter
        scan_name = f"_scan_{self.name}_d{index}"
        e.emit(f"def {scan_name}(ctx):")
        self._current_anchor = self._clause_anchor(clause)
        with e.block():
            e.emit(f'"""Depend clause {index + 1} '
                   f'[{strategy.method}]: {_doc(clause)}"""')
            if strategy.method == "check":
                self._emit_check_clause(clause)
            elif strategy.method == "deps":
                self._emit_deps_clause(clause, plan, strategy)
            else:
                self._emit_members_clause(clause, plan)
        self._current_anchor = None
        return scan_name

    def _clause_anchor(self, clause: DependClause) -> Optional[str]:
        """The loop anchoring this clause's direction vectors.

        When every membership qualification restricts statements to one
        loop's body, direction vectors written in the clause are
        interpreted relative to that loop's nest level.
        """
        bases: set[str] = set()
        for membership in clause.memberships:
            set_expr = membership.set_expr
            if isinstance(set_expr, SetRef):
                base_type = self.types.get(set_expr.ref.base)
                if base_type is not None and base_type is not ElemType.STMT:
                    bases.add(set_expr.ref.base)
        if len(bases) == 1:
            return bases.pop()
        return None

    def _emit_check_clause(self, clause: DependClause) -> None:
        """No free variables: evaluate the condition once."""
        e = self.emitter
        checks = [self._compile_cond(m) for m in clause.memberships]
        if clause.condition is not None:
            checks.append(self._compile_cond(clause.condition))
        expression = " and ".join(checks) if checks else "True"
        e.emit(f"if ({expression}):")
        with e.block():
            e.emit("yield True")

    def _emit_deps_clause(
        self,
        clause: DependClause,
        plan: ClausePlan,
        strategy: ClauseStrategy,
    ) -> None:
        """Method (2): enumerate dependence edges, check memberships.

        A multi-atom primary group (an OR over dependence kinds with
        identical endpoints) enumerates the union of the kinds' edges.
        """
        e = self.emitter
        group = strategy.primary_group
        assert group
        primary = group[0]
        search = set(plan.search_vars)
        src_name = primary.src.base if isinstance(primary.src, Ref) and (
            not primary.src.attrs and primary.src.base in search
        ) else None
        dst_name = primary.dst.base if isinstance(primary.dst, Ref) and (
            not primary.dst.attrs and primary.dst.base in search
        ) else None

        anchor = self._anchor_arg()
        if src_name is None and dst_name is None:
            raise CodegenError(
                "deps-first strategy chosen for a clause with no free "
                "dependence endpoint"
            )
        if len(group) == 1:
            pattern = repr(primary.direction)
            if src_name is None:
                src_code = self._compile_stmt(primary.src)
                e.emit(
                    f"for _edge in lib.deps_from(ctx, {primary.kind!r}, "
                    f"{src_code}, pattern={pattern}{anchor}):"
                )
            elif dst_name is None:
                dst_code = self._compile_stmt(primary.dst)
                e.emit(
                    f"for _edge in lib.deps_to(ctx, {primary.kind!r}, "
                    f"{dst_code}, pattern={pattern}{anchor}):"
                )
            else:
                e.emit(
                    f"for _edge in lib.dep_edges(ctx, {primary.kind!r}, "
                    f"pattern={pattern}{anchor}):"
                )
        else:
            specs = repr([(atom.kind, atom.direction) for atom in group])
            src_code = (
                "None" if src_name is not None
                else self._compile_stmt(primary.src)
            )
            dst_code = (
                "None" if dst_name is not None
                else self._compile_stmt(primary.dst)
            )
            e.emit(
                f"for _edge in lib.dep_candidates(ctx, {specs}, "
                f"src={src_code}, dst={dst_code}{anchor}):"
            )
        with e.block():
            if src_name is not None:
                e.emit(f"ctx.bind({src_name!r}, _edge.src)")
            if dst_name is not None:
                e.emit(f"ctx.bind({dst_name!r}, _edge.dst)")
            self._emit_pos_handling(clause)
            for membership in clause.memberships:
                check = self._compile_cond(membership)
                e.emit(f"if not ({check}):")
                with e.block():
                    e.emit("continue")
            residual = self._compile_cond(
                clause.condition, exclude_group=group
            ) if clause.condition is not None else "True"
            if residual != "True":
                e.emit(f"if not ({residual}):")
                with e.block():
                    e.emit("continue")
            e.emit("yield True")

    def _emit_pos_handling(self, clause: DependClause) -> None:
        """Bind or unify the dependence-position names of the clause."""
        e = self.emitter
        for binder in clause.binders:
            if binder.pos_name is None:
                continue
            if binder.pos_name in self._bound_pos_before(clause):
                e.emit(f"_pb = ctx.get({binder.pos_name!r})")
                e.emit(
                    "if not (_edge.dst_pos == _pb.pos "
                    "and _edge.var == _pb.var):"
                )
                with e.block():
                    e.emit("continue")
            else:
                e.emit(
                    f"ctx.bind({binder.pos_name!r}, "
                    "PosBinding(_edge.dst_pos, _edge.var))"
                )

    def _bound_pos_before(self, clause: DependClause) -> set[str]:
        bound: set[str] = set()
        for other, plan in zip(self.spec.depends, self.analyzed.depend_plans):
            if other is clause:
                break
            bound.update(plan.new_pos_vars)
        return bound

    def _emit_members_clause(
        self, clause: DependClause, plan: ClausePlan
    ) -> None:
        """Method (1): enumerate members, verify the dependences."""
        e = self.emitter
        domains: dict[str, Optional[SetExpr]] = {}
        used_memberships: list[MemCond] = []
        for var in plan.search_vars:
            domain: Optional[SetExpr] = None
            for membership in clause.memberships:
                element = membership.element
                if element.base == var and not element.attrs and (
                    membership not in used_memberships
                ):
                    domain = membership.set_expr
                    used_memberships.append(membership)
                    break
            domains[var] = domain

        depth = 0
        for var in plan.search_vars:
            domain = domains[var]
            if domain is None:
                if self.types.get(var) is ElemType.STMT:
                    e.emit(f"for _cand{depth} in lib.statements(ctx):")
                else:
                    e.emit(f"for _cand{depth} in lib.loops(ctx):")
            else:
                e.emit(f"for _cand{depth} in {self._compile_set(domain)}:")
            e.indent += 1
            e.emit(f"ctx.bind({var!r}, _cand{depth})")
            depth += 1

        fail = "continue" if depth else "return"
        for membership in clause.memberships:
            if membership in used_memberships:
                continue
            check = self._compile_cond(membership)
            e.emit(f"if not ({check}):")
            with e.block():
                e.emit(fail)
        if clause.condition is not None:
            check = self._compile_cond(clause.condition)
            e.emit(f"if not ({check}):")
            with e.block():
                e.emit(fail)
        e.emit("yield True")
        for _ in range(depth):
            e.indent -= 1

    # ------------------------------------------------------------------
    # act
    # ------------------------------------------------------------------
    def _emit_act(self) -> None:
        e = self.emitter
        e.emit(f"def act_{self.name}(ctx):")
        with e.block():
            e.emit('"""Apply the ACTION primitives."""')
            for action in self.spec.actions:
                self._emit_action(action)
            e.emit("return 1")

    def _emit_action(self, action: Action) -> None:
        e = self.emitter
        if isinstance(action, DeleteAction):
            e.emit(f"lib.act_delete(ctx, {self._compile_value(action.target)})")
        elif isinstance(action, MoveAction):
            e.emit(
                f"lib.act_move(ctx, {self._compile_value(action.target)}, "
                f"{self._compile_value(action.after)})"
            )
        elif isinstance(action, CopyAction):
            self._dynamic_names.add(action.name)
            e.emit(
                f"_copy = lib.act_copy(ctx, "
                f"{self._compile_value(action.source)}, "
                f"{self._compile_value(action.after)})"
            )
            e.emit(f"ctx.bind({action.name!r}, _copy)")
        elif isinstance(action, AddAction):
            self._dynamic_names.add(action.name)
            template = action.template
            b_code = (
                self._compile_value(template.b)
                if template.b is not None
                else "None"
            )
            e.emit(
                f"_quad = lib.build_stmt(ctx, "
                f"{self._compile_value(template.result)}, "
                f"{template.opcode!r}, {self._compile_value(template.a)}, "
                f"{b_code})"
            )
            e.emit(
                f"_new = lib.act_add(ctx, "
                f"{self._compile_value(action.after)}, _quad)"
            )
            e.emit(f"ctx.bind({action.name!r}, _new)")
        elif isinstance(action, ModifyAction):
            self._emit_modify(action)
        elif isinstance(action, ForallAction):
            self._emit_forall(action)
        else:
            raise CodegenError(f"cannot compile action {action!r}")

    def _emit_modify(self, action: ModifyAction) -> None:
        e = self.emitter
        lvalue = action.lvalue
        new_code = self._compile_value(action.new_value)
        if isinstance(lvalue, FuncVal) and lvalue.func == "operand":
            stmt_code = self._compile_stmt(lvalue.args[0])
            pos_code = self._compile_value(lvalue.args[1])
            e.emit(
                f"lib.act_modify_operand(ctx, {stmt_code}, {pos_code}, "
                f"{new_code})"
            )
            return
        if isinstance(lvalue, Ref) and lvalue.attrs:
            attr = lvalue.attrs[-1]
            if attr not in _MODIFIABLE_ATTRS:
                raise CodegenError(f"cannot modify attribute .{attr}")
            prefix = Ref(base=lvalue.base, attrs=lvalue.attrs[:-1])
            stmt_code = self._compile_stmt(prefix)
            e.emit(
                f"lib.act_modify_attr(ctx, {stmt_code}, {attr!r}, {new_code})"
            )
            return
        raise CodegenError(f"bad modify target {lvalue!r}")

    def _emit_forall(self, action: ForallAction) -> None:
        e = self.emitter
        binder = action.binder
        self._dynamic_names.add(binder.name)
        domain = action.domain
        if isinstance(domain, UsesSet):
            operand_code = self._compile_value(domain.operand)
            within_code = self._compile_set(domain.within)
            e.emit(
                f"for _site in lib.uses_in(ctx, {operand_code}, "
                f"{within_code}):"
            )
            with e.block():
                e.emit(f"ctx.bind({binder.name!r}, _site[0])")
                if binder.pos_name is not None:
                    self._dynamic_names.add(binder.pos_name)
                    self._pos_vars.add(binder.pos_name)
                    e.emit(f"ctx.bind({binder.pos_name!r}, _site[1])")
                self._emit_forall_body(action)
        elif isinstance(domain, RangeSet):
            init = self._compile_value(domain.init)
            final = self._compile_value(domain.final)
            step = self._compile_value(domain.step)
            e.emit(
                f"for _k in lib.range_values(ctx, {init}, {final}, {step}):"
            )
            with e.block():
                e.emit(f"ctx.bind({binder.name!r}, _k)")
                self._emit_forall_body(action)
        else:
            e.emit(f"for _elem in {self._compile_set(domain)}:")
            with e.block():
                e.emit(f"ctx.bind({binder.name!r}, _elem)")
                self._emit_forall_body(action)

    def _emit_forall_body(self, action: ForallAction) -> None:
        e = self.emitter
        if action.where is not None:
            check = self._compile_cond(action.where)
            e.emit(f"if not ({check}):")
            with e.block():
                e.emit("continue")
        for sub in action.body:
            self._emit_action(sub)

    # ------------------------------------------------------------------
    # call interface
    # ------------------------------------------------------------------
    def _emit_call_interface(self) -> None:
        e = self.emitter
        e.emit("# call interface (paper Figure 6): the driver calls these")
        e.emit()
        e.emit("def set_up_OPT(ctx):")
        with e.block():
            e.emit(f"return set_up_{self.name}(ctx)")
        e.emit()
        e.emit()
        e.emit("def match_OPT(ctx):")
        with e.block():
            e.emit(f"return match_{self.name}(ctx)")
        e.emit()
        e.emit()
        e.emit("def pre_OPT(ctx):")
        with e.block():
            e.emit(f"return pre_{self.name}(ctx)")
        e.emit()
        e.emit()
        e.emit("def act_OPT(ctx):")
        with e.block():
            e.emit(f"return act_{self.name}(ctx)")

    # ------------------------------------------------------------------
    # condition compilation
    # ------------------------------------------------------------------
    def _compile_cond(
        self,
        cond: Cond,
        exclude_group: tuple[DepCond, ...] = (),
    ) -> str:
        if isinstance(cond, DepCond) and any(
            cond is atom for atom in exclude_group
        ):
            return "True"
        if isinstance(cond, BoolOp):
            if (
                cond.op == "or"
                and exclude_group
                and len(cond.terms) == len(exclude_group)
                and all(
                    term is atom
                    for term, atom in zip(cond.terms, exclude_group)
                )
            ):
                return "True"
            joiner = " and " if cond.op == "and" else " or "
            parts = [self._compile_cond(t, exclude_group) for t in cond.terms]
            return "(" + joiner.join(parts) + ")"
        if isinstance(cond, NotOp):
            return f"(not {self._compile_cond(cond.term, exclude_group)})"
        if isinstance(cond, Compare):
            left = self._compile_value(cond.left)
            right = self._compile_value(cond.right)
            return f"lib.compare(ctx, {cond.relop!r}, {left}, {right})"
        if isinstance(cond, DepCond):
            src = self._compile_stmt(cond.src)
            dst = self._compile_stmt(cond.dst)
            return (
                f"lib.dep_exists(ctx, {cond.kind!r}, {src}, {dst}, "
                f"pattern={cond.direction!r}{self._anchor_arg()})"
            )
        if isinstance(cond, MemCond):
            element = self._compile_stmt(cond.element)
            set_code = self._compile_set(cond.set_expr)
            return f"lib.member(ctx, {element}, {set_code})"
        raise CodegenError(f"cannot compile condition {cond!r}")

    # ------------------------------------------------------------------
    # value compilation
    # ------------------------------------------------------------------
    def _compile_value(self, value: Value) -> str:
        if isinstance(value, NumberLit):
            return repr(value.value)
        if isinstance(value, SymbolLit):
            return repr(value.name.lower())
        if isinstance(value, NewTemp):
            return "ctx.fresh_temp()"
        if isinstance(value, Arith):
            left = self._compile_value(value.left)
            right = self._compile_value(value.right)
            return f"lib.arith(ctx, {value.op!r}, {left}, {right})"
        if isinstance(value, FuncVal):
            return self._compile_funcval(value)
        if isinstance(value, Ref):
            return self._compile_ref(value)
        raise CodegenError(f"cannot compile value {value!r}")

    def _anchor_arg(self) -> str:
        if self._current_anchor is None:
            return ""
        return f", anchor=ctx.get({self._current_anchor!r})"

    def _compile_funcval(self, value: FuncVal) -> str:
        if value.func == "type":
            return f"lib.kind_of({self._compile_value(value.args[0])})"
        if value.func == "class":
            return f"lib.class_of(ctx, {self._compile_stmt(value.args[0])})"
        if value.func == "trip":
            return f"lib.trip_of(ctx, {self._compile_stmt(value.args[0])})"
        if value.func == "value":
            return f"lib.value_of(ctx, {self._compile_stmt(value.args[0])})"
        if value.func == "pos":
            return (
                f"lib.position_of(ctx, {self._compile_stmt(value.args[0])})"
            )
        if value.func == "operand":
            stmt = self._compile_stmt(value.args[0])
            pos = self._compile_value(value.args[1])
            return f"lib.operand_at(ctx, {stmt}, {pos})"
        raise CodegenError(f"unknown function {value.func!r}")

    def _compile_ref(self, ref: Ref) -> str:
        base = ref.base
        known = (
            base in self.types
            or base in self._dynamic_names
            or base in self._pos_vars
        )
        if not known:
            if ref.attrs:
                raise CodegenError(f"undeclared base {base!r} in {ref}")
            return repr(base.lower())  # a symbolic constant
        if not ref.attrs:
            return f"ctx.get({base!r})"
        return f"lib.eval_ref(ctx, {base!r}, {ref.attrs!r})"

    def _compile_stmt(self, value: Value) -> str:
        """Compile a statement-valued expression (a qid at runtime)."""
        if isinstance(value, Ref):
            if not value.attrs:
                return f"ctx.get_qid({value.base!r})"
            return f"lib.eval_ref(ctx, {value.base!r}, {value.attrs!r})"
        raise CodegenError(f"expected a statement reference, got {value!r}")

    # ------------------------------------------------------------------
    # set compilation
    # ------------------------------------------------------------------
    def _compile_set(self, set_expr: SetExpr) -> str:
        if isinstance(set_expr, SetRef):
            ref = set_expr.ref
            base_type = self.types.get(ref.base)
            if base_type is not None and base_type is not ElemType.STMT:
                # a loop name (optionally with .body) means its body
                return f"lib.loop_body(ctx, ctx.get_qid({ref.base!r}))"
            if ref.base in self._dynamic_names and not ref.attrs:
                return f"ctx.get({ref.base!r})"
            if base_type is ElemType.STMT and not ref.attrs:
                # an 'all'-quantified collection (or a single statement
                # coerced to a one-element set)
                return f"lib.as_element_set(ctx.get({ref.base!r}))"
            raise CodegenError(f"{ref} is not a set")
        if isinstance(set_expr, PathSet):
            start = self._compile_stmt(set_expr.start)
            stop = self._compile_stmt(set_expr.stop)
            return f"lib.path_set(ctx, {start}, {stop})"
        if isinstance(set_expr, RegionSet):
            start = self._compile_stmt(set_expr.start)
            stop = self._compile_stmt(set_expr.stop)
            return f"lib.region_set(ctx, {start}, {stop})"
        if isinstance(set_expr, SetOp):
            left = self._compile_set(set_expr.left)
            right = self._compile_set(set_expr.right)
            func = "set_inter" if set_expr.op == "inter" else "set_union"
            return f"lib.{func}({left}, {right})"
        if isinstance(set_expr, UsesSet):
            operand = self._compile_value(set_expr.operand)
            within = self._compile_set(set_expr.within)
            return f"lib.uses_in(ctx, {operand}, {within})"
        raise CodegenError(f"cannot compile set {set_expr!r}")


def _sanitize(name: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "OPT_" + cleaned
    return cleaned


def _doc(clause: object) -> str:
    text = str(clause).replace('"', "'")
    return text if len(text) < 160 else text[:157] + "..."


def generate_source(
    analyzed: AnalyzedSpec,
    policy: StrategyPolicy = StrategyPolicy.HEURISTIC,
) -> GeneratedSource:
    """Compile an analyzed specification to generated Python source."""
    return CodeGenerator(analyzed, policy).generate()
