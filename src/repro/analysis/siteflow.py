"""Structured reaching-sites dataflow for the scalar dependence pass.

:class:`~repro.analysis.dependence.DependenceAnalyzer` needs, for each
scalar definition/use site, the *sites of the same variable* that reach
selected program points — in the full (cyclic) solution and in the
acyclic (back-edge-free) one.  The generic bit-vector solver in
:mod:`repro.analysis.dataflow` answers this by materializing an IN set
over **all** sites at **every** CFG node: O(sites · positions / 64)
time and memory, which is both the dominant analysis cost and an
outright memory wall (hundreds of gigabytes) at 10^6 quads.

This module computes the same fixpoint by walking the structured
region tree directly, keeping one small per-variable set in an
environment dict and recording the environment only at the positions
the analyzer will actually query.  The transfer functions are all of
the gen/kill form ``f(S) = G ∪ (S ∖ K)``, which is closed under
composition and idempotent on cycles: for a single structured back
edge the fixpoint is reached after *one* extra application of the loop
body's effect (``IN_fix = IN_pre ∪ f_body(IN_pre)``), so a loop costs
two body walks in the cyclic flavour and one in the acyclic flavour —
O(n · 2^depth) worst case over the whole program, effectively linear
for real nesting depths, with memory proportional to the variables
and recorded query points rather than sites × positions.

The walk is also *region-pruned*: it visits only the positions that
hold a site or a query point, plus the markers of every region that
encloses or is headed by one (read from the
:class:`~repro.ir.loops.StructureTable`).  A region with no such
position inside applies only identity transfers, so skipping it is
exact, and a name-restricted analysis walks a small fraction of the
program.

Both site flavours are solved in one pass over the program:

* **definition sites** — a definition of ``v`` kills all other defs of
  ``v`` and generates itself (classical reaching definitions, with the
  synthetic position ``-1`` boundary defs seeding the entry); and
* **use sites** — a use of ``v`` generates itself, a definition of
  ``v`` kills all pending uses of ``v`` (the reads of the defining
  statement itself survive, since reads precede the write).

The equivalence with the bit-vector solver is asserted directly by
``tests/analysis/test_siteflow.py`` on randomized structured programs.
"""

from __future__ import annotations

from typing import Iterable, Optional, Protocol

from repro.ir.loops import StructureTable
from repro.ir.program import Program
from repro.ir.quad import LOOP_HEADS, Opcode

_EMPTY: frozenset[int] = frozenset()

#: Undo-log / environment tags for the two flavours solved together.
_DEF = 0
_USE = 1


class SiteLike(Protocol):
    """What the solver needs to know about one scalar site."""

    index: int
    position: int
    var: str


class SiteSets:
    """One flavour/one solution: ``which sites of var reach position``.

    Populated by :class:`SiteFlow`; ``at`` raises ``KeyError`` for
    positions that were not requested up front (the ``needed`` map),
    which turns a forgotten query registration into a loud failure
    instead of a silently wrong empty answer.
    """

    __slots__ = ("_at",)

    def __init__(self) -> None:
        self._at: dict[tuple[int, str], frozenset[int]] = {}

    def at(self, position: int, var: str) -> frozenset[int]:
        return self._at[(position, var)]


class SiteFlow:
    """Reaching def-sites and use-sites at the analyzer's query points.

    ``needed`` maps positions to the variable names whose reaching sets
    will be queried there.  Every position must lie inside the program;
    the walk records the IN environment (the state *before* the quad's
    own effect) for those (position, variable) pairs in all four
    solutions: ``def_full``, ``def_acyclic``, ``use_full``,
    ``use_acyclic``.  ``structure`` must describe the program's current
    version; its regions bound the walk.
    """

    def __init__(
        self,
        program: Program,
        def_sites: Iterable[SiteLike],
        use_sites: Iterable[SiteLike],
        needed: dict[int, Iterable[str]],
        structure: StructureTable,
    ) -> None:
        self.def_full = SiteSets()
        self.def_acyclic = SiteSets()
        self.use_full = SiteSets()
        self.use_acyclic = SiteSets()

        # per-position transfers, derived from the site lists so that a
        # restricted (partial) analysis only ever sees restricted sites
        self._def_at: dict[int, tuple[str, int]] = {}
        self._entry_def: dict[str, frozenset[int]] = {}
        variables: set[str] = set()
        for site in def_sites:
            variables.add(site.var)
            if site.position < 0:
                self._entry_def[site.var] = self._entry_def.get(
                    site.var, _EMPTY
                ) | {site.index}
            else:
                self._def_at[site.position] = (site.var, site.index)
        self._uses_at: dict[int, dict[str, frozenset[int]]] = {}
        for site in use_sites:
            variables.add(site.var)
            per_var = self._uses_at.setdefault(site.position, {})
            per_var[site.var] = per_var.get(site.var, _EMPTY) | {site.index}

        self._needed: dict[int, tuple[str, ...]] = {
            position: tuple(names) for position, names in needed.items()
        }

        self._plan_walk(
            program,
            structure,
            self._def_at.keys() | self._uses_at.keys() | self._needed.keys(),
        )

        self._variables = variables
        size = len(self._order)
        for cyclic, def_out, use_out in (
            (True, self.def_full, self.use_full),
            (False, self.def_acyclic, self.use_acyclic),
        ):
            self._env: list[dict[str, frozenset[int]]] = [
                {var: self._entry_def.get(var, _EMPTY) for var in variables},
                {var: _EMPTY for var in variables},
            ]
            self._log: list[tuple[int, str, frozenset[int]]] = []
            self._cyclic = cyclic
            self._record_to = (def_out._at, use_out._at)
            self._walk_top(size)

    # ------------------------------------------------------------------
    def _plan_walk(
        self, program: Program, structure: StructureTable,
        positions: Iterable[int],
    ) -> None:
        """Order the positions to visit and index each region by them.

        ``positions`` are those holding a site or a query point.  The
        regions to enter are every region enclosing one of them (its
        guards in ``structure.controllers``, which for an ``ENDDO``,
        ``ELSE`` or ``ENDIF`` include the marker's own region) and every
        region headed by one.  Any other region holds no site of a
        tracked variable, so its transfer is the identity and the walk
        steps over it.
        """
        kinds: dict[int, Opcode] = {}
        regions: set[int] = set()
        controllers = structure.controllers
        for position in positions:
            quad = program[position]
            op = quad.opcode
            kinds[position] = op
            regions.update(controllers[quad.qid])
            if op in LOOP_HEADS or op is Opcode.IF:
                regions.add(quad.qid)
        loops: list[tuple[int, int]] = []
        conditionals: list[tuple[int, Optional[int], int]] = []
        for guard in regions:
            head = program.position(guard)
            loop = structure.loops.get(guard)
            if loop is not None:
                kinds[head] = program.quad(guard).opcode
                end = program.position(loop.end_qid)
                kinds[end] = Opcode.ENDDO
                loops.append((head, end))
                continue
            conditional = structure.conditionals[guard]
            kinds[head] = Opcode.IF
            orelse = None
            if conditional.else_qid is not None:
                orelse = program.position(conditional.else_qid)
                kinds[orelse] = Opcode.ELSE
            endif = program.position(conditional.endif_qid)
            kinds[endif] = Opcode.ENDIF
            conditionals.append((head, orelse, endif))
        order = sorted(kinds)
        slot = {position: index for index, position in enumerate(order)}
        #: the positions the walk visits, in program order; the walk
        #: runs over indices into this list, and the region maps below
        #: take and give such indices
        self._order = order
        self._ops = [kinds[position] for position in order]
        self._enddo_of = {slot[head]: slot[end] for head, end in loops}
        self._else_of = {
            slot[head]: None if orelse is None else slot[orelse]
            for head, orelse, _ in conditionals
        }
        self._endif_of = {
            slot[head]: slot[endif] for head, _, endif in conditionals
        }

    # ------------------------------------------------------------------
    # environment primitives
    # ------------------------------------------------------------------
    def _set(self, which: int, var: str, value: frozenset[int]) -> None:
        env = self._env[which]
        self._log.append((which, var, env[var]))
        env[var] = value

    def _firsts(self, mark: int) -> dict[tuple[int, str], frozenset[int]]:
        """Oldest logged value per (flavour, var) since ``mark`` — the
        environment as it stood when the mark was taken, restricted to
        the entries modified afterwards."""
        olds: dict[tuple[int, str], frozenset[int]] = {}
        for which, var, old in self._log[mark:]:
            olds.setdefault((which, var), old)
        return olds

    def _rollback(self, mark: int) -> None:
        while len(self._log) > mark:
            which, var, old = self._log.pop()
            self._env[which][var] = old

    def _merge_since(self, mark: int) -> None:
        """Union the current environment with its state at ``mark``."""
        for (which, var), old in self._firsts(mark).items():
            current = self._env[which][var]
            if not (old <= current):
                self._set(which, var, old | current)

    # ------------------------------------------------------------------
    # node semantics
    # ------------------------------------------------------------------
    def _record(self, position: int) -> None:
        names = self._needed.get(position)
        if not names:
            return
        def_out, use_out = self._record_to
        env_def, env_use = self._env
        for var in names:
            key = (position, var)
            def_out[key] = env_def.get(var, _EMPTY)
            use_out[key] = env_use.get(var, _EMPTY)

    def _apply(self, position: int) -> None:
        uses = self._uses_at.get(position)
        definition = self._def_at.get(position)
        defined_var = definition[0] if definition else None
        if uses:
            env_use = self._env[_USE]
            for var, indices in uses.items():
                if var == defined_var:
                    continue  # killed and regenerated below
                current = env_use[var]
                if not (indices <= current):
                    self._set(_USE, var, current | indices)
        if definition:
            var, index = definition
            self._set(_DEF, var, frozenset((index,)))
            own_uses = uses.get(var, _EMPTY) if uses else _EMPTY
            self._set(_USE, var, own_uses)

    # ------------------------------------------------------------------
    # the structured walk
    # ------------------------------------------------------------------
    def _walk_top(self, size: int) -> None:
        """The outermost sequence, with the undo log truncated after
        every top-level statement: no enclosing region exists to look
        back past them, and dropping the entries keeps the log bounded
        by the largest single region instead of the whole program."""
        index = 0
        ops = self._ops
        order = self._order
        while index < size:
            op = ops[index]
            if op in LOOP_HEADS:
                index = self._walk_loop(index)
            elif op is Opcode.IF:
                index = self._walk_if(index)
            else:
                position = order[index]
                self._record(position)
                self._apply(position)
                index += 1
            del self._log[:]

    def _walk(self, start: int, stop: int) -> None:
        index = start
        ops = self._ops
        order = self._order
        while index < stop:
            op = ops[index]
            if op in LOOP_HEADS:
                index = self._walk_loop(index)
            elif op is Opcode.IF:
                index = self._walk_if(index)
            else:
                position = order[index]
                self._record(position)
                self._apply(position)
                index += 1

    def _walk_loop(self, head: int) -> int:
        enddo = self._enddo_of[head]
        position = self._order[head]
        if self._cyclic:
            # phase 1: one pass through DO + body gives f_cycle(IN_pre);
            # IN_fix = IN_pre ∪ f_cycle(IN_pre) closes the back edge
            # (gen/kill transfers make a second application a no-op)
            mark = len(self._log)
            self._apply(position)
            self._walk(head + 1, enddo)
            self._merge_since(mark)
        # exact pass from the (fixed) loop-entry environment; interior
        # recordings from phase 1 are overwritten here
        self._record(position)
        self._apply(position)
        mark = len(self._log)
        self._walk(head + 1, enddo)
        self._record(self._order[enddo])
        # zero-trip path: the DO's skip edge joins the loop's exit
        self._merge_since(mark)
        return enddo + 1

    def _walk_if(self, guard: int) -> int:
        endif = self._endif_of[guard]
        orelse = self._else_of[guard]
        order = self._order
        self._record(order[guard])
        self._apply(order[guard])
        if orelse is None:
            mark = len(self._log)
            self._walk(guard + 1, endif)
            # guard-false path falls straight through to ENDIF
            self._merge_since(mark)
            self._record(order[endif])
            return endif + 1
        mark = len(self._log)
        self._walk(guard + 1, orelse)
        self._record(order[orelse])  # the ELSE sees the THEN branch's out
        then_out = {
            key: self._env[key[0]][key[1]] for key in self._firsts(mark)
        }
        self._rollback(mark)
        mark = len(self._log)
        self._walk(orelse + 1, endif)
        else_olds = self._firsts(mark)
        for key in then_out.keys() | else_olds.keys():
            # a branch that did not touch the variable contributes the
            # guard-exit value, which is exactly what the other
            # branch's undo log preserved (or the current value)
            base = then_out.get(key)
            if base is None:
                base = else_olds[key]
            current = self._env[key[0]][key[1]]
            if not (base <= current):
                self._set(key[0], key[1], base | current)
        self._record(order[endif])  # the join point: both branch outs merged
        return endif + 1
