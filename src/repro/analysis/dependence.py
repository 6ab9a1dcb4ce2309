"""Computing the dependence graph of a program.

Scalar dependences come from reaching-definition-style dataflow over
the statement CFG; the acyclic (back-edge-free) solution distinguishes
loop-independent dependences (direction ``=`` at every common level)
from loop-carried ones (``<`` at the carrying loop).  Array dependences
come from the subscript tests of :mod:`repro.analysis.subscript`,
expanded into concrete direction vectors.  They are applied to every
access pair with a write that no constant subscript dimension
separates; :class:`AllPairsAnalyzer` tests every pair and is the
reference the manager's shadow check compares against.  Control
dependences come from the structured region table.

This module implements the "data dependencies are computed" box of the
paper's Figure 3 — the input every generated optimizer consumes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from repro.analysis.control_dep import compute_control_deps
from repro.analysis.graph import DepEdge, DependenceGraph
from repro.analysis.siteflow import SiteFlow, SiteSets
from repro.analysis.subscript import (
    LoopContext,
    expand_direction_vectors,
    lexicographic_class,
    test_access_pair,
)
from repro.ir.loops import Loop, StructureTable, trip_count
from repro.ir.program import Program
from repro.ir.quad import Opcode, Quad
from repro.ir.types import Affine, ArrayRef, used_scalars

#: Safety valve on direction-vector expansion per access pair.
MAX_VECTORS_PER_PAIR = 128


@dataclass(frozen=True)
class _Site:
    """One scalar definition or use site."""

    index: int  # bit position
    position: int  # quad position (-1 for the synthetic boundary defs)
    qid: int
    var: str
    pos: str  # operand position ("result", "a", "b", "step")


@dataclass(frozen=True)
class _ArrayAccess:
    """One array element access."""

    position: int
    qid: int
    pos: str
    ref: ArrayRef
    is_write: bool


class PairTestMemo:
    """Value-keyed memos of the array pair tests.

    Every entry is a pure function of subscript expressions and
    :class:`LoopContext` values, never of qids or positions, so a memo
    stays valid across program versions: the analysis manager shares
    one among every analyzer it builds.  Large programs repeat a small
    vocabulary of subscript shapes across many access pairs.
    """

    __slots__ = ("renamed", "verdicts", "vectors")

    def __init__(self) -> None:
        #: (subscripts, private lcvs, side tag) -> renamed subscripts
        self.renamed: dict[tuple, tuple] = {}
        #: (src subscripts, dst subscripts, loop contexts) -> per-level
        #: direction sets, or None for a proven independence
        self.verdicts: dict[tuple, Optional[tuple]] = {}
        #: per-level direction sets -> concrete direction vectors
        self.vectors: dict[tuple, list[tuple[str, ...]]] = {}


class DependenceAnalyzer:
    """Builds the :class:`DependenceGraph` for one program version.

    With ``restrict_names`` the analysis is *partial*: only scalar and
    array dependences whose variable/array is in the set are computed,
    and only control dependences sinking into ``restrict_ctrl_qids``
    are emitted.  Because the dataflow bits of distinct variables never
    interact (gen/kill masks are per variable) and structured control
    flow fixes every path relation independently of straight-line
    statements, the partial result is *exactly* the subset of the full
    graph touching those names — the property the incremental
    :class:`repro.analysis.manager.AnalysisManager` splices on.

    ``scope`` (partial analyses only) names the qids to collect sites
    and array accesses from, instead of the whole program.  It must
    include every quad that reads or writes a restricted name; quads
    that mention none add nothing, so any such superset yields the
    same sites, in the same order, as a whole-program scan.

    ``memo`` is the subscript-test memo to read and fill; the analysis
    manager passes its own so the memo outlives one program version.
    """

    def __init__(
        self,
        program: Program,
        restrict_names: Optional[frozenset[str]] = None,
        restrict_ctrl_qids: Optional[frozenset[int]] = None,
        structure: Optional[StructureTable] = None,
        scope: Optional[Iterable[int]] = None,
        memo: Optional[PairTestMemo] = None,
    ):
        self.program = program
        # callers holding the current-version structure (the analysis
        # manager) pass it in; it MUST describe this exact version
        self.structure = (
            structure if structure is not None else StructureTable(program)
        )
        self.graph = DependenceGraph()
        self._restrict_names = restrict_names
        self._restrict_ctrl_qids = restrict_ctrl_qids
        self._def_sites: list[_Site] = []
        self._use_sites: list[_Site] = []
        self._defs_of_var: dict[str, list[_Site]] = {}
        self._uses_of_var: dict[str, list[_Site]] = {}
        self._accesses: dict[str, list[_ArrayAccess]] = {}
        self._site_flow_cache: Optional[SiteFlow] = None
        self._memo = memo if memo is not None else PairTestMemo()
        # keyed by qid, so valid for this version only: a loop bound can
        # change (CTP) without its head's qid changing
        self._context_cache: dict[int, LoopContext] = {}
        self._lcvs_cache: dict[int, frozenset[str]] = {}
        if scope is None:
            self._collect_sites(enumerate(program))
        else:
            position = program.position
            self._collect_sites(
                (index, program.quad(qid))
                for index, qid in sorted(
                    (position(qid), qid) for qid in scope
                )
            )

    # ------------------------------------------------------------------
    def analyze(self) -> DependenceGraph:
        """Compute all four dependence kinds."""
        self._scalar_dependences()
        self._array_dependences()
        self._control_dependences()
        return self.graph

    # ------------------------------------------------------------------
    # site collection
    # ------------------------------------------------------------------
    def _collect_sites(self, quads: Iterable[tuple[int, Quad]]) -> None:
        """Scalar sites and array accesses of the wanted names, from
        ``(position, quad)`` pairs in program order."""
        wanted = self._restrict_names
        defs: list[tuple[int, int, str, str]] = []
        uses: list[tuple[int, int, str, str]] = []
        accesses = self._accesses
        for position, quad in quads:
            qid = quad.qid
            var = quad.defined_scalar()
            if var is not None and (wanted is None or var in wanted):
                def_pos = "a" if quad.opcode is Opcode.READ else "result"
                defs.append((position, qid, var, def_pos))
            for pos, operand in quad.use_positions():
                for name in sorted(used_scalars(operand)):
                    if wanted is None or name in wanted:
                        uses.append((position, qid, name, pos))
            written = quad.defined_array()
            if written is not None and (
                wanted is None or written.name in wanted
            ):
                accesses.setdefault(written.name, []).append(
                    _ArrayAccess(position, qid, "result", written, True)
                )
            for pos, ref in quad.used_array_refs():
                if wanted is None or ref.name in wanted:
                    accesses.setdefault(ref.name, []).append(
                        _ArrayAccess(position, qid, pos, ref, False)
                    )
        # synthetic boundary definitions model "defined before entry",
        # which makes upward exposure at loop heads visible in the
        # acyclic reaching sets; they take the lowest indices, one per
        # variable with a site, in name order
        variables = sorted(
            {entry[2] for entry in defs} | {entry[2] for entry in uses}
        )
        for var in variables:
            self._add_site(self._def_sites, self._defs_of_var, -1, -1, var,
                           "result")
        for entry in defs:
            self._add_site(self._def_sites, self._defs_of_var, *entry)
        for entry in uses:
            self._add_site(self._use_sites, self._uses_of_var, *entry)

    @staticmethod
    def _add_site(
        sites: list[_Site], by_var: dict[str, list[_Site]],
        position: int, qid: int, var: str, pos: str,
    ) -> None:
        site = _Site(
            index=len(sites), position=position, qid=qid, var=var, pos=pos
        )
        sites.append(site)
        by_var.setdefault(var, []).append(site)

    # ------------------------------------------------------------------
    # scalar dependences
    # ------------------------------------------------------------------
    def _scalar_dependences(self) -> None:
        flow = self._site_flow()
        self._flow_and_out(flow.def_full, flow.def_acyclic)
        self._anti(flow.use_full, flow.use_acyclic)

    def _site_flow(self) -> SiteFlow:
        """The structured reaching-sites solutions, built on demand.

        Query points are every site's own position plus the ENDDO
        position of every loop enclosing a site (where
        :meth:`_emit_carried` asks whether a value survives the back
        edge), each paired with the site's variable.
        """
        flow = self._site_flow_cache
        if flow is None:
            needed: dict[int, set[str]] = {}
            for sites in (self._def_sites, self._use_sites):
                for site in sites:
                    if site.position < 0:
                        continue
                    needed.setdefault(site.position, set()).add(site.var)
                    for head in self.structure.loop_chain(site.qid):
                        loop = self.structure.loops[head]
                        enddo = self.program.position(loop.end_qid)
                        needed.setdefault(enddo, set()).add(site.var)
            flow = SiteFlow(
                self.program, self._def_sites, self._use_sites, needed,
                self.structure,
            )
            self._site_flow_cache = flow
        return flow

    def _flow_and_out(self, full: SiteSets, acyclic: SiteSets) -> None:
        # Pairs are driven from the solved reaching sets: a source site
        # can produce an edge into a sink only if it reaches the sink
        # in the full (may, cyclic) solution — carried edges included,
        # since surviving a back edge into an exposed sink implies
        # reaching it.  This keeps the work proportional to real
        # dependences rather than |defs| x |uses| per variable.

        # flow: def site reaches a use of the same variable
        for use in self._use_sites:
            for def_index in sorted(full.at(use.position, use.var)):
                definition = self._def_sites[def_index]
                if definition.position == -1:
                    continue
                if definition.qid == use.qid and definition.pos == use.pos:
                    continue
                self._emit_pair(
                    kind="flow",
                    src=definition,
                    dst=use,
                    full=full,
                    acyclic=acyclic,
                    allow_same_stmt_equal=False,
                )
        # out: def site reaches a later def of the same variable
        for later in self._def_sites:
            if later.position == -1:
                continue
            if self._is_own_lcv_def(later):
                continue
            for def_index in sorted(full.at(later.position, later.var)):
                # a re-executed definition reaches itself around a back
                # edge: the carried self-output that orders a loop's
                # iterations appears here naturally
                earlier = self._def_sites[def_index]
                if earlier.position == -1:
                    continue
                self._emit_pair(
                    kind="out",
                    src=earlier,
                    dst=later,
                    full=full,
                    acyclic=acyclic,
                    allow_same_stmt_equal=False,
                )

    def _is_own_lcv_def(self, site: _Site) -> bool:
        """A DO/DOALL header (re)initializing its own control variable.

        FORTRAN's DO owns its variable (the body may read but not write
        it), so anti/output dependences *into* the header's
        initialization are not ordering constraints — the standard
        induction-variable treatment.  Flow dependences from the header
        to the variable's readers are kept; they carry all the real
        ordering information.
        """
        if site.position == -1:
            return False
        quad = self.program[site.position]
        return quad.opcode in (Opcode.DO, Opcode.DOALL) and (
            quad.defined_scalar() == site.var
        )

    def _anti(self, full: SiteSets, acyclic: SiteSets) -> None:
        # anti: use site "reaches" a def of the same variable
        for definition in self._def_sites:
            if definition.position == -1:
                continue
            if self._is_own_lcv_def(definition):
                continue
            for use_index in sorted(
                full.at(definition.position, definition.var)
            ):
                use = self._use_sites[use_index]
                if use.qid == definition.qid:
                    # within one statement the reads precede the write;
                    # record the self-anti only when loop-carried
                    self._emit_carried_only(
                        kind="anti", src=use, dst=definition, full=full
                    )
                    continue
                self._emit_pair(
                    kind="anti",
                    src=use,
                    dst=definition,
                    full=full,
                    acyclic=acyclic,
                    allow_same_stmt_equal=False,
                )

    # ------------------------------------------------------------------
    def _emit_pair(
        self,
        kind: str,
        src: _Site,
        dst: _Site,
        full: SiteSets,
        acyclic: SiteSets,
        allow_same_stmt_equal: bool,
    ) -> None:
        """Emit loop-independent and loop-carried edges for a site pair."""
        common = self.structure.common_loops(src.qid, dst.qid)
        depth = len(common)
        if src.index in acyclic.at(dst.position, src.var):
            self.graph.add(
                DepEdge(
                    kind=kind,
                    src=src.qid,
                    dst=dst.qid,
                    var=src.var,
                    vector=("=",) * depth,
                    src_pos=src.pos,
                    dst_pos=dst.pos,
                )
            )
        self._emit_carried(kind, src, dst, full, common)

    def _emit_carried_only(
        self, kind: str, src: _Site, dst: _Site, full: SiteSets
    ) -> None:
        common = self.structure.common_loops(src.qid, dst.qid)
        self._emit_carried(kind, src, dst, full, common)

    def _emit_carried(
        self,
        kind: str,
        src: _Site,
        dst: _Site,
        full: SiteSets,
        common: Sequence[Loop],
    ) -> None:
        """Loop-carried edges: one per common loop whose back edge the
        value survives and into whose next iteration the sink is
        exposed."""
        depth = len(common)
        for level, loop in enumerate(common):
            enddo_position = self.program.position(loop.end_qid)
            if src.index not in full.at(enddo_position, src.var):
                continue
            if not self._upward_exposed(dst, loop):
                continue
            vector = ("=",) * level + ("<",) + ("*",) * (depth - level - 1)
            self.graph.add(
                DepEdge(
                    kind=kind,
                    src=src.qid,
                    dst=dst.qid,
                    var=src.var,
                    vector=vector,
                    src_pos=src.pos,
                    dst_pos=dst.pos,
                )
            )

    def _upward_exposed(self, site: _Site, loop: Loop) -> bool:
        """Is there a definition-free path from the loop head to the
        site?  Detected by an *outside* definition (or the synthetic
        boundary def) reaching the site in the acyclic solution."""
        head_position = self.program.position(loop.head_qid)
        end_position = self.program.position(loop.end_qid)
        reaching = self._site_flow().def_acyclic.at(site.position, site.var)
        for definition in self._defs_of_var.get(site.var, ()):
            if definition.index not in reaching:
                continue
            if definition.position == -1:
                return True
            if not head_position < definition.position < end_position:
                return True
        return False

    # ------------------------------------------------------------------
    # array dependences
    # ------------------------------------------------------------------
    def _array_dependences(self) -> None:
        for name, access_list in self._accesses.items():
            for src, dst in self._array_pairs(access_list):
                self._array_pair(name, src, dst)

    def _array_pairs(
        self, accesses: list[_ArrayAccess]
    ) -> Iterator[tuple[_ArrayAccess, _ArrayAccess]]:
        """The ordered pairs of one array's accesses worth testing.

        A dimension is *pinned* when its subscript is a constant
        ``Affine``.  Two accesses pinned at different constants in the
        same dimension are independent in every loop context (ZIV), so
        only pairs with a write that no pinned dimension separates are
        yielded: each source in access order, its sinks in access order.
        That is the all-pairs order less pairs that add nothing, so the
        edges come out in the same order (see docs/analysis.md).
        """
        pins = [_pins(access.ref) for access in accesses]
        every = range(len(accesses))
        pinned_at: dict[tuple[int, int], set[int]] = {}
        pinned_in: dict[int, set[int]] = {}
        for index, pin in enumerate(pins):
            for key in pin:
                pinned_at.setdefault(key, set()).add(index)
                pinned_in.setdefault(key[0], set()).add(index)
        # an access not pinned in a dimension (non-constant there, or of
        # a lower rank) is loose there; a (dimension, constant) key is
        # not separated from the accesses pinned at it or loose there
        loose = {dim: set(every) - pinned for dim, pinned in pinned_in.items()}
        groups = {
            key: pinned | loose[key[0]] for key, pinned in pinned_at.items()
        }
        # a pin tuple's sinks are the intersection of its keys' groups
        sinks_of: dict[tuple[tuple[int, int], ...], Sequence[int]] = {
            (): every
        }
        for index, src in enumerate(accesses):
            pin = pins[index]
            sinks = sinks_of.get(pin)
            if sinks is None:
                sinks = sinks_of[pin] = sorted(
                    set.intersection(*(groups[key] for key in pin))
                )
            for other in sinks:
                dst = accesses[other]
                if other != index and (src.is_write or dst.is_write):
                    yield src, dst

    def _array_pair(
        self, name: str, src: _ArrayAccess, dst: _ArrayAccess
    ) -> None:
        common = self.structure.common_loops(src.qid, dst.qid)
        contexts = []
        common_lcvs = set()
        for loop in common:
            context = self._context_cache.get(loop.head_qid)
            if context is None:
                head = self.program.quad(loop.head_qid)
                context = LoopContext(
                    var=_lcv_name(head), trip_count=trip_count(head)
                )
                self._context_cache[loop.head_qid] = context
            common_lcvs.add(context.var)
            contexts.append(context)
        src_subs = self._disambiguate(src, common_lcvs, "src")
        dst_subs = self._disambiguate(dst, common_lcvs, "dst")
        key = (src_subs, dst_subs, tuple(contexts))
        memo = self._memo
        try:
            per_level = memo.verdicts[key]
        except KeyError:
            verdict = test_access_pair(src_subs, dst_subs, contexts)
            per_level = None if verdict is None else tuple(verdict)
            memo.verdicts[key] = per_level
        if per_level is None:
            return
        vectors = memo.vectors.get(per_level)
        if vectors is None:
            vectors = expand_direction_vectors(per_level)
            memo.vectors[per_level] = vectors
        if len(vectors) > MAX_VECTORS_PER_PAIR:
            clipped = len(vectors) - MAX_VECTORS_PER_PAIR
            note = (
                f"direction-vector expansion clipped for {name} "
                f"(S{src.qid} -> S{dst.qid}): dropped {clipped} of "
                f"{len(vectors)} vectors (MAX_VECTORS_PER_PAIR="
                f"{MAX_VECTORS_PER_PAIR}); dependence info may be "
                "incomplete"
            )
            self.graph.add_note(note)
            warnings.warn(note, RuntimeWarning, stacklevel=2)
            vectors = vectors[:MAX_VECTORS_PER_PAIR]
        if src.is_write and dst.is_write:
            kind = "out"
        elif src.is_write:
            kind = "flow"
        else:
            kind = "anti"
        for vector in vectors:
            klass = lexicographic_class(vector)
            if klass == "backward":
                continue  # the reversed pair generates this dependence
            if klass == "equal":
                if src.qid == dst.qid:
                    continue
                if src.position > dst.position:
                    continue
                if not self._may_execute_in_order(src, dst):
                    continue
            self.graph.add(
                DepEdge(
                    kind=kind,
                    src=src.qid,
                    dst=dst.qid,
                    var=name,
                    vector=vector,
                    src_pos=src.pos,
                    dst_pos=dst.pos,
                )
            )

    def _disambiguate(
        self, access: _ArrayAccess, common_lcvs: set[str], tag: str
    ):
        """Rename non-common loop control variables in subscripts.

        Two accesses in *different* loops frequently reuse the same
        control-variable name (``do i`` everywhere); their ``i`` values
        are unrelated, so the subscript tests must not unify them.
        Renaming each side's private loop variables (``i`` becomes
        ``i@src`` / ``i@dst``) makes unrelated symbols compare unequal,
        which the tests then treat conservatively.  Non-lcv symbolic
        terms (array bounds like ``n``) keep their names — the standard
        assumption that symbolic subscript terms are invariant across
        the region under test.
        """
        own_lcvs = self._chain_lcvs(access.qid) - common_lcvs
        if not own_lcvs:
            return access.ref.subscripts
        key = (access.ref.subscripts, frozenset(own_lcvs), tag)
        cached = self._memo.renamed.get(key)
        if cached is not None:
            return cached
        renamed = []
        for sub in access.ref.subscripts:
            if isinstance(sub, Affine):
                for var in sub.variables:
                    if var in own_lcvs:
                        sub = sub.substitute(
                            var, Affine.var(f"{var}@{tag}")
                        )
                renamed.append(sub)
            else:
                renamed.append(sub)
        result = tuple(renamed)
        self._memo.renamed[key] = result
        return result

    def _chain_lcvs(self, qid: int) -> frozenset[str]:
        """Control-variable names of every loop enclosing ``qid``."""
        cached = self._lcvs_cache.get(qid)
        if cached is None:
            names: set[str] = set()
            current = self.structure.enclosing_loop.get(qid)
            while current is not None:
                names.add(_lcv_name(self.program.quad(current)))
                current = self.structure.loops[current].parent
            cached = frozenset(names)
            self._lcvs_cache[qid] = cached
        return cached

    def _may_execute_in_order(
        self, src: _ArrayAccess, dst: _ArrayAccess
    ) -> bool:
        """Loop-independent feasibility: both on one control path.

        Statements in mutually exclusive branches of the same IF cannot
        run in the same iteration, so no loop-independent dependence
        links them.
        """
        src_guards = self.structure.controllers.get(src.qid, ())
        for guard in src_guards:
            conditional = self.structure.conditionals.get(guard)
            if conditional is None:
                continue
            dst_in_then = dst.qid in conditional.then_qids
            dst_in_else = dst.qid in conditional.else_qids
            if not (dst_in_then or dst_in_else):
                continue
            src_in_then = src.qid in conditional.then_qids
            if src_in_then != dst_in_then:
                return False  # opposite branches of the same IF
        return True

    # ------------------------------------------------------------------
    # control dependences
    # ------------------------------------------------------------------
    def _control_dependences(self) -> None:
        if self._restrict_ctrl_qids is not None:
            # partial mode: only the touched sinks need edges, and the
            # structure table answers them directly
            for qid in self._restrict_ctrl_qids:
                for guard in self.structure.controllers.get(qid, ()):
                    self.graph.add(
                        DepEdge(kind="ctrl", src=guard, dst=qid, var="")
                    )
            return
        control = compute_control_deps(self.program, self.structure)
        for qid, guards in control.controlled_by.items():
            for guard in guards:
                self.graph.add(
                    DepEdge(kind="ctrl", src=guard, dst=qid, var="")
                )


class AllPairsAnalyzer(DependenceAnalyzer):
    """The reference analyzer: tests every ordered pair of accesses to
    an array that includes a write.

    The analysis manager's shadow check (``REPRO_ANALYSIS_CHECK``)
    compares every full rebuild and every incremental refresh against
    it.  Built without ``structure`` and ``memo``, it makes its own.
    """

    def _array_pairs(
        self, accesses: list[_ArrayAccess]
    ) -> Iterator[tuple[_ArrayAccess, _ArrayAccess]]:
        for src in accesses:
            for dst in accesses:
                if src is not dst and (src.is_write or dst.is_write):
                    yield src, dst


def _pins(ref: ArrayRef) -> tuple[tuple[int, int], ...]:
    """``(dimension, constant)`` for each constant subscript of ``ref``."""
    return tuple(
        (dim, sub.const)
        for dim, sub in enumerate(ref.subscripts)
        if isinstance(sub, Affine) and not sub.terms
    )


def _lcv_name(head_quad) -> str:
    from repro.ir.types import Var

    lcv = head_quad.result
    assert isinstance(lcv, Var)
    return lcv.name


def compute_dependences(program: Program) -> DependenceGraph:
    """Compute the full dependence graph for a program.

    This is the public entry point used by the generated optimizers'
    interface (paper Figure 4, step 3.b.iv).
    """
    return DependenceAnalyzer(program).analyze()
