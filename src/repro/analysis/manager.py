"""Version-keyed analysis caching with incremental dependence updates.

The paper's driver (Figure 5) recomputes data dependences between
every pair of optimization applications; naively that makes dependence
analysis the dominant cost of multi-pass pipelines.  The
:class:`AnalysisManager` removes both kinds of waste:

* **Version-keyed caching** — every analysis product (CFG, structure
  table, dominators, reaching definitions, liveness, control
  dependences, the :class:`DependenceGraph`) is cached against
  :attr:`repro.ir.program.Program.version` and reused until the
  program actually mutates.

* **Incremental dependence recomputation** — the primitive
  transformations (delete / copy / move / add / modify, the paper's
  five action primitives) report what they touched through the
  program's change log; the manager maps each touched quad to the set
  of variable and array names it reads or writes, drops only the edges
  involving those names (plus control edges into touched statements),
  re-runs a *name-restricted* :class:`DependenceAnalyzer`, and splices
  the fresh edges into the retained graph.  A ``name -> qids`` index
  scopes that analyzer to the quads mentioning an affected name, so a
  refresh costs what the edit touched rather than what the program
  holds (the structure table and the edge partition stay O(n)).  One
  subscript-test memo, keyed by values only, serves every analyzer the
  manager builds, across versions.

Why the splice is exact, not approximate: scalar dependences are
solved with per-variable gen/kill bit masks, so the dataflow solution
of one variable never reads another variable's bits; array dependence
tests consume only the two accesses' subscript expressions and the
(marker-determined) loop structure, and are pure functions of those
values, so their memo stays valid when the program changes; and with
structured control flow,
inserting, deleting or moving a *non-marker* quad cannot change the
path relations between any other pair of statements.  Hence every
edge whose variable is untouched — and whose endpoints did not move —
is byte-for-byte the edge a full recomputation would produce.  Any
touch of a structural marker (``DO``/``DOALL``/``ENDDO``/``IF``/
``ELSE``/``ENDIF``) falls back to a full rebuild.

Set ``REPRO_ANALYSIS_CHECK=1`` (or construct with ``full_check=True``)
to compare every full rebuild, edge for edge in order and notes
included, and every incremental update, as an edge set, with the
all-pairs reference (:class:`AllPairsAnalyzer`, with its own structure
table and memo), and to compare the maintained name index with a fresh
scan — the debug mode the property tests and CI use to prove the paths
agree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable, Optional, TypeVar

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.control_dep import ControlDependence, compute_control_deps
from repro.analysis.dependence import (
    AllPairsAnalyzer,
    DependenceAnalyzer,
    PairTestMemo,
)
from repro.analysis.dominators import DominatorTree, compute_dominators
from repro.analysis.graph import DepEdge, DependenceGraph
from repro.analysis.liveness import Liveness, compute_liveness
from repro.analysis.reaching import ReachingDefinitions, compute_reaching
from repro.ir.loops import StructureTable
from repro.ir.program import Program, ProgramChange
from repro.ir.quad import STRUCTURAL_OPS, Quad

#: Environment variable enabling the shadow full-rebuild check.
ENV_FULL_CHECK = "REPRO_ANALYSIS_CHECK"

#: Above this many affected names a full rebuild is assumed cheaper
#: than a restricted one: the scope then spans most of the program,
#: and the restricted path adds the O(E) edge partition and the index
#: upkeep on top of the analysis a rebuild would run anyway.
_INCREMENTAL_NAME_CAP = 48

#: Above this many pending changes, batching has lost its locality and
#: a full rebuild is performed instead.
_INCREMENTAL_CHANGE_CAP = 128

#: How many per-refresh dependence deltas are retained for consumers
#: (the matching engine); older deltas are discarded, which downstream
#: reads as "full resync required".
_DELTA_CAP = 1024

T = TypeVar("T")


class IncrementalMismatchError(AssertionError):
    """The shadow check found a graph that diverges from the reference."""


@dataclass
class AnalysisStats:
    """Hit/miss/recompute counters, exposed via ``stats()``.

    ``hits``/``misses`` count per-product cache lookups keyed by the
    product name ("cfg", "dependences", ...).  The dependence-specific
    counters break recomputations down by strategy.
    """

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    full_rebuilds: int = 0
    incremental_updates: int = 0
    edges_retained: int = 0
    edges_recomputed: int = 0
    shadow_checks: int = 0

    def record_hit(self, product: str) -> None:
        self.hits[product] = self.hits.get(product, 0) + 1

    def record_miss(self, product: str) -> None:
        self.misses[product] = self.misses.get(product, 0) + 1

    def as_dict(self) -> dict[str, object]:
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "full_rebuilds": self.full_rebuilds,
            "incremental_updates": self.incremental_updates,
            "edges_retained": self.edges_retained,
            "edges_recomputed": self.edges_recomputed,
            "shadow_checks": self.shadow_checks,
        }

    def summary(self) -> str:
        total_hits = sum(self.hits.values())
        total_misses = sum(self.misses.values())
        return (
            f"analysis: {total_hits} hit(s), {total_misses} miss(es), "
            f"{self.full_rebuilds} full dependence rebuild(s), "
            f"{self.incremental_updates} incremental update(s) "
            f"({self.edges_retained} edge(s) retained, "
            f"{self.edges_recomputed} recomputed)"
        )


@dataclass(frozen=True)
class _QuadInfo:
    """Snapshot of a quad's analysis-relevant identity."""

    is_marker: bool
    names: frozenset[str]


def _quad_names(quad: Quad) -> frozenset[str]:
    """Every scalar/array name whose dependences can touch this quad."""
    names: set[str] = set(quad.used_scalar_names())
    defined = quad.defined_scalar()
    if defined is not None:
        names.add(defined)
    written = quad.defined_array()
    if written is not None:
        names.add(written.name)
    for _pos, ref in quad.used_array_refs():
        names.add(ref.name)
    return frozenset(names)


def _quad_info(quad: Quad) -> _QuadInfo:
    return _QuadInfo(
        is_marker=quad.opcode in STRUCTURAL_OPS, names=_quad_names(quad)
    )


class AnalysisManager:
    """Caches every analysis product for one :class:`Program`.

    One manager serves one program object for its whole lifetime; all
    products are invalidated automatically by the program's version
    counter, and the dependence graph is additionally maintained
    *incrementally* from the program's change log.
    """

    def __init__(
        self,
        program: Program,
        full_check: Optional[bool] = None,
        incremental: bool = True,
    ):
        self.program = program
        if full_check is None:
            full_check = os.environ.get(ENV_FULL_CHECK, "") not in ("", "0")
        #: shadow every incremental update with a full rebuild + compare
        self.full_check = full_check
        #: with ``incremental=False`` every dependence miss is a full
        #: rebuild (the benchmark baseline; caching still applies)
        self.incremental = incremental
        self.stats = AnalysisStats()
        self._products: dict[str, tuple[int, object]] = {}
        self._graph: Optional[DependenceGraph] = None
        self._graph_version = -1
        self._quad_infos: dict[int, _QuadInfo] = {}
        #: name -> qids of the quads whose ``_QuadInfo.names`` hold it;
        #: kept in step with ``_quad_infos`` (entries may go empty)
        self._name_index: dict[str, set[int]] = {}
        #: the subscript-test memo every analyzer built here shares; it
        #: holds values only, so it survives versions and ``invalidate``
        self._pair_memo = PairTestMemo()
        #: per-refresh dependence deltas: (from_version, to_version,
        #: the changed edges as (kind, src, dst) triples, or None when
        #: the refresh could not produce an exact diff).  Consumed by
        #: the matching engine to bound its dirty region.
        self._deltas: list[
            tuple[int, int, Optional[frozenset[tuple[str, int, int]]]]
        ] = []

    # ------------------------------------------------------------------
    # generic version-keyed products
    # ------------------------------------------------------------------
    def _cached(self, product: str, build: Callable[[], T]) -> T:
        version = self.program.version
        entry = self._products.get(product)
        if entry is not None and entry[0] == version:
            self.stats.record_hit(product)
            return entry[1]  # type: ignore[return-value]
        self.stats.record_miss(product)
        value = build()
        self._products[product] = (version, value)
        return value

    def cfg(self) -> CFG:
        """The statement CFG of the current program version."""
        return self._cached("cfg", lambda: build_cfg(self.program))

    def structure(self) -> StructureTable:
        """The loop/conditional structure table."""
        return self._cached("structure", lambda: StructureTable(self.program))

    def dominators(self) -> DominatorTree:
        """The dominator tree over the current CFG."""
        return self._cached("dominators", lambda: compute_dominators(self.cfg()))

    def reaching(self) -> ReachingDefinitions:
        """Reaching definitions (full and acyclic)."""
        return self._cached(
            "reaching", lambda: compute_reaching(self.program, self.cfg())
        )

    def liveness(self) -> Liveness:
        """Backward may liveness over the scalar variables."""
        return self._cached(
            "liveness", lambda: compute_liveness(self.program, self.cfg())
        )

    def control_deps(self) -> ControlDependence:
        """Control dependences from the structure table."""
        return self._cached(
            "control_deps",
            lambda: compute_control_deps(self.program, self.structure()),
        )

    # ------------------------------------------------------------------
    # the dependence graph (incremental)
    # ------------------------------------------------------------------
    def graph(self) -> DependenceGraph:
        """The dependence graph of the current program version.

        Cache hit when the version is unchanged; otherwise an
        incremental splice when the change log localizes the mutations,
        or a full rebuild when it cannot.
        """
        version = self.program.version
        if self._graph is not None and self._graph_version == version:
            self.stats.record_hit("dependences")
            return self._graph
        self.stats.record_miss("dependences")

        changes = (
            self.program.changes_since(self._graph_version)
            if (self.incremental and self._graph is not None)
            else None
        )
        plan = self._plan_update(changes) if changes is not None else None
        old_version = self._graph_version
        if plan is None:
            old_graph = self._graph
            graph = self._full_rebuild()
            self._snapshot_quads()
            # a rebuild still yields an exact delta — the symmetric
            # difference of the two edge sets — so graph consumers (the
            # match engine's worklist) need not treat a rebuild as
            # "anything may have changed"
            delta: Optional[frozenset[tuple[str, int, int]]] = None
            if old_graph is not None:
                diff = old_graph.edge_set() ^ graph.edge_set()
                delta = frozenset(
                    (edge.kind, edge.src, edge.dst) for edge in diff
                )
        else:
            graph, delta = self._incremental_update(*plan)
            if self.full_check:
                self._shadow_check(graph)
            # only after the splice: a refresh that raised above must
            # not leave the snapshot ahead of the graph version
            self._snapshot_quads(touched=plan[1])
            if self.full_check:
                self._check_index()
        self._graph = graph
        self._graph_version = self.program.version
        self._record_delta(old_version, self._graph_version, delta)
        return graph

    def _full_rebuild(self) -> DependenceGraph:
        self.stats.full_rebuilds += 1
        graph = DependenceAnalyzer(
            self.program, structure=self.structure(), memo=self._pair_memo
        ).analyze()
        if self.full_check:
            self._reference_check(graph)
        return graph

    def _plan_update(
        self, changes: list[ProgramChange]
    ) -> Optional[tuple[frozenset[str], frozenset[int]]]:
        """Affected (names, qids) for an incremental splice, or None
        when only a full rebuild is sound/profitable."""
        if not changes or len(changes) > _INCREMENTAL_CHANGE_CAP:
            return None
        affected: set[str] = set()
        touched: set[int] = set()
        for change in changes:
            touched.add(change.qid)
            old = self._quad_infos.get(change.qid)
            if old is not None:
                if old.is_marker:
                    return None  # structure changed: rebuild
                affected.update(old.names)
            if self.program.contains(change.qid):
                info = _quad_info(self.program.quad(change.qid))
                if info.is_marker:
                    return None
                affected.update(info.names)
        if len(affected) > _INCREMENTAL_NAME_CAP:
            return None
        return frozenset(affected), frozenset(touched)

    def _incremental_update(
        self, affected: frozenset[str], touched: frozenset[int]
    ) -> tuple[DependenceGraph, frozenset[tuple[str, int, int]]]:
        """Drop edges incident to the touched region, recompute them
        with a name-restricted analyzer, splice into the retained rest.

        The analyzer only scans its scope: the index entries of the
        affected names (as they stood before this edit) plus the
        touched quads.  An untouched quad kept its names, so the scope
        holds every quad that now mentions an affected name.

        Also returns the delta: every edge — as a ``(kind, src, dst)``
        triple — that genuinely differs between the old and new graphs.
        Most recomputed edges come back identical, so diffing the
        dropped set against the recomputed set keeps the delta
        proportional to the real dependence churn, not to the
        recomputation scope.
        """
        self.stats.incremental_updates += 1
        assert self._graph is not None
        program = self.program
        contains = program.contains
        index = self._name_index
        scope = {qid for qid in touched if contains(qid)}
        for name in affected:
            scope.update(qid for qid in index.get(name, ()) if contains(qid))
        partial = DependenceAnalyzer(
            program,
            restrict_names=affected,
            restrict_ctrl_qids=frozenset(
                qid for qid in touched if contains(qid)
            ),
            structure=self.structure(),
            scope=scope,
            memo=self._pair_memo,
        ).analyze()
        # data edges partition by variable name, ctrl edges by touched
        # sink.  A deleted quad's edges all go: its names are affected,
        # and deleting a guard (a marker) forces a full rebuild.
        kept: list[DepEdge] = []
        removed: list[DepEdge] = []
        keep, drop = kept.append, removed.append
        for edge in self._graph.edges:
            if edge.kind == "ctrl":
                (drop if edge.dst in touched else keep)(edge)
            else:
                (drop if edge.var in affected else keep)(edge)
        fresh = DependenceGraph.spliced(
            self._graph, kept, removed, partial.edges
        )
        for note in partial.notes:
            fresh.add_note(note)
        self.stats.edges_retained += len(fresh.edges) - len(partial.edges)
        self.stats.edges_recomputed += len(partial.edges)
        return fresh, frozenset(
            (edge.kind, edge.src, edge.dst)
            for edge in set(removed).symmetric_difference(partial.edges)
        )

    def _reference_check(self, rebuilt: DependenceGraph) -> None:
        """Assert a full rebuild equals the all-pairs reference: the same
        edges in the same order, and the same notes."""
        self.stats.shadow_checks += 1
        want = AllPairsAnalyzer(self.program).analyze()
        if rebuilt.edges == want.edges and rebuilt.notes == want.notes:
            return
        pairs = zip_longest(rebuilt.edges, want.edges)
        for index, (got, expected) in enumerate(pairs):
            if got != expected:
                where = (
                    f"edge {index}: {got or 'none'} "
                    f"(reference: {expected or 'none'})"
                )
                break
        else:
            where = f"notes {rebuilt.notes} (reference: {want.notes})"
        raise IncrementalMismatchError(
            "full dependence rebuild diverged from the all-pairs reference "
            f"at program version {self.program.version}: first difference "
            f"at {where}"
        )

    def _shadow_check(self, incremental: DependenceGraph) -> None:
        """Assert the spliced graph's edges equal the all-pairs
        reference's."""
        self.stats.shadow_checks += 1
        full = AllPairsAnalyzer(self.program).analyze()
        got, want = incremental.edge_set(), full.edge_set()
        if got == want:
            return
        missing = sorted(str(e) for e in want - got)
        extra = sorted(str(e) for e in got - want)
        raise IncrementalMismatchError(
            "incremental dependence update diverged from the all-pairs "
            f"reference at program version {self.program.version}:\n"
            f"  missing ({len(missing)}): {missing[:10]}\n"
            f"  extra ({len(extra)}): {extra[:10]}"
        )

    def _check_index(self) -> None:
        """Assert the maintained name index equals a fresh scan."""
        want: dict[str, set[int]] = {}
        for quad in self.program:
            for name in _quad_names(quad):
                want.setdefault(name, set()).add(quad.qid)
        got = {name: qids for name, qids in self._name_index.items() if qids}
        if got == want:
            return
        drift = sorted(
            name for name in got.keys() | want.keys()
            if got.get(name) != want.get(name)
        )
        # a drifted index would mis-scope every later refresh
        self.invalidate()
        raise IncrementalMismatchError(
            "maintained name index diverged from a fresh scan at program "
            f"version {self.program.version}: {len(drift)} name(s) "
            f"differ: {drift[:10]}"
        )

    def _snapshot_quads(
        self, touched: Optional[frozenset[int]] = None
    ) -> None:
        """Record qid -> (marker?, names) for the next plan's old-state
        lookup, and the name index the next refresh is scoped by.
        After an incremental splice only the touched quads can have
        changed (qids are never reused), so only they re-snapshot.
        """
        if touched is None:
            self._quad_infos = {
                quad.qid: _quad_info(quad) for quad in self.program
            }
            index: dict[str, set[int]] = {}
            for qid, info in self._quad_infos.items():
                for name in info.names:
                    index.setdefault(name, set()).add(qid)
            self._name_index = index
            return
        for qid in touched:
            old = self._quad_infos.pop(qid, None)
            new_names: frozenset[str] = frozenset()
            if self.program.contains(qid):
                info = self._quad_infos[qid] = _quad_info(
                    self.program.quad(qid)
                )
                new_names = info.names
            self._reindex(
                qid, old.names if old is not None else frozenset(), new_names
            )

    def _reindex(
        self, qid: int, old: frozenset[str], new: frozenset[str]
    ) -> None:
        """Move ``qid`` from its ``old`` names' index entries to its
        ``new`` names' entries."""
        index = self._name_index
        for name in old - new:
            index[name].discard(qid)
        for name in new - old:
            index.setdefault(name, set()).add(qid)

    # ------------------------------------------------------------------
    # dependence deltas (consumed by the matching engine)
    # ------------------------------------------------------------------
    def _record_delta(
        self,
        frm: int,
        to: int,
        edges: Optional[frozenset[tuple[str, int, int]]],
    ) -> None:
        if frm == to:
            return
        self._deltas.append((frm, to, edges))
        if len(self._deltas) > _DELTA_CAP:
            del self._deltas[: len(self._deltas) - _DELTA_CAP]

    def dependence_deltas_since(
        self, version: int
    ) -> Optional[frozenset[tuple[str, int, int]]]:
        """Union of changed ``(kind, src, dst)`` edges across every
        graph refresh since ``version``, or ``None`` when no bounded
        answer exists.

        ``version`` must be a program version at which the caller
        observed a *current* graph.  ``None`` means a refresh in the
        interval produced no exact diff, the delta history was trimmed,
        or the interval does not line up with the recorded refreshes —
        in all cases the caller must do a full resync.  The graph must
        be current (``graph()`` called) before asking.
        """
        if version == self._graph_version:
            return frozenset()
        changed: set[tuple[str, int, int]] = set()
        cursor = version
        for frm, to, edges in self._deltas:
            if to <= version:
                continue
            if frm != cursor or edges is None:
                return None
            changed.update(edges)
            cursor = to
        if cursor != self._graph_version:
            return None
        return frozenset(changed)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Forget every cached product (next access recomputes fully).
        The subscript-test memo stays: it depends on no version."""
        self._products.clear()
        self._graph = None
        self._graph_version = -1
        self._quad_infos.clear()
        self._name_index.clear()
        self._deltas.clear()


def manager_for(
    program: Program, manager: Optional[AnalysisManager] = None
) -> AnalysisManager:
    """Reuse ``manager`` when it serves ``program``, else make a new one.

    The guard matters because callers pass managers across program
    clones; a manager silently serving the wrong program would return
    another program's dependences.
    """
    if manager is not None and manager.program is program:
        return manager
    return AnalysisManager(program)
