"""Version-keyed analysis caching with incremental dependence updates.

The paper's driver (Figure 5) recomputes data dependences between
every pair of optimization applications; naively that makes dependence
analysis the dominant cost of multi-pass pipelines.  The
:class:`AnalysisManager` removes both kinds of waste:

* **Version-keyed caching** — every analysis product (CFG, structure
  table, reaching definitions, liveness, the :class:`DependenceGraph`)
  is cached against :attr:`repro.ir.program.Program.version` and
  reused until the program actually mutates.

* **Incremental dependence recomputation** — the primitive
  transformations (delete / copy / move / add / modify, the paper's
  five action primitives) report what they touched through the
  program's change log; the manager maps each touched quad to the set
  of variable and array names it reads or writes, drops only the edges
  involving those names (plus control edges into touched statements),
  re-runs a *name-restricted* :class:`DependenceAnalyzer`, and splices
  the fresh edges into its one graph, in place.  A touched quad's old
  names are its change-log pre-image's.  A ``name -> qids`` index
  scopes that analyzer, and the edges to drop, to the quads
  mentioning an affected name, so a refresh costs what the edit
  touched rather than what the program holds (the structure table
  stays O(n)).  One subscript-test memo, keyed by values only, serves
  every analyzer the manager builds, across versions.

* **Shared first builds** — an :class:`AnalysisCache` hands out clones
  with their managers; the first build of a clone takes over the
  graph of an earlier clone with the same content and qids (copied
  before its first in-place edit), so a campaign that clones one
  corpus per candidate analyses each program once.

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
to compare every full rebuild and every first build taken over, edge
for edge in order and notes included, and every incremental update, as
an edge set, with the
all-pairs reference (:class:`AllPairsAnalyzer`, with its own structure
table and memo), and to compare the spliced graph's query buckets and
the maintained name index with fresh ones — the debug mode the
property tests and CI use to prove the paths agree.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable, Optional, TypeVar

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dependence import (
    AllPairsAnalyzer,
    DependenceAnalyzer,
    PairTestMemo,
)
from repro.analysis.graph import DependenceGraph
from repro.analysis.liveness import Liveness, compute_liveness
from repro.analysis.reaching import ReachingDefinitions, compute_reaching
from repro.ir.loops import StructureTable
from repro.ir.program import Program, ProgramChange
from repro.ir.quad import STRUCTURAL_OPS, Quad

#: Environment variable enabling the shadow full-rebuild check.
ENV_FULL_CHECK = "REPRO_ANALYSIS_CHECK"

#: Above this many affected names a full rebuild is assumed cheaper
#: than a restricted one: the scope then spans most of the program,
#: and the restricted path adds the edge drop and the index upkeep on
#: top of the analysis a rebuild would run anyway.
_INCREMENTAL_NAME_CAP = 48

#: Above this many pending changes, batching has lost its locality and
#: a full rebuild is performed instead.
_INCREMENTAL_CHANGE_CAP = 128

#: How many per-refresh dependence deltas are retained for consumers
#: (the matching engine); older deltas are discarded, which downstream
#: reads as "full resync required".
_DELTA_CAP = 1024

#: How many first builds an :class:`AnalysisCache` keeps before it
#: drops the least recently used.  Inference's per-candidate working
#: set (the admission corpus, the candidate's probes and exemplar, the
#: shrinker's programs) fits in it; at 16 it no longer does.
_FIRST_BUILD_CAP = 64

T = TypeVar("T")

#: An :class:`AnalysisCache` key: a program's fingerprint and its qids
#: in order (the fingerprint leaves qids out, the graph names them).
_ContentKey = tuple[str, tuple[int, ...]]

#: name -> qids of the quads that mention it
_NameIndex = dict[str, set[int]]

#: touched qid -> (its names at the graph's version, its names now)
_Renames = dict[int, tuple[frozenset[str], frozenset[str]]]


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
    #: first builds taken over from an :class:`AnalysisCache` (counted
    #: in neither ``full_rebuilds`` nor ``incremental_updates``)
    adopted: int = 0
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
            "adopted": self.adopted,
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
            f"{self.edges_recomputed} recomputed), "
            f"{self.adopted} first build(s) adopted"
        )


def _quad_names(quad: Optional[Quad]) -> frozenset[str]:
    """Every scalar/array name whose dependences can touch this quad
    (none for an absent quad)."""
    if quad is None:
        return frozenset()
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


def _scan_names(program: Program) -> _NameIndex:
    """The name index of a program, from a scan of every quad."""
    index: _NameIndex = {}
    for quad in program:
        for name in _quad_names(quad):
            index.setdefault(name, set()).add(quad.qid)
    return index


def _copy_index(index: _NameIndex) -> _NameIndex:
    return {name: set(qids) for name, qids in index.items()}


@dataclass(frozen=True)
class _FirstBuild:
    """One published first build: the graph and its name index."""

    graph: DependenceGraph
    name_index: _NameIndex


@dataclass(frozen=True)
class _CloneOrigin:
    """Where a manager's program came from: the key of the content it
    was cloned from, and its version right after the clone."""

    cache: "AnalysisCache"
    key: _ContentKey
    version: int


class AnalysisManager:
    """Caches every analysis product for one :class:`Program`.

    One manager serves one program object for its whole lifetime; all
    products are invalidated automatically by the program's version
    counter, and the dependence graph is additionally maintained
    *incrementally*, in place, from the program's change log.
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
        #: the one graph, edited in place by every incremental refresh
        self._graph: Optional[DependenceGraph] = None
        self._graph_version = -1
        #: set while an :class:`AnalysisCache` entry holds ``_graph``
        #: too: the next refresh edits a copy
        self._graph_shared = False
        #: name -> qids of the quads that mention it at
        #: ``_graph_version`` (entries may go empty)
        self._name_index: _NameIndex = {}
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
        #: set by :meth:`AnalysisCache.clone`, cleared by the first
        #: build (the first ``graph()`` call)
        self._origin: Optional[_CloneOrigin] = None

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

    # ------------------------------------------------------------------
    # the dependence graph (incremental)
    # ------------------------------------------------------------------
    def graph(self) -> DependenceGraph:
        """The dependence graph of the current program version.

        Cache hit when the version is unchanged; otherwise an
        incremental splice when the change log localizes the mutations,
        or a full rebuild when it cannot.  A splice edits the graph
        returned last in place; a rebuild returns a new one.  A first
        build of a program cloned through an :class:`AnalysisCache` is
        taken over from an earlier clone of the same content when there
        is one.
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
            graph = self._rebuild()
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
            try:
                graph, delta = self._incremental_update(*plan)
                if self.full_check:
                    self._shadow_check(graph)
                    self._check_index()
            except BaseException:
                # the graph and the index may be half edited
                self.invalidate()
                raise
        self._graph = graph
        self._graph_version = self.program.version
        self._record_delta(old_version, self._graph_version, delta)
        return graph

    def last_graph(self) -> Optional[DependenceGraph]:
        """The graph as of the last refresh, without refreshing it
        (None before the first build and after :meth:`invalidate`)."""
        return self._graph

    def is_current(self, graph: DependenceGraph) -> bool:
        """Is ``graph`` this manager's graph of the current program
        version?  Not after an edit without a :meth:`graph` call, and
        never for a graph built elsewhere."""
        return (
            graph is self._graph
            and self._graph_version == self.program.version
        )

    def _rebuild(self) -> DependenceGraph:
        """A full build and its name index.  The first build of a
        program cloned through an :class:`AnalysisCache`, while it is
        still the clone's content, is taken over from an earlier clone
        of that content, or else published for later ones."""
        origin, self._origin = self._origin, None
        first = origin is not None and origin.version == self.program.version
        entry = origin.cache._lookup(origin.key) if first else None
        if entry is not None:
            graph = self._adopt(entry)
        else:
            graph = self._full_rebuild()
            self._name_index = _scan_names(self.program)
            if first:
                origin.cache._store(origin.key, graph, self._name_index)
        # the cache holds a first build too: refreshes must not edit it
        self._graph_shared = first
        return graph

    def _adopt(self, entry: _FirstBuild) -> DependenceGraph:
        """Take over a published first build: the graph itself (the
        next refresh copies it before editing) and a copy of the name
        index."""
        self.stats.adopted += 1
        if self.full_check:
            self._reference_check(entry.graph, "adopted dependence graph")
        self._name_index = _copy_index(entry.name_index)
        return entry.graph

    def _full_rebuild(self) -> DependenceGraph:
        self.stats.full_rebuilds += 1
        graph = DependenceAnalyzer(
            self.program, structure=self.structure(), memo=self._pair_memo
        ).analyze()
        if self.full_check:
            self._reference_check(graph, "full dependence rebuild")
        return graph

    def _plan_update(
        self, changes: list[ProgramChange]
    ) -> Optional[tuple[frozenset[str], frozenset[int], _Renames]]:
        """Affected names, touched qids and their names then and now
        for an incremental splice, or None when only a full rebuild is
        sound/profitable.  A touched quad at the graph's version is the
        pre-image of its first ``modify`` or ``remove``; absent if its
        first change added it; the current quad if it was only moved.
        """
        if not changes or len(changes) > _INCREMENTAL_CHANGE_CAP:
            return None
        touched: set[int] = set()
        then: dict[int, Optional[Quad]] = {}
        for change in changes:
            touched.add(change.qid)
            if change.kind != "move":
                then.setdefault(change.qid, change.before)  # None: added
        program = self.program
        affected: set[str] = set()
        renames: _Renames = {}
        for qid in touched:
            now = program.quad(qid) if program.contains(qid) else None
            old = then.get(qid, now)
            if any(
                quad is not None and quad.opcode in STRUCTURAL_OPS
                for quad in (old, now)
            ):
                return None  # structure changed: rebuild
            new_names = _quad_names(now)
            old_names = new_names if old is now else _quad_names(old)
            renames[qid] = (old_names, new_names)
            affected.update(old_names)
            affected.update(new_names)
        if len(affected) > _INCREMENTAL_NAME_CAP:
            return None
        return frozenset(affected), frozenset(touched), renames

    def _incremental_update(
        self,
        affected: frozenset[str],
        touched: frozenset[int],
        renames: _Renames,
    ) -> tuple[DependenceGraph, frozenset[tuple[str, int, int]]]:
        """Drop edges incident to the touched region, recompute them
        with a name-restricted analyzer, splice them into the graph in
        place, and move the touched quads in the name index.

        An edge to drop leaves a touched quad or a quad the name index
        (as of the graph's version) lists under an affected name: a
        data edge goes when its variable is affected, a ctrl edge when
        its sink is touched.  An untouched quad kept its names, so the
        live part of that set is the analyzer's scope.

        Also returns the delta: every edge — as a ``(kind, src, dst)``
        triple — that genuinely differs between the old and new graphs.
        Most recomputed edges come back identical, so diffing the
        dropped set against the recomputed set keeps the delta
        proportional to the real dependence churn, not to the
        recomputation scope.
        """
        self.stats.incremental_updates += 1
        graph = self._graph
        assert graph is not None
        program = self.program
        contains = program.contains
        index = self._name_index
        sources = set(touched)
        for name in affected:
            sources.update(index.get(name, ()))
        partial = DependenceAnalyzer(
            program,
            restrict_names=affected,
            restrict_ctrl_qids=frozenset(
                qid for qid in touched if contains(qid)
            ),
            structure=self.structure(),
            scope={qid for qid in sources if contains(qid)},
            memo=self._pair_memo,
        ).analyze()
        removed = [
            edge
            for qid in sources
            for edge in graph.deps_from(qid)
            if edge.var in affected  # a ctrl edge names no variable
        ]
        for qid in touched:
            removed.extend(graph.deps_to(qid, "ctrl"))
        if self._graph_shared:
            graph = graph.copy()
            self._graph_shared = False
        graph.spliced(removed, partial)
        for note in partial.notes:
            graph.add_note(note)
        self.stats.edges_retained += len(graph) - len(partial)
        self.stats.edges_recomputed += len(partial)
        for qid, (old, new) in renames.items():
            self._reindex(qid, old, new)
        return graph, frozenset(
            (edge.kind, edge.src, edge.dst)
            for edge in set(removed).symmetric_difference(partial)
        )

    def _reference_check(self, rebuilt: DependenceGraph, what: str) -> None:
        """Assert a full rebuild (or an adopted first build) equals the
        all-pairs reference: the same edges in the same order, and the
        same notes."""
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
            f"{what} diverged from the all-pairs reference at program "
            f"version {self.program.version}: first difference at {where}"
        )

    def _shadow_check(self, incremental: DependenceGraph) -> None:
        """Assert the spliced graph's edges equal the all-pairs
        reference's, and that its query buckets are those a fresh graph
        over its edge list builds (every bucket in edge order)."""
        self.stats.shadow_checks += 1
        fresh = DependenceGraph(incremental.edges)
        for have, built in ((incremental._by_src, fresh._by_src),
                            (incremental._by_dst, fresh._by_dst)):
            drift = [key for key in have.keys() | built.keys()
                     if have.get(key) != built.get(key)]
            if drift:
                raise IncrementalMismatchError(
                    "spliced graph's query buckets diverged from its edge "
                    f"list at program version {self.program.version}: "
                    f"{sorted(drift)[:10]}"
                )
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
        want = _scan_names(self.program)
        got = {name: qids for name, qids in self._name_index.items() if qids}
        if got == want:
            return
        drift = sorted(
            name for name in got.keys() | want.keys()
            if got.get(name) != want.get(name)
        )
        raise IncrementalMismatchError(
            "maintained name index diverged from a fresh scan at program "
            f"version {self.program.version}: {len(drift)} name(s) "
            f"differ: {drift[:10]}"
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
        self._graph_shared = False
        self._name_index.clear()
        self._deltas.clear()


class AnalysisCache:
    """First dependence builds shared by clones of the same content.

    A campaign that clones the same programs over and over (inference
    screens every candidate on one corpus) would otherwise analyse each
    clone from scratch.  :meth:`clone` hands out a clone together with
    a manager whose first :meth:`AnalysisManager.graph` call takes over
    the graph and name index of an earlier clone of the same content,
    or publishes its own for later clones.  Taking over is exact: the
    analyzer reads only the quad sequence with its qids.

    Entries are keyed by the source's fingerprint and qid sequence and
    hold the graph and a private copy of its name index, nothing else:
    no program, structure table or manager.  A manager whose graph an
    entry holds copies it before its first in-place edit, and every
    taker gets its own copy of the index.  At most
    ``_FIRST_BUILD_CAP`` are kept, least recently used dropped first.
    One cache serves one campaign; it is never shared between runs.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[_ContentKey, _FirstBuild] = OrderedDict()

    def clone(self, source: Program) -> tuple[Program, AnalysisManager]:
        """A clone of ``source`` and the manager that serves it."""
        working = source.clone()
        manager = AnalysisManager(working)
        # the source, not the clone, is hashed: a clone's quads are
        # fresh copies whose content hashes are not cached yet
        key = (source.fingerprint(), tuple(source.qids()))
        manager._origin = _CloneOrigin(self, key, working.version)
        return working, manager

    def _lookup(self, key: _ContentKey) -> Optional[_FirstBuild]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def _store(
        self, key: _ContentKey, graph: DependenceGraph, index: _NameIndex
    ) -> None:
        self._entries[key] = _FirstBuild(graph, _copy_index(index))
        self._entries.move_to_end(key)
        if len(self._entries) > _FIRST_BUILD_CAP:
            self._entries.popitem(last=False)


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
