"""The dependence graph: edges plus the query API GOSpeL code uses.

An edge records one dependence between two statements (named by qid),
its kind (flow / anti / out / ctrl), the variable or array involved,
the operand positions at both ends, and a concrete direction vector
over the statements' common loop nest (empty for statements sharing no
loop).  Generated optimizer code queries the graph through
:meth:`DependenceGraph.query`, which implements GOSpeL's
``type_of_dependence(Si, Sj, direction)`` conditions including ``*`` /
``any`` wildcard matching.

The analysis manager that owns a graph edits it in place at every
incremental refresh (:meth:`DependenceGraph.spliced`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.analysis.subscript import matches_direction_pattern

#: The four dependence kinds of the paper.
KINDS = ("flow", "anti", "out", "ctrl")


@dataclass(frozen=True, slots=True)
class DepEdge:
    """One dependence edge ``src --kind--> dst``."""

    kind: str
    src: int  # qid of the source statement
    dst: int  # qid of the sink statement
    var: str  # scalar/array name involved ("" for control deps)
    vector: tuple[str, ...] = ()  # over the common loop nest
    src_pos: Optional[str] = None  # operand position at the source
    dst_pos: Optional[str] = None  # operand position at the sink
    #: the field-tuple hash, computed on first use
    _hash: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __hash__(self) -> int:
        # an edge is hashed at every graph membership test (the edge
        # dict, the splice's bucket filters, the refresh's delta set);
        # caching the field-tuple hash makes each O(1)
        cached = self._hash
        if cached is None:
            cached = hash((
                self.kind, self.src, self.dst, self.var, self.vector,
                self.src_pos, self.dst_pos,
            ))
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def carried(self) -> bool:
        """True for loop-carried dependences (any non-'=' entry)."""
        return any(direction != "=" for direction in self.vector)

    def __str__(self) -> str:
        vector = f" ({','.join(self.vector)})" if self.vector else ""
        where = f" [{self.var}@{self.dst_pos}]" if self.var else ""
        return f"S{self.src} -{self.kind}-> S{self.dst}{vector}{where}"


class DependenceGraph:
    """All dependences of one program version, indexed for queries.

    Edges live in one insertion-ordered dict, which answers membership
    and keeps the order they were added in.  Every ``_by_src``/
    ``_by_dst`` bucket lists its edges in that order.  Only the
    :class:`repro.analysis.manager.AnalysisManager` that owns a graph
    edits it after it is built (:meth:`spliced`); everyone else reads.
    """

    def __init__(self, edges: Sequence[DepEdge] = ()):
        self._edges: dict[DepEdge, None] = {}
        #: structured analysis diagnostics (e.g. direction-vector
        #: expansion hitting the MAX_VECTORS_PER_PAIR safety valve)
        self.notes: list[str] = []
        self._by_src: dict[tuple[str, int], list[DepEdge]] = {}
        self._by_dst: dict[tuple[str, int], list[DepEdge]] = {}
        for edge in edges:
            self.add(edge)

    @property
    def edges(self) -> list[DepEdge]:
        """The edges in insertion order (a fresh list)."""
        return list(self._edges)

    def add(self, edge: DepEdge) -> None:
        """Insert an edge (duplicates are ignored)."""
        if edge in self._edges:
            return
        self._edges[edge] = None
        self._by_src.setdefault((edge.kind, edge.src), []).append(edge)
        self._by_dst.setdefault((edge.kind, edge.dst), []).append(edge)

    def spliced(
        self, removed: Sequence[DepEdge], fresh: Sequence[DepEdge]
    ) -> None:
        """Replace ``removed`` by ``fresh``, in place — the analysis
        manager's incremental splice.

        ``removed`` are distinct edges of this graph.  The kept edges
        keep their order and the ``fresh`` ones follow it; each bucket
        that lost an edge is filtered in order, so every bucket still
        lists its edges in edge order.  ``fresh`` edges go through
        :meth:`add`, so one that is already kept is ignored.
        """
        edges = self._edges
        for edge in removed:
            del edges[edge]
        for index, end in ((self._by_src, "src"), (self._by_dst, "dst")):
            for key in {(edge.kind, getattr(edge, end)) for edge in removed}:
                bucket = [edge for edge in index[key] if edge in edges]
                if bucket:
                    index[key] = bucket
                else:
                    del index[key]
        for edge in fresh:
            self.add(edge)

    def copy(self) -> "DependenceGraph":
        """An independent graph with the same edges, order and notes."""
        graph = DependenceGraph()
        graph._edges = dict(self._edges)
        graph.notes = list(self.notes)
        graph._by_src = {key: list(b) for key, b in self._by_src.items()}
        graph._by_dst = {key: list(b) for key, b in self._by_dst.items()}
        return graph

    def add_note(self, note: str) -> None:
        """Attach a diagnostic note (duplicates are ignored)."""
        if note not in self.notes:
            self.notes.append(note)

    def edge_set(self) -> frozenset[DepEdge]:
        """The edges as a set — the graph's comparable identity."""
        return frozenset(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[DepEdge]:
        return iter(self._edges)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self,
        kind: str,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        pattern: Optional[Sequence[str]] = None,
        var: Optional[str] = None,
    ) -> list[DepEdge]:
        """All edges matching the given constraints.

        ``kind`` is required ("flow"/"anti"/"out"/"ctrl"); ``src`` and
        ``dst`` fix endpoints when given; ``pattern`` is a GOSpeL
        direction vector (None matches anything); ``var`` restricts to
        one variable/array.  This is the workhorse behind the library's
        ``dep`` routine (paper Figure 7).
        """
        if kind not in KINDS:
            raise ValueError(f"unknown dependence kind {kind!r}")
        if src is not None:
            candidates = self._by_src.get((kind, src), [])
            if dst is not None:
                candidates = [e for e in candidates if e.dst == dst]
        elif dst is not None:
            candidates = self._by_dst.get((kind, dst), [])
        else:
            candidates = [e for e in self._edges if e.kind == kind]
        return [
            edge
            for edge in candidates
            if (var is None or edge.var == var)
            and matches_direction_pattern(edge.vector, pattern)
        ]

    def exists(
        self,
        kind: str,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        pattern: Optional[Sequence[str]] = None,
        var: Optional[str] = None,
    ) -> bool:
        """True when at least one matching edge exists."""
        return bool(self.query(kind, src, dst, pattern, var))

    def deps_from(self, qid: int, kind: Optional[str] = None) -> list[DepEdge]:
        """All edges whose source is ``qid`` (optionally one kind)."""
        kinds = (kind,) if kind else KINDS
        edges: list[DepEdge] = []
        for k in kinds:
            edges.extend(self._by_src.get((k, qid), []))
        return edges

    def deps_to(self, qid: int, kind: Optional[str] = None) -> list[DepEdge]:
        """All edges whose sink is ``qid`` (optionally one kind)."""
        kinds = (kind,) if kind else KINDS
        edges: list[DepEdge] = []
        for k in kinds:
            edges.extend(self._by_dst.get((k, qid), []))
        return edges

    def count(self, kind: Optional[str] = None) -> int:
        """Total number of edges, optionally of one kind."""
        if kind is None:
            return len(self._edges)
        return sum(1 for edge in self._edges if edge.kind == kind)

    def summary(self) -> dict[str, int]:
        """Edge counts per kind, for reports."""
        return {kind: self.count(kind) for kind in KINDS}
