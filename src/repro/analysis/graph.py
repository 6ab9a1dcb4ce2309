"""The dependence graph: edges plus the query API GOSpeL code uses.

An edge records one dependence between two statements (named by qid),
its kind (flow / anti / out / ctrl), the variable or array involved,
the operand positions at both ends, and a concrete direction vector
over the statements' common loop nest (empty for statements sharing no
loop).  Generated optimizer code queries the graph through
:meth:`DependenceGraph.query`, which implements GOSpeL's
``type_of_dependence(Si, Sj, direction)`` conditions including ``*`` /
``any`` wildcard matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.analysis.subscript import matches_direction_pattern

#: The four dependence kinds of the paper.
KINDS = ("flow", "anti", "out", "ctrl")


@dataclass(frozen=True)
class DepEdge:
    """One dependence edge ``src --kind--> dst``."""

    kind: str
    src: int  # qid of the source statement
    dst: int  # qid of the sink statement
    var: str  # scalar/array name involved ("" for control deps)
    vector: tuple[str, ...] = ()  # over the common loop nest
    src_pos: Optional[str] = None  # operand position at the source
    dst_pos: Optional[str] = None  # operand position at the sink

    def __hash__(self) -> int:
        # edges survive across incremental graph splices and are
        # re-inserted into each new graph's dedup set; caching the
        # field-tuple hash makes re-insertion O(1) per edge
        cached = self.__dict__.get("_hash")
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
    """All dependences of one program version, indexed for queries."""

    def __init__(self, edges: Sequence[DepEdge] = ()):
        self.edges: list[DepEdge] = []
        #: structured analysis diagnostics (e.g. direction-vector
        #: expansion hitting the MAX_VECTORS_PER_PAIR safety valve)
        self.notes: list[str] = []
        self._by_src: dict[tuple[str, int], list[DepEdge]] = {}
        self._by_dst: dict[tuple[str, int], list[DepEdge]] = {}
        self._seen: set[DepEdge] = set()
        for edge in edges:
            self.add(edge)

    def add(self, edge: DepEdge) -> None:
        """Insert an edge (duplicates are ignored)."""
        if edge in self._seen:
            return
        self._seen.add(edge)
        self.edges.append(edge)
        self._by_src.setdefault((edge.kind, edge.src), []).append(edge)
        self._by_dst.setdefault((edge.kind, edge.dst), []).append(edge)

    @classmethod
    def spliced(
        cls,
        old: "DependenceGraph",
        kept: list[DepEdge],
        removed: Sequence[DepEdge],
        fresh: Sequence[DepEdge],
    ) -> "DependenceGraph":
        """A new graph holding ``kept`` plus the ``fresh`` edges — the
        analysis manager's incremental splice.

        ``kept`` and ``removed`` partition ``old.edges``, with ``kept``
        in ``old``'s order; the new graph adopts the ``kept`` list as
        its own edge list.  Retained edges were already unique inside
        ``old``, so they skip :meth:`add`'s per-edge dedup, and the
        src/dst indexes are copied at the *key* level — only buckets
        that lost an edge are filtered, every other bucket list is
        shared with ``old`` (graphs are immutable once published; the
        only writer is this constructor, which copies a shared bucket
        before appending to it).  ``fresh`` edges still go through the
        dedup set, so a partition that fails to drop a recomputed edge
        degrades to a duplicate-ignore, not a corrupt graph.
        """
        graph = cls()
        graph.notes = list(old.notes)
        edges = graph.edges = kept
        graph._seen = old._seen.difference(removed)
        by_src = dict(old._by_src)
        by_dst = dict(old._by_dst)
        graph._by_src = by_src
        graph._by_dst = by_dst
        # buckets this graph owns (safe to mutate in place)
        owned_src: set[tuple[str, int]] = set()
        owned_dst: set[tuple[str, int]] = set()
        if removed:
            gone = set(removed)
            for index, owned, end in (
                (by_src, owned_src, "src"),
                (by_dst, owned_dst, "dst"),
            ):
                dirty = {(e.kind, getattr(e, end)) for e in removed}
                for key in dirty:
                    bucket = [e for e in index[key] if e not in gone]
                    if bucket:
                        index[key] = bucket
                        owned.add(key)
                    else:
                        del index[key]
        for edge in fresh:
            if edge in graph._seen:
                continue
            graph._seen.add(edge)
            edges.append(edge)
            for index, owned, key in (
                (by_src, owned_src, (edge.kind, edge.src)),
                (by_dst, owned_dst, (edge.kind, edge.dst)),
            ):
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [edge]
                    owned.add(key)
                elif key in owned:
                    bucket.append(edge)
                else:  # shared with ``old``: copy before writing
                    index[key] = bucket + [edge]
                    owned.add(key)
        return graph

    def add_note(self, note: str) -> None:
        """Attach a diagnostic note (duplicates are ignored)."""
        if note not in self.notes:
            self.notes.append(note)

    def edge_set(self) -> frozenset[DepEdge]:
        """The edges as a set — the graph's comparable identity."""
        return frozenset(self._seen)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[DepEdge]:
        return iter(self.edges)

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
            candidates = [e for e in self.edges if e.kind == kind]
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
            return len(self.edges)
        return sum(1 for edge in self.edges if edge.kind == kind)

    def summary(self) -> dict[str, int]:
        """Edge counts per kind, for reports."""
        return {kind: self.count(kind) for kind in KINDS}
