"""The program container: an ordered list of quads with stable identity.

A :class:`Program` is the unit that optimizers transform.  Quads are
identified by *qids* that survive insertion, deletion and movement, so
that dependence edges and GOSpeL statement bindings remain meaningful
while a transformation rewrites the code.  Structural views (the loop
table, conditional regions) are recomputed lazily and invalidated by a
version counter whenever the quad list changes.

Storage is the blocked order-maintenance list of
:mod:`repro.ir.blocklist`: mutations and position queries cost
O(B + n/B) amortized Python work instead of the dense-index rebuild's
O(n), and the program fingerprint is maintained incrementally from
per-block segment caches instead of re-rendering every quad — the two
properties that let the driver/matching/search stack run on 10^5–10^6
quad programs (see ``docs/ir.md`` for the representation and the
per-operation complexity guarantees).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from repro.ir.blocklist import QuadStore
from repro.ir.quad import CONTENT_HASH_BYTES, Quad

#: Environment variable enabling the fingerprint shadow check: every
#: incrementally maintained digest is recomputed from scratch (all
#: per-quad and per-block caches ignored) and compared, mirroring
#: ``REPRO_ANALYSIS_CHECK`` and ``REPRO_MATCH_CHECK``.
ENV_FP_CHECK = "REPRO_FP_CHECK"


class IRError(Exception):
    """Raised for malformed IR manipulations (unknown qid, bad nesting)."""


class RollbackUnavailable(IRError):
    """The change log cannot restore the requested program version.

    Raised by :meth:`Program.rollback_to` when the log was trimmed past
    the target version.  A pinned version is never trimmed, so this
    cannot happen inside a transaction.
    """


class FingerprintMismatchError(AssertionError):
    """The ``REPRO_FP_CHECK`` shadow found a digest divergence.

    The incrementally maintained fingerprint (cached per-quad hashes,
    per-block segments) disagreed with a from-scratch recompute — a
    cache-invalidation bug, almost always an in-place quad mutation
    that was never reported through :meth:`Program.touch`.
    """


@dataclass(frozen=True)
class ProgramChange:
    """One logged mutation, for incremental analysis and rollback.

    ``kind`` is one of ``"add"``, ``"remove"``, ``"move"`` or
    ``"modify"``.  The ``version`` is the program version *after* the
    mutation completed.

    ``position`` and ``before`` are the undo payload consumed by
    :meth:`Program.rollback_to`: the quad's list position before the
    mutation (for ``remove``/``move``), and a pre-image copy of the
    quad (for ``remove``/``modify``).  Every kind is undoable: the
    mutation API records its own pre-images, and an in-place
    modification is reported through :meth:`Program.touch`, which
    requires one.
    """

    version: int
    kind: str
    qid: int
    position: int = -1
    before: Optional[Quad] = None


#: Retained change-log length; older entries are trimmed and consumers
#: whose snapshot predates the trim fall back to full recomputation.
_CHANGELOG_LIMIT = 4096


class Program:
    """An ordered sequence of :class:`Quad` with stable qids.

    The mutation API (``insert_after``, ``remove``, ``move_after``,
    ``replace``) is exactly what the GENesis primitive-action library
    needs to implement the paper's five action primitives.
    """

    def __init__(self, quads: Iterable[Quad] = (), name: str = "main"):
        self.name = name
        self._store = QuadStore()
        self._next_qid = 0
        self._version = 0
        self._changelog: list[ProgramChange] = []
        #: versions at or below this are no longer covered by the log
        self._log_floor = 0
        #: open-transaction marks; while non-empty the log never trims,
        #: so every pinned version stays reachable for rollback
        self._pins: list[int] = []
        #: (version, digest) memo for :meth:`fingerprint`
        self._fingerprint_cache: Optional[tuple[int, str]] = None
        #: (version, names) memos for the name queries
        self._scalar_names_cache: Optional[tuple[int, frozenset[str]]] = None
        self._array_names_cache: Optional[tuple[int, frozenset[str]]] = None
        for quad in quads:
            self.append(quad)

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter bumped by every mutation (cache key)."""
        return self._version

    @property
    def quads(self) -> tuple[Quad, ...]:
        """The quads in program order (read-only view).

        Materializes an O(n) tuple on every read — iteration-only
        callers should use ``for quad in program`` (or ``reversed``)
        and ``len(program)`` instead.
        """
        return tuple(self._store)

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Quad]:
        return iter(self._store)

    def __reversed__(self) -> Iterator[Quad]:
        return reversed(self._store)

    def __getitem__(
        self, position: Union[int, slice]
    ) -> Union[Quad, tuple[Quad, ...]]:
        if isinstance(position, slice):
            return tuple(self._store)[position]
        return self._store.get(position)

    def quad(self, qid: int) -> Quad:
        """The quad with the given qid.

        Raises :class:`IRError` for unknown (e.g. deleted) qids.
        """
        try:
            return self._store.get_by_qid(qid)
        except KeyError:
            raise IRError(f"no quad with qid {qid}") from None

    def position(self, qid: int) -> int:
        """Current list position of a qid (the library's ``find``)."""
        try:
            return self._store.position(qid)
        except KeyError:
            raise IRError(f"no quad with qid {qid}") from None

    def contains(self, qid: int) -> bool:
        """True when a quad with this qid is currently in the program."""
        return self._store.contains(qid)

    def qids(self) -> list[int]:
        """All qids in program order."""
        return [quad.qid for quad in self._store]

    def next_qid_of(self, qid: int) -> Optional[int]:
        """qid of the following quad (GOSpeL ``.NXT``), or None at end."""
        position = self.position(qid) + 1
        if position >= len(self._store):
            return None
        return self._store.get(position).qid

    def prev_qid_of(self, qid: int) -> Optional[int]:
        """qid of the preceding quad (GOSpeL ``.PREV``), or None at start."""
        position = self.position(qid) - 1
        if position < 0:
            return None
        return self._store.get(position).qid

    # ------------------------------------------------------------------
    # change log
    # ------------------------------------------------------------------
    def _log(
        self,
        kind: str,
        qid: int,
        position: int = -1,
        before: Optional[Quad] = None,
    ) -> None:
        self._changelog.append(
            ProgramChange(self._version, kind, qid, position, before)
        )
        if len(self._changelog) > _CHANGELOG_LIMIT and not self._pins:
            trimmed = self._changelog[: _CHANGELOG_LIMIT // 2]
            self._log_floor = trimmed[-1].version
            del self._changelog[: _CHANGELOG_LIMIT // 2]

    def changes_since(self, version: int) -> Optional[list[ProgramChange]]:
        """Every mutation after ``version``, oldest first.

        Returns ``None`` when the log no longer reaches back that far
        (trimmed history) — the caller must recompute from scratch.
        An empty list means the program is unchanged since ``version``.
        """
        if version >= self._version:
            return []
        if version < self._log_floor:
            return None
        return [c for c in self._changelog if c.version > version]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _assign_qid(self, quad: Quad) -> Quad:
        if quad.qid != -1 and self._store.contains(quad.qid):
            raise IRError(f"qid {quad.qid} already present")
        if quad.qid == -1:
            quad.qid = self._next_qid
        self._next_qid = max(self._next_qid, quad.qid) + 1
        # the quad may have lived (and been mutated) outside any
        # program since its hash was cached; trust nothing on entry
        quad.drop_content_hash()
        return quad

    def append(self, quad: Quad) -> Quad:
        """Add a quad at the end of the program, assigning it a qid."""
        self._assign_qid(quad)
        self._store.append(quad)
        self._version += 1
        self._log("add", quad.qid)
        return quad

    def insert_at(self, position: int, quad: Quad) -> Quad:
        """Insert a quad at a list position, assigning it a qid."""
        if not 0 <= position <= len(self._store):
            raise IRError(f"insert position {position} out of range")
        self._assign_qid(quad)
        self._store.insert(position, quad)
        self._version += 1
        self._log("add", quad.qid)
        return quad

    def insert_after(self, qid: int, quad: Quad) -> Quad:
        """Insert ``quad`` immediately after the quad named ``qid``.

        This is the placement rule of the paper's ``Add`` and ``Copy``
        primitives ("place it following b").
        """
        return self.insert_at(self.position(qid) + 1, quad)

    def insert_before(self, qid: int, quad: Quad) -> Quad:
        """Insert ``quad`` immediately before the quad named ``qid``."""
        return self.insert_at(self.position(qid), quad)

    def _detach(self, qid: int) -> tuple[int, Quad]:
        """Unlink a quad without logging (shared by remove and move)."""
        try:
            return self._store.pop_qid(qid)
        except KeyError:
            raise IRError(f"no quad with qid {qid}") from None

    def preimage(self, qid: int) -> Quad:
        """A qid-preserving copy of a quad's current state.

        Callers that mutate a quad in place capture this *before* the
        mutation and hand it to :meth:`touch` so the change stays
        undoable by :meth:`rollback_to`.
        """
        copy = self.quad(qid).copy()
        copy.qid = qid
        return copy

    _preimage = preimage

    def remove(self, qid: int) -> Quad:
        """Remove and return the quad named ``qid`` (``Delete``)."""
        before = self._preimage(qid)
        position, quad = self._detach(qid)
        self._version += 1
        self._log("remove", qid, position, before)
        return quad

    def move_after(self, qid: int, after_qid: int) -> None:
        """Move the quad ``qid`` to just after ``after_qid`` (``Move``)."""
        if qid == after_qid:
            raise IRError("cannot move a quad after itself")
        if not self._store.contains(after_qid):
            raise IRError(f"no quad with qid {after_qid}")
        old_position, quad = self._detach(qid)
        quad.qid = qid  # keep its identity across the move
        self._store.insert(self.position(after_qid) + 1, quad)
        self._version += 1
        self._log("move", qid, old_position)

    def move_to_front(self, qid: int) -> None:
        """Move the quad ``qid`` to the start of the program."""
        old_position, quad = self._detach(qid)
        quad.qid = qid
        self._store.insert(0, quad)
        self._version += 1
        self._log("move", qid, old_position)

    def replace(self, qid: int, quad: Quad) -> Quad:
        """Replace the quad named ``qid`` in place, keeping the qid."""
        before = self._preimage(qid)
        position = self._store.position(qid)
        quad.qid = qid
        quad.drop_content_hash()
        self._store.replace_qid(qid, quad)
        self._version += 1
        self._log("modify", qid, position, before)
        return quad

    def touch(self, qid: int, before: Quad) -> None:
        """Report an in-place mutation of the quad named ``qid``.

        ``before`` is a qid-preserving copy of the quad taken *before*
        the mutation (:meth:`preimage`).  It makes the edit undoable by
        :meth:`rollback_to`, and the qid lets incremental consumers
        (:class:`repro.analysis.manager.AnalysisManager`, the match
        index, the fingerprint) invalidate only what the edit touched.
        """
        if before.qid != qid:
            raise IRError(
                f"pre-image qid {before.qid} does not match touched "
                f"qid {qid}"
            )
        position = self.position(qid)
        self._store.invalidate_hash(qid)
        self._version += 1
        self._log("modify", qid, position, before)

    # ------------------------------------------------------------------
    # transactions and rollback
    # ------------------------------------------------------------------
    def pin(self) -> int:
        """Mark the current version as a rollback target.

        While any pin is outstanding the change log never trims, so
        :meth:`rollback_to` can always reach the pinned version.
        Returns the pinned version; release it with :meth:`unpin`.
        """
        self._pins.append(self._version)
        return self._version

    def unpin(self, version: int) -> None:
        """Release a pin taken by :meth:`pin` (commit or after rollback)."""
        try:
            self._pins.remove(version)
        except ValueError:
            raise IRError(f"version {version} is not pinned") from None

    def rollback_to(self, version: int) -> int:
        """Undo every mutation after ``version``, newest first.

        The undos run through the ordinary mutation API, so they are
        themselves logged and version-bumping: analysis consumers see
        the restore as regular (incrementally spliceable) changes, and
        version numbers are never reused for different program states.
        Returns the number of entries undone.

        Raises :class:`RollbackUnavailable`, leaving the program
        unchanged, when the log was trimmed past ``version``.
        """
        if version > self._version:
            raise IRError(
                f"cannot roll back to future version {version} "
                f"(current {self._version})"
            )
        pending = self.changes_since(version)
        if pending is None:
            raise RollbackUnavailable(
                f"change log trimmed past version {version} "
                f"(floor {self._log_floor})"
            )
        for change in reversed(pending):
            self._undo(change)
        return len(pending)

    def _undo(self, change: ProgramChange) -> None:
        """Invert one logged mutation (state must be post-``change``)."""
        if change.kind == "add":
            self.remove(change.qid)
        elif change.kind == "remove":
            assert change.before is not None
            quad = change.before.copy()
            quad.qid = change.qid
            self.insert_at(change.position, quad)
        elif change.kind == "move":
            old_position, quad = self._detach(change.qid)
            quad.qid = change.qid
            self._store.insert(change.position, quad)
            self._version += 1
            self._log("move", change.qid, old_position)
        else:  # "modify"
            assert change.before is not None
            self.replace(change.qid, change.before.copy())

    # ------------------------------------------------------------------
    # whole-program operations
    # ------------------------------------------------------------------
    def clone(self) -> "Program":
        """A deep copy preserving qids (for experiments and baselines)."""
        fresh = Program(name=self.name)
        quads = []
        next_qid = fresh._next_qid
        for quad in self._store:
            duplicate = quad.copy()
            duplicate.qid = quad.qid
            quads.append(duplicate)
            next_qid = max(next_qid, quad.qid) + 1
        fresh._store.rebuild(quads)
        fresh._next_qid = next_qid
        fresh._version += 1
        # the bulk copy above bypassed the change log; mark earlier
        # versions as unreachable so no consumer trusts an empty log
        fresh._changelog.clear()
        fresh._log_floor = fresh._version
        return fresh

    def fingerprint(self) -> str:
        """The canonical content hash of the program (hex digest).

        Two programs have equal fingerprints exactly when they render
        to the same quad sequence: qids, program name, version history
        and change-log state do not participate, so the hash identifies
        *content*, not object lineage, and survives unparse/parse round
        trips of programs without ``DOALL`` loops.  A ``DOALL`` has no
        surface syntax: it unparses as a commented ``DO`` and parses
        back as ``DO``, so its program's fingerprint changes on the
        first round trip (and is stable from then on).  This is why the
        search engine keys its states' fingerprints and scores on their
        text.  This is the one program-hash definition shared by
        the ordering experiment, the search engine, inference's shared
        first dependence builds, and the service result cache
        (:mod:`repro.service`).

        The digest is the SHA-256 of the per-quad content hashes
        (:meth:`repro.ir.quad.Quad.content_hash`) concatenated in
        program order.  It is maintained *incrementally*: quad hashes
        are cached on the quads, block segments on the storage blocks,
        so after k edits only the k dirty blocks re-hash — O(k·B)
        leaf work plus one stream over 16 bytes/quad — instead of the
        seed path's full re-render of all n quads.  Repeated reads
        between mutations are O(1) (version-keyed memo).

        With ``REPRO_FP_CHECK=1`` every digest is shadow-checked
        against a from-scratch recompute and
        :class:`FingerprintMismatchError` is raised on divergence.
        """
        cached = self._fingerprint_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        hasher = hashlib.sha256()
        for segment in self._store.segments():
            hasher.update(segment)
        digest = hasher.hexdigest()
        if os.environ.get(ENV_FP_CHECK, "") not in ("", "0"):
            full = self._full_fingerprint()
            if digest != full:
                raise FingerprintMismatchError(
                    "incremental fingerprint diverged from full "
                    f"recompute at program version {self._version}: "
                    f"{digest[:16]}… != {full[:16]}… — an in-place "
                    "quad mutation was not reported through touch()"
                )
        self._fingerprint_cache = (self._version, digest)
        return digest

    def _full_fingerprint(self) -> str:
        """The fingerprint recomputed from scratch, ignoring every
        cache (the ``REPRO_FP_CHECK`` shadow arm and the benchmark
        baseline)."""
        hasher = hashlib.sha256()
        for quad in self._store:
            hasher.update(
                hashlib.sha256(
                    str(quad).encode()
                ).digest()[:CONTENT_HASH_BYTES]
            )
        return hasher.hexdigest()

    def scalar_names(self) -> frozenset[str]:
        """Every scalar variable name defined or used in the program.

        Version-keyed memo: repeated reads between mutations are O(1)
        instead of an O(n) rescan.
        """
        cached = self._scalar_names_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        names: set[str] = set()
        for quad in self._store:
            names.update(quad.used_scalar_names())
            defined = quad.defined_scalar()
            if defined is not None:
                names.add(defined)
        result = frozenset(names)
        self._scalar_names_cache = (self._version, result)
        return result

    def array_names(self) -> frozenset[str]:
        """Every array name referenced in the program.

        Version-keyed memo, like :meth:`scalar_names`.
        """
        cached = self._array_names_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        names: set[str] = set()
        for quad in self._store:
            for _pos, ref in quad.used_array_refs():
                names.add(ref.name)
            written = quad.defined_array()
            if written is not None:
                names.add(written.name)
            # READ/WRITE of whole arrays appear as ArrayRef in ``a``
        result = frozenset(names)
        self._array_names_cache = (self._version, result)
        return result

    def check_structure(self) -> None:
        """Validate that loop and conditional markers nest properly.

        Raises :class:`IRError` on any nesting fault that
        :func:`repro.ir.loops.match_regions`, the IR's one region
        matcher, rejects — transformations call this in validation mode
        to catch primitive sequences that would tear the structured IR.
        """
        from repro.ir.loops import match_regions

        match_regions(self._store)

    def __str__(self) -> str:
        from repro.ir.printer import format_program

        return format_program(self)
