"""Blocked order-maintenance storage for :class:`~repro.ir.program.Program`.

The seed ``Program`` kept its quads in one Python list plus a dense
``qid -> position`` dict that was rebuilt from the edit point (or from
position 0, for moves) after every mutation.  That makes every
``insert_at``/``remove``/``move_*`` O(n) in *Python-level* work, which
turns a k-edit pass over a 10^5–10^6-quad program into an O(k·n) wall.

:class:`QuadStore` replaces the dense index with a blocked list (an
unrolled list): quads live in contiguous blocks of roughly
:data:`TARGET_BLOCK` elements, a ``qid -> block`` map gives O(1)
membership, per-block ``qid -> offset`` mini-indexes are rebuilt lazily
(O(B) once after a block mutates), and the block start positions are a
lazily rebuilt prefix array (O(n/B) once after a structural change).
Every operation therefore costs O(B + n/B) amortized — ~O(sqrt n)
Python work with list-slice constants — instead of O(n):

===================  =====================================
operation            amortized cost
===================  =====================================
``append``           O(1)
``insert``           O(B + n/B)
``pop_qid``          O(B + n/B)
``replace_qid``      O(B) first lookup, then O(1)
``position``         O(B + n/B) after an edit, then O(1)
``get`` (by index)   O(log(n/B)) after an edit
iteration            O(n) at C speed (``chain``)
===================  =====================================

The store also owns the **fingerprint segments**: each block caches the
concatenation of its quads' 16-byte content hashes
(:meth:`repro.ir.quad.Quad.content_hash`), invalidated exactly when the
block mutates, so ``Program.fingerprint()`` after k edits re-hashes
only the k dirty blocks and streams the cached rest.  Segments are a
pure function of the quad *sequence* — block boundaries never leak into
the digest — so equal-content programs fingerprint identically no
matter their mutation history (the service-cache contract).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import Iterable, Iterator, Optional

from repro.ir.quad import Quad

#: Desired steady-state block length (B).  ~O(sqrt n) total work per
#: operation wants B near sqrt(n); 512 is within 2x of optimal across
#: the whole 10^4–10^6 range while keeping small programs single-block.
TARGET_BLOCK = 512

#: A block longer than this splits in half.
_MAX_BLOCK = 2 * TARGET_BLOCK

#: A block shorter than this tries to merge into a neighbour, bounding
#: the block count (and the prefix-rebuild cost) under heavy deletion.
_MIN_BLOCK = TARGET_BLOCK // 4


class _Block:
    """One run of consecutive quads plus its lazily maintained caches."""

    __slots__ = ("quads", "index", "segment", "start", "ordinal")

    def __init__(self, quads: list[Quad]):
        self.quads = quads
        #: qid -> offset within :attr:`quads`; None after a mutation
        self.index: Optional[dict[int, int]] = None
        #: concatenated per-quad content hashes; None after a mutation
        self.segment: Optional[bytes] = None
        #: program position of quads[0]; valid while the store's
        #: prefix array is valid
        self.start = 0
        #: index of this block in the store's block list; same validity
        self.ordinal = 0

    def offset_of(self, qid: int) -> int:
        index = self.index
        if index is None:
            index = self.index = {
                quad.qid: offset for offset, quad in enumerate(self.quads)
            }
        return index[qid]


class QuadStore:
    """An ordered quad container with O(B + n/B) mutations.

    Raises ``KeyError`` for unknown qids and ``IndexError`` for
    out-of-range positions; the owning :class:`Program` translates
    those into :class:`~repro.ir.program.IRError`.
    """

    __slots__ = ("_blocks", "_owner", "_starts", "_size")

    def __init__(self, quads: Iterable[Quad] = ()):
        self._blocks: list[_Block] = []
        self._owner: dict[int, _Block] = {}
        #: block start positions for bisect; None = needs rebuild
        self._starts: Optional[list[int]] = []
        self._size = 0
        quads = list(quads)
        if quads:
            self.rebuild(quads)

    # ------------------------------------------------------------------
    # bulk (re)construction
    # ------------------------------------------------------------------
    def rebuild(self, quads: list[Quad]) -> None:
        """Replace the whole contents in O(n) (clone/restore path)."""
        self._blocks = []
        owner: dict[int, _Block] = {}
        for cut in range(0, len(quads), TARGET_BLOCK):
            block = _Block(quads[cut:cut + TARGET_BLOCK])
            self._blocks.append(block)
            for quad in block.quads:
                owner[quad.qid] = block
        self._owner = owner
        self._size = len(quads)
        self._starts = None

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Quad]:
        return chain.from_iterable(
            block.quads for block in self._blocks
        )

    def __reversed__(self) -> Iterator[Quad]:
        return chain.from_iterable(
            reversed(block.quads) for block in reversed(self._blocks)
        )

    def contains(self, qid: int) -> bool:
        return qid in self._owner

    def get_by_qid(self, qid: int) -> Quad:
        block = self._owner[qid]
        return block.quads[block.offset_of(qid)]

    def position(self, qid: int) -> int:
        block = self._owner[qid]
        self._prefix()
        return block.start + block.offset_of(qid)

    def get(self, position: int) -> Quad:
        if position < 0:
            position += self._size
        if not 0 <= position < self._size:
            raise IndexError(f"position {position} out of range")
        starts = self._prefix()
        block = self._blocks[bisect_right(starts, position) - 1]
        return block.quads[position - block.start]

    def _prefix(self) -> list[int]:
        starts = self._starts
        if starts is None:
            starts = []
            total = 0
            for ordinal, block in enumerate(self._blocks):
                block.start = total
                block.ordinal = ordinal
                starts.append(total)
                total += len(block.quads)
            self._starts = starts
        return starts

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, quad: Quad) -> None:
        """Add at the end.  O(1); never invalidates the prefix array."""
        if not self._blocks:
            block = _Block([quad])
            self._blocks.append(block)
            if self._starts is not None:
                self._starts.append(0)
        else:
            block = self._blocks[-1]
            block.quads.append(quad)
            if block.index is not None:
                block.index[quad.qid] = len(block.quads) - 1
            block.segment = None
        self._owner[quad.qid] = block
        self._size += 1
        if len(block.quads) > _MAX_BLOCK:
            right = _Block(block.quads[TARGET_BLOCK:])
            del block.quads[TARGET_BLOCK:]
            block.index = None
            self._blocks.append(right)
            for moved in right.quads:
                self._owner[moved.qid] = right
            if self._starts is not None:
                # appending a block shifts nothing: extend in place
                right.ordinal = len(self._blocks) - 1
                right.start = self._starts[-1] + TARGET_BLOCK
                self._starts.append(right.start)

    def insert(self, position: int, quad: Quad) -> None:
        """Insert before ``position`` (``position == len`` appends)."""
        if position == self._size:
            self.append(quad)
            return
        if not 0 <= position <= self._size:
            raise IndexError(f"position {position} out of range")
        starts = self._prefix()
        block = self._blocks[bisect_right(starts, position) - 1]
        block.quads.insert(position - block.start, quad)
        block.index = None
        block.segment = None
        self._owner[quad.qid] = block
        self._size += 1
        self._starts = None
        if len(block.quads) > _MAX_BLOCK:
            self._split(block)

    def _split(self, block: _Block) -> None:
        """Halve an oversized block (``block.ordinal`` must be valid)."""
        half = len(block.quads) // 2
        right = _Block(block.quads[half:])
        del block.quads[half:]
        block.index = None
        block.segment = None
        self._blocks.insert(block.ordinal + 1, right)
        for moved in right.quads:
            self._owner[moved.qid] = right
        self._starts = None

    def pop_qid(self, qid: int) -> tuple[int, Quad]:
        """Remove a quad, returning ``(old position, quad)``."""
        block = self._owner[qid]
        self._prefix()
        offset = block.offset_of(qid)
        position = block.start + offset
        quad = block.quads.pop(offset)
        del self._owner[qid]
        block.index = None
        block.segment = None
        self._size -= 1
        if not block.quads:
            del self._blocks[block.ordinal]
        elif len(block.quads) < _MIN_BLOCK and len(self._blocks) > 1:
            self._merge(block)
        self._starts = None
        return position, quad

    def _merge(self, block: _Block) -> None:
        """Fold an undersized block into a neighbour when it fits."""
        ordinal = block.ordinal
        if ordinal > 0:
            left = self._blocks[ordinal - 1]
            if len(left.quads) + len(block.quads) <= _MAX_BLOCK:
                for moved in block.quads:
                    self._owner[moved.qid] = left
                left.quads.extend(block.quads)
                left.index = None
                left.segment = None
                del self._blocks[ordinal]
                return
        if ordinal + 1 < len(self._blocks):
            right = self._blocks[ordinal + 1]
            if len(right.quads) + len(block.quads) <= _MAX_BLOCK:
                for moved in right.quads:
                    self._owner[moved.qid] = block
                block.quads.extend(right.quads)
                block.index = None
                block.segment = None
                del self._blocks[ordinal + 1]

    def replace_qid(self, qid: int, quad: Quad) -> None:
        """Swap the quad object at ``qid`` (same qid, new content).

        Positions are unchanged, so the prefix array and the block's
        mini-index both stay valid; only the fingerprint segment drops.
        """
        block = self._owner[qid]
        block.quads[block.offset_of(qid)] = quad
        block.segment = None

    # ------------------------------------------------------------------
    # fingerprint segments
    # ------------------------------------------------------------------
    def invalidate_hash(self, qid: int) -> None:
        """An in-place quad mutation was reported: drop its caches."""
        block = self._owner[qid]
        block.quads[block.offset_of(qid)].drop_content_hash()
        block.segment = None

    def segments(self) -> Iterator[bytes]:
        """The fingerprint byte segments, in order, rebuilding the
        dirty ones (k mutated blocks → O(k·B) hash work)."""
        for block in self._blocks:
            segment = block.segment
            if segment is None:
                segment = b"".join(
                    quad.content_hash() for quad in block.quads
                )
                block.segment = segment
            yield segment

    # ------------------------------------------------------------------
    # introspection (tests and benchmarks)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert internal consistency (property tests call this)."""
        assert self._size == sum(len(b.quads) for b in self._blocks)
        assert len(self._owner) == self._size
        for block in self._blocks:
            assert block.quads, "empty block retained"
            for quad in block.quads:
                assert self._owner.get(quad.qid) is block
            if block.index is not None:
                assert block.index == {
                    q.qid: o for o, q in enumerate(block.quads)
                }
        if self._starts is not None:
            expect = 0
            for ordinal, block in enumerate(self._blocks):
                assert self._starts[ordinal] == expect == block.start
                assert block.ordinal == ordinal
                expect += len(block.quads)
