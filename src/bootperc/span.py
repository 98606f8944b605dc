"""The span <A>, the merge-based span algorithm on masks, and witness finders."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .rules import check_number
from .structures import (
    CellSet,
    Rectangle,
    StructureSpec,
    check_shape,
    grid_tables,
    label_boxes,
    label_rows,
    threshold_table,
)
from .dynamics import closure_batch


@dataclass(frozen=True)
class SpanResult:
    """Rectangles of the span, plus (for the merge algorithm) every
    rectangle created along the way, in order of creation."""

    rectangles: tuple[Rectangle, ...]
    creation_log: tuple[Rectangle, ...] = ()


def _rectangle(box: tuple[slice, ...]) -> Rectangle:
    """The 1-based inclusive rectangle of a ``label_boxes`` box whose first slice is its row."""
    return Rectangle(tuple(s.start + 1 for s in box[1:]), tuple(s.stop for s in box[1:]))


def span_boxes_batch(spec: StructureSpec, masks: np.ndarray) -> list[tuple[slice, ...]]:
    """The span of every row of a block of initial sets ``(B, *spec.shape)``:
    the 0-based ``label_boxes`` box of every component of every row's
    projected closure, with the row as its first slice.

    The block is closed, projected and labelled at once.  Boxes come in row
    order, and within a row in order of each component's least member.
    """
    closed = closure_batch(spec, masks)
    labels, _ = label_rows(closed.any(axis=tuple(range(spec.d + 1, closed.ndim))))
    return label_boxes(labels)


def span_direct(spec: StructureSpec, cells: CellSet) -> SpanResult:
    """<A>: bounding rectangles of the components of the projected closure, in
    order of each component's least member; ``span_boxes_batch`` at B = 1."""
    return SpanResult(tuple(map(_rectangle, span_boxes_batch(spec, cells.mask[None]))))


def _dilate(mask: np.ndarray) -> np.ndarray:
    """``mask`` grown by one nearest-neighbour step on its own grid."""
    nbrs, _ = grid_tables(mask.shape)
    out = mask.ravel().copy()
    touched = nbrs[mask.ravel()].ravel()
    out[touched[touched >= 0]] = True
    return out.reshape(mask.shape)


def _bits(mask: np.ndarray) -> int:
    """``mask`` as a Python-int bitset: bit v is the cell of flat index v."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _ids(bits: int):
    """The set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class _Piece:
    """One piece of the merge algorithm: a subset of A, kept as its closure
    ``closed`` (a mask).  The pair tests read int bitsets: ``proj`` the
    projected closure and ``near`` that grown by one step."""

    __slots__ = ("closed", "proj", "near", "rect")

    def __init__(self, closed: np.ndarray, proj: int, near: int, rect: Rectangle):
        self.closed, self.proj, self.near, self.rect = closed, proj, near, rect

    @classmethod
    def of(cls, spec: StructureSpec, closed: np.ndarray) -> "_Piece":
        """The piece whose closure is the mask ``closed``."""
        proj = closed.any(axis=tuple(range(spec.d, closed.ndim)))
        return cls(closed, _bits(proj), _bits(_dilate(proj)),
                   _rectangle(label_boxes(proj[None].view(np.int8))[0]))


def _singletons(spec: StructureSpec, cells: CellSet) -> list[_Piece]:
    """The pieces of A's cells, one a cell, in canonical (flat) order.

    For r >= 2 a single cell is closed, since it gives a cell at most one
    infected neighbour and every threshold is at least r.  So its piece is
    read off the base grid: ``proj`` is the cell's shadow b and ``near`` adds
    b's row of ``grid_tables``.
    """
    flat = np.flatnonzero(cells.mask)
    singles = np.zeros((flat.size, cells.mask.size), dtype=bool)
    singles[np.arange(flat.size), flat] = True
    singles = singles.reshape((flat.size,) + cells.shape)
    if spec.r == 1:
        return [_Piece.of(spec, closed) for closed in closure_batch(spec, singles)]
    base = spec.shape[:spec.d]
    nbrs, _ = grid_tables(base)
    shadows = flat // (cells.mask.size // nbrs.shape[0])
    corners = map(tuple, (np.stack(np.unravel_index(shadows, base), axis=1) + 1).tolist())
    return [_Piece(single, 1 << b, sum(1 << w for w in set(row) - {-1}) | 1 << b,
                   Rectangle(corner, corner))
            for single, b, row, corner in zip(singles, shadows.tolist(),
                                              nbrs[shadows].tolist(), corners)]


class _Pieces:
    """The live pieces of the merge algorithm by ascending id, with the pair
    relations that its steps read.

    A merged piece takes the next id, so the order of ids is the order of
    the piece list, in which the merged piece goes last.  Row i of
    ``touch`` is the bitset of the higher live ids j with ``near_i &
    proj_j``, and row i of ``meets`` those with ``near_i & near_j``.  A row
    is computed the first time a step reads it; after that each merge
    clears the merged ids from it and tests the new piece against it.
    ``failed`` holds every subset of ids whose joint closure did not grow:
    pieces never change, so it never will.
    """

    def __init__(self, spec: StructureSpec, pieces: list[_Piece]):
        self.spec = spec
        self.live = dict(enumerate(pieces))
        self.next_id = len(pieces)
        self.touch: dict[int, int] = {}
        self.meets: dict[int, int] = {}
        self.failed: set[tuple[int, ...]] = set()

    def _row(self, rows: dict[int, int], key: str, i: int) -> int:
        """Row i of ``rows``, whose pieces j meet i's ``near`` with their ``key`` bitset."""
        row = rows.get(i)
        if row is None:
            near = self.live[i].near
            row = rows[i] = sum(1 << j for j, q in self.live.items()
                                if j > i and near & getattr(q, key))
        return row

    def _cliques(self, t: int, subset: tuple[int, ...], candidates: int):
        """Every t-tuple of ascending live ids that extends ``subset`` by ids
        of ``candidates`` and in which every two pieces' ``near`` meet, in
        lexicographic order."""
        for j in _ids(candidates):
            if len(subset) + 1 == t:
                yield subset + (j,)
            else:
                yield from self._cliques(t, subset + (j,),
                                         candidates & self._row(self.meets, "near", j))

    def _joint(self, ids: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The union of the pieces ``ids`` and its closure."""
        union = np.logical_or.reduce([self.live[i].closed for i in ids])
        return union, closure_batch(self.spec, union[None])[0]

    def next_merge(self) -> tuple[tuple[int, ...], np.ndarray] | None:
        """The ids of the next merge and the closure of their union; None if
        none is left.

        Operation (a) is the first pair of pieces whose projected closures
        touch.  Operation (b), tried when no pair touches, is the first
        subset of least size (at most r + ell) whose joint closure exceeds
        the union of its pieces.  It tries only subsets in which every two
        pieces' ``near`` meet, and loses nothing by it.  Let c be the first
        cell that the joint closure of a least growing subset adds.  The
        pieces that hold c's neighbours add c by themselves, so they grow
        too, and as the subset is least (a single piece is closed, so it
        never grows) they are all of it.  So c has a neighbour in every
        piece.  A neighbour's shadow (projection) is c's own or next to it,
        so c's shadow lies in every piece's ``near``.
        """
        for i in self.live:
            if row := self._row(self.touch, "proj", i):
                ids = (i, next(_ids(row)))
                return ids, self._joint(ids)[1]
        for t in range(2, min(self.spec.r + self.spec.ell, len(self.live)) + 1):
            for ids in self._cliques(t, (), sum(1 << i for i in self.live)):
                if ids not in self.failed:
                    union, closed = self._joint(ids)
                    if not np.array_equal(union, closed):
                        return ids, closed
                    self.failed.add(ids)
        return None

    def merge(self, ids: tuple[int, ...], closed: np.ndarray) -> _Piece:
        """Replace the pieces ``ids`` by the piece whose closure is ``closed``."""
        new, k = _Piece.of(self.spec, closed), self.next_id
        self.next_id += 1
        keep = ~sum(1 << i for i in ids)
        for rows, key in ((self.touch, "proj"), (self.meets, "near")):
            for i in ids:
                rows.pop(i, None)
            bit = getattr(new, key)
            for i, row in rows.items():
                rows[i] = row & keep | (1 << k if self.live[i].near & bit else 0)
        for i in ids:
            del self.live[i]
        self.live[k] = new
        return new


def span_main_algorithm(spec: StructureSpec, cells: CellSet) -> SpanResult:
    """Compute <A> by merging pieces.

    Starts from singletons and applies ``_Pieces.next_merge`` until none is
    left: (a) merge two pieces whose projected closures touch, else (b)
    merge a minimal-size subset of pieces whose joint closure strictly
    exceeds the union of their closures.  The merged piece goes to the end
    of the piece list.  The output rectangles equal span_direct's; the
    creation log records every piece rectangle ever formed.
    """
    check_shape(spec, cells.shape)
    pieces = _Pieces(spec, _singletons(spec, cells))
    log = [p.rect for p in pieces.live.values()]
    while (merge := pieces.next_merge()) is not None:
        log.append(pieces.merge(*merge).rect)
    return SpanResult(tuple(p.rect for p in pieces.live.values()), tuple(log))


def internally_spans(spec: StructureSpec, rect: Rectangle, cells: CellSet) -> bool:
    """True iff A's cells inside R alone span R, i.e. R is in <A cap R>."""
    check_shape(spec, cells.shape)
    inside = cells.mask & rect.cells(spec).mask
    return any(box[1:] == rect.slices for box in span_boxes_batch(spec, inside[None]))


def find_spanned_rectangle(spec: StructureSpec, cells: CellSet, length: int) -> Rectangle | None:
    """A rectangle internally spanned by A with length <= long <= 2*length,
    taken from the merge algorithm's creation log; None if none was created.
    """
    length = check_number(length, "target length", numbers.Integral, 1)
    result = span_main_algorithm(spec, cells)
    for rect in result.creation_log:
        if length <= rect.long <= 2 * length:
            if internally_spans(spec, rect, cells):
                return rect
    return None


def find_spanned_component(spec: StructureSpec, cells: CellSet, length: int) -> CellSet | None:
    """An internally filled connected set X with length <= diam(X) <= 2*length.

    Replays the closure one newly infectable cell at a time (least eligible
    cell in canonical order) and returns the first component of the
    infected set, in least-member order, whose diameter (the longest side of
    its bounding box) is in range; None if none ever is.

    Every component C of every replay state is internally filled, C being a
    subset of [A cap C]: a replayed cell has enough infected neighbours, all
    in its own component, and components only merge.  So the diameter is
    the only test.  A component without the cell just infected is unchanged
    since the previous state, where it failed that test, so after the first
    state only the new cell's component is tested.
    """
    length = check_number(length, "target length", numbers.Integral, 1)
    check_shape(spec, cells.shape)

    nbrs, size = grid_tables(spec.shape)
    thresholds = threshold_table(spec)
    infected = cells.mask.ravel().copy()
    touched = nbrs[infected].ravel()
    counts = np.bincount(touched[touched >= 0], minlength=size)
    labels, _ = label_rows(infected.reshape((1,) + spec.shape))
    candidates = enumerate(label_boxes(labels), start=1)  # every component, at first
    while True:
        for lab, box in candidates:
            if length <= max(s.stop - s.start for s in box[1:]) <= 2 * length:
                return CellSet.from_mask(labels[0] == lab)
        eligible = np.flatnonzero(~infected & (counts >= thresholds))
        if not eligible.size:
            return None
        v = eligible[0]  # least cell in canonical (flat) order
        infected[v] = True
        touched = nbrs[v]
        counts[touched[touched >= 0]] += 1
        labels, _ = label_rows(infected.reshape((1,) + spec.shape))
        lab = labels.flat[v]
        candidates = [(lab, label_boxes((labels == lab).view(np.int8))[0])]
