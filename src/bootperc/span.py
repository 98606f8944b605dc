"""The span <A>, the merge-based span algorithm on masks, and witness finders."""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .structures import (
    CellSet,
    Rectangle,
    StructureSpec,
    check_number,
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
    """``mask`` as a Python-int bitset, one bit per cell in flat order."""
    return int.from_bytes(np.packbits(mask).tobytes(), "big")


class _Piece:
    """One piece of the merge algorithm: a subset of A, kept as its closure
    ``closed`` (a mask).  The pair tests read int bitsets: ``proj`` the
    projected closure and ``near`` that grown by one step."""

    __slots__ = ("closed", "proj", "near", "rect")

    def __init__(self, spec: StructureSpec, closed: np.ndarray):
        self.closed = closed
        proj = closed.any(axis=tuple(range(spec.d, closed.ndim)))
        self.proj = _bits(proj)
        self.near = _bits(_dilate(proj))
        self.rect = _rectangle(label_boxes(proj[None].view(np.int8))[0])


def _next_merge(spec: StructureSpec,
                pieces: list[_Piece]) -> tuple[tuple[int, ...], np.ndarray] | None:
    """The next merge of ``span_main_algorithm`` as ``(indices, closed)``,
    ``closed`` the closure of the union of those pieces; None if none is left.

    Operation (a) is the first pair of pieces whose projected closures
    touch.  Operation (b), tried when no pair touches, is the first subset of
    least size (at most r + ell) whose joint closure exceeds the union of its
    pieces.  It tries only subsets in which every two pieces' ``near`` meet,
    and loses nothing by it.  Let c be the first cell that the joint closure
    of a least growing subset adds.  The pieces that hold c's neighbours add
    c by themselves, so they grow too, and as the subset is least (a single
    piece is closed, so it never grows) they are all of it.  So c has a
    neighbour in every piece.  A neighbour's shadow (projection) is c's own
    or next to it, so c's shadow lies in every piece's ``near``.
    """
    def joint(indices: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        union = np.logical_or.reduce([pieces[i].closed for i in indices])
        return union, closure_batch(spec, union[None])[0]

    for i, j in itertools.combinations(range(len(pieces)), 2):
        if pieces[i].near & pieces[j].proj:
            return (i, j), joint((i, j))[1]
    for t in range(2, min(spec.r + spec.ell, len(pieces)) + 1):
        for subset in itertools.combinations(range(len(pieces)), t):
            # A list, not a generator: closing a generator that all() leaves
            # early costs more than the pair tests.
            pairs = itertools.combinations(subset, 2)
            if all([pieces[i].near & pieces[j].near for i, j in pairs]):
                union, closed = joint(subset)
                if not np.array_equal(union, closed):
                    return subset, closed
    return None


def span_main_algorithm(spec: StructureSpec, cells: CellSet) -> SpanResult:
    """Compute <A> by merging pieces.

    Starts from singletons and applies ``_next_merge`` until none is left:
    (a) merge two pieces whose projected closures touch, else (b) merge a
    minimal-size subset of pieces whose joint closure strictly exceeds the
    union of their closures.  The merged piece goes to the end of the list.
    The output rectangles equal span_direct's; the creation log records
    every piece rectangle ever formed.
    """
    check_shape(spec, cells.shape)
    # Singletons in canonical (flat) order.
    flat_ids = np.arange(cells.mask.size).reshape(cells.shape)
    pieces = [_Piece(spec, closure_batch(spec, (flat_ids == v)[None])[0])
              for v in np.flatnonzero(cells.mask)]
    log = [p.rect for p in pieces]
    while (merge := _next_merge(spec, pieces)) is not None:
        indices, closed = merge
        pieces = [p for i, p in enumerate(pieces) if i not in indices] + [_Piece(spec, closed)]
        log.append(pieces[-1].rect)
    return SpanResult(tuple(p.rect for p in pieces), tuple(log))


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
