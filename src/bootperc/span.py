"""The span <A>, the merge-based span algorithm on masks, and witness finders."""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .structures import (
    CellSet,
    DomainError,
    Rectangle,
    StructureSpec,
    check_number,
    check_shape,
    grid_tables,
    label_boxes,
    label_rows,
    threshold_table,
)
from .dynamics import closure, closure_batch


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


class _Piece:
    """One piece of the merge algorithm: a subset of A with its closure, as
    masks.  ``reach`` is the closure and ``near`` the projected closure
    ``proj``, each grown by one step."""

    __slots__ = ("cells", "closed", "proj", "near", "rect", "reach")

    def __init__(self, spec: StructureSpec, cells: np.ndarray):
        self.cells = cells
        self.closed = closure_batch(spec, cells[None])[0]
        self.proj = self.closed.any(axis=tuple(range(spec.d, self.closed.ndim)))
        self.near = _dilate(self.proj)
        self.reach = _dilate(self.closed)
        self.rect = _rectangle(label_boxes(self.proj[None].view(np.int8))[0])


def span_main_algorithm(spec: StructureSpec, cells: CellSet, *,
                        exhaustive: bool = False) -> SpanResult:
    """Compute <A> by merging pieces.

    Starts from singletons and repeatedly (a) merges two pieces whose
    projected closures touch, else (b) merges a minimal-size subset of
    pieces whose joint closure strictly exceeds the union of their
    closures.  The output rectangles equal span_direct's; the creation log
    records every piece rectangle ever formed.

    ``exhaustive=True`` disables the interaction-proximity pruning in (b).
    """
    check_shape(spec, cells.shape)
    # Singletons in canonical (flat) order.
    flat_ids = np.arange(cells.mask.size).reshape(cells.shape)
    pieces = [_Piece(spec, flat_ids == v) for v in np.flatnonzero(cells.mask)]
    log: list[Rectangle] = [p.rect for p in pieces]

    def union(indices: tuple[int, ...]) -> np.ndarray:
        return np.logical_or.reduce([pieces[i].cells for i in indices])

    def merge(indices: tuple[int, ...]) -> None:
        new = _Piece(spec, union(indices))
        for i in sorted(indices, reverse=True):
            del pieces[i]
        pieces.append(new)
        log.append(new.rect)

    while len(pieces) > 1:
        action = None
        # Operation (a): merge two pieces with touching projected closures.
        for i, j in itertools.combinations(range(len(pieces)), 2):
            if (pieces[i].near & pieces[j].proj).any():
                action = (i, j)
                break
        if action is None:
            # Operation (b): minimal t-subset whose joint closure grows.
            max_t = min(spec.r + spec.ell, len(pieces))
            for t in range(2, max_t + 1):
                for subset in itertools.combinations(range(len(pieces)), t):
                    if not exhaustive and not any(
                        (pieces[i].reach & pieces[j].reach).any()
                        for i, j in itertools.combinations(subset, 2)
                    ):
                        continue
                    joint = closure(spec, CellSet.from_mask(union(subset)))
                    if len(joint) > sum(pieces[i].closed.sum() for i in subset):
                        action = subset
                        break
                if action is not None:
                    break
        if action is None:
            break
        merge(action)

    return SpanResult(tuple(p.rect for p in pieces), tuple(log))


def internally_spans(spec: StructureSpec, rect: Rectangle, cells: CellSet) -> bool:
    """True iff A's cells inside R alone span R, i.e. R is in <A cap R>."""
    check_shape(spec, cells.shape)
    inside = cells.mask & rect.cells(spec).mask
    return rect in map(_rectangle, span_boxes_batch(spec, inside[None]))


def find_spanned_rectangle(spec: StructureSpec, cells: CellSet, length: int) -> Rectangle | None:
    """A rectangle internally spanned by A with length <= long <= 2*length,
    taken from the merge algorithm's creation log; None if none was created.
    """
    if check_number(length, "target length", numbers.Integral) < 1:
        raise DomainError("target length must be >= 1")
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
    if check_number(length, "target length", numbers.Integral) < 1:
        raise DomainError("target length must be >= 1")
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
