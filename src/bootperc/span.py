"""The span <A>, the merge-based span algorithm on masks, and witness finders."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .structures import (
    CellSet,
    DomainError,
    Rectangle,
    StructureSpec,
    grid_tables,
    projection,
    threshold_table,
)
from .dynamics import closure


@dataclass(frozen=True)
class SpanResult:
    """Rectangles of the span, plus (for the merge algorithm) every
    rectangle created along the way, in order of creation."""

    rectangles: tuple[Rectangle, ...]
    creation_log: tuple[Rectangle, ...] = ()


def _rectangle(box: tuple[slice, ...]) -> Rectangle:
    """The 1-based inclusive rectangle of a 0-based ``find_objects`` box."""
    return Rectangle(tuple(s.start + 1 for s in box), tuple(s.stop for s in box))


def _span_rectangles(spec: StructureSpec, cells: CellSet) -> list[Rectangle]:
    """Bounding rectangles of the components of the projected closure, in
    label order, which is the order of each component's least member."""
    labels, _ = ndimage.label(projection(spec, closure(spec, cells)).mask)
    return [_rectangle(box) for box in ndimage.find_objects(labels)]


def span_direct(spec: StructureSpec, cells: CellSet) -> SpanResult:
    """<A>: bounding rectangles of the components of the projected closure."""
    return SpanResult(tuple(_span_rectangles(spec, cells)))


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
        closed = closure(spec, CellSet.from_mask(cells))
        self.closed = closed.mask
        self.proj = projection(spec, closed).mask
        self.near = _dilate(self.proj)
        self.reach = _dilate(self.closed)
        self.rect = _rectangle(ndimage.find_objects(self.proj.view(np.int8))[0])


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
    inside = CellSet.from_mask(cells.mask & rect.cells(spec).mask)
    return rect in _span_rectangles(spec, inside)


def find_spanned_rectangle(spec: StructureSpec, cells: CellSet, length: int) -> Rectangle | None:
    """A rectangle internally spanned by A with length <= long <= 2*length,
    taken from the merge algorithm's creation log; None if none was created.
    """
    if length < 1:
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
    cell in canonical order) and returns the first qualifying component of
    the infected set; None if the diameter never reaches ``length``.
    """
    if length < 1:
        raise DomainError("target length must be >= 1")
    if cells.shape != spec.shape:
        raise DomainError("cell set does not belong to this structure")

    nbrs, size = grid_tables(spec.shape)
    thresholds = threshold_table(spec)
    infected = cells.mask.ravel().copy()
    counts = np.zeros(size, dtype=np.int64)
    seeds = np.flatnonzero(infected)
    if seeds.size:
        touched = nbrs[seeds].ravel()
        counts += np.bincount(touched[touched >= 0], minlength=size)

    def witness() -> CellSet | None:
        # Components in least-member order; a component's diameter is the
        # longest side of its bounding box.
        labels, _ = ndimage.label(infected.reshape(spec.shape))
        for lab, box in enumerate(ndimage.find_objects(labels), start=1):
            if length <= max(s.stop - s.start for s in box) <= 2 * length:
                comp = labels == lab
                filled = closure(spec, CellSet.from_mask(cells.mask & comp))
                if not (comp & ~filled.mask).any():
                    return CellSet.from_mask(comp)
        return None

    found = witness()
    while found is None:
        eligible = np.flatnonzero(~infected & (counts >= thresholds))
        if not eligible.size:
            return None
        v = int(eligible[0])  # least cell in canonical (flat) order
        infected[v] = True
        touched = nbrs[v]
        touched = touched[touched >= 0]
        counts[touched] += 1
        found = witness()
    return found
