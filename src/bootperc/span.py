"""The span <A>, the merge-based span algorithm, and witness finders."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .structures import (
    CellSet,
    Coord,
    DomainError,
    Rectangle,
    StructureSpec,
    bounding_rectangle,
    grid_tables,
    neighbors,
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


def _span_rectangles(spec: StructureSpec, cells: CellSet) -> list[Rectangle]:
    """Bounding rectangles of the components of the projected closure, in
    label order, which is the order of each component's least member."""
    labels, _ = ndimage.label(projection(spec, closure(spec, cells)).mask)
    return [Rectangle(tuple(s.start + 1 for s in box), tuple(s.stop for s in box))
            for box in ndimage.find_objects(labels)]


def span_direct(spec: StructureSpec, cells: CellSet) -> SpanResult:
    """<A>: bounding rectangles of the components of the projected closure."""
    return SpanResult(tuple(_span_rectangles(spec, cells)))


class _Piece:
    """One piece of the merge algorithm: a subset of A with its closure."""

    __slots__ = ("cells", "closed", "proj", "rect", "reach")

    def __init__(self, spec: StructureSpec, cells: frozenset[Coord]):
        self.cells = cells
        self.closed = frozenset(closure(spec, CellSet(spec.shape, cells)))
        self.proj = frozenset(c[:spec.d] for c in self.closed)
        self.rect = bounding_rectangle(self.proj)
        # Closure dilated by one step, for the interaction-pruning test.
        reach = set(self.closed)
        for c in self.closed:
            reach.update(neighbors(spec, c))
        self.reach = frozenset(reach)


def _touching(spec: StructureSpec, a: _Piece, b: _Piece) -> bool:
    """True iff the union of the two projected closures is connected."""
    small, big = (a, b) if len(a.proj) <= len(b.proj) else (b, a)
    for c in small.proj:
        if c in big.proj:
            return True
        for ax in range(spec.d):
            for delta in (-1, 1):
                if c[:ax] + (c[ax] + delta,) + c[ax + 1:] in big.proj:
                    return True
    return False


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
    pieces: list[_Piece] = [_Piece(spec, frozenset([c])) for c in cells]
    log: list[Rectangle] = [p.rect for p in pieces]

    def merge(indices: tuple[int, ...]) -> None:
        merged_cells = frozenset().union(*(pieces[i].cells for i in indices))
        new = _Piece(spec, merged_cells)
        for i in sorted(indices, reverse=True):
            del pieces[i]
        pieces.append(new)
        log.append(new.rect)

    while len(pieces) > 1:
        action = None
        # Operation (a): merge two pieces with touching projected closures.
        for i, j in itertools.combinations(range(len(pieces)), 2):
            if _touching(spec, pieces[i], pieces[j]):
                action = (i, j)
                break
        if action is None:
            # Operation (b): minimal t-subset whose joint closure grows.
            max_t = min(spec.r + spec.ell, len(pieces))
            for t in range(2, max_t + 1):
                for subset in itertools.combinations(range(len(pieces)), t):
                    if not exhaustive and not any(
                        pieces[i].reach & pieces[j].reach
                        for i, j in itertools.combinations(subset, 2)
                    ):
                        continue
                    union_cells = frozenset().union(*(pieces[i].cells for i in subset))
                    joint = closure(spec, CellSet(spec.shape, union_cells))
                    if len(joint) > sum(len(pieces[i].closed) for i in subset):
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
