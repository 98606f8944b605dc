"""Closure computation and the percolation / crossing / gap predicates.

The closure is computed with per-vertex infected-neighbor counters and a
frontier queue.  Every vertex enters the frontier at most once, but every
round also runs an O(|V|) bincount and threshold test, so the total work is
O(|V| * rounds).  The fixed point is independent of update order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np
from scipy import ndimage

from .structures import (
    STAR,
    SLAB,
    CellSet,
    DomainError,
    Rectangle,
    StructureSpec,
    column_thresholds,
    grid_tables,
    threshold_table,
)


@dataclass(frozen=True)
class CrossDirection:
    """A crossing direction: horizontal axis (1-based) plus orientation.

    ``reverse=False`` crosses from the low face to the high face
    (left-to-right along axis 1, bottom-to-top along axis 2);
    ``reverse=True`` is the opposite orientation.
    """

    axis: int = 1
    reverse: bool = False

    _NAMES = {
        "left-to-right": (1, False),
        "right-to-left": (1, True),
        "bottom-to-top": (2, False),
        "top-to-bottom": (2, True),
    }

    @staticmethod
    def from_name(name: str) -> "CrossDirection":
        try:
            axis, reverse = CrossDirection._NAMES[name]
        except KeyError:
            raise DomainError(f"unknown crossing direction {name!r}") from None
        return CrossDirection(axis, reverse)


LEFT_TO_RIGHT = CrossDirection(1, False)
RIGHT_TO_LEFT = CrossDirection(1, True)
BOTTOM_TO_TOP = CrossDirection(2, False)
TOP_TO_BOTTOM = CrossDirection(2, True)


def _closure_flat(nbrs: np.ndarray, thresholds: np.ndarray, infected: np.ndarray) -> np.ndarray:
    """Counter/frontier closure on a flat grid; mutates and returns infected.

    Each round costs O(|V|) for its bincount and threshold test, so the
    total work is O(|V| * rounds).
    """
    size = infected.size
    counts = np.zeros(size, dtype=np.int64)
    frontier = np.flatnonzero(infected)
    remaining = size - frontier.size
    while frontier.size and remaining:
        touched = nbrs[frontier].ravel()
        touched = touched[touched >= 0]
        counts += np.bincount(touched, minlength=size)
        newly = np.flatnonzero(~infected & (counts >= thresholds))
        infected[newly] = True
        remaining -= newly.size
        frontier = newly
    return infected


def closure(spec: StructureSpec, cells: CellSet) -> CellSet:
    """The closure [A]: the least fixed point of the infection rule."""
    if cells.shape != spec.shape:
        raise DomainError("cell set does not belong to this structure")
    nbrs, _ = grid_tables(spec.shape)
    infected = _closure_flat(nbrs, threshold_table(spec), cells.mask.ravel().copy())
    return CellSet.from_mask(infected.reshape(spec.shape))


def closure_uniform(box: Rectangle, cells, t: int) -> CellSet:
    """Closure under the uniform t-neighbor rule, restricted to ``box``.

    ``box`` may live in any dimension; ``cells`` is a CellSet or an iterable
    of absolute coordinates, of which only those inside the box are used.
    """
    if t < 1:
        raise DomainError("uniform threshold must be >= 1")
    if min(box.lo) < 1:
        raise DomainError("box coordinates must be >= 1")
    dims = box.dim
    nbrs, size = grid_tables(dims)
    infected = np.zeros(size, dtype=bool)
    for c in cells:
        c = tuple(int(x) for x in c)
        if len(c) != len(dims):
            raise DomainError(f"coordinate {c} has wrong arity for the box")
        if box.contains(c):
            local = tuple(x - a for x, a in zip(c, box.lo))
            infected[np.ravel_multi_index(local, dims)] = True
    infected = _closure_flat(nbrs, np.full(size, t, dtype=np.int64), infected)
    out = CellSet(box.hi)
    out.mask[tuple(slice(a - 1, b) for a, b in zip(box.lo, box.hi))] = infected.reshape(dims)
    return out


def percolates(spec: StructureSpec, cells: CellSet) -> bool:
    """True iff the closure is the full vertex set."""
    return bool(closure(spec, cells).mask.all())


def _base_layer_index(spec: StructureSpec) -> tuple:
    return (slice(None),) * spec.d + (0,) * spec.ell


def semi_percolates(spec: StructureSpec, cells: CellSet) -> bool:
    """True iff the closure contains every vertex of minimal threshold r."""
    if spec.family != STAR:
        raise DomainError("semi-percolation is defined for star structures")
    closed = closure(spec, cells)
    return bool(closed.mask[_base_layer_index(spec)].all())


def _check_event_inputs(spec: StructureSpec, rect: Rectangle, cells: CellSet) -> None:
    """Shared input check of the crossing events: cells belong to spec and
    R has arity d with 1 <= lo <= hi <= n."""
    if cells.shape != spec.shape:
        raise DomainError("cell set does not belong to this structure")
    if len(rect.lo) != spec.d:
        raise DomainError("rectangle arity does not match structure")
    if not (all(a >= 1 for a in rect.lo) and all(b <= spec.n for b in rect.hi)):
        raise DomainError("rectangle out of bounds")


def _local_closure(spec: StructureSpec, infected: np.ndarray,
                   region: np.ndarray | None = None) -> np.ndarray:
    """Closure on a local grid of spec: any horizontal extent, full thickness.

    With ``region`` (a bool mask of the same shape) adjacency is restricted
    to it: cells outside never become infected and so never count.
    """
    shape = infected.shape
    thresholds = np.tile(column_thresholds(spec), prod(shape[:spec.d]))
    infected = infected.ravel()
    if region is not None:
        thresholds = np.where(region.ravel(), thresholds, np.iinfo(np.int64).max)
        infected = infected & region.ravel()
    nbrs, _ = grid_tables(shape)
    return _closure_flat(nbrs, thresholds, infected).reshape(shape)


def is_crossed(spec: StructureSpec, rect: Rectangle, cells: CellSet,
               direction: CrossDirection = LEFT_TO_RIGHT) -> bool:
    """Crossing event H(R): with a fully infected ghost plane on the entry
    side, the closure restricted to R contains a path from entry to exit face.
    """
    if spec.family != SLAB:
        raise DomainError("crossing is defined for slab structures")
    if spec.d != 2:
        raise DomainError("crossing requires d = 2")
    _check_event_inputs(spec, rect, cells)
    ax = direction.axis - 1
    if not 0 <= ax < spec.d:
        raise DomainError("crossing axis out of range")

    # Local grid: R plus one ghost layer along the entry side of the axis.
    dims = list(rect.dim) + [spec.k] * spec.ell
    dims[ax] += 1
    shape = tuple(dims)
    ghost_local = 0 if not direction.reverse else shape[ax] - 1
    entry_local = 1 if not direction.reverse else shape[ax] - 2
    exit_local = shape[ax] - 1 if not direction.reverse else 0
    if rect.dim[ax] == 1:
        entry_local = exit_local

    def axis_layer(i: int) -> tuple:
        return (slice(None),) * ax + (i,) + (slice(None),) * (len(shape) - ax - 1)

    infected = np.zeros(shape, dtype=bool)
    src = tuple(slice(a - 1, a - 1 + s) for a, s in zip(rect.lo, rect.dim)) \
        + (slice(None),) * spec.ell
    dest = list(slice(None, s) for s in shape)
    dest[ax] = slice(1, None) if not direction.reverse else slice(None, -1)
    infected[tuple(dest)] = cells.mask[src]
    infected[axis_layer(ghost_local)] = True

    closed = _local_closure(spec, infected)
    closed[axis_layer(ghost_local)] = False
    labels, _ = ndimage.label(closed)
    entry_labels = np.unique(labels[axis_layer(entry_local)])
    exit_labels = np.unique(labels[axis_layer(exit_local)])
    hit = np.intersect1d(entry_labels, exit_labels)
    return bool((hit > 0).any())


def is_semi_crossed(spec: StructureSpec, rect: Rectangle, cells: CellSet,
                    axis: int = 1) -> bool:
    """Semi-crossing of R in direction ``axis`` (1-based) by A.

    Builds A_t^R = (A cap (R u R_t^+)) u R_t^-, closes restricted to
    R u R_t^+ u R_t^-, and checks that every threshold-r vertex of R is
    infected.  Fringes falling outside [n]^d are treated as absent.
    """
    if spec.family != STAR:
        raise DomainError("semi-crossing is defined for star structures")
    _check_event_inputs(spec, rect, cells)
    ax = axis - 1
    if not 0 <= ax < spec.d:
        raise DomainError("semi-crossing axis out of range")

    lo, hi = list(rect.lo), list(rect.hi)
    glo, ghi = lo.copy(), hi.copy()  # R plus the fringes that lie in [n]^d
    glo[ax] = max(lo[ax] - 1, 1)
    ghi[ax] = min(hi[ax] + 1, spec.n)
    shape = tuple(b - a + 1 for a, b in zip(glo, ghi)) + (spec.k,) * spec.ell

    def absolute_block(alo: Sequence[int], ahi: Sequence[int], top_only: bool) -> tuple:
        sl = tuple(slice(a - g, h - g + 1) for a, h, g in zip(alo, ahi, glo))
        sl += ((0,) if top_only else (slice(None),)) * spec.ell
        return sl

    def fringe(at: int) -> np.ndarray:
        """Base layer of R's slice at ``at`` along the axis; empty outside [n]."""
        mask = np.zeros(shape, dtype=bool)
        if 1 <= at <= spec.n:
            flo, fhi = lo.copy(), hi.copy()
            flo[ax] = fhi[ax] = at
            mask[absolute_block(flo, fhi, top_only=True)] = True
        return mask

    region = np.zeros(shape, dtype=bool)
    region[absolute_block(lo, hi, top_only=False)] = True
    fringe_minus, fringe_plus = fringe(lo[ax] - 1), fringe(hi[ax] + 1)

    src = tuple(slice(a - 1, b) for a, b in zip(glo, ghi)) + (slice(None),) * spec.ell
    infected = (cells.mask[src] & (region | fringe_plus)) | fringe_minus
    closed = _local_closure(spec, infected, region | fringe_plus | fringe_minus)
    return bool(closed[absolute_block(lo, hi, top_only=True)].all())


def has_double_gap(dims: Sequence[int], cells, axes: Iterable[int] | None = None) -> bool:
    """True iff some axis in ``axes`` (1-based; default all) has two adjacent
    empty slabs, where out-of-range slabs count as empty (so an empty face
    qualifies).
    """
    dims = tuple(int(s) for s in dims)
    if isinstance(cells, CellSet):
        if cells.shape != dims:
            raise DomainError("cell set does not match the box")
        mask = cells.mask
    else:
        mask = CellSet(dims, cells).mask
    axes = range(1, len(dims) + 1) if axes is None else axes
    for axis in axes:
        ax = axis - 1
        if not 0 <= ax < len(dims):
            raise DomainError(f"axis {axis} out of range for box {dims}")
        occ = mask.any(axis=tuple(i for i in range(len(dims)) if i != ax))
        padded = np.concatenate(([False], occ, [False]))
        if bool((~padded[:-1] & ~padded[1:]).any()):
            return True
    return False
