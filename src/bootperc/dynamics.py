"""Closure computation and the percolation / crossing / gap predicates.

One engine, ``_close``, computes every closure: of one grid (``closure``,
``closure_uniform``), of a block of initial sets of shape ``(B, *shape)``
(``closure_batch``) and of the local grids of the crossing events.  It keeps
per-vertex counts of infected neighbours.  Every vertex enters the frontier
at most once, and a round adds only the frontier's neighbours to the counts
and tests only the cells they touch, so the cost is per touched cell.
Blocks under 2**14 vertices, and rounds whose frontier is wide, take dense
passes over the block instead: a bincount, or shifted sums of the
frontier's mask.  The fixed point is independent of update order, so each
row of a block is the closure of that row.

Each event is one ``*_batch`` predicate over the rows of a block, of which the
per-trial event is the form at B = 1.  The crossing events close each row on
one padded local grid: R plus a ghost layer, or plus a layer on each side.
Each event's input rule is one function here, which ``EventSpec`` calls too.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .structures import (
    STAR,
    SLAB,
    CellSet,
    DomainError,
    Rectangle,
    StructureSpec,
    check_arity,
    check_number,
    check_rectangle,
    check_shape,
    column_thresholds,
    grid_tables,
    label_rows,
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

    def __post_init__(self) -> None:
        axis = check_number(self.axis, "crossing axis", numbers.Integral)
        object.__setattr__(self, "axis", axis)
        if not isinstance(self.reverse, (bool, np.bool_)):
            raise DomainError(f"crossing reverse must be true or false, not {self.reverse!r}")
        object.__setattr__(self, "reverse", bool(self.reverse))

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


# A threshold that no neighbour count reaches: a vertex has at most 2 * 64
# neighbours, since numpy arrays have at most 64 axes.  Counts and
# thresholds are uint8.
_NEVER = 255

# Blocks of fewer vertices add each round's counts by a bincount of the
# frontier's neighbours: there np.unique's fixed cost per call is more than a
# bincount over the block.
_SPARSE_MIN_VERTICES = 1 << 14
# On a larger block, a round whose frontier may touch more than
# 1/_DENSE_SHARE of the block adds shifted sums of the frontier's mask.
_DENSE_SHARE = 8
# Shifted sums slice the block along an axis when the slices are made of
# runs of at least this many cells, and shift whole rows otherwise.
_MIN_RUN = 16


def _thresholds(values) -> np.ndarray:
    """Per-vertex thresholds as the engine's uint8 array, capped at _NEVER."""
    return np.minimum(values, _NEVER).astype(np.uint8)


@lru_cache(maxsize=64)
def _spec_thresholds(spec: StructureSpec) -> np.ndarray:
    """``threshold_table(spec)`` in the engine's form."""
    return _thresholds(threshold_table(spec))


def _add_neighbours(counts: np.ndarray, mask: np.ndarray, nbrs: np.ndarray) -> None:
    """Adds to each cell of the uint8 block ``counts`` its number of
    neighbours in the bool block ``mask``, both of shape ``(B, *shape)``,
    by shifted sums along each axis of ``shape``."""
    rows, shape = len(mask), mask.shape[1:]
    size = prod(shape)
    row_counts, row_mask = counts.reshape(rows, size), mask.reshape(rows, size)
    step = size
    for ax, length in enumerate(shape):
        step //= length  # the flat distance between neighbours along ax
        if length == 1:
            continue
        if (length - 1) * step >= _MIN_RUN or size - step < _MIN_RUN:
            low = (slice(None),) * (ax + 1) + (slice(None, -1),)
            high = (slice(None),) * (ax + 1) + (slice(1, None),)
            counts[high] += mask[low]
            counts[low] += mask[high]
        else:
            # Short runs, as on a thickness axis: shift whole rows and keep
            # the cells that have a neighbour on that side.
            row_counts[:, step:] += row_mask[:, :-step] & (nbrs[step:, 2 * ax] >= 0)
            row_counts[:, :-step] += row_mask[:, step:] & (nbrs[:-step, 2 * ax + 1] >= 0)


def _close(thresholds: np.ndarray, infected: np.ndarray) -> np.ndarray:
    """The frontier closure engine: closes a C-contiguous bool block
    ``infected`` of shape ``(B, *shape)`` in place and returns it.

    ``thresholds`` is a ``(V,)`` uint8 array for one grid of ``shape``,
    shared by every row; a cell with threshold ``_NEVER`` never joins, so it
    never counts either.  Each round adds the frontier's contribution to the
    infected-neighbour counts, the initial cells being the first frontier,
    and then tests only the cells it touched.  The neighbours come from the
    cached ``grid_tables`` with a row offset of ``row * V``.  A small block
    adds them by a bincount; on a larger block, a narrow frontier adds them
    at the cells it touches with ``np.unique`` and a wide one adds shifted
    sums of its mask.  So the cost is per touched cell, not per vertex and
    round, except on small blocks.
    """
    rows, shape = len(infected), infected.shape[1:]
    nbrs, size = grid_tables(shape)
    flat = infected.reshape(-1)
    counts = np.zeros(flat.size, dtype=np.uint8)
    # Views that broadcast the thresholds over the rows; 1-D for one row.
    grid, flat_grid = (counts, flat) if rows == 1 else (counts.reshape(rows, size),
                                                        flat.reshape(rows, size))
    small = flat.size < _SPARSE_MIN_VERTICES
    frontier = flat.nonzero()[0]
    remaining = flat.size - frontier.size
    while frontier.size and remaining:
        if not small and frontier.size * nbrs.shape[1] * _DENSE_SHARE > flat.size:
            mask = np.zeros(flat.size, dtype=bool)
            mask[frontier] = True
            _add_neighbours(counts.reshape(infected.shape), mask.reshape(infected.shape), nbrs)
            # Cells at their threshold and not yet infected: for bools,
            # a > b is a & ~b in one step.
            frontier = ((grid >= thresholds) > flat_grid).ravel().nonzero()[0]
        else:
            vertex = frontier % size if rows > 1 else frontier
            nb = nbrs[vertex]
            valid = nb >= 0
            if rows > 1:
                nb += (frontier - vertex)[:, None]
            touched = nb[valid]
            if small:
                counts += np.bincount(touched, minlength=flat.size).astype(np.uint8)
                frontier = ((grid >= thresholds) > flat_grid).ravel().nonzero()[0]
            else:
                cells, hits = np.unique(touched, return_counts=True)
                counts[cells] += hits.astype(np.uint8)
                cells = cells[~flat[cells]]
                frontier = cells[counts[cells] >= thresholds[cells % size]]
        flat[frontier] = True
        remaining -= frontier.size
    return infected


def closure_uniform(box: Rectangle, cells, t: int) -> CellSet:
    """Closure under the uniform t-neighbor rule, restricted to ``box``.

    ``box`` may live in any dimension; ``cells`` is a CellSet or an iterable
    of absolute coordinates.  Each coordinate must be a sequence of integers
    of the box's arity; those outside the box are ignored, and the rest
    become a CellSet of the grid up to ``box.hi``.
    """
    check_number(t, "t", numbers.Integral)
    if t < 1:
        raise DomainError("uniform threshold must be >= 1")
    if min(box.lo) < 1:
        raise DomainError("box coordinates must be >= 1")
    if not isinstance(cells, CellSet):
        arity = len(box.hi)
        cells = CellSet(box.hi, [c for c in cells if box.contains(check_arity(c, arity))])
    dims = box.dim
    if len(cells.shape) != len(dims):
        raise DomainError(f"cell set of shape {cells.shape} has wrong arity for the box")
    infected = np.zeros((1,) + dims, dtype=bool)
    window = cells.mask[box.slices]
    infected[(0,) + tuple(map(slice, window.shape))] = window
    _close(np.full(prod(dims), min(t, _NEVER), dtype=np.uint8), infected)
    out = CellSet(box.hi)
    out.mask[box.slices] = infected[0]
    return out


def closure_batch(spec: StructureSpec, masks: np.ndarray) -> np.ndarray:
    """Closures of a block of initial sets: ``masks`` has shape
    ``(B, *spec.shape)`` and row i of the result is the closure of row i.
    ``masks`` is not changed.
    """
    check_shape(spec, masks.shape[1:])
    return _close(_spec_thresholds(spec), np.array(masks, dtype=bool, order="C"))


def closure(spec: StructureSpec, cells: CellSet) -> CellSet:
    """The closure [A], the least fixed point of the rule: ``closure_batch`` at B = 1."""
    return CellSet.from_mask(closure_batch(spec, cells.mask[None])[0])


def percolates_batch(spec: StructureSpec, masks: np.ndarray) -> np.ndarray:
    """``percolates`` on every row of a block of initial sets of shape
    ``(B, *spec.shape)``, as a bool array of length B."""
    closed = closure_batch(spec, masks)
    return closed.all(axis=tuple(range(1, closed.ndim)))


def percolates(spec: StructureSpec, cells: CellSet) -> bool:
    """True iff the closure is the full vertex set."""
    return bool(percolates_batch(spec, cells.mask[None])[0])


def check_semi_percolation(spec: StructureSpec) -> None:
    """The star rule of semi-percolation and semi-crossing."""
    if spec.family != STAR:
        raise DomainError("semi-percolation and semi-crossing are defined for star structures")


def semi_percolates_batch(spec: StructureSpec, masks: np.ndarray) -> np.ndarray:
    """``semi_percolates`` on every row of a block of initial sets of shape
    ``(B, *spec.shape)``; the vertices of threshold r are the base layer."""
    check_semi_percolation(spec)
    base = closure_batch(spec, masks)[(...,) + (0,) * spec.ell]
    return base.all(axis=tuple(range(1, base.ndim)))


def semi_percolates(spec: StructureSpec, cells: CellSet) -> bool:
    """True iff the closure contains every vertex of minimal threshold r."""
    return bool(semi_percolates_batch(spec, cells.mask[None])[0])


def check_crossing(spec: StructureSpec, rect: Rectangle, direction: CrossDirection) -> None:
    """The crossing rule: a slab with d = 2, R in bounds and the axis in 1..d."""
    if spec.family != SLAB or spec.d != 2:
        raise DomainError("crossing is defined for slab structures with d = 2")
    check_rectangle(spec, rect)
    if not 1 <= direction.axis <= spec.d:
        raise DomainError(f"crossing axis {direction.axis} out of range 1..{spec.d}")


def check_semi_crossing(spec: StructureSpec, rect: Rectangle, axis: int) -> int:
    """The semi-crossing rule: the star rule, R in bounds and an integer axis
    in 1..d; returns the axis as an int."""
    check_semi_percolation(spec)
    check_rectangle(spec, rect)
    axis = check_number(axis, "semi-crossing axis", numbers.Integral)
    if not 1 <= axis <= spec.d:
        raise DomainError(f"semi-crossing axis {axis} out of range 1..{spec.d}")
    return axis


def _local_closure(spec: StructureSpec, infected: np.ndarray, region=True) -> np.ndarray:
    """Closure of a block of local grids of spec, of any horizontal extent
    and full thickness, in place.  Only cells of ``region`` (a bool mask of
    one grid, default all) join: cells outside must start uninfected.
    """
    thresholds = np.tile(column_thresholds(spec), prod(infected.shape[1:spec.d + 1]))
    return _close(_thresholds(np.where(np.ravel(region), thresholds, _NEVER)), infected)


def crossed_batch(spec: StructureSpec, rect: Rectangle, masks: np.ndarray,
                  direction: CrossDirection = LEFT_TO_RIGHT) -> np.ndarray:
    """``is_crossed`` on every row of a block of initial sets of shape
    ``(B, *spec.shape)``, as a bool array of length B.

    The local grid is R plus the ghost layer, kept infected through closure
    and labelling.  The ghost layer is a box, so it lies in one component;
    as the cells of R next to it form the entry face, that component holds
    exactly the components of the closure within R that touch the entry
    face.  So R is crossed iff its label is on the exit layer.  The first
    cell of a row's local grid, or its last when reversed, is a ghost cell,
    and no label spans two rows.
    """
    check_shape(spec, masks.shape[1:])
    check_crossing(spec, rect, direction)
    ax = direction.axis - 1
    ghost, exit_ = (-1, 0) if direction.reverse else (0, -1)
    pad = [(0, 0)] * masks.ndim
    pad[ax + 1] = (0, 1) if direction.reverse else (1, 0)
    infected = np.pad(masks[(slice(None),) + rect.slices], pad, constant_values=True)
    labels, _ = label_rows(_local_closure(spec, infected))
    exits = labels[(slice(None),) * (ax + 1) + (exit_,)]
    ghosts = labels[(slice(None),) + (ghost,) * (labels.ndim - 1)]
    crossed = exits == ghosts.reshape(ghosts.shape + (1,) * (exits.ndim - 1))
    return crossed.any(axis=tuple(range(1, crossed.ndim)))


def is_crossed(spec: StructureSpec, rect: Rectangle, cells: CellSet,
               direction: CrossDirection = LEFT_TO_RIGHT) -> bool:
    """Crossing event H(R): with a fully infected ghost plane on the entry
    side, the closure restricted to R contains a path from entry to exit face.
    """
    return bool(crossed_batch(spec, rect, cells.mask[None], direction)[0])


def semi_crossed_batch(spec: StructureSpec, rect: Rectangle, masks: np.ndarray,
                       axis: int = 1) -> np.ndarray:
    """``is_semi_crossed`` on every row of a block of initial sets of shape
    ``(B, *spec.shape)``, as a bool array of length B.

    The local grid is R plus one layer on each side along the axis, whose
    base layers are R_t^- and R_t^+.  A fringe outside [n]^d stays outside
    the region (threshold ``_NEVER``), so it is never infected.
    """
    check_shape(spec, masks.shape[1:])
    ax = check_semi_crossing(spec, rect, axis) - 1
    # A on the local grid: indices that wrap at a face of [n]^d fall outside the region.
    around = rect.slices[:ax] + (slice(None),) + rect.slices[ax + 1:]
    window = np.take(masks[(slice(None),) + around], range(rect.lo[ax] - 2, rect.hi[ax] + 1),
                     axis=ax + 1, mode="wrap")
    # The base layers of the local grid's slices 0, 1..-2 and -1 along the axis.
    minus, inner, plus = ((..., i) + (slice(None),) * (spec.d - 1 - ax) + (0,) * spec.ell
                          for i in (0, slice(1, -1), -1))
    region = np.zeros(window.shape[1:], dtype=bool)
    region[(slice(None),) * ax + (slice(1, -1),)] = True
    region[minus], region[plus] = rect.lo[ax] > 1, rect.hi[ax] < spec.n
    window[minus] = True
    closed = _local_closure(spec, window & region, region)[inner]
    return closed.all(axis=tuple(range(1, closed.ndim)))


def is_semi_crossed(spec: StructureSpec, rect: Rectangle, cells: CellSet,
                    axis: int = 1) -> bool:
    """Semi-crossing of R in direction ``axis`` (1-based) by A.

    Builds A_t^R = (A cap (R u R_t^+)) u R_t^-, closes restricted to
    R u R_t^+ u R_t^-, and checks that every threshold-r vertex of R is
    infected.  Fringes falling outside [n]^d are treated as absent.
    """
    return bool(semi_crossed_batch(spec, rect, cells.mask[None], axis)[0])


def has_double_gap(dims: Sequence[int], cells, axes: Iterable[int] | None = None) -> bool:
    """True iff some axis in ``axes`` (1-based; default all) has two adjacent
    empty slabs, where out-of-range slabs count as empty (so an empty face
    qualifies).
    """
    if not isinstance(cells, CellSet):
        cells = CellSet(dims, cells)
    check_shape(dims, cells.shape)
    ndim = len(cells.shape)
    for axis in range(1, ndim + 1) if axes is None else axes:
        ax = check_number(axis, "axis", numbers.Integral) - 1
        if not 0 <= ax < ndim:
            raise DomainError(f"axis {axis} out of range for box {cells.shape}")
        occ = cells.mask.any(axis=tuple(i for i in range(ndim) if i != ax))
        padded = np.concatenate(([False], occ, [False]))
        if bool((~padded[:-1] & ~padded[1:]).any()):
            return True
    return False
