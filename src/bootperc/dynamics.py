"""Closure computation and the percolation / crossing / gap predicates.

Two engines compute every closure, both from a ``(V,)`` threshold table of
the V cells of a grid and an optional region of each row, the cells that
may join.  The engine is chosen in one place (``_closed_planes``) by the
number of rows B of a block of initial sets ``(B, *shape)`` and by V:

- A block of B > 1 rows of at most ``_PLANE_VERTICES`` cells goes to the
  plane engine ``_close_planes`` (multi-spin coding): trial t is bit t % 64
  of word t // 64, so a ``(V, W)`` uint64 array holds 64 * W trials, and a
  round shifts the planes along each axis and updates every cell of every
  trial at once.
- One grid (B = 1: ``closure``, ``closure_uniform``, the per-trial events),
  or a row of a larger grid, goes to the frontier engine ``_close``.  It
  keeps per-vertex counts of infected neighbours; every vertex enters the
  frontier at most once, and a round adds only the frontier's neighbours to
  the counts and tests only the cells they touch, so the cost is per
  touched cell.

The fixed point is independent of update order, so each row of a block is
the closure of that row whichever engine runs.  ``block_rows`` sizes the
Monte Carlo blocks by the same rule: whole words of planes, and one trial a
block above ``_PLANE_VERTICES`` cells.  Each event is one ``*_batch``
predicate over the rows of a block, of which the per-trial event is the
form at B = 1.  It closes the block by ``_closed``, the one wrapper from a
structure to the engines, and reads the closed planes: AND-reduced over the
cells that must be infected, one bit per row.  The crossing events close
each row on one padded local grid: R plus a ghost layer, or plus a layer on
each side; crossing is then a flood fill, a closure with threshold 1 by
either engine.  Each event's input rule is one function here, which
``EventSpec`` calls too.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .rules import DomainError, check_flag, check_number
from .structures import (
    NEVER,
    STAR,
    SLAB,
    CellSet,
    Rectangle,
    StructureSpec,
    check_arity,
    check_cells,
    check_rectangle,
    check_shape,
    check_sides,
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

    def __post_init__(self) -> None:
        axis = check_number(self.axis, "crossing axis", numbers.Integral)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "reverse", check_flag(self.reverse, "crossing reverse"))

    _NAMES = {
        "left-to-right": (1, False),
        "right-to-left": (1, True),
        "bottom-to-top": (2, False),
        "top-to-bottom": (2, True),
    }

    @staticmethod
    def from_name(name: str) -> "CrossDirection":
        # An unhashable name is unknown too.
        if not (isinstance(name, str) and name in CrossDirection._NAMES):
            known = ", ".join(CrossDirection._NAMES)
            raise DomainError(f"unknown crossing direction {name!r}, not one of {known}")
        return CrossDirection(*CrossDirection._NAMES[name])


LEFT_TO_RIGHT = CrossDirection(1, False)
RIGHT_TO_LEFT = CrossDirection(1, True)
BOTTOM_TO_TOP = CrossDirection(2, False)
TOP_TO_BOTTOM = CrossDirection(2, True)


# A grid of fewer vertices adds each round's counts by a bincount of the
# frontier's neighbours: there np.unique's fixed cost per call is more than a
# bincount over the grid.
_SPARSE_MIN_VERTICES = 1 << 14

# A machine word of bit planes: bit t of word w is trial 64 * w + t.
_WORD = 64
_PLANE = np.dtype("<u8")
_ONES = np.uint64(np.iinfo(np.uint64).max)

# The plane engine closes blocks of grids of at most this many cells; a row
# of a larger grid goes to the frontier engine.  Per trial near p_c on 2
# cores, one block of 64 on planes against 16 grids by the frontier engine:
# plain(128, 2, 2) 1.6 against 7.6 ms, plain(181, 2, 2) 4.5 against 10.5 ms,
# plain(256, 2, 2) 22.5 against 17.5 ms.
_PLANE_VERTICES = 1 << 15

# Cells in one block of initial sets.  The plane engine packs a block's
# trials into the bits of 64-bit words and pays only on whole words, so a
# block holds 64 * W trials, W the most with B * |V| <= BLOCK_CELLS but at
# least 1: its masks take at most 2 MiB.  A grid too large for the plane
# engine takes one trial a block, which the frontier engine closes.
BLOCK_CELLS = 1 << 18


def block_rows(size: int) -> int:
    """The trials in one block of initial sets of ``size`` cells."""
    return _WORD * max(1, BLOCK_CELLS // (_WORD * size)) if size <= _PLANE_VERTICES else 1


def _close(thresholds: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The frontier closure engine: closes one C-contiguous bool grid in
    place and returns it.

    ``thresholds`` is a ``(V,)`` uint8 array of the grid's cells; a cell with
    threshold ``NEVER`` never joins, so it never counts either.  Each round
    adds the frontier's contribution to the infected-neighbour counts, the
    initial cells being the first frontier, and then tests only the cells it
    touched.  The neighbours come from the cached ``grid_tables``.  A small
    grid adds them by a bincount, a larger one at the cells they touch with
    ``np.unique``, so there the cost is per touched cell, not per vertex and
    round.
    """
    nbrs, size = grid_tables(grid.shape)
    flat = grid.reshape(-1)
    counts = np.zeros(size, dtype=np.uint8)
    small = size < _SPARSE_MIN_VERTICES
    frontier = flat.nonzero()[0]
    remaining = size - frontier.size
    while frontier.size and remaining:
        touched = nbrs[frontier]
        touched = touched[touched >= 0]
        if small:
            counts += np.bincount(touched, minlength=size).astype(np.uint8)
            # Cells at their threshold and not yet infected: for bools,
            # a > b is a & ~b in one step.
            frontier = ((counts >= thresholds) > flat).nonzero()[0]
        else:
            cells, hits = np.unique(touched, return_counts=True)
            counts[cells] += hits.astype(np.uint8)
            cells = cells[~flat[cells]]
            frontier = cells[counts[cells] >= thresholds[cells]]
        flat[frontier] = True
        remaining -= frontier.size
    return grid


def _pack(block: np.ndarray) -> np.ndarray:
    """The bit planes of a bool block ``(B, *shape)``: a ``(V, W)`` uint64
    array, W = ceil(B / 64), whose bit t % 64 of word t // 64 at cell v is
    cell v of row t.  The bits past B are 0."""
    rows, size = len(block), prod(block.shape[1:])
    if rows == 1:  # bit 0 of one word a cell, without the padded copy
        return block.reshape(size, 1).astype(_PLANE)
    cells = np.zeros((size, -(-rows // _WORD) * _WORD), dtype=bool)
    cells[:, :rows] = block.reshape(rows, size).T
    return np.packbits(cells, axis=1, bitorder="little").view(_PLANE)


def _unpack(planes: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The bool block ``shape = (B, *grid)`` of the bit planes ``(V, W)``."""
    bits = np.unpackbits(planes.view(np.uint8).T, axis=0, count=shape[0], bitorder="little")
    return bits.view(bool).reshape(shape)


def _rows(planes: np.ndarray, rows: int, reduce=np.bitwise_and) -> np.ndarray:
    """For each row t < ``rows``, whether bit t of the planes ``(..., W)`` is
    set at every cell, or at some cell with ``reduce=np.bitwise_or``."""
    words = reduce.reduce(planes.reshape(prod(planes.shape[:-1]), planes.shape[-1]), axis=0)
    return np.unpackbits(words.view(np.uint8), count=rows, bitorder="little").view(bool)


def _ones_on(cells: np.ndarray, words: int) -> np.ndarray:
    """The planes ``(V, words)`` of all ones on the bool cells ``(V,)`` and 0
    elsewhere.  Full planes, not broadcast ones: an operation that broadcasts
    a column over a few words costs about four times as much."""
    return np.repeat(np.where(cells, _ONES, np.uint64(0))[:, None], words, axis=1)


def _close_planes(x: np.ndarray, shape: tuple[int, ...], thresholds: np.ndarray,
                  region=None) -> np.ndarray:
    """The plane closure engine: closes the bit planes ``(V, W)`` of grids of
    ``shape`` in place under the ``(V,)`` threshold table, as ``_close`` does,
    and returns them.  With ``region``, planes ``(V, W)``, only the cells of
    a trial's region join.  A round works on all 64 * W trials at once.
    Along each axis it shifts the planes one step down and one step up,
    keeping the cells that have a neighbour on that side in ``grid_tables``;
    the two shifted planes give the cells with at least one and with two
    infected neighbours along the axis, and these update the running planes
    ``count[j]``: at least j + 1 infected neighbours along the axes so far.
    Then ``x |= count[t - 1] & M`` for each t up to the largest neighbour
    count (so not ``NEVER``), M the cells of threshold t in the region (None
    for all cells).  Rounds run four at a time until four change nothing.
    """
    nbrs, size = grid_tables(shape)
    # Per axis: the planes of the lower and the upper neighbour, each 0 where
    # there is none, with the views and neighbour masks that fill them.
    axes, step = [], size
    for ax, length in enumerate(shape):
        step //= length  # the flat distance between neighbours along ax
        if length > 1:
            low, high = np.zeros_like(x), np.zeros_like(x)
            masks = [_ones_on(nbrs[cells, col] >= 0, x.shape[1])
                     for cells, col in ((slice(step, None), 2 * ax), (slice(None, -step), 2 * ax + 1))]
            axes.append((low, high, ((x[:-step], masks[0], low[step:]),
                                     (x[step:], masks[1], high[:-step]))))
    joins = []
    for t in np.unique(thresholds):
        if t <= 2 * len(shape):
            cells = thresholds == t
            cells = None if cells.all() else _ones_on(cells, x.shape[1])
            if region is not None:
                cells = region if cells is None else np.bitwise_and(cells, region, out=cells)
            joins.append((int(t), cells))
    if not (joins and axes):
        return x
    # Axis 0 fills count[1] even when top = 1, so that no round tests top.
    top = max(t for t, _ in joins)
    count = [np.empty_like(x) for _ in range(max(2, top))]
    one, tmp, spare = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    while True:
        before = x.copy()
        for _ in range(4):
            for i, (low, high, shifts) in enumerate(axes):
                for source, mask, out in shifts:
                    np.bitwise_and(source, mask, out=out)
                # At least one and two neighbours along this axis; low is
                # free once read, and its unfilled cells stay 0.
                if i == 0:
                    np.bitwise_or(low, high, out=count[0])
                    np.bitwise_and(low, high, out=count[1])
                    for plane in count[2:]:
                        plane.fill(0)
                    continue
                np.bitwise_or(low, high, out=one)
                two = np.bitwise_and(low, high, out=low)
                for j in range(top - 1, 0, -1):
                    np.bitwise_and(count[j - 1], one, out=tmp)
                    tmp |= two if j == 1 else np.bitwise_and(count[j - 2], two, out=spare)
                    count[j] |= tmp
                count[0] |= one
            for t, cells in joins:
                x |= count[t - 1] if cells is None else np.bitwise_and(count[t - 1], cells, out=spare)
        if np.array_equal(x, before):
            return x


def _closed_planes(thresholds: np.ndarray, block: np.ndarray, region=None) -> np.ndarray:
    """The closure of every row of the C-contiguous bool block ``(B,
    *shape)`` under a threshold table and region as ``_close_planes`` takes
    them, as bit planes ``(V, W)``: the engine rule.  A block of several rows
    of at most ``_PLANE_VERTICES`` cells is packed and closed by
    ``_close_planes``, which pays only on whole words.  Any other block, one
    grid in particular, is closed in place row by row by ``_close`` and
    packed.
    """
    rows, shape = len(block), block.shape[1:]
    if rows > 1 and prod(shape) <= _PLANE_VERTICES:
        return _close_planes(_pack(block), shape, thresholds, region)
    regions = [None] * rows if region is None else _unpack(region, (rows, prod(shape)))
    for grid, inside in zip(block, regions):
        _close(thresholds if inside is None else np.where(inside, thresholds, NEVER), grid)
    return _pack(block)


def closure_uniform(box: Rectangle, cells, t: int) -> CellSet:
    """Closure under the uniform t-neighbor rule, restricted to ``box``.

    ``box`` may live in any dimension; ``cells`` is a CellSet or an iterable
    of absolute coordinates.  Each coordinate must be a sequence of integers
    of the box's arity; those outside the box are ignored, and the rest
    become a CellSet of the grid up to ``box.hi``.
    """
    t = check_number(t, "t", numbers.Integral, 1)
    if min(box.lo, default=1) < 1:
        raise DomainError("box coordinates must be >= 1")
    check_sides(box.hi)
    if not isinstance(cells, CellSet):
        arity = len(box.hi)
        cells = CellSet(box.hi, [c for c in check_cells(cells)
                                 if box.contains(check_arity(c, arity))])
    dims = box.dim
    if len(cells.shape) != len(dims):
        raise DomainError(f"cell set of shape {cells.shape} has wrong arity for the box")
    infected = np.zeros(dims, dtype=bool)
    window = cells.mask[box.slices]
    infected[tuple(map(slice, window.shape))] = window
    _close(np.full(prod(dims), min(t, NEVER), dtype=np.uint8), infected)
    out = CellSet(box.hi)
    out.mask[box.slices] = infected
    return out


def _closed(spec: StructureSpec, infected: np.ndarray, region=None) -> np.ndarray:
    """Closure of a C-contiguous block ``(B, *grid)`` of grids of spec of any
    horizontal extent and full thickness, the whole grid among them, as bit
    planes ``(*grid, W)``; ``infected`` is changed.  The engines take the
    grid's threshold table, ``NEVER`` outside ``region`` (a bool mask of one
    grid, default all): cells outside it must start uninfected."""
    thresholds, size = threshold_table(spec), prod(infected.shape[1:])
    # The table repeats one thickness column, so its cyclic extension holds
    # the thresholds of any grid of full thickness.
    if thresholds.size != size:
        thresholds = np.resize(thresholds, size)
    if region is not None:
        thresholds = np.where(np.ravel(region), thresholds, NEVER)
    return _closed_planes(thresholds, infected).reshape(infected.shape[1:] + (-1,))


def closure_batch(spec: StructureSpec, masks: np.ndarray) -> np.ndarray:
    """Closures of a block of initial sets: ``masks`` has shape
    ``(B, *spec.shape)`` and row i of the result is the closure of row i.
    ``masks`` is not changed.
    """
    check_shape(spec, masks.shape[1:])
    block = np.array(masks, dtype=bool, order="C")
    if len(block) == 1:
        # One grid goes to the frontier engine, as in _closed_planes, but
        # with no planes to pack and unpack: they cost the merge algorithm,
        # which closes thousands of small grids, some 8% of its time.
        _close(threshold_table(spec), block[0])
        return block
    return _unpack(_closed_planes(threshold_table(spec), block), block.shape)


def closure(spec: StructureSpec, cells: CellSet) -> CellSet:
    """The closure [A], the least fixed point of the rule: ``closure_batch`` at B = 1."""
    return CellSet.from_mask(closure_batch(spec, cells.mask[None])[0])


def percolates_batch(spec: StructureSpec, masks: np.ndarray) -> np.ndarray:
    """``percolates`` on every row of a block of initial sets of shape
    ``(B, *spec.shape)``, as a bool array of length B."""
    check_shape(spec, masks.shape[1:])
    return _rows(_closed(spec, np.array(masks, dtype=bool, order="C")), len(masks))


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
    check_shape(spec, masks.shape[1:])
    closed = _closed(spec, np.array(masks, dtype=bool, order="C"))
    return _rows(closed[(...,) + (0,) * spec.ell + (slice(None),)], len(masks))


def semi_percolates(spec: StructureSpec, cells: CellSet) -> bool:
    """True iff the closure contains every vertex of minimal threshold r."""
    return bool(semi_percolates_batch(spec, cells.mask[None])[0])


def check_crossing(spec: StructureSpec, rect: Rectangle, direction: CrossDirection) -> None:
    """The crossing rule: a slab with d = 2, R in bounds and the axis in 1..d."""
    if spec.family != SLAB or spec.d != 2:
        raise DomainError("crossing is defined for slab structures with d = 2")
    check_rectangle(spec, rect)
    check_number(direction.axis, "crossing axis", numbers.Integral, 1, spec.d)


def check_semi_crossing(spec: StructureSpec, rect: Rectangle, axis: int) -> int:
    """The semi-crossing rule: the star rule, R in bounds and an integer axis
    in 1..d; returns the axis as an int."""
    check_semi_percolation(spec)
    check_rectangle(spec, rect)
    return check_number(axis, "semi-crossing axis", numbers.Integral, 1, spec.d)


def crossed_batch(spec: StructureSpec, rect: Rectangle, masks: np.ndarray,
                  direction: CrossDirection = LEFT_TO_RIGHT) -> np.ndarray:
    """``is_crossed`` on every row of a block of initial sets of shape
    ``(B, *spec.shape)``, as a bool array of length B.

    The local grid is R plus the ghost layer, kept infected through
    closure.  The ghost layer is a box, so it lies in one nearest-neighbour
    component of the closure; as the cells of R next to it form the entry
    face, that component holds exactly the components of the closure within
    R that touch the entry face.  It is found by a flood fill from the ghost
    layer, ``reach |= shift(reach) & closed`` until it stops changing: a
    closure with threshold 1 and each row's closure as its region.  So R is
    crossed iff ``reach`` meets the exit layer.
    """
    check_shape(spec, masks.shape[1:])
    check_crossing(spec, rect, direction)
    ax = direction.axis - 1
    ghost, exit_ = (-1, 0) if direction.reverse else (0, -1)
    pad = [(0, 0)] * masks.ndim
    pad[ax + 1] = (0, 1) if direction.reverse else (1, 0)
    infected = np.pad(masks[(slice(None),) + rect.slices], pad, constant_values=True)
    closed = _closed(spec, infected)
    layer, grid = (slice(None),) * (ax + 1), infected.shape[1:]
    reach = np.zeros_like(infected)
    reach[layer + (ghost,)] = True
    reached = _closed_planes(np.ones(prod(grid), dtype=np.uint8), reach,
                             closed.reshape(prod(grid), -1))
    return _rows(reached.reshape(closed.shape)[layer[1:] + (exit_,)], len(masks), np.bitwise_or)


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
    the region (threshold ``NEVER``), so it is never infected.
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
    closed = _closed(spec, window & region, region)
    return _rows(closed[inner + (slice(None),)], len(masks))


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
    for axis in range(1, ndim + 1) if axes is None else check_arity(axes, name="axis list"):
        ax = check_number(axis, "axis", numbers.Integral, 1, ndim) - 1
        occ = cells.mask.any(axis=tuple(i for i in range(ndim) if i != ax))
        padded = np.concatenate(([False], occ, [False]))
        if bool((~padded[:-1] & ~padded[1:]).any()):
            return True
    return False
