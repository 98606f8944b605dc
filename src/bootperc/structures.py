"""Lattice bootstrap structures: coordinates, thresholds, adjacency, geometry, labelling.

Each rule on inputs is written once here: ``check_number`` for numbers and
the only cast of an integer input (a bool, float or string is refused),
``check_sides`` for a grid shape, ``check_coord`` for coordinates (with
``check_arity`` its part short of bounds), ``check_shape`` for a cell set's
membership in a grid and ``check_rectangle`` for a rectangle of a structure.

The lattice is [n]^d x [k]^ell with 1-based coordinates.  The first d axes
are "horizontal", the trailing ell axes are "thickness".  Three families are
supported:

* plain -- [n]^d, every vertex has threshold r (ell = 0).
* star  -- [n]^d x [2]^ell, threshold r on the layer with all thickness
  coordinates equal to 1, threshold r + ell everywhere else.
* slab  -- [n]^d x [k]^ell, threshold r plus one for every thickness
  coordinate strictly between 1 and k.
"""

from __future__ import annotations

import json
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterable, Iterator, Sequence

import numpy as np

Coord = tuple[int, ...]

PLAIN = "plain"
STAR = "star"
SLAB = "slab"


# Largest vertex count a structure may have.  Its flat neighbour table
# (grid_tables) takes 16 * (d + ell) bytes per vertex, 64 MiB * (d + ell) at
# this cap.
MAX_VERTICES = 1 << 22


class DomainError(ValueError):
    """Invalid argument: out-of-bounds coordinate, bad parameter, etc."""


def check_number(value, name: str, kind=numbers.Real):
    """The number rule: a ``kind`` that is not a bool, so JSON's true and "1"
    are refused.  Returns the value, an integer as a Python int."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a number"
        raise DomainError(f"{name} must be {noun}, not {value!r}")
    return operator.index(value) if kind is numbers.Integral else value


def check_sides(sides: Sequence[int]) -> tuple[int, ...]:
    """The rule for a grid shape: a sequence of integer sides, each >= 0.
    Returns it as a tuple of ints."""
    try:
        sides = tuple(check_number(side, "grid side", numbers.Integral) for side in sides)
    except TypeError as exc:
        raise DomainError(f"grid shape {sides!r} is not a sequence of sides") from exc
    if min(sides, default=0) < 0:
        raise DomainError(f"grid shape {sides} has a negative side")
    return sides


def check_arity(v: Sequence[int], arity: int | None = None) -> Coord:
    """The coordinate rule short of bounds: ``v`` is a sequence of integers,
    ``arity`` of them unless that is None.  Returns it as a tuple of ints."""
    try:
        v = tuple(check_number(x, "coordinate entry", numbers.Integral) for x in v)
    except TypeError as exc:
        raise DomainError(f"coordinate {v!r} is not a sequence of integers") from exc
    if arity is not None and len(v) != arity:
        raise DomainError(f"coordinate {v} has arity {len(v)}, not {arity}")
    return v


def check_coord(shape: tuple[int, ...], v: Sequence[int]) -> Coord:
    """The coordinate rule: ``v`` is a sequence of integers, one for each
    axis of the grid ``shape`` (``check_arity``), each in 1..its side.
    Returns it as a tuple."""
    v = check_arity(v, len(shape))
    for x, side in zip(v, shape):
        if not 1 <= x <= side:
            raise DomainError(f"coordinate {v} out of bounds for the grid {shape}")
    return v


def check_shape(grid, shape: tuple[int, ...]) -> None:
    """The membership rule: a cell set of ``shape``, or each row of a block
    of them, belongs to ``grid``, a StructureSpec or a grid shape."""
    want = grid.shape if isinstance(grid, StructureSpec) else tuple(grid)
    if shape != want:
        raise DomainError(f"cell set of shape {shape} does not belong to the grid of shape {want}")


@dataclass(frozen=True)
class StructureSpec:
    """Which bootstrap structure to run on, and its dimensions.

    ``k`` is the thickness side length: 1 for plain (no thickness axes),
    2 for star, >= 2 for slab.
    """

    family: str
    n: int
    d: int
    r: int
    ell: int = 0
    k: int = 1

    def __post_init__(self) -> None:
        if self.family not in (PLAIN, STAR, SLAB):
            raise DomainError(f"unknown family {self.family!r}")
        for name in ("n", "d", "r", "ell", "k"):
            value = check_number(getattr(self, name), name, numbers.Integral)
            object.__setattr__(self, name, value)
        if self.n < 1 or self.d < 1 or self.r < 1 or self.ell < 0:
            raise DomainError("n, d, r must be >= 1 and ell >= 0")
        if self.family == PLAIN and (self.ell != 0 or self.k != 1):
            raise DomainError("plain structures have no thickness axes")
        if self.family == STAR and self.k != 2:
            raise DomainError("star structures have thickness side 2")
        if self.family == SLAB and self.k < 2:
            raise DomainError("slab structures need k >= 2")
        # Exponents capped at 64 keep the count cheap for a huge d or ell;
        # any side >= 2 raised to 64 already exceeds the cap.
        if self.n ** min(self.d, 64) * self.k ** min(self.ell, 64) > MAX_VERTICES:
            raise DomainError(f"structure has more than {MAX_VERTICES} vertices")

    @staticmethod
    def plain(n: int, d: int, r: int) -> "StructureSpec":
        return StructureSpec(PLAIN, n, d, r)

    @staticmethod
    def star(n: int, d: int, ell: int, r: int) -> "StructureSpec":
        return StructureSpec(STAR, n, d, r, ell, 2)

    @staticmethod
    def slab(n: int, d: int, ell: int, k: int, r: int) -> "StructureSpec":
        return StructureSpec(SLAB, n, d, r, ell, k)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d + (self.k,) * self.ell

    @property
    def num_vertices(self) -> int:
        return prod(self.shape)

    def validate_coord(self, v: Sequence[int]) -> Coord:
        return check_coord(self.shape, v)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "d": self.d,
            "ell": self.ell,
            "k": self.k,
            "r": self.r,
        }

    @staticmethod
    def from_json(obj: dict) -> "StructureSpec":
        try:
            family = obj["family"]
            n, d, r = obj["n"], obj["d"], obj["r"]
            ell, k = obj.get("ell", 0), obj.get("k", {PLAIN: 1, STAR: 2}.get(family, 0))
        except (KeyError, TypeError) as exc:
            raise DomainError(f"bad structure JSON: {exc}") from exc
        return StructureSpec(family, n, d, r, ell, k)

    def dumps(self) -> str:
        return json.dumps(self.to_json())


class CellSet:
    """A set of lattice vertices, stored as a dense boolean grid.

    Membership and insertion are O(1); iteration is in canonical
    axis-lexicographic order (horizontal axes first, then thickness).
    """

    __slots__ = ("shape", "mask")

    def __init__(self, shape: Sequence[int], cells: Iterable[Sequence[int]] = ()):
        self.shape = check_sides(shape)
        self.mask = np.zeros(self.shape, dtype=bool)
        for c in cells:
            self.add(c)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "CellSet":
        out = cls.__new__(cls)
        out.shape = mask.shape
        out.mask = mask.astype(bool, copy=False)
        return out

    @classmethod
    def full(cls, shape: Sequence[int]) -> "CellSet":
        return cls.from_mask(np.ones(check_sides(shape), dtype=bool))

    def _index(self, coord: Sequence[int]) -> tuple[int, ...]:
        return tuple(x - 1 for x in check_coord(self.shape, coord))

    def add(self, coord: Sequence[int]) -> None:
        self.mask[self._index(coord)] = True

    def __contains__(self, coord: Sequence[int]) -> bool:
        try:
            idx = self._index(coord)
        except DomainError:
            return False
        return bool(self.mask[idx])

    def __iter__(self) -> Iterator[Coord]:
        # np.argwhere scans in C order, which is exactly the canonical order.
        for row in np.argwhere(self.mask) + 1:
            yield tuple(row.tolist())

    def __len__(self) -> int:
        return int(self.mask.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellSet):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.mask, other.mask))

    def __repr__(self) -> str:
        return f"CellSet(shape={self.shape}, n={len(self)})"

    def copy(self) -> "CellSet":
        return CellSet.from_mask(self.mask.copy())

    def coords(self) -> list[Coord]:
        return list(self)

    def to_json(self) -> list[list[int]]:
        return [list(c) for c in self]

    @staticmethod
    def from_json(shape: Sequence[int], obj: Iterable[Sequence[int]]) -> "CellSet":
        return CellSet(shape, obj)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned box [lo, hi] (inclusive) in the horizontal coordinates.

    As a vertex set a rectangle always spans the full thickness [k]^ell of
    the owning structure.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", check_arity(self.lo))
        object.__setattr__(self, "hi", check_arity(self.hi, len(self.lo)))
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise DomainError(f"rectangle [{self.lo}, {self.hi}] has lo > hi")

    @property
    def dim(self) -> tuple[int, ...]:
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    @property
    def slices(self) -> tuple[slice, ...]:
        """The rectangle's 0-based index slices of the horizontal axes."""
        return tuple(slice(a - 1, b) for a, b in zip(self.lo, self.hi))

    @property
    def phi(self) -> int:
        """Semi-perimeter: the sum of the side lengths."""
        return sum(self.dim)

    @property
    def long(self) -> int:
        return max(self.dim)

    @property
    def short(self) -> int:
        return min(self.dim)

    def contains(self, prefix: Sequence[int]) -> bool:
        return all(a <= x <= b for x, a, b in zip(prefix, self.lo, self.hi))

    def cells(self, spec: StructureSpec) -> CellSet:
        """The rectangle as a vertex set of spec, full thickness."""
        check_rectangle(spec, self)
        mask = np.zeros(spec.shape, dtype=bool)
        mask[self.slices] = True
        return CellSet.from_mask(mask)

    def to_json(self) -> list[list[int]]:
        return [list(self.lo), list(self.hi)]

    @staticmethod
    def from_json(obj: Sequence[Sequence[int]]) -> "Rectangle":
        if len(obj) != 2:
            raise DomainError("rectangle JSON must be [lo, hi]")
        return Rectangle(obj[0], obj[1])


def check_rectangle(spec: StructureSpec, rect: Rectangle) -> None:
    """The rule for a rectangle R of spec: its corners lo and hi are cells of [n]^d."""
    try:
        for corner in (rect.lo, rect.hi):
            check_coord(spec.shape[:spec.d], corner)
    except DomainError as exc:
        raise DomainError(f"rectangle {rect.to_json()}: {exc}") from None


def bounding_rectangle(cells: Iterable[Sequence[int]]) -> Rectangle:
    pts = [tuple(c) for c in cells]
    if not pts:
        raise DomainError("bounding rectangle of the empty set is undefined")
    pts = [check_arity(c, len(pts[0])) for c in pts]
    return Rectangle(tuple(map(min, zip(*pts))), tuple(map(max, zip(*pts))))


def threshold(spec: StructureSpec, v: Sequence[int]) -> int:
    """Infection threshold of vertex v under spec's family rules."""
    v = spec.validate_coord(v)
    column = column_thresholds(spec).reshape((spec.k,) * spec.ell)
    return int(column[tuple(b - 1 for b in v[spec.d:])])


def neighbors(spec: StructureSpec, v: Sequence[int]) -> list[Coord]:
    """In-bounds nearest neighbors of v, in canonical order."""
    v = spec.validate_coord(v)
    out: list[Coord] = []
    for axis, bound in enumerate(spec.shape):
        for delta in (-1, 1):
            x = v[axis] + delta
            if 1 <= x <= bound:
                out.append(v[:axis] + (x,) + v[axis + 1:])
    return out


def projection(spec: StructureSpec, cells: CellSet) -> CellSet:
    """Horizontal shadow: distinct d-prefixes of the members of cells."""
    check_shape(spec, cells.shape)
    return CellSet.from_mask(cells.mask.any(axis=tuple(range(spec.d, spec.d + spec.ell))))


def components(spec_or_shape, cells: CellSet) -> list[CellSet]:
    """Nearest-neighbor connected components, ordered by least member."""
    check_shape(spec_or_shape, cells.shape)
    labels, count = label_rows(cells.mask[None])
    return [CellSet.from_mask(labels[0] == lab) for lab in range(1, count + 1)]


def diameter(spec_or_shape, cells: CellSet) -> int:
    """Max over components of the longest side of the bounding box (0 if empty).

    For a connected set this equals the maximum pairwise L-infinity
    distance plus one.
    """
    check_shape(spec_or_shape, cells.shape)
    labels, _ = label_rows(cells.mask[None])
    return max((max(s.stop - s.start for s in box[1:]) for box in label_boxes(labels)),
               default=0)


def label_rows(block: np.ndarray) -> tuple[np.ndarray, int]:
    """``ndimage.label`` of every row of a bool block ``(B, *shape)`` at once:
    nearest-neighbour components within each row, never across rows.
    Labels run in scan order, so they are ordered by least member and each
    row's labels follow the previous row's.  The only labelling in bootperc.
    """
    from scipy import ndimage

    structure = np.zeros((3,) * block.ndim, dtype=bool)
    structure[1] = ndimage.generate_binary_structure(block.ndim - 1, 1)
    return ndimage.label(block, structure)


def label_boxes(labels: np.ndarray) -> list[tuple[slice, ...]]:
    """The 0-based bounding box of each label of ``labels``, in label order,
    as ``ndimage.find_objects`` gives it.  A bool mask viewed as int8 is
    one label, whose box is the mask's.  An empty array has no labels.
    """
    from scipy import ndimage

    return ndimage.find_objects(labels) if labels.size else []


@lru_cache(maxsize=64)
def grid_tables(shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Flat neighbor table for a grid of the given shape.

    Returns (nbrs, V) where nbrs is a (V, 2*ndim) int array of flat neighbor
    indices, padded with -1, rows in canonical order.
    """
    ndim = len(shape)
    size = prod(shape)
    flat = np.arange(size)
    coords = np.array(np.unravel_index(flat, shape))  # (ndim, V), 0-based
    nbrs = np.full((size, 2 * ndim), -1, dtype=np.int64)
    col = 0
    for axis in range(ndim):
        for delta in (-1, 1):
            shifted = coords.copy()
            shifted[axis] += delta
            ok = (shifted[axis] >= 0) & (shifted[axis] < shape[axis])
            idx = np.ravel_multi_index(shifted[:, ok], shape)
            nbrs[ok, col] = idx
            col += 1
    return nbrs, size


@lru_cache(maxsize=64)
def column_thresholds(spec: StructureSpec) -> np.ndarray:
    """Thresholds of one thickness column, in canonical order of the k**ell
    thickness coordinates: the only place the family rule is written.

    The threshold is r plus an extra that depends only on the thickness
    coordinates: ell off the base layer for star, one per interior
    coordinate for slab, nothing for plain (whose single column has none).
    """
    thick = np.indices((spec.k,) * spec.ell).reshape(spec.ell, spec.k ** spec.ell) + 1
    if spec.family == STAR:
        extra = np.where((thick == 1).all(axis=0), 0, spec.ell)
    else:
        extra = ((thick != 1) & (thick != spec.k)).sum(axis=0)
    column = (spec.r + extra).astype(np.int64)
    column.flags.writeable = False
    return column


@lru_cache(maxsize=64)
def threshold_table(spec: StructureSpec) -> np.ndarray:
    """Per-vertex thresholds of spec as a flat int array in canonical order."""
    return np.tile(column_thresholds(spec), spec.n ** spec.d)
