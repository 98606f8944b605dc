"""Lattice bootstrap structures: coordinates, thresholds, adjacency, geometry, labelling.

Each rule on inputs is written once here: ``check_number`` for numbers (a
bool, NaN or string is refused), the only cast of an integer input (a float
is refused too) and the range rule (a closed [lo, hi], each bound optional),
``check_probability`` for a probability (a number in [0, 1]), ``check_flag``
for a flag, ``check_sides`` for a grid shape (integer sides >= 0 within the
structure budget: at most ``MAX_AXES`` axes and ``MAX_VERTICES`` cells),
``check_coord`` for coordinates (with ``check_arity`` its part short of
bounds, also the rule for a list of axes), ``check_cells`` for a cell list,
``check_shape`` for a cell set's membership in a grid, ``check_rectangle``
for a rectangle of a structure and ``check_object`` for a JSON object, its
required fields and the keys it may hold (the only reader of them: a
structure, an event, a sweep config and its grid entries, and a grid file);
``shown`` quotes a refused number in a message.  Each type refuses its own
malformed input with a DomainError: ``CellSet`` a cell list that is not
iterable (``check_cells``), ``Rectangle.from_json`` anything but a
``[lo, hi]`` pair, and ``StructureSpec`` a structure of more than
``MAX_VERTICES`` vertices or ``MAX_AXES`` axes.

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
# Most axes d + ell a structure may have: label_rows labels a block of its
# rows with a structuring element of 3**(d + ell + 1) cells, held to the same
# budget (12 axes).
MAX_AXES = next(a for a in range(64) if 3 ** (a + 2) > MAX_VERTICES)
# A threshold that no neighbour count reaches: a grid has at most MAX_AXES
# axes, so a cell has at most 2 * MAX_AXES = 24 neighbours.  Counts and
# thresholds are uint8.
NEVER = 255


class DomainError(ValueError):
    """Invalid argument: out-of-bounds coordinate, bad parameter, etc."""


def check_number(value, name: str, kind=numbers.Real, lo=None, hi=None):
    """The number rule: a ``kind`` that is not a bool or NaN, so JSON's true,
    "1" and a NaN are refused, in the closed range [lo, hi], each bound
    checked only when given.  Returns the value, an integer as a Python int
    and a numpy float as a Python float.  A strict bound (alpha in (0, 1),
    z > 0) is no closed range, and ``check_coord`` and ``check_sides`` refuse
    a coordinate or shape whole, so those stay with their callers.  The
    bounds default to None, not infinities, since an int compares with a
    float several times slower."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, kind) or value != value:
            noun = "an integer" if kind is numbers.Integral else "a number"
            raise DomainError(f"{name} must be {noun}, not {value!r}")
        if kind is numbers.Integral or isinstance(value, np.integer):
            value = operator.index(value)
        elif isinstance(value, np.floating):
            value = float(value)  # a float32 would cast a float64 bound and overflow
    if lo is not None and value < lo or hi is not None and value > hi:
        low = "(-inf" if lo is None else f"[{shown(lo)}"
        high = "inf)" if hi is None else f"{shown(hi)}]"
        raise DomainError(f"{name} = {shown(value)} outside {low}, {high}")
    return value


def check_probability(value, name: str) -> float:
    """The probability rule: a number (``check_number``) in [0, 1].  Returns it as a float."""
    return float(check_number(value, name, lo=0, hi=1))


def check_flag(value, name: str) -> bool:
    """The flag rule: a bool, so 0, None and "no" are refused.  Returns it as a bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise DomainError(f"{name} must be true or false, not {value!r}")
    return bool(value)


def shown(value) -> str:
    """``value`` as an error message quotes it.  An integer past Python's
    limit on ``str(int)`` (4300 digits), alone or in a tuple or list, is
    quoted by its bit length instead.  Call it only on the error path."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, (tuple, list)):
            inner = ", ".join(map(shown, value))
            return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"
        return f"{'-' if value < 0 else ''}<integer of {abs(value).bit_length()} bits>"


def check_object(obj, what: str, *names: str, optional: tuple[str, ...] = ()) -> list:
    """The JSON-object rule: ``obj`` is a dict that holds each of ``names``
    and no key but those and ``optional``.  ``what`` names the reader in
    the message.  Returns the values of ``names`` in order."""
    if not isinstance(obj, dict):
        raise DomainError(f"{what} must be a JSON object, not {type(obj).__name__}")
    for key in obj:
        if key not in names and key not in optional:
            raise DomainError(f"{what} has an unknown key {key!r}")
    for name in names:
        if name not in obj:
            raise DomainError(f"{what} has no {name!r}")
    return [obj[name] for name in names]


def check_sides(sides: Sequence[int]) -> tuple[int, ...]:
    """The rule for a grid shape: a sequence of integer sides, each >= 0,
    within the structure budget: at most MAX_AXES axes and MAX_VERTICES
    cells, a zero side counting as 1.  Returns it as a tuple of ints."""
    try:
        sides = tuple(check_number(side, "grid side", numbers.Integral) for side in sides)
    except TypeError as exc:
        raise DomainError(f"grid shape {sides!r} is not a sequence of sides") from exc
    if min(sides, default=0) < 0:
        raise DomainError(f"grid shape {shown(sides)} has a negative side")
    if len(sides) > MAX_AXES:
        raise DomainError(f"grid shape {shown(sides)} has more than {MAX_AXES} axes")
    if prod(max(side, 1) for side in sides) > MAX_VERTICES:
        raise DomainError(f"grid shape {shown(sides)} has more than {MAX_VERTICES} cells")
    return sides


def check_arity(v: Sequence[int], arity: int | None = None, name: str = "coordinate") -> Coord:
    """The coordinate rule short of bounds: ``v`` is a sequence of integers,
    ``arity`` of them unless that is None.  Returns it as a tuple of ints."""
    try:
        v = tuple(check_number(x, f"{name} entry", numbers.Integral) for x in v)
    except TypeError as exc:
        raise DomainError(f"{name} {v!r} is not a sequence of integers") from exc
    if arity is not None and len(v) != arity:
        raise DomainError(f"{name} {shown(v)} has arity {len(v)}, not {arity}")
    return v


def check_cells(cells: Iterable[Sequence[int]]) -> Iterator:
    """The cell-list rule: ``cells`` can be iterated.  Returns an iterator over it."""
    try:
        return iter(cells)
    except TypeError as exc:
        raise DomainError(f"cell list {cells!r} is not a sequence of cells") from exc


def check_coord(shape: tuple[int, ...], v: Sequence[int]) -> Coord:
    """The coordinate rule: ``v`` is a sequence of integers, one for each
    axis of the grid ``shape`` (``check_arity``), each in 1..its side.
    Returns it as a tuple."""
    v = check_arity(v, len(shape))
    for x, side in zip(v, shape):
        if not 1 <= x <= side:
            raise DomainError(f"coordinate {shown(v)} out of bounds for the grid {shape}")
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
        for name, lo in (("n", 1), ("d", 1), ("r", 1), ("ell", 0), ("k", None)):
            value = check_number(getattr(self, name), name, numbers.Integral, lo)
            object.__setattr__(self, name, value)
        if self.family == PLAIN and (self.ell != 0 or self.k != 1):
            raise DomainError("plain structures have no thickness axes")
        if self.family == STAR and self.k != 2:
            raise DomainError("star structures have thickness side 2")
        if self.family == SLAB and self.k < 2:
            raise DomainError("slab structures need k >= 2")
        if self.d + self.ell > MAX_AXES:
            raise DomainError(f"structure has more than {MAX_AXES} axes")
        if self.n ** self.d * self.k ** self.ell > MAX_VERTICES:
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
        family, n, d, r = check_object(obj, "structure JSON", "family", "n", "d", "r",
                                       optional=("ell", "k"))
        k = 1 if family == PLAIN else 2 if family == STAR else 0
        return StructureSpec(family, n, d, r, obj.get("ell", 0), obj.get("k", k))

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
        for c in check_cells(cells):
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
            raise DomainError(f"rectangle [{shown(self.lo)}, {shown(self.hi)}] has lo > hi")

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
        try:
            lo, hi = obj
        except (TypeError, ValueError) as exc:
            raise DomainError("rectangle JSON must be [lo, hi]") from exc
        return Rectangle(lo, hi)


def check_rectangle(spec: StructureSpec, rect: Rectangle) -> None:
    """The rule for a rectangle R of spec: its corners lo and hi are cells of [n]^d."""
    try:
        for corner in (rect.lo, rect.hi):
            check_coord(spec.shape[:spec.d], corner)
    except DomainError as exc:
        raise DomainError(f"rectangle {shown(rect.to_json())}: {exc}") from None


def bounding_rectangle(cells: Iterable[Sequence[int]]) -> Rectangle:
    pts = [check_arity(c) for c in check_cells(cells)]
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

    Returns (nbrs, V) where nbrs is a read-only (V, 2*ndim) int array of flat
    neighbor indices, rows in canonical order: column 2*axis holds the
    neighbor one step down along axis and column 2*axis + 1 the one up, -1
    where there is none.  Built from shifted slices of the flat indices.
    """
    size = prod(shape)
    index = np.arange(size).reshape(shape)
    nbrs = np.full(shape + (2 * len(shape),), -1, dtype=np.int64)
    for axis in range(len(shape)):
        low = (slice(None),) * axis + (slice(None, -1),)
        high = (slice(None),) * axis + (slice(1, None),)
        nbrs[high + (..., 2 * axis)] = index[low]
        nbrs[low + (..., 2 * axis + 1)] = index[high]
    nbrs = nbrs.reshape(size, 2 * len(shape))
    nbrs.flags.writeable = False
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
    """Per-vertex thresholds of spec as the closure engine's flat read-only
    uint8 array in canonical order, capped at NEVER."""
    column = np.minimum(column_thresholds(spec), NEVER).astype(np.uint8)
    table = np.tile(column, spec.n ** spec.d)
    table.flags.writeable = False
    return table
