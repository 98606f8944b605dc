import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bootperc.structures import (
    CellSet,
    DomainError,
    Rectangle,
    StructureSpec,
    neighbors,
    threshold,
)
from bootperc.dynamics import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    BOTTOM_TO_TOP,
    TOP_TO_BOTTOM,
    CrossDirection,
    closure,
    closure_batch,
    closure_uniform,
    crossed_batch,
    has_double_gap,
    is_crossed,
    is_semi_crossed,
    percolates,
    percolates_batch,
    semi_crossed_batch,
    semi_percolates,
    semi_percolates_batch,
)


def naive_closure(spec, cells):
    """Round-based reference closure: recompute every vertex each round."""
    infected = set(cells)
    everything = list(CellSet.full(spec.shape))
    changed = True
    while changed:
        changed = False
        for v in everything:
            if v in infected:
                continue
            if sum(w in infected for w in neighbors(spec, v)) >= threshold(spec, v):
                infected.add(v)
                changed = True
    return CellSet(spec.shape, infected)


SPECS = [
    StructureSpec.plain(5, 2, 2),
    StructureSpec.plain(3, 3, 3),
    StructureSpec.star(4, 2, 1, 2),
    StructureSpec.star(3, 2, 2, 2),
    StructureSpec.slab(4, 2, 1, 3, 2),
    StructureSpec.slab(3, 2, 2, 4, 2),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family + str(s.shape))
def test_closure_matches_naive_oracle(spec):
    rng = np.random.default_rng(2024)
    for _ in range(30):
        p = rng.uniform(0.05, 0.5)
        mask = rng.random(spec.shape) < p
        cells = CellSet.from_mask(mask)
        assert closure(spec, cells) == naive_closure(spec, cells)


def test_closure_trivial_cases():
    spec = StructureSpec.plain(4, 2, 2)
    assert closure(spec, CellSet(spec.shape)) == CellSet(spec.shape)
    assert closure(spec, CellSet.full(spec.shape)) == CellSet.full(spec.shape)


def test_diagonal_percolates_in_two_dimensions():
    for n in (3, 5, 8):
        spec = StructureSpec.plain(n, 2, 2)
        diag = CellSet(spec.shape, [(i, i) for i in range(1, n + 1)])
        assert percolates(spec, diag)


def test_sub_diagonal_does_not_percolate():
    spec = StructureSpec.plain(5, 2, 2)
    diag = CellSet(spec.shape, [(i, i) for i in range(1, 5)])  # misses (5,5)
    assert not percolates(spec, diag)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                max_size=15),
       st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                max_size=5))
def test_closure_monotone_and_idempotent(coords, extra):
    spec = StructureSpec.plain(5, 2, 2)
    a = CellSet(spec.shape, coords)
    closed = closure(spec, a)
    # A is contained in [A], and [[A]] = [A].
    assert not (a.mask & ~closed.mask).any()
    assert closure(spec, closed) == closed
    # Monotone: adding cells never removes anything from the closure.
    b = CellSet(spec.shape, coords + extra)
    bigger = closure(spec, b)
    assert not (closed.mask & ~bigger.mask).any()


def test_closure_uniform_against_plain():
    spec = StructureSpec.plain(5, 2, 2)
    rng = np.random.default_rng(7)
    box = Rectangle((1, 1), (5, 5))
    for _ in range(20):
        cells = CellSet.from_mask(rng.random(spec.shape) < 0.3)
        assert closure_uniform(box, cells, 2) == closure(spec, cells)
    # Offset box: only in-box cells participate.
    sub = Rectangle((2, 2), (4, 4))
    cells = CellSet(spec.shape, [(2, 2), (3, 3), (4, 4), (1, 1)])
    out = closure_uniform(sub, cells, 2)
    assert (2, 2) in out and (4, 4) in out and (1, 1) not in out
    # Well-formed cells outside the box, even outside [n]^d, are ignored.
    assert closure_uniform(sub, [(9, 9), (0, 3), *cells], 2) == out
    with pytest.raises(DomainError):
        closure_uniform(box, cells, 0)
    with pytest.raises(DomainError):
        closure_uniform(Rectangle((0, 1), (3, 3)), cells, 2)
    # A box of no axes is the grid of one vertex, as for CellSet(()).
    for t in (1, 2):
        assert closure_uniform(Rectangle((), ()), [], t) == CellSet(())
        assert closure_uniform(Rectangle((), ()), [()], t) == CellSet((), [()])


def test_closure_uniform_refuses_non_integer_cells():
    # (1.7, 2.9) used to be truncated to the cell (1, 2).
    box = Rectangle((1, 1), (5, 5))
    with pytest.raises(DomainError):
        closure_uniform(box, [(1.7, 2.9)], 2)
    with pytest.raises(DomainError):
        closure_uniform(box, CellSet((5, 5, 2)), 2)
    assert closure_uniform(box, [(np.int64(1), 2)], 1) == CellSet.full((5, 5))


@pytest.mark.parametrize("cells,t", [
    ([(9, 9, 9)], 2),  # wrong arity, outside the box: used to be ignored
    ([(1,)], 2),
    ([("a", 1)], 2),  # used to raise a bare TypeError
    ([(1, None)], 2),
    ([(2.0, 2)], 2),
    ([(1, 1)], 1.5),  # t used to be truncated: 1.5 closed like 1
    ([(1, 1)], 2.7),
    ([(1, 1)], True),
    ([(1, 1)], "2"),
])
def test_closure_uniform_checks_every_cell_and_t(cells, t):
    with pytest.raises(DomainError):
        closure_uniform(Rectangle((1, 1), (5, 5)), cells, t)


def test_semi_percolation_star():
    # ell = 1 star: base layer needs r = 2, top layer needs r + 1 = 3.
    spec = StructureSpec.star(3, 2, 1, 2)
    diag = CellSet(spec.shape, [(i, i, 1) for i in (1, 2, 3)])
    assert semi_percolates(spec, diag)
    assert not percolates(spec, diag)
    with pytest.raises(DomainError):
        semi_percolates(StructureSpec.plain(3, 2, 2), CellSet((3, 3)))


def test_cross_direction_names():
    assert CrossDirection.from_name("left-to-right") == LEFT_TO_RIGHT
    assert CrossDirection.from_name("right-to-left") == RIGHT_TO_LEFT
    assert CrossDirection.from_name("bottom-to-top") == BOTTOM_TO_TOP
    with pytest.raises(DomainError):
        CrossDirection.from_name("sideways")


def test_is_crossed_full_column_bridge():
    # Slab [5]^2 x [3], r = 2. An occupied full-thickness column in every
    # x-position, all on one row, lets infection walk from the ghost plane
    # across the rectangle.
    spec = StructureSpec.slab(5, 2, 1, 3, 2)
    rect = Rectangle((1, 1), (5, 5))
    row = [(x, 3, z) for x in range(1, 6) for z in (1, 2, 3)]
    cells = CellSet(spec.shape, row)
    assert is_crossed(spec, rect, cells, LEFT_TO_RIGHT)
    assert is_crossed(spec, rect, cells, RIGHT_TO_LEFT)
    empty = CellSet(spec.shape)
    assert not is_crossed(spec, rect, empty, LEFT_TO_RIGHT)


def test_is_crossed_gap_width_matters():
    # A single empty column is bridged at r = 2, two adjacent ones are not.
    spec = StructureSpec.slab(5, 2, 1, 3, 2)
    rect = Rectangle((1, 1), (5, 5))
    one_gap = CellSet(spec.shape,
                      [(x, y, z) for x in (1, 2, 4, 5) for y in range(1, 6)
                       for z in (1, 2, 3)])
    assert is_crossed(spec, rect, one_gap, LEFT_TO_RIGHT)
    assert is_crossed(spec, rect, one_gap, RIGHT_TO_LEFT)
    two_gap = CellSet(spec.shape,
                      [(x, y, z) for x in (1, 4, 5) for y in range(1, 6)
                       for z in (1, 2, 3)])
    assert not is_crossed(spec, rect, two_gap, LEFT_TO_RIGHT)
    assert not is_crossed(spec, rect, two_gap, RIGHT_TO_LEFT)


def test_is_crossed_requires_slab_d2():
    plain = StructureSpec.plain(4, 2, 2)
    with pytest.raises(DomainError):
        is_crossed(plain, Rectangle((1, 1), (4, 4)), CellSet(plain.shape))


def test_is_semi_crossed_occupied_columns():
    # Star [4]^2 x [2], r = 2, direction 1.  With the left fringe fully
    # infected and every column occupied somewhere, growth sweeps rightward.
    spec = StructureSpec.star(4, 2, 1, 2)
    rect = Rectangle((2, 1), (4, 4))
    cells = CellSet(spec.shape,
                    [(x, y, 1) for x in (2, 3, 4) for y in range(1, 5)])
    assert is_semi_crossed(spec, rect, cells, axis=1)
    # With two adjacent empty columns the sweep stalls.
    sparse = CellSet(spec.shape, [(4, y, 1) for y in range(1, 5)])
    assert not is_semi_crossed(spec, rect, sparse, axis=1)


def test_is_semi_crossed_requires_star():
    spec = StructureSpec.slab(4, 2, 1, 3, 2)
    with pytest.raises(DomainError):
        is_semi_crossed(spec, Rectangle((1, 1), (4, 4)), CellSet(spec.shape))


def test_has_double_gap_basic():
    # Columns 2 and 3 empty: double gap along axis 1 but not axis 2.
    cells = CellSet((4, 4), [(1, 1), (4, 2), (1, 3), (4, 4)])
    assert has_double_gap((4, 4), cells, axes=[1])
    assert not has_double_gap((4, 4), cells, axes=[2])
    assert has_double_gap((4, 4), cells)


def test_has_double_gap_face_counts_as_empty():
    # Column 1 empty: together with the out-of-range column 0 this is a gap.
    cells = CellSet((4, 4), [(2, y) for y in range(1, 5)]
                    + [(3, y) for y in range(1, 5)]
                    + [(4, y) for y in range(1, 5)])
    assert has_double_gap((4, 4), cells, axes=[1])
    full = CellSet((4, 4), [(x, 1) for x in range(1, 5)])
    assert not has_double_gap((4, 4), full, axes=[1])
    assert has_double_gap((4, 4), CellSet((4, 4)))


def test_has_double_gap_bad_axis():
    with pytest.raises(DomainError):
        has_double_gap((4, 4), CellSet((4, 4)), axes=[3])


# --- Definition-level oracles for the crossing events -------------------------
#
# These work on sets of coordinate tuples with plain coordinate arithmetic, so
# a ghost plane may sit at coordinate 0 or n + 1, outside the structure.


def _nearby(v):
    """The lattice points at distance one from v, with no bounds check."""
    for ax in range(len(v)):
        for delta in (-1, 1):
            yield v[:ax] + (v[ax] + delta,) + v[ax + 1:]


def _slice_cells(spec, lo, hi, base_only=False):
    """Vertices whose horizontal part lies in [lo, hi], with every thickness
    coordinate (or only the base layer, where all of them are 1)."""
    thick = ([(1,) * spec.ell] if base_only
             else list(itertools.product(range(1, spec.k + 1), repeat=spec.ell)))
    horiz = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    return {h + t for h in horiz for t in thick}


def restricted_closure_oracle(spec, region, infected):
    """Round-based closure in which only members of ``region`` count as
    neighbours; every vertex of ``region`` outside ``infected`` lies in the
    structure and uses its own threshold."""
    infected = set(infected)
    changed = True
    while changed:
        changed = False
        for v in sorted(region - infected):
            if sum(w in infected for w in _nearby(v)) >= threshold(spec, v):
                infected.add(v)
                changed = True
    return infected


def crossed_oracle(spec, rect, cells, direction):
    """H(R): add a fully infected ghost plane next to the entry face, close
    inside R plus the plane, and look for a path in the closure within R
    from the entry face to the exit face."""
    ax = direction.axis - 1
    lo, hi = list(rect.lo), list(rect.hi)
    entry, exit_ = (hi[ax], lo[ax]) if direction.reverse else (lo[ax], hi[ax])
    glo, ghi = lo.copy(), hi.copy()
    glo[ax] = ghi[ax] = entry + (1 if direction.reverse else -1)
    ghost = _slice_cells(spec, glo, ghi)
    inside = _slice_cells(spec, lo, hi)
    closed = restricted_closure_oracle(spec, inside | ghost,
                                       (set(cells) & inside) | ghost) - ghost
    frontier = [v for v in closed if v[ax] == entry]
    seen = set(frontier)
    while frontier:
        v = frontier.pop()
        if v[ax] == exit_:
            return True
        for w in _nearby(v):
            if w in closed and w not in seen:
                seen.add(w)
                frontier.append(w)
    return False


def semi_crossed_oracle(spec, rect, cells, axis):
    """Close (A cap (R u R^+)) u R^- inside R u R^+ u R^-, where R^- and R^+
    are the base-layer slices just below and above R along ``axis`` (absent
    outside [n]^d), and ask whether every threshold-r vertex of R is in it."""
    ax = axis - 1
    lo, hi = list(rect.lo), list(rect.hi)

    def fringe(at):
        if not 1 <= at <= spec.n:
            return set()
        flo, fhi = lo.copy(), hi.copy()
        flo[ax] = fhi[ax] = at
        return _slice_cells(spec, flo, fhi, base_only=True)

    inside = _slice_cells(spec, lo, hi)
    minus, plus = fringe(lo[ax] - 1), fringe(hi[ax] + 1)
    closed = restricted_closure_oracle(spec, inside | minus | plus,
                                       (set(cells) & (inside | plus)) | minus)
    return all(v in closed for v in inside if threshold(spec, v) == spec.r)


def _random_rectangle(rng, n, d):
    lo = [int(rng.integers(1, n + 1)) for _ in range(d)]
    hi = [int(rng.integers(a, n + 1)) for a in lo]
    return Rectangle(tuple(lo), tuple(hi))


@pytest.mark.parametrize("spec", [StructureSpec.slab(5, 2, 1, 3, 2),
                                  StructureSpec.slab(4, 2, 2, 4, 2)],
                         ids=lambda s: f"ell{s.ell}k{s.k}")
@pytest.mark.parametrize("direction",
                         [LEFT_TO_RIGHT, RIGHT_TO_LEFT, BOTTOM_TO_TOP, TOP_TO_BOTTOM],
                         ids=lambda c: f"axis{c.axis}{'rev' if c.reverse else ''}")
def test_is_crossed_matches_definition_oracle(spec, direction):
    rng = np.random.default_rng([31, spec.ell, direction.axis, direction.reverse])
    outcomes = []
    for trial in range(40):
        # Every fourth rectangle is the whole square, whose ghost plane lies
        # at coordinate 0 or n + 1.
        rect = (Rectangle((1, 1), (spec.n, spec.n)) if trial % 4 == 0
                else _random_rectangle(rng, spec.n, spec.d))
        cells = CellSet.from_mask(rng.random(spec.shape) < rng.uniform(0.0, 0.25))
        got = is_crossed(spec, rect, cells, direction)
        assert got == crossed_oracle(spec, rect, cells, direction), (rect, cells.coords())
        outcomes.append(got)
    assert len(set(outcomes)) == 2


@pytest.mark.parametrize("spec", [StructureSpec.star(5, 2, 1, 2),
                                  StructureSpec.star(4, 2, 2, 2)],
                         ids=lambda s: f"ell{s.ell}")
@pytest.mark.parametrize("axis", [1, 2])
def test_is_semi_crossed_matches_definition_oracle(spec, axis):
    rng = np.random.default_rng([37, spec.ell, axis])
    outcomes = []
    for trial in range(40):
        rect = (Rectangle((1, 1), (spec.n, spec.n)) if trial % 4 == 0
                else _random_rectangle(rng, spec.n, spec.d))
        cells = CellSet.from_mask(rng.random(spec.shape) < rng.uniform(0.05, 0.6))
        got = is_semi_crossed(spec, rect, cells, axis)
        assert got == semi_crossed_oracle(spec, rect, cells, axis), (rect, cells.coords())
        outcomes.append(got)
    assert len(set(outcomes)) == 2


# The engine rule as it is, or with no grid small enough for the planes, so
# that the frontier engine closes every row.
ENGINES = pytest.mark.parametrize("plane_vertices", [None, 0], ids=["planes", "frontier"])


# Blocks of 70 rows: a full word of bit planes and part of a second, or 70
# grids for the frontier engine.
@ENGINES
@pytest.mark.parametrize("direction",
                         [LEFT_TO_RIGHT, RIGHT_TO_LEFT, BOTTOM_TO_TOP, TOP_TO_BOTTOM],
                         ids=lambda c: f"axis{c.axis}{'rev' if c.reverse else ''}")
def test_crossed_batch_rows_match_definition_oracle(direction, plane_vertices, monkeypatch):
    if plane_vertices is not None:
        monkeypatch.setattr("bootperc.dynamics._PLANE_VERTICES", plane_vertices)
    spec = StructureSpec.slab(5, 2, 1, 3, 2)
    rng = np.random.default_rng([43, direction.axis, direction.reverse])
    outcomes = set()
    for rect in (Rectangle((1, 1), (spec.n, spec.n)), Rectangle((2, 1), (4, 5)),
                 Rectangle((1, 2), (5, 4))):
        density = rng.uniform(0.0, 0.25, (70,) + (1,) * len(spec.shape))
        masks = rng.random((70,) + spec.shape) < density
        got = crossed_batch(spec, rect, masks, direction)
        want = [crossed_oracle(spec, rect, CellSet.from_mask(m), direction) for m in masks]
        assert got.tolist() == want, rect
        outcomes.update(want)
    assert outcomes == {False, True}


@ENGINES
@pytest.mark.parametrize("axis", [1, 2])
def test_semi_crossed_batch_rows_match_definition_oracle(axis, plane_vertices, monkeypatch):
    if plane_vertices is not None:
        monkeypatch.setattr("bootperc.dynamics._PLANE_VERTICES", plane_vertices)
    spec = StructureSpec.star(5, 2, 1, 2)
    rng = np.random.default_rng([47, axis])
    outcomes = set()
    for rect in (Rectangle((1, 1), (spec.n, spec.n)), Rectangle((2, 1), (4, 5)),
                 Rectangle((1, 2), (5, 4))):
        density = rng.uniform(0.05, 0.6, (70,) + (1,) * len(spec.shape))
        masks = rng.random((70,) + spec.shape) < density
        got = semi_crossed_batch(spec, rect, masks, axis)
        want = [semi_crossed_oracle(spec, rect, CellSet.from_mask(m), axis) for m in masks]
        assert got.tolist() == want, rect
        outcomes.update(want)
    assert outcomes == {False, True}


# No row, one grid, and bit planes of one partly filled word, one full word,
# a full word and one bit, and three words; or every row by the frontier
# engine.
@ENGINES
@pytest.mark.parametrize("rows", [0, 1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("spec", [StructureSpec.plain(5, 2, 2), StructureSpec.star(4, 2, 1, 2),
                                  StructureSpec.slab(4, 2, 1, 3, 2)],
                         ids=lambda s: s.family + str(s.shape))
def test_event_rows_match_closure(spec, rows, plane_vertices, monkeypatch):
    if plane_vertices is not None:
        monkeypatch.setattr("bootperc.dynamics._PLANE_VERTICES", plane_vertices)
    rng = np.random.default_rng([53, rows, spec.n, spec.ell])
    density = rng.uniform(0.05, 0.6, (rows,) + (1,) * len(spec.shape))
    masks = rng.random((rows,) + spec.shape) < density
    closed = [closure(spec, CellSet.from_mask(m)).mask for m in masks]
    got = percolates_batch(spec, masks)
    assert got.dtype == bool and got.tolist() == [c.all() for c in closed]
    if spec.family == "star":
        base = (...,) + (0,) * spec.ell
        got = semi_percolates_batch(spec, masks)
        assert got.dtype == bool and got.tolist() == [c[base].all() for c in closed]
    if rows > 64:
        assert {c.all() for c in closed} == {False, True}


# --- exact identities, with no reference engine -------------------------------

# 64-row blocks, one full word of bit planes, on grids of 144 to 4096 cells.
SYMMETRY_SPECS = [
    StructureSpec.plain(40, 2, 2),
    StructureSpec.slab(16, 2, 1, 3, 2),
    StructureSpec.star(16, 2, 1, 2),
    StructureSpec.plain(10, 3, 3),
    StructureSpec.plain(64, 2, 2),
    StructureSpec.plain(12, 2, 2),
]


@ENGINES
@pytest.mark.parametrize("spec", SYMMETRY_SPECS, ids=lambda s: s.family + str(s.shape))
def test_closure_batch_commutes_with_symmetries_and_row_order(spec, plane_vertices, monkeypatch):
    if plane_vertices is not None:
        monkeypatch.setattr("bootperc.dynamics._PLANE_VERTICES", plane_vertices)
    rng = np.random.default_rng([41, spec.n, spec.d, spec.ell])
    density = rng.uniform(0.0, 0.2, (64,) + (1,) * len(spec.shape))
    masks = rng.random((64,) + spec.shape) < density
    closed = closure_batch(spec, masks)
    rows = tuple(range(1, masks.ndim))
    # Some rows grow without filling the grid, so no identity holds trivially.
    assert ((closed != masks).any(axis=rows) & ~closed.all(axis=rows)).any()
    moves = [lambda m: m[:, ::-1], lambda m: np.swapaxes(m, 1, 2)]
    if spec.family == "slab":
        moves.append(lambda m: np.flip(m, spec.d + 1))  # the thickness axis
    for move in moves:
        assert np.array_equal(closure_batch(spec, move(masks)), move(closed))
    for i in range(len(masks)):
        assert np.array_equal(closure_batch(spec, masks[i:i + 1])[0], closed[i])
    order = rng.permutation(len(masks))
    assert np.array_equal(closure_batch(spec, masks[order]), closed[order])


# <A u B> = <<A> u B>, on which the merge algorithm rests, and <A> lies
# within <A u B>: blocks of one full word, and of two words and two bits.
@ENGINES
@pytest.mark.parametrize("rows", [64, 130])
@pytest.mark.parametrize("spec", [StructureSpec.plain(12, 2, 2), StructureSpec.star(8, 2, 1, 2),
                                  StructureSpec.slab(8, 2, 1, 3, 2)],
                         ids=lambda s: s.family + str(s.shape))
def test_closure_batch_absorbs_a_closed_part(spec, rows, plane_vertices, monkeypatch):
    if plane_vertices is not None:
        monkeypatch.setattr("bootperc.dynamics._PLANE_VERTICES", plane_vertices)
    rng = np.random.default_rng([59, rows, spec.n, spec.ell])
    density = rng.uniform(0.0, 0.15, (rows,) + (1,) * len(spec.shape))
    a, b = (rng.random((rows,) + spec.shape) < density for _ in range(2))
    closed, joint = closure_batch(spec, a), closure_batch(spec, a | b)
    assert np.array_equal(closure_batch(spec, closed | b), joint)
    assert not (closed & ~joint).any()
    # In some rows B grows <A> u B further without filling the grid.
    axes = tuple(range(1, a.ndim))
    assert ((joint != (closed | b)).any(axis=axes) & ~joint.all(axis=axes)).any()


@ENGINES
def test_crossing_commutes_with_reflection_and_transposition(plane_vertices, monkeypatch):
    if plane_vertices is not None:
        monkeypatch.setattr("bootperc.dynamics._PLANE_VERTICES", plane_vertices)
    spec = StructureSpec.slab(16, 2, 1, 3, 2)
    rect = Rectangle((2, 4), (11, 13))
    reflected = Rectangle((spec.n + 1 - rect.hi[0], rect.lo[1]),
                          (spec.n + 1 - rect.lo[0], rect.hi[1]))
    transposed = Rectangle(rect.lo[::-1], rect.hi[::-1])
    for p in (0.03, 0.05, 0.08):
        masks = np.random.default_rng([43, round(100 * p)]).random((200,) + spec.shape) < p
        crossed = crossed_batch(spec, rect, masks, LEFT_TO_RIGHT)
        assert 0 < crossed.sum() < len(masks)
        assert np.array_equal(
            crossed_batch(spec, reflected, masks[:, ::-1], RIGHT_TO_LEFT), crossed)
        assert np.array_equal(
            crossed_batch(spec, transposed, np.swapaxes(masks, 1, 2), BOTTOM_TO_TOP), crossed)
