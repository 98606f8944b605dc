import numpy as np
import pytest
from hypothesis import given, strategies as st

from bootperc.dynamics import (
    CrossDirection,
    closure,
    has_double_gap,
    is_crossed,
    is_semi_crossed,
    percolates,
    semi_percolates,
)
from bootperc.montecarlo import (
    EventSpec,
    derive_seed,
    estimate_event_prob,
    estimate_lgap,
    sample_bin,
    trial_rng,
)
from bootperc.span import (
    find_spanned_component,
    find_spanned_rectangle,
    internally_spans,
    span_direct,
    span_main_algorithm,
)
from bootperc.structures import (
    MAX_VERTICES,
    CellSet,
    DomainError,
    Rectangle,
    StructureSpec,
    bounding_rectangle,
    components,
    diameter,
    grid_tables,
    neighbors,
    projection,
    threshold,
    threshold_table,
)


def test_family_validation():
    with pytest.raises(DomainError):
        StructureSpec("weird", 3, 2, 2)
    with pytest.raises(DomainError):
        StructureSpec("plain", 3, 2, 2, ell=1, k=2)
    with pytest.raises(DomainError):
        StructureSpec("star", 3, 2, 2, ell=1, k=3)
    with pytest.raises(DomainError):
        StructureSpec("slab", 3, 2, 2, ell=1, k=1)
    with pytest.raises(DomainError):
        StructureSpec.plain(0, 2, 2)


def test_vertex_budget():
    assert StructureSpec.plain(2048, 2, 2).num_vertices == MAX_VERTICES
    with pytest.raises(DomainError):
        StructureSpec.plain(2049, 2, 2)
    with pytest.raises(DomainError):
        StructureSpec.plain(100000, 3, 3)
    with pytest.raises(DomainError):
        StructureSpec.star(2, 10 ** 9, 1, 2)
    with pytest.raises(DomainError):
        StructureSpec.slab(4, 2, 10 ** 9, 3, 2)


def test_shape_and_counts():
    assert StructureSpec.plain(5, 2, 2).shape == (5, 5)
    assert StructureSpec.star(4, 2, 3, 2).shape == (4, 4, 2, 2, 2)
    assert StructureSpec.slab(5, 2, 1, 3, 2).shape == (5, 5, 3)
    assert StructureSpec.slab(5, 2, 1, 3, 2).num_vertices == 75


def test_threshold_plain():
    spec = StructureSpec.plain(4, 2, 3)
    assert threshold(spec, (1, 1)) == 3
    assert threshold(spec, (4, 4)) == 3


def test_threshold_star():
    # Threshold r on the all-ones thickness layer, r + ell elsewhere.
    spec = StructureSpec.star(4, 2, 2, 2)
    assert threshold(spec, (1, 1, 1, 1)) == 2
    assert threshold(spec, (1, 1, 2, 1)) == 4
    assert threshold(spec, (1, 1, 1, 2)) == 4
    assert threshold(spec, (1, 1, 2, 2)) == 4


def test_threshold_slab():
    # r plus one per thickness coordinate strictly inside (1, k).
    spec = StructureSpec.slab(4, 2, 2, 4, 2)
    assert threshold(spec, (1, 1, 1, 1)) == 2
    assert threshold(spec, (1, 1, 1, 4)) == 2
    assert threshold(spec, (1, 1, 2, 1)) == 3
    assert threshold(spec, (1, 1, 3, 2)) == 4


def test_threshold_table_matches_pointwise():
    for spec in (StructureSpec.plain(3, 2, 2),
                 StructureSpec.star(3, 2, 2, 2),
                 StructureSpec.slab(3, 2, 1, 4, 2)):
        table = threshold_table(spec)
        flat = [threshold(spec, v) for v in CellSet.full(spec.shape)]
        assert list(table) == flat


def test_neighbors_interior_and_corner():
    spec = StructureSpec.plain(3, 2, 2)
    assert neighbors(spec, (2, 2)) == [(1, 2), (3, 2), (2, 1), (2, 3)]
    assert neighbors(spec, (1, 1)) == [(2, 1), (1, 2)]
    spec3 = StructureSpec.slab(3, 2, 1, 3, 2)
    assert len(neighbors(spec3, (2, 2, 2))) == 6
    with pytest.raises(DomainError):
        neighbors(spec, (0, 1))


def test_cellset_canonical_order_and_roundtrip():
    cs = CellSet((3, 3), [(3, 1), (1, 2), (1, 1), (2, 3)])
    assert list(cs) == [(1, 1), (1, 2), (2, 3), (3, 1)]
    assert len(cs) == 4
    assert (1, 2) in cs and (2, 2) not in cs
    assert (0, 0) not in cs  # out of bounds is just absent
    again = CellSet.from_json((3, 3), cs.to_json())
    assert again == cs
    with pytest.raises(DomainError):
        cs.add((4, 1))


def test_rectangle_geometry():
    r = Rectangle((2, 1), (4, 5))
    assert r.dim == (3, 5)
    assert r.phi == 8
    assert r.long == 5 and r.short == 3
    assert r.contains((3, 3)) and not r.contains((1, 1))
    assert Rectangle.from_json(r.to_json()) == r
    with pytest.raises(DomainError):
        Rectangle((2, 2), (1, 3))


def test_rectangle_cells_full_thickness():
    spec = StructureSpec.slab(4, 2, 1, 3, 2)
    cells = Rectangle((2, 2), (3, 3)).cells(spec)
    assert len(cells) == 2 * 2 * 3
    assert (2, 2, 1) in cells and (3, 3, 3) in cells
    assert (1, 2, 1) not in cells


def test_bounding_rectangle():
    assert bounding_rectangle([(2, 3), (4, 1)]) == Rectangle((2, 1), (4, 3))
    with pytest.raises(DomainError):
        bounding_rectangle([])


def test_projection_drops_thickness():
    spec = StructureSpec.slab(3, 2, 1, 3, 2)
    cs = CellSet(spec.shape, [(1, 1, 2), (1, 1, 3), (2, 3, 1)])
    proj = projection(spec, cs)
    assert proj.shape == (3, 3)
    assert list(proj) == [(1, 1), (2, 3)]
    plain = StructureSpec.plain(3, 2, 2)
    same = CellSet(plain.shape, [(1, 2)])
    assert projection(plain, same) == same


def test_components_ordered_by_least_member():
    cs = CellSet((4, 4), [(3, 3), (1, 1), (1, 2), (4, 3)])
    comps = components((4, 4), cs)
    assert [sorted(c)[0] for c in comps] == [(1, 1), (3, 3)]
    assert len(comps[0]) == 2 and len(comps[1]) == 2


def test_diameter():
    assert diameter((4, 4), CellSet((4, 4))) == 0
    assert diameter((4, 4), CellSet((4, 4), [(2, 2)])) == 1
    # A bent path: bounding box 3 x 2, diameter 3.
    cs = CellSet((4, 4), [(1, 1), (2, 1), (3, 1), (3, 2)])
    assert diameter((4, 4), cs) == 3


def test_grid_tables_neighbor_consistency():
    spec = StructureSpec.slab(3, 2, 1, 2, 2)
    nbrs, size = grid_tables(spec.shape)
    assert size == spec.num_vertices
    for flat, v in enumerate(CellSet.full(spec.shape)):
        expected = {np.ravel_multi_index(tuple(x - 1 for x in w), spec.shape)
                    for w in neighbors(spec, v)}
        got = {int(x) for x in nbrs[flat] if x >= 0}
        assert got == expected


def test_structure_json_roundtrip():
    for spec in (StructureSpec.plain(6, 2, 2),
                 StructureSpec.star(5, 3, 2, 3),
                 StructureSpec.slab(5, 2, 1, 4, 2)):
        assert StructureSpec.from_json(spec.to_json()) == spec
    with pytest.raises(DomainError):
        StructureSpec.from_json({"family": "plain"})
    with pytest.raises(DomainError):
        StructureSpec.from_json({"family": "star", "n": 4, "d": 2, "r": 2, "ell": "one"})
    with pytest.raises(DomainError):
        StructureSpec.from_json({"family": "slab", "n": 4, "d": 2, "r": 2, "ell": 1,
                                 "k": [3]})
    # A plain structure with thickness is refused, not stripped of it.
    with pytest.raises(DomainError):
        StructureSpec.from_json({"family": "plain", "n": 4, "d": 2, "r": 2,
                                 "ell": 3, "k": 5})
    # Non-integer numbers are refused, not truncated.
    with pytest.raises(DomainError):
        StructureSpec.from_json({"family": "plain", "n": 4.9, "d": 2, "r": 2})


def test_cellset_refuses_non_integer_coordinates():
    with pytest.raises(DomainError):
        CellSet.from_json((4, 4), [[1.7, 2.9]])
    cells = CellSet((4, 4), [(1, 2)])
    assert (1, 2) in cells and (1.5, 2) not in cells


def test_constructors_refuse_non_integers():
    with pytest.raises(DomainError):
        StructureSpec("plain", 4.5, 2, 2)
    for sizes in ((4, 2.0, 2, 1, 2), (4, 2, "2", 1, 2), (4, 2, 2, 1.5, 2), (4, 2, 2, 1, 2.0)):
        with pytest.raises(DomainError):
            StructureSpec("star", *sizes[:3], ell=sizes[3], k=sizes[4])
    # Integer types are kept as plain ints.
    spec = StructureSpec("plain", np.int64(4), 2, 2)
    assert spec == StructureSpec.plain(4, 2, 2) and type(spec.n) is int
    spec = StructureSpec.plain(4, 2, 2)
    with pytest.raises(DomainError):
        neighbors(spec, (1.7, 2.9))
    with pytest.raises(DomainError):
        threshold(spec, (1.7, 2))
    with pytest.raises(DomainError):
        spec.validate_coord(None)
    assert spec.validate_coord((np.int64(1), 2)) == (1, 2)


@pytest.mark.parametrize("shape", [(4.5, 4), (4, 2.0), ("a", 2), (True, 2), (-1, 2), 5, None])
@pytest.mark.parametrize("make", [CellSet, CellSet.full,
                                  lambda shape: sample_bin(shape, 0.5, np.random.default_rng(0))],
                         ids=["CellSet", "full", "sample_bin"])
def test_grid_sides_follow_the_number_rule(shape, make):
    # (4.5, 4) used to give a (4, 4) set, and ("a", 2) a bare ValueError.
    with pytest.raises(DomainError):
        make(shape)
    shape = make((np.int64(3), 2)).shape
    assert shape == (3, 2) and all(type(side) is int for side in shape)


INT_STAR = StructureSpec.star(4, 2, 1, 2)
INT_GRID = CellSet.from_mask(np.eye(6, dtype=bool))
# Each entry point takes an integer x and returns what it keeps of x, or a
# result that depends on x.  Each used to take True as 1 (an operator.index
# cast), or 2.5 and "2" as 2 (an int() cast or an int array).
INTEGER_ENTRIES = {
    "structure-size": lambda x: StructureSpec.plain(x, 2, 2).n,
    "structure-json": lambda x: StructureSpec.from_json(
        {"family": "star", "n": 4, "d": 2, "r": 2, "ell": x}).ell,
    "rectangle": lambda x: Rectangle((1, x), (4, 4)).lo,
    "bounding-rectangle": lambda x: bounding_rectangle([(x, 2), (3, 4)]).lo,
    "coordinate": lambda x: INT_STAR.validate_coord((x, 1, 1)),
    "cell": lambda x: CellSet((4, 4), [(x, 1)]).mask.tobytes(),
    "cross-direction": lambda x: CrossDirection(x).axis,
    "semi-crossing-axis": lambda x: EventSpec("semi_crossed", INT_STAR, Rectangle((1, 1), (4, 4)),
                                              axis=x).axis,
    "estimate-seed": lambda x: estimate_event_prob(EventSpec("percolates", INT_STAR), 0.5, 5, x),
    "lgap-seed": lambda x: estimate_lgap(1, 3, 0.5, 5, x),
    "trial-rng-seed": lambda x: trial_rng(x, 0).random(2).tolist(),
    "trial-rng-trial": lambda x: trial_rng(0, x).random(2).tolist(),
    "derive-seed-seed": lambda x: derive_seed(x, 0),
    "derive-seed-index": lambda x: derive_seed(0, x),
    "witness-rectangle-length": lambda x: find_spanned_rectangle(
        StructureSpec.plain(6, 2, 2), INT_GRID, x),
    "witness-component-length": lambda x: find_spanned_component(
        StructureSpec.plain(6, 2, 2), INT_GRID, x),
    "double-gap-axes": lambda x: has_double_gap((6, 6), [(1, 1), (4, 4)], [x]),
}


@pytest.mark.parametrize("entry", INTEGER_ENTRIES.values(), ids=INTEGER_ENTRIES.keys())
def test_integer_inputs_follow_the_number_rule(entry):
    for bad in (True, 2.5, "2"):
        with pytest.raises(DomainError):
            entry(bad)
    kept, want = entry(np.int64(2)), entry(2)
    assert kept == want and type(kept) is type(want)
    if isinstance(kept, tuple):
        assert all(type(x) is int for x in kept)


@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=12))
def test_cellset_iteration_sorted(coords):
    cs = CellSet((5, 5), coords)
    out = list(cs)
    assert out == sorted(set(out))
    assert len(out) == len(cs)


# --- one membership rule for every function that takes a cell set -------------

# A star and a slab of one shape, (4, 4, 2), so that every route refuses a
# cell set of another shape with one message.
MEMBER_STAR = StructureSpec.star(4, 2, 1, 2)
MEMBER_SLAB = StructureSpec.slab(4, 2, 1, 2, 2)
SQUARE = Rectangle((1, 1), (4, 4))


def member_routes(cells):
    """Every public function that takes a cell set, called on ``cells`` with
    a grid of shape (4, 4, 2)."""
    spec = MEMBER_STAR
    return {
        "closure": lambda: closure(spec, cells),
        "percolates": lambda: percolates(spec, cells),
        "semi_percolates": lambda: semi_percolates(spec, cells),
        "is_crossed": lambda: is_crossed(MEMBER_SLAB, SQUARE, cells),
        "is_semi_crossed": lambda: is_semi_crossed(spec, SQUARE, cells),
        "span_direct": lambda: span_direct(spec, cells),
        "internally_spans": lambda: internally_spans(spec, SQUARE, cells),
        "span_main_algorithm": lambda: span_main_algorithm(spec, cells),
        "find_spanned_rectangle": lambda: find_spanned_rectangle(spec, cells, 1),
        "find_spanned_component": lambda: find_spanned_component(spec, cells, 1),
        "projection": lambda: projection(spec, cells),
        "components": lambda: components(spec, cells),
        "diameter": lambda: diameter(spec.shape, cells),
        "has_double_gap": lambda: has_double_gap(spec.shape, cells),
        "EventSpec.evaluate": lambda: EventSpec("percolates", spec).evaluate(cells),
    }


@pytest.mark.parametrize("shape", [(5, 5, 2), (1, 4, 2), (4, 4)])
def test_cell_set_of_another_grid_is_refused_alike_everywhere(shape):
    # A (1, 4, 2) set used to broadcast in internally_spans and a (5, 5, 2)
    # one to give an empty span from span_main_algorithm.
    messages = {}
    for name, call in member_routes(CellSet(shape)).items():
        with pytest.raises(DomainError) as info:
            call()
        messages[name] = str(info.value)
    assert set(messages.values()) == {
        f"cell set of shape {shape} does not belong to the grid of shape (4, 4, 2)"}
