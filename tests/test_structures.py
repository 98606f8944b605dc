import numpy as np
import pytest
from hypothesis import given, strategies as st

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


@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=12))
def test_cellset_iteration_sorted(coords):
    cs = CellSet((5, 5), coords)
    out = list(cs)
    assert out == sorted(set(out))
    assert len(out) == len(cs)
