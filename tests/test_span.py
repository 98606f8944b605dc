import numpy as np
import pytest

from bootperc.structures import (
    CellSet,
    DomainError,
    Rectangle,
    StructureSpec,
    diameter,
)
from bootperc.dynamics import closure
from bootperc.span import (
    find_spanned_component,
    find_spanned_rectangle,
    internally_spans,
    span_direct,
    span_main_algorithm,
)


def random_cells(spec, rng, p):
    return CellSet.from_mask(rng.random(spec.shape) < p)


def test_span_direct_simple():
    spec = StructureSpec.plain(6, 2, 2)
    a = CellSet(spec.shape, [(1, 1), (2, 2), (5, 6)])
    rects = span_direct(spec, a).rectangles
    assert set(rects) == {Rectangle((1, 1), (2, 2)), Rectangle((5, 6), (5, 6))}


def test_span_of_empty_set_is_empty():
    spec = StructureSpec.plain(4, 2, 2)
    assert span_direct(spec, CellSet(spec.shape)).rectangles == ()


def test_span_projects_out_thickness():
    spec = StructureSpec.slab(5, 2, 1, 3, 2)
    a = CellSet(spec.shape, [(2, 2, 1), (2, 2, 2), (2, 2, 3)])
    rects = span_direct(spec, a).rectangles
    assert rects == (Rectangle((2, 2), (2, 2)),)


def test_main_algorithm_merges_touching_and_jumping():
    spec = StructureSpec.plain(6, 2, 2)
    # (1,1) and (2,2) interact at distance one; (5,6) stays alone.
    a = CellSet(spec.shape, [(1, 1), (2, 2), (5, 6)])
    result = span_main_algorithm(spec, a)
    assert set(result.rectangles) == set(span_direct(spec, a).rectangles)
    # The three singletons in canonical order, then the merged piece, which
    # moves to the end of the piece list.
    R = Rectangle
    assert result.creation_log == (R((1, 1), (1, 1)), R((2, 2), (2, 2)),
                                   R((5, 6), (5, 6)), R((1, 1), (2, 2)))
    assert result.rectangles == (R((5, 6), (5, 6)), R((1, 1), (2, 2)))
    with pytest.raises(DomainError):
        span_main_algorithm(spec, CellSet((5, 5), [(1, 1)]))


@pytest.mark.parametrize("spec,p", [
    (StructureSpec.plain(6, 2, 2), 0.18),
    (StructureSpec.plain(4, 3, 3), 0.25),
    (StructureSpec.slab(5, 2, 1, 3, 2), 0.12),
    (StructureSpec.star(5, 2, 1, 2), 0.1),
], ids=lambda x: str(x))
def test_main_algorithm_equals_direct_randomized(spec, p):
    rng = np.random.default_rng(99)
    for _ in range(60):
        a = random_cells(spec, rng, p)
        assert (set(span_main_algorithm(spec, a).rectangles)
                == set(span_direct(spec, a).rectangles))


def test_main_algorithm_exhaustive_agrees():
    spec = StructureSpec.plain(5, 2, 2)
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = random_cells(spec, rng, 0.2)
        pruned = span_main_algorithm(spec, a)
        exhaustive = span_main_algorithm(spec, a, exhaustive=True)
        assert set(pruned.rectangles) == set(exhaustive.rectangles)


def test_internally_spans():
    spec = StructureSpec.plain(6, 2, 2)
    a = CellSet(spec.shape, [(1, 1), (2, 2), (3, 3), (6, 6)])
    assert internally_spans(spec, Rectangle((1, 1), (3, 3)), a)
    # The full grid is not spanned by A cap grid = A.
    assert not internally_spans(spec, Rectangle((1, 1), (6, 6)), a)
    # A sub-box of the spanned box is not itself in the sub-span.
    assert not internally_spans(spec, Rectangle((1, 1), (2, 3)), a)


def test_find_spanned_rectangle_diagonal():
    spec = StructureSpec.plain(8, 2, 2)
    a = CellSet(spec.shape, [(i, i) for i in range(1, 9)])
    for length in (2, 3, 4):
        rect = find_spanned_rectangle(spec, a, length)
        assert rect is not None
        assert length <= rect.long <= 2 * length
        assert internally_spans(spec, rect, a)
    with pytest.raises(DomainError):
        find_spanned_rectangle(spec, a, 0)


def test_find_spanned_rectangle_none_when_too_short():
    spec = StructureSpec.plain(8, 2, 2)
    a = CellSet(spec.shape, [(1, 1), (8, 8)])
    assert find_spanned_rectangle(spec, a, 3) is None


def test_find_spanned_component_diagonal():
    spec = StructureSpec.plain(8, 2, 2)
    a = CellSet(spec.shape, [(i, i) for i in range(1, 9)])
    for length in (2, 3, 4):
        comp = find_spanned_component(spec, a, length)
        assert comp is not None
        assert length <= diameter(spec, comp) <= 2 * length
        # Internally filled: the component's own seeds regrow it.
        part = CellSet.from_mask(a.mask & comp.mask)
        assert not (comp.mask & ~closure(spec, part).mask).any()


def test_find_spanned_component_none_when_too_short():
    spec = StructureSpec.plain(8, 2, 2)
    a = CellSet(spec.shape, [(1, 1), (8, 8)])
    assert find_spanned_component(spec, a, 3) is None


def test_witnesses_randomized():
    spec = StructureSpec.plain(8, 2, 2)
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 25:
        a = random_cells(spec, rng, rng.uniform(0.1, 0.3))
        closed = closure(spec, a)
        dia = diameter(spec, closed)
        if dia < 2:
            continue
        length = int(rng.integers(1, dia // 2 + 1)) if dia >= 2 else 1
        rect = find_spanned_rectangle(spec, a, length)
        comp = find_spanned_component(spec, a, length)
        assert rect is not None and length <= rect.long <= 2 * length
        assert internally_spans(spec, rect, a)
        assert comp is not None
        assert length <= diameter(spec, comp) <= 2 * length
        checked += 1
