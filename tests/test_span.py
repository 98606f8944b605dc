import itertools
from collections import deque

import numpy as np
import pytest
from scipy import ndimage

from bootperc.structures import (
    CellSet,
    DomainError,
    Rectangle,
    StructureSpec,
    diameter,
    grid_tables,
    threshold_table,
)
from bootperc.dynamics import closure
from bootperc.montecarlo import EventSpec, estimate_event_prob, sample_bin, trial_rng
from bootperc.span import (
    find_spanned_component,
    find_spanned_rectangle,
    internally_spans,
    span_direct,
    span_main_algorithm,
)
from test_dynamics import naive_closure


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


# --- the component witness against the algorithm it replaced -------------------

def reference_spanned_component(spec, cells, length):
    """The component witness as first written: after every replayed
    infection it relabels the grid, and tests every component of the right
    diameter for being internally filled with a fresh closure."""
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

    def witness():
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
        v = int(eligible[0])
        infected[v] = True
        touched = nbrs[v]
        touched = touched[touched >= 0]
        counts[touched] += 1
        found = witness()
    return found


WITNESS_SPECS = [
    StructureSpec.plain(8, 2, 1),
    StructureSpec.plain(8, 2, 2),
    StructureSpec.star(6, 2, 1, 1),
    StructureSpec.star(6, 2, 1, 2),
    StructureSpec.slab(6, 2, 1, 3, 1),
    StructureSpec.slab(6, 2, 1, 3, 2),
]


@pytest.mark.parametrize("spec", WITNESS_SPECS, ids=str)
def test_find_spanned_component_equals_reference(spec):
    rng = np.random.default_rng([3, spec.n, spec.r, spec.ell, spec.k])
    found = 0
    for _ in range(15):
        a = random_cells(spec, rng, rng.uniform(0.0, 0.25))
        for length in (1, 2, 3):
            want = reference_spanned_component(spec, a, length)
            got = find_spanned_component(spec, a, length)
            assert got == want if want is not None else got is None
            found += want is not None
    assert found


# --- the merge algorithm against the loop it replaced ---------------------------

def reference_span_main_algorithm(spec, cells, exhaustive=False):
    """The merge algorithm as first written: pieces are dicts of masks, every
    pair test is a mask ``(a & b).any()``, and every closure starts from the
    cells of A that a piece or a subset of pieces holds."""
    def dilate(mask):
        return ndimage.binary_dilation(mask, ndimage.generate_binary_structure(mask.ndim, 1))

    def piece(part):
        closed = closure(spec, CellSet.from_mask(part)).mask
        proj = closed.any(axis=tuple(range(spec.d, closed.ndim)))
        corners = np.argwhere(proj)
        rect = Rectangle(tuple(corners.min(axis=0) + 1), tuple(corners.max(axis=0) + 1))
        return {"cells": part, "closed": closed, "proj": proj, "near": dilate(proj),
                "reach": dilate(closed), "rect": rect}

    def union(indices):
        return np.logical_or.reduce([pieces[i]["cells"] for i in indices])

    pieces = []
    for v in np.flatnonzero(cells.mask):
        single = np.zeros(cells.mask.size, dtype=bool)
        single[v] = True
        pieces.append(piece(single.reshape(cells.shape)))
    log = [q["rect"] for q in pieces]
    while len(pieces) > 1:
        action = None
        for i, j in itertools.combinations(range(len(pieces)), 2):
            if (pieces[i]["near"] & pieces[j]["proj"]).any():
                action = (i, j)
                break
        if action is None:
            for t in range(2, min(spec.r + spec.ell, len(pieces)) + 1):
                for subset in itertools.combinations(range(len(pieces)), t):
                    if not exhaustive and not any(
                            (pieces[i]["reach"] & pieces[j]["reach"]).any()
                            for i, j in itertools.combinations(subset, 2)):
                        continue
                    joint = closure(spec, CellSet.from_mask(union(subset)))
                    if len(joint) > sum(pieces[i]["closed"].sum() for i in subset):
                        action = subset
                        break
                if action is not None:
                    break
        if action is None:
            break
        new = piece(union(action))
        for i in sorted(action, reverse=True):
            del pieces[i]
        pieces.append(new)
        log.append(new["rect"])
    return tuple(q["rect"] for q in pieces), tuple(log)


# plain(5,3,2) has 125 vertices, not a multiple of 8; plain(12,2,2) has a
# base grid of 144 cells, wider than two 64-bit words.
MERGE_SPECS = [
    (StructureSpec.plain(6, 2, 2), 0.18),
    (StructureSpec.plain(4, 3, 3), 0.25),
    (StructureSpec.slab(5, 2, 1, 3, 2), 0.12),
    (StructureSpec.star(5, 2, 1, 2), 0.1),
    (StructureSpec.plain(5, 3, 2), 0.06),
    (StructureSpec.plain(12, 2, 2), 0.06),
]


# With ``exhaustive`` the reference tries every subset in step (b), so the
# pruning of span_main_algorithm is checked to lose nothing.
@pytest.mark.parametrize("exhaustive", [False, True])
@pytest.mark.parametrize("spec,p", MERGE_SPECS, ids=str)
def test_main_algorithm_equals_reference(spec, p, exhaustive):
    rng = np.random.default_rng([11, spec.n, spec.d, spec.ell, spec.r])
    for _ in range(8):
        a = random_cells(spec, rng, rng.uniform(0.5 * p, 1.5 * p))
        got = span_main_algorithm(spec, a)
        assert (got.rectangles, got.creation_log) == reference_span_main_algorithm(
            spec, a, exhaustive)


# Three singletons, no two of which touch or grow, that jointly infect a
# fourth cell: the run ends in one step-(b) merge of all three.
@pytest.mark.parametrize("spec,cells,merged", [
    (StructureSpec.plain(3, 3, 3), [(1, 2, 2), (2, 1, 2), (2, 2, 1)],
     Rectangle((1, 1, 1), (2, 2, 2))),
    (StructureSpec.star(5, 2, 1, 2), [(2, 3, 2), (4, 3, 2), (3, 2, 2)],
     Rectangle((2, 2), (4, 3))),
    (StructureSpec.slab(5, 2, 1, 3, 2), [(2, 3, 2), (4, 3, 2), (3, 2, 2)],
     Rectangle((2, 2), (4, 3))),
], ids=["plain", "star", "slab"])
def test_main_algorithm_merges_a_three_piece_subset(spec, cells, merged):
    a = CellSet(spec.shape, cells)
    got = span_main_algorithm(spec, a)
    singletons = tuple(Rectangle(c[:spec.d], c[:spec.d]) for c in sorted(cells))
    assert got.creation_log == singletons + (merged,)
    assert got.rectangles == (merged,)
    assert (got.rectangles, got.creation_log) == reference_span_main_algorithm(
        spec, a, exhaustive=True)


def test_main_algorithm_equals_reference_on_a_full_closure():
    spec = StructureSpec.plain(20, 2, 2)
    rng = np.random.default_rng(8)
    while True:
        a = CellSet.from_mask((rng.permutation(spec.num_vertices) < 40).reshape(spec.shape))
        if len(closure(spec, a)) == spec.num_vertices:
            break
    got = span_main_algorithm(spec, a)
    assert got.rectangles == (Rectangle((1, 1), (20, 20)),)
    assert (got.rectangles, got.creation_log) == reference_span_main_algorithm(spec, a)


# --- the span against its definition -------------------------------------------

def span_oracle(spec, cells):
    """<A> from its definition: the naive closure, its projection as a set
    of d-prefixes, components by breadth-first search over the projection,
    and their bounding rectangles, ordered by each component's least member.
    """
    shadow = {v[:spec.d] for v in naive_closure(spec, cells)}
    seen, rects = set(), []
    for start in sorted(shadow):
        if start in seen:
            continue
        seen.add(start)
        comp, queue = [start], deque([start])
        while queue:
            v = queue.popleft()
            for axis in range(spec.d):
                for delta in (-1, 1):
                    w = v[:axis] + (v[axis] + delta,) + v[axis + 1:]
                    if w in shadow and w not in seen:
                        seen.add(w)
                        comp.append(w)
                        queue.append(w)
        rects.append(Rectangle(tuple(map(min, zip(*comp))), tuple(map(max, zip(*comp)))))
    return tuple(rects)


ORACLE_SPECS = [
    (StructureSpec.plain(6, 2, 2), 0.15),
    (StructureSpec.plain(4, 3, 2), 0.08),
    (StructureSpec.star(5, 2, 1, 2), 0.1),
    (StructureSpec.slab(5, 2, 1, 3, 2), 0.08),
]


@pytest.mark.parametrize("spec,p", ORACLE_SPECS, ids=str)
def test_span_direct_matches_definition_oracle(spec, p):
    rng = np.random.default_rng([5, spec.n, spec.d, spec.ell])
    for _ in range(40):
        a = random_cells(spec, rng, rng.uniform(0.0, 2 * p))
        assert span_direct(spec, a).rectangles == span_oracle(spec, a)


@pytest.mark.parametrize("spec,p", ORACLE_SPECS, ids=str)
def test_span_events_match_definition_oracle(spec, p):
    trials, seed = 60, 17
    spans = [span_oracle(spec, sample_bin(spec, p, trial_rng(seed, t))) for t in range(trials)]
    seen = next(rects[0] for rects in spans if rects)  # a rectangle that occurs
    for rect in (seen, Rectangle((1,) * spec.d, (2,) * spec.d)):
        hits = sum(rect in rects for rects in spans)
        event = EventSpec("spans", spec, rect)
        assert estimate_event_prob(event, p, trials, seed).p_hat == hits / trials
    for threshold in (2, 3):
        hits = sum(max((r.long for r in rects), default=0) >= threshold for rects in spans)
        event = EventSpec("long_span", spec, long_threshold=threshold)
        assert estimate_event_prob(event, p, trials, seed).p_hat == hits / trials
