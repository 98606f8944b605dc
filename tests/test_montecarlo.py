import csv
import math

import numpy as np
import pytest

from bootperc.structures import CellSet, DomainError, Rectangle, StructureSpec
from bootperc.analytic import QuadratureSettings, l_exact
from bootperc.dynamics import (
    BOTTOM_TO_TOP,
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    TOP_TO_BOTTOM,
    CrossDirection,
    closure,
    closure_batch,
    closure_uniform,
    is_crossed,
    is_semi_crossed,
    semi_percolates,
)
from bootperc.structures import grid_tables, threshold, threshold_table
from bootperc.montecarlo import (
    BLOCK_VERTICES,
    SWEEP_COLUMNS,
    Estimate,
    EventSpec,
    SweepConfig,
    SweepPoint,
    derive_seed,
    estimate_event_prob,
    estimate_lgap,
    estimate_p_alpha,
    run_sweep,
    sample_bin,
    sample_blocks,
    trial_rng,
    wilson_interval,
)
from test_dynamics import crossed_oracle, naive_closure, semi_crossed_oracle
from test_span import span_oracle


def test_wilson_interval_known_values():
    lo, hi = wilson_interval(5, 10)
    # Standard worked example: 5/10 gives roughly (0.237, 0.763).
    assert lo == pytest.approx(0.2366, abs=5e-4)
    assert hi == pytest.approx(0.7634, abs=5e-4)
    lo, hi = wilson_interval(0, 20)
    assert lo == 0.0 and 0.0 < hi < 0.2
    lo, hi = wilson_interval(20, 20)
    assert hi == 1.0 and 0.8 < lo < 1.0
    with pytest.raises(DomainError):
        wilson_interval(0, 0)


def test_trial_rng_reproducible_and_distinct():
    a = trial_rng(42, 0).random(4)
    b = trial_rng(42, 0).random(4)
    c = trial_rng(42, 1).random(4)
    d = trial_rng(43, 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_derive_seed_stable():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)


@pytest.mark.parametrize("seed,same", [(7, 7 + 2 ** 64), (-1, 2 ** 64 - 1)])
def test_seeds_are_taken_modulo_2_to_the_64(seed, same):
    assert derive_seed(seed, 3) == derive_seed(same, 3)
    assert estimate_lgap(2, 6, 0.3, 500, seed).p_hat == estimate_lgap(2, 6, 0.3, 500, same).p_hat


def test_sample_bin_reproducible():
    spec = StructureSpec.plain(5, 2, 2)
    a = sample_bin(spec, 0.4, trial_rng(1, 5))
    b = sample_bin(spec, 0.4, trial_rng(1, 5))
    assert a == b
    assert sample_bin(spec, 0.0, trial_rng(1, 0)).mask.sum() == 0
    assert sample_bin(spec, 1.0, trial_rng(1, 0)).mask.all()
    with pytest.raises(DomainError):
        sample_bin(spec, 1.5, trial_rng(1, 0))


def test_event_spec_validation():
    plain = StructureSpec.plain(4, 2, 2)
    star = StructureSpec.star(4, 2, 1, 2)
    slab = StructureSpec.slab(4, 2, 1, 3, 2)
    with pytest.raises(DomainError):
        EventSpec("nonsense", plain)
    with pytest.raises(DomainError):
        EventSpec("semi_percolates", plain)
    with pytest.raises(DomainError):
        EventSpec("crossed", star, Rectangle((1, 1), (4, 4)))
    with pytest.raises(DomainError):
        EventSpec("spans", plain)  # rectangle missing
    with pytest.raises(DomainError):
        EventSpec("long_span", plain)  # threshold missing
    # Valid combinations construct fine.
    EventSpec("percolates", plain)
    EventSpec("semi_crossed", star, Rectangle((1, 1), (4, 4)), axis=1)
    EventSpec("crossed", slab, Rectangle((1, 1), (4, 4)))


def test_event_spec_json_roundtrip():
    star = StructureSpec.star(4, 2, 1, 2)
    event = EventSpec("semi_crossed", star, Rectangle((1, 1), (4, 4)), axis=1)
    again = EventSpec.from_json(event.to_json(), star)
    assert again == event


def test_event_evaluate_spans_and_long_span():
    spec = StructureSpec.plain(6, 2, 2)
    a = CellSet(spec.shape, [(1, 1), (2, 2), (3, 3)])
    spans = EventSpec("spans", spec, Rectangle((1, 1), (3, 3)))
    assert spans.evaluate(a)
    assert not EventSpec("spans", spec, Rectangle((1, 1), (6, 6))).evaluate(a)
    assert EventSpec("long_span", spec, long_threshold=3).evaluate(a)
    assert not EventSpec("long_span", spec, long_threshold=4).evaluate(a)


def test_estimate_event_prob_deterministic():
    spec = StructureSpec.plain(3, 2, 2)
    event = EventSpec("percolates", spec)
    a = estimate_event_prob(event, 0.45, 300, master_seed=11)
    b = estimate_event_prob(event, 0.45, 300, master_seed=11)
    assert a == b
    assert a.ci_low <= a.p_hat <= a.ci_high


def test_estimate_event_prob_degenerate_densities():
    spec = StructureSpec.plain(3, 2, 2)
    event = EventSpec("percolates", spec)
    assert estimate_event_prob(event, 0.0, 50, 1).p_hat == 0.0
    assert estimate_event_prob(event, 1.0, 50, 1).p_hat == 1.0
    with pytest.raises(DomainError):
        estimate_event_prob(event, 0.5, 0, 1)


def test_estimate_p_alpha_on_exact_oracle():
    # Plain([2]^2, 2) percolates iff at least one of the two diagonals is
    # fully infected: P = 2 p^2 - p^4.  At alpha = 1/2 the root is 0.54120.
    spec = StructureSpec.plain(2, 2, 2)
    est = estimate_p_alpha(spec, "percolates", 0.5,
                           trials_per_eval=4000, seed=303, p_tol=0.01)
    assert abs(est.p_hat - 0.54120) < 0.03
    assert est.ci_high - est.ci_low < 0.01 + 1e-12
    with pytest.raises(DomainError):
        estimate_p_alpha(spec, "percolates", 1.5, 10, 1, 0.1)
    with pytest.raises(DomainError):
        estimate_p_alpha(spec, "percolates", 0.5, 10, 1, 0.0)


def test_estimate_p_alpha_refuses_event_on_another_structure():
    spec = StructureSpec.plain(2, 2, 2)
    same = EventSpec("percolates", StructureSpec.plain(2, 2, 2))
    assert (estimate_p_alpha(spec, same, 0.5, 50, 3, 0.1)
            == estimate_p_alpha(spec, "percolates", 0.5, 50, 3, 0.1))
    other = EventSpec("percolates", StructureSpec.plain(3, 2, 2))
    with pytest.raises(DomainError, match="not on"):
        estimate_p_alpha(spec, other, 0.5, 50, 3, 0.1)


def test_estimate_lgap_matches_exact():
    for ell, m, u in [(0, 4, 0.5), (1, 6, 0.35), (2, 3, 0.6)]:
        exact = l_exact(ell, m, u)
        est = estimate_lgap(ell, m, u, trials=40000, master_seed=5)
        sigma = math.sqrt(exact * (1 - exact) / 40000)
        assert abs(est.p_hat - exact) < 4 * sigma + 1e-9
    assert estimate_lgap(1, 0, 0.5, 100, 1).p_hat == 1.0
    with pytest.raises(DomainError):
        estimate_lgap(-1, 3, 0.5, 10, 1)


def test_estimate_lgap_deterministic():
    a = estimate_lgap(1, 5, 0.4, 5000, master_seed=99)
    b = estimate_lgap(1, 5, 0.4, 5000, master_seed=99)
    assert a == b


def test_sweep_config_and_run(tmp_path):
    config = SweepConfig.from_json({
        "masterSeed": 31,
        "grid": [
            {"structure": {"family": "plain", "n": 3, "d": 2, "r": 2},
             "event": {"kind": "percolates"},
             "p": [0.3, 0.5],
             "trials": 200},
        ],
    })
    assert len(config.points) == 2
    out = tmp_path / "results.csv"
    rows = run_sweep(config, str(out))
    assert len(rows) == 2
    with open(out) as handle:
        read = list(csv.DictReader(handle))
    assert list(read[0].keys()) == SWEEP_COLUMNS
    assert read[0]["family"] == "plain"
    assert float(read[0]["p"]) == 0.3
    assert 0.0 <= float(read[0]["pHat"]) <= 1.0
    # Re-running produces byte-identical output.
    rows2 = run_sweep(config, str(out))
    assert rows == rows2
    with pytest.raises(DomainError):
        SweepConfig.from_json({"masterSeed": 1, "grid": []})


# --- the blocked trial path against the per-trial reference -----------------

def reference_estimate(event, p, trials, seed):
    """estimate_event_prob written as one trial at a time."""
    spec = event.structure
    successes = sum(event.evaluate(sample_bin(spec, p, trial_rng(seed, t)))
                    for t in range(trials))
    return Estimate(successes / trials, trials,
                    *wilson_interval(successes, trials), seed)


@pytest.mark.parametrize("p", [0.0, 1.0, 0.3, 1 - 2 ** -53, 2 ** -60])
@pytest.mark.parametrize("seed", [0, -5, 2 ** 64 + 17, 2 ** 70 - 1])
def test_sample_blocks_rows_equal_sample_bin(p, seed):
    spec = StructureSpec.plain(100, 2, 2)  # 10 000 vertices: blocks of 6
    step = BLOCK_VERTICES // spec.num_vertices
    trials = 2 * step + 3
    blocks = list(sample_blocks(spec, p, seed, trials))
    assert [len(b) for b in blocks] == [step, step, 3]
    rows = np.concatenate(blocks)
    assert rows.shape == (trials,) + spec.shape and rows.dtype == bool
    for t in range(trials):
        assert np.array_equal(rows[t], sample_bin(spec, p, trial_rng(seed, t)).mask)


def test_sample_blocks_cut_is_exact_at_a_drawn_uniform():
    # p at a drawn uniform u, and one ulp above it: u's vertex is out, then in.
    spec = StructureSpec.plain(4, 2, 2)
    uniforms = trial_rng(9, 0).random(spec.num_vertices)
    u = uniforms[uniforms < 0.5][0]
    for p in (u, np.nextafter(u, 1.0)):
        row = next(sample_blocks(spec, float(p), 9, 1))[0]
        assert np.array_equal(row.ravel(), uniforms < p)
        assert row.ravel()[uniforms == u].item() == (p > u)


def test_sample_bin_is_its_definition_on_any_generator():
    # sample_bin draws Generator.random, not raw words: the raw words of an
    # MT19937 stream are 32 bits wide, so the raw-word rule gives another set.
    seed, shape, p = 5, (7, 9), 0.4
    got = sample_bin(shape, p, np.random.Generator(np.random.MT19937(seed))).mask
    want = np.random.Generator(np.random.MT19937(seed)).random(63) < p
    assert np.array_equal(got, want.reshape(shape))
    raw = np.random.MT19937(seed).random_raw(63) >> np.uint64(11)
    assert not np.array_equal(got.ravel(), raw * 2.0 ** -53 < p)


def lgap_oracle(ell, m, u, trials, seed):
    """Trials with no L-gap, from the definition: trial t's W = (m+1) + ell*m
    uniforms are words t*W, ..., (t+1)*W - 1 of the raw stream of
    Philox(key=seed), primary ones first, then ell rows of m secondary ones;
    a gap at i is primary i and i+1 and every secondary (j, i) empty."""
    width = (m + 1) + ell * m
    words = np.random.Philox(key=seed).random_raw(trials * width)
    count = 0
    for t in range(trials):
        occupied = [(int(w) >> 11) * 2.0 ** -53 < u for w in words[t * width:(t + 1) * width]]
        primary, secondary = occupied[:m + 1], occupied[m + 1:]
        count += not any(not primary[i] and not primary[i + 1]
                         and not any(secondary[j * m + i] for j in range(ell))
                         for i in range(m))
    return count


@pytest.mark.parametrize("ell,m,u,trials,seed", [
    (0, 300, 0.3, 500, 3),  # 217 trials a block
    (2, 40, 0.4, 1200, 2 ** 64 - 1),  # 541 trials a block
    (1, 1, 0.5, 20, 0),
])
@pytest.mark.parametrize("block", [BLOCK_VERTICES, 1, 1000])
def test_estimate_lgap_equals_definition_oracle(ell, m, u, trials, seed, block, monkeypatch):
    # Trial t is fixed by its stream position, so no block size changes the count.
    monkeypatch.setattr("bootperc.montecarlo.BLOCK_VERTICES", block)
    est = estimate_lgap(ell, m, u, trials, seed)
    assert round(est.p_hat * trials) == lgap_oracle(ell, m, u, trials, seed)


def test_sample_blocks_refuses_bad_density():
    with pytest.raises(DomainError):
        next(sample_blocks(StructureSpec.plain(3, 2, 2), 1.5, 1, 10))
    with pytest.raises(DomainError):
        estimate_event_prob(EventSpec("percolates", StructureSpec.plain(3, 2, 2)), -0.1, 10, 1)


PLAIN5 = StructureSpec.plain(5, 2, 2)
STAR4 = StructureSpec.star(4, 2, 1, 2)
SLAB4 = StructureSpec.slab(4, 2, 1, 3, 2)
# 300 trials of these fill one block of 218 or 256 rows and part of another.
SLAB10 = StructureSpec.slab(10, 2, 1, 3, 2)
PLAIN16 = StructureSpec.plain(16, 2, 2)
STAR10 = StructureSpec.star(10, 2, 1, 2)
STAR6 = StructureSpec.star(6, 2, 1, 2)


def _case(event, p, detail=""):
    spec = event.structure
    return pytest.param(event, p, id=f"{event.kind}-{spec.family}{spec.n}{detail}")


EVENT_CASES = [
    _case(EventSpec("percolates", PLAIN5), 0.3),
    _case(EventSpec("percolates", StructureSpec.plain(3, 3, 3)), 0.5),
    _case(EventSpec("percolates", StructureSpec.star(3, 2, 2, 2)), 0.7),
    _case(EventSpec("percolates", StructureSpec.slab(3, 2, 1, 4, 2)), 0.4),
    _case(EventSpec("semi_percolates", STAR4), 0.2),
    _case(EventSpec("spans", PLAIN5, Rectangle((1, 1), (5, 5))), 0.3),
    _case(EventSpec("long_span", PLAIN5, long_threshold=3), 0.15),
    _case(EventSpec("crossed", SLAB4, Rectangle((1, 1), (4, 3)), direction=BOTTOM_TO_TOP), 0.12),
    _case(EventSpec("semi_crossed", STAR4, Rectangle((2, 1), (3, 4)), axis=1), 0.12),
    # Crossings in all four orientations: R is the whole square (its ghost
    # plane lies outside [n]^d), touches two edges, or lies inside.
    _case(EventSpec("crossed", SLAB10, Rectangle((1, 1), (10, 10)), LEFT_TO_RIGHT), 0.05, "-whole-lr"),
    _case(EventSpec("crossed", SLAB10, Rectangle((3, 1), (10, 6)), RIGHT_TO_LEFT), 0.08, "-edge-rl"),
    _case(EventSpec("crossed", SLAB10, Rectangle((1, 3), (6, 10)), BOTTOM_TO_TOP), 0.08, "-edge-bt"),
    _case(EventSpec("crossed", SLAB10, Rectangle((3, 3), (8, 8)), TOP_TO_BOTTOM), 0.05, "-inside-tb"),
    # Semi-crossings on both axes, each with one fringe cut off at the edge.
    _case(EventSpec("semi_crossed", STAR10, Rectangle((1, 2), (6, 9)), axis=1), 0.12, "-axis1"),
    _case(EventSpec("semi_crossed", STAR10, Rectangle((2, 5), (9, 10)), axis=2), 0.08, "-axis2"),
    _case(EventSpec("spans", PLAIN16, Rectangle((6, 9), (6, 9))), 0.07, "-inside"),
    _case(EventSpec("spans", STAR6, Rectangle((3, 4), (3, 4))), 0.05, "-inside"),
    _case(EventSpec("long_span", STAR6, long_threshold=3), 0.08),
    _case(EventSpec("long_span", StructureSpec.slab(6, 2, 1, 3, 2), long_threshold=3), 0.05),
]


@pytest.mark.parametrize("event,p", EVENT_CASES)
def test_estimate_event_prob_equals_per_trial_loop(event, p):
    trials, seed = 300, -7
    est = estimate_event_prob(event, p, trials, seed)
    assert est == reference_estimate(event, p, trials, seed)
    assert 0.0 < est.p_hat < 1.0  # both outcomes occur, so the check has teeth


def reference_event(event, cells):
    """The event on one initial set, from the tests' own oracles alone: the
    naive closure, the span from its definition and the crossing oracles."""
    spec, rect = event.structure, event.rectangle
    if event.kind == "percolates":
        return len(naive_closure(spec, cells)) == spec.num_vertices
    if event.kind == "semi_percolates":
        closed = naive_closure(spec, cells)
        return all(v in closed for v in CellSet.full(spec.shape) if threshold(spec, v) == spec.r)
    if event.kind == "crossed":
        return crossed_oracle(spec, rect, cells, event.direction or LEFT_TO_RIGHT)
    if event.kind == "semi_crossed":
        return semi_crossed_oracle(spec, rect, cells, event.axis or 1)
    rects = span_oracle(spec, cells)
    if event.kind == "spans":
        return rect in rects
    return max((r.long for r in rects), default=0) >= event.long_threshold


@pytest.mark.parametrize("event,p", EVENT_CASES)
def test_event_count_matches_definition_oracles(event, p):
    # Rows at densities from p/2 to 2p, and R infected in every other row,
    # so that both outcomes occur.  The count of the first i + 1 rows less
    # that of the first i is row i's, and an empty block counts 0.
    spec = event.structure
    rng = np.random.default_rng([41, spec.n, spec.ell, round(1000 * p)])
    rows = rng.random((32,) + spec.shape) < rng.uniform(p / 2, 2 * p, (32,) + (1,) * len(spec.shape))
    if event.rectangle is not None:
        rows[::2][(slice(None),) + event.rectangle.slices] = True
    want = [int(reference_event(event, CellSet.from_mask(row))) for row in rows]
    counts = [event.count(rows[:i]) for i in range(len(rows) + 1)]
    assert np.diff(counts, prepend=0).tolist() == [0] + want
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("trials", [True, 2.5, 10.0, "10", 0])
def test_trial_count_rule_is_one_rule(trials):
    event = EventSpec("percolates", StructureSpec.plain(3, 2, 2))
    for route in (lambda: wilson_interval(1, trials),
                  lambda: estimate_event_prob(event, 0.3, trials, 1),
                  lambda: estimate_lgap(1, 5, 0.3, trials, 1),
                  lambda: SweepPoint(event.structure, event, 0.3, trials)):
        with pytest.raises(DomainError, match="trials must be"):
            route()
    assert estimate_event_prob(event, 0.3, np.int64(4), 1).trials == 4


@pytest.mark.parametrize("route", [lambda t: trial_rng(5, t), lambda t: derive_seed(5, t)],
                         ids=["trial_rng", "derive_seed"])
def test_trial_index_lies_in_64_bits(route):
    # trial_rng(5, -1) used to give the stream of trial_rng(4, 2**64 - 1),
    # and derive_seed(5, -1) a bare ValueError.
    for index in (-1, 2 ** 64):
        with pytest.raises(DomainError, match="outside"):
            route(index)
    route(2 ** 64 - 1)


@pytest.mark.parametrize("make", [
    lambda: estimate_p_alpha(StructureSpec.plain(3, 2, 2), "percolates", "0.5", 10, 1, 0.1),
    lambda: estimate_p_alpha(StructureSpec.plain(3, 2, 2), "percolates", 0.5, 10, 1, "0.1"),
    lambda: estimate_p_alpha(StructureSpec.plain(3, 2, 2), "percolates", 0.5, 10, 1, True),
    lambda: QuadratureSettings(abs_tol=True),
], ids=["alpha-string", "p_tol-string", "p_tol-boolean", "abs_tol-boolean"])
def test_tolerances_and_levels_follow_the_number_rule(make):
    # The strings raised a bare TypeError, and True ran as 1.0.
    with pytest.raises(DomainError, match="must be a number"):
        make()


CLOSURE_SPECS = [
    StructureSpec.plain(6, 2, 2),
    StructureSpec.plain(4, 3, 2),
    StructureSpec.plain(4, 3, 3),
    StructureSpec.star(4, 2, 2, 2),
    StructureSpec.star(1, 2, 2, 2),  # horizontal axes of length 1
    StructureSpec.slab(4, 2, 1, 4, 2),
    StructureSpec.slab(3, 2, 2, 4, 3),
    StructureSpec.plain(1, 3, 1),  # a single vertex
    StructureSpec.plain(5, 2, 9),  # threshold above every neighbour count
]


@pytest.mark.parametrize("spec", CLOSURE_SPECS, ids=str)
def test_closure_batch_equals_closure(spec):
    rng = np.random.default_rng([spec.n, spec.d, spec.r, spec.ell, spec.k])
    density = rng.uniform(0.0, 0.6, (40,) + (1,) * len(spec.shape))
    masks = rng.random((40,) + spec.shape) < density
    before = masks.copy()
    closed = closure_batch(spec, masks)
    assert np.array_equal(masks, before)  # the input block is not changed
    for row, got in zip(masks, closed):
        assert np.array_equal(got, closure(spec, CellSet.from_mask(row)).mask)
    with pytest.raises(DomainError):
        closure_batch(spec, masks[:, :1] if spec.n > 1 else masks[..., None])


def test_blocks_of_one_trial_on_a_large_structure():
    spec = StructureSpec.plain(257, 2, 2)
    assert spec.num_vertices > BLOCK_VERTICES
    assert [len(b) for b in sample_blocks(spec, 0.5, 3, 3)] == [1, 1, 1]
    event = EventSpec("percolates", spec)
    outcomes = set()
    for p in (0.04, 0.09):
        est = estimate_event_prob(event, p, 3, 3)
        assert est == reference_estimate(event, p, 3, 3)
        outcomes.add(est.p_hat)
    assert outcomes == {0.0, 1.0}


# --- the closure engine against the engine it replaced ------------------------

def reference_closure_flat(nbrs, thresholds, infected):
    """Counter/frontier closure on one flat grid, with an O(|V|) bincount and
    threshold test every round: the single-grid engine that served
    ``closure``, ``closure_uniform`` and the crossing events before the
    block engine, kept here as its reference.  Mutates and returns
    ``infected``."""
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


def reference_closure(spec, mask):
    nbrs, _ = grid_tables(spec.shape)
    return reference_closure_flat(nbrs, threshold_table(spec), mask.ravel().copy()).reshape(mask.shape)


def random_block(rng, rows, shape):
    """Rows of random initial sets, each at its own density in [0, 0.6)."""
    density = rng.uniform(0.0, 0.6, (rows,) + (1,) * len(shape))
    return rng.random((rows,) + shape) < density


# 130 x 130 has more than 2**14 vertices, so a single grid takes sparse rounds.
ENGINE_SPECS = CLOSURE_SPECS + [StructureSpec.plain(130, 2, 2)]


@pytest.mark.parametrize("spec", ENGINE_SPECS, ids=str)
def test_closure_engine_equals_reference(spec):
    rng = np.random.default_rng([7, spec.n, spec.d, spec.r, spec.ell, spec.k])
    small = random_block(rng, 40 if spec.num_vertices < 1000 else 3, spec.shape)
    for row, got in zip(small, closure_batch(spec, small)):
        want = reference_closure(spec, row)
        assert np.array_equal(got, want)
        assert np.array_equal(closure(spec, CellSet.from_mask(row)).mask, want)
    # A block of at least 2**14 vertices takes the wide and narrow rounds.
    large = random_block(rng, (1 << 14) // spec.num_vertices + 1, spec.shape)
    for row, got in zip(large, closure_batch(spec, large)):
        assert np.array_equal(got, reference_closure(spec, row))


@pytest.mark.parametrize("lo,hi,t", [
    ((1, 1), (6, 6), 2),
    ((2, 3), (5, 9), 1),
    ((1, 1, 1), (4, 4, 4), 3),
    ((2, 1, 1), (3, 3, 4), 2),
    ((1, 1), (6, 6), 9),  # above every neighbour count
    ((1, 1), (130, 130), 2),  # more than 2**14 vertices
])
def test_closure_uniform_equals_reference(lo, hi, t):
    box = Rectangle(lo, hi)
    rng = np.random.default_rng([11, t, *hi])
    nbrs, size = grid_tables(box.dim)
    for density in (0.02, 0.1, 0.3):
        mask = rng.random(hi) < density
        inside = tuple(slice(a - 1, b) for a, b in zip(lo, hi))
        want = reference_closure_flat(nbrs, np.full(size, t), mask[inside].ravel().copy())
        got = closure_uniform(box, CellSet.from_mask(mask), t)
        assert np.array_equal(got.mask[inside].ravel(), want)
        assert not (got.mask & ~np.pad(np.ones(box.dim, dtype=bool),
                                       [(a - 1, 0) for a in lo])).any()


# --- event inputs are checked when the event is built -------------------------

@pytest.mark.parametrize("make", [
    lambda: EventSpec("semi_crossed", STAR4, Rectangle((1, 1), (4, 4)), axis=0),
    lambda: EventSpec("semi_crossed", STAR4, Rectangle((1, 1), (4, 4)), axis=3),
    lambda: EventSpec("semi_crossed", STAR4, Rectangle((1, 1), (4, 4)), axis="1"),
    lambda: EventSpec("semi_crossed", STAR4, Rectangle((1, 1), (4, 4)), axis=1.5),
    lambda: EventSpec("crossed", SLAB4, Rectangle((1, 1), (4, 4)), CrossDirection(3)),
    lambda: EventSpec("crossed", SLAB4, Rectangle((1, 1), (4, 4)), CrossDirection(1.7)),
    lambda: EventSpec("crossed", SLAB4, Rectangle((1, 1), (4, 4)), CrossDirection(1, "false")),
    lambda: EventSpec("crossed", StructureSpec.slab(4, 3, 1, 3, 2), Rectangle((1, 1, 1), (4, 4, 4))),
    lambda: EventSpec("spans", StructureSpec.plain(6, 2, 2), Rectangle((1, 1, 1), (9, 9, 9))),
    lambda: EventSpec("spans", PLAIN5, Rectangle((1, 1), (5, 6))),
    lambda: EventSpec("crossed", SLAB4, Rectangle((2, 1), (5, 4))),
    lambda: EventSpec("semi_crossed", STAR4, Rectangle((0, 1), (2, 2))),
    lambda: EventSpec("long_span", PLAIN5, Rectangle((1, 1), (6, 6)), long_threshold=3),
    lambda: EventSpec("long_span", PLAIN5, long_threshold="3"),
    lambda: EventSpec("long_span", PLAIN5, long_threshold=True),
    lambda: Rectangle((1.5, 1), (3, 3)),
])
def test_event_spec_refuses_bad_inputs(make):
    with pytest.raises(DomainError):
        make()


def test_event_spec_keeps_good_inputs():
    event = EventSpec("semi_crossed", STAR4, Rectangle((1, 1), (4, 4)), axis=np.int64(2))
    assert event.axis == 2 and type(event.axis) is int
    assert CrossDirection(np.int64(2), np.bool_(True)) == TOP_TO_BOTTOM
    assert EventSpec("long_span", PLAIN5, long_threshold=2.5).long_threshold == 2.5


# --- each event rule is one function, shared by EventSpec and the events ------

SQUARE = Rectangle((1, 1), (4, 4))

# (id, kind, structure, rectangle, axis); a crossing axis goes into a
# CrossDirection.
BAD_EVENT_INPUTS = [
    ("crossed-star", "crossed", STAR4, SQUARE, 1),
    ("crossed-d3", "crossed", StructureSpec.slab(4, 3, 1, 3, 2), Rectangle((1, 1, 1), (4, 4, 4)), 1),
    ("crossed-axis0", "crossed", SLAB4, SQUARE, 0),
    ("crossed-axis3", "crossed", SLAB4, SQUARE, 3),
    ("crossed-axis-string", "crossed", SLAB4, SQUARE, "1"),
    ("crossed-axis-float", "crossed", SLAB4, SQUARE, 1.5),
    ("crossed-out-of-bounds", "crossed", SLAB4, Rectangle((2, 1), (5, 4)), 1),
    ("semi_crossed-slab", "semi_crossed", SLAB4, SQUARE, 1),
    ("semi_crossed-plain", "semi_crossed", PLAIN5, SQUARE, 1),
    ("semi_crossed-axis0", "semi_crossed", STAR4, SQUARE, 0),
    ("semi_crossed-axis3", "semi_crossed", STAR4, SQUARE, 3),
    ("semi_crossed-axis-string", "semi_crossed", STAR4, SQUARE, "1"),
    ("semi_crossed-axis-float", "semi_crossed", STAR4, SQUARE, 1.5),
    ("semi_crossed-out-of-bounds", "semi_crossed", STAR4, Rectangle((0, 1), (2, 2)), 1),
    ("semi_crossed-wrong-arity", "semi_crossed", STAR4, Rectangle((1, 1, 1), (2, 2, 2)), 1),
    ("semi_percolates-plain", "semi_percolates", PLAIN5, None, None),
    ("semi_percolates-slab", "semi_percolates", SLAB4, None, None),
]


def event_routes(kind, spec, rect, axis):
    """The same event input built as an EventSpec and passed to the public
    function of its kind."""
    cells = CellSet(spec.shape)
    if kind == "crossed":
        return (lambda: EventSpec(kind, spec, rect, CrossDirection(axis)),
                lambda: is_crossed(spec, rect, cells, CrossDirection(axis)))
    if kind == "semi_crossed":
        return (lambda: EventSpec(kind, spec, rect, axis=axis),
                lambda: is_semi_crossed(spec, rect, cells, axis))
    return lambda: EventSpec(kind, spec), lambda: semi_percolates(spec, cells)


@pytest.mark.parametrize("case", BAD_EVENT_INPUTS, ids=[case[0] for case in BAD_EVENT_INPUTS])
def test_bad_event_input_is_refused_alike_on_both_routes(case):
    messages = []
    for make in event_routes(*case[1:]):
        with pytest.raises(DomainError) as info:
            make()
        messages.append(str(info.value))
    assert messages[0] == messages[1]
