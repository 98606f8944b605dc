import csv
import hashlib
import json
import math
import sys

import numpy as np
import pytest

from bootperc.structures import CellSet, DomainError, Rectangle, StructureSpec
from bootperc.analytic import (
    QuadratureSettings,
    beta,
    g,
    l_exact,
    lambda_constant,
    lambda_table,
    q_of_p,
)
from bootperc.dynamics import (
    BOTTOM_TO_TOP,
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    TOP_TO_BOTTOM,
    CrossDirection,
    closure,
    closure_batch,
    closure_uniform,
    has_double_gap,
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
    _VECTOR_VERTICES,
    _draw_blocks,
    _hits,
    _philox_words,
    _seed_word,
)
from bootperc.span import find_spanned_component, find_spanned_rectangle
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


def test_wilson_interval_holds_its_estimate():
    # The exact Wilson bounds are 0 at no successes and 1 at all successes.
    for n in range(1, 2001):
        assert wilson_interval(0, n)[0] == 0.0 and wilson_interval(n, n)[1] == 1.0
    for n in range(1, 400):
        for s in range(n + 1):
            lo, hi = wilson_interval(s, n)
            assert lo <= s / n <= hi


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


@pytest.mark.parametrize("estimate", [
    lambda seed: estimate_event_prob(EventSpec("percolates", StructureSpec.plain(3, 2, 2)),
                                     0.5, 10, seed),
    lambda seed: estimate_p_alpha(StructureSpec.plain(3, 2, 2), "percolates", 0.5, 10, seed,
                                  0.25),
    lambda seed: estimate_lgap(1, 3, 0.5, 10, seed),
], ids=["event_prob", "p_alpha", "lgap"])
@pytest.mark.parametrize("seed,kept", [(np.int64(3), 3), (np.uint64(3), 3),
                                       (2 ** 64 + 3, 2 ** 64 + 3)],
                         ids=["int64", "uint64", "past-2**64"])
def test_estimates_keep_the_master_seed_as_a_python_int(estimate, seed, kept):
    # A numpy seed was checked and kept as given, which JSON cannot write;
    # the seed is kept whole, not modulo 2**64.
    est = estimate(seed)
    assert type(est.master_seed) is int and est.master_seed == kept
    assert json.loads(json.dumps(est.master_seed)) == kept


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
    # The empty span's longest side is 0.
    empty = CellSet(spec.shape)
    assert EventSpec("long_span", spec, long_threshold=0).evaluate(empty)
    assert not EventSpec("long_span", spec, long_threshold=0.5).evaluate(empty)


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


def test_estimate_p_alpha_refuses_an_event_that_does_not_increase():
    # A span equal to R can be lost by adding cells, so P(spans) need not
    # cross alpha once and bisection does not locate its p_alpha.
    spec = StructureSpec.plain(4, 2, 2)
    event = EventSpec("spans", spec, Rectangle((1, 1), (2, 2)))
    with pytest.raises(DomainError, match="does not increase with p") as info:
        estimate_p_alpha(spec, event, 0.5, 50, 3, 0.1)
    assert "\n" not in str(info.value)


def bisection_oracle(event, alpha, trials, seed, p_tol):
    """The bisection bracket with ``estimate_event_prob`` at one master seed
    on every step."""
    lo, hi = 0.0, 1.0
    while hi - lo >= p_tol:
        mid = 0.5 * (lo + hi)
        if estimate_event_prob(event, mid, trials, seed).p_hat >= alpha:
            hi = mid
        else:
            lo = mid
    return lo, hi


# Every increasing kind, each at an alpha whose root is inside (0, 1).
ALPHA_STAR = StructureSpec.star(4, 2, 1, 2)
P_ALPHA_CASES = [
    (EventSpec("percolates", StructureSpec.plain(3, 3, 3)), 0.5),
    (EventSpec("semi_percolates", ALPHA_STAR), 0.3),
    (EventSpec("crossed", StructureSpec.slab(4, 2, 1, 3, 2), Rectangle((1, 1), (4, 3)),
               direction=BOTTOM_TO_TOP), 0.5),
    (EventSpec("semi_crossed", ALPHA_STAR, Rectangle((2, 1), (3, 4)), axis=1), 0.7),
    (EventSpec("long_span", StructureSpec.plain(5, 2, 2), long_threshold=3), 0.5),
]


@pytest.mark.parametrize("plane_vertices", [None, 0], ids=["planes", "frontier"])
@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("event,alpha", P_ALPHA_CASES, ids=[e.kind for e, _ in P_ALPHA_CASES])
def test_estimate_p_alpha_equals_bisection_on_estimate_event_prob(event, alpha, seed,
                                                                  plane_vertices, monkeypatch):
    if plane_vertices is not None:
        monkeypatch.setattr("bootperc.dynamics._PLANE_VERTICES", plane_vertices)
    spec = event.structure
    est = estimate_p_alpha(spec, event, alpha, 100, seed, 0.01)
    assert (est.ci_low, est.ci_high) == bisection_oracle(event, alpha, 100, seed, 0.01)
    assert est.trials == 100 and 0.0 < est.ci_low < est.ci_high < 1.0


@pytest.mark.parametrize("spec,trials,p_tol", [
    (StructureSpec.plain(2, 2, 2), 2 ** 16 + 5, 0.1),  # two blocks of rows
    (StructureSpec.plain(2, 2, 2), 10, 2.0 ** -52),  # 53 steps, the most
    (StructureSpec.plain(182, 2, 2), 3, 0.02),  # over 2**15 cells: one trial a block
    # K steps keep K-bit cells: uint16 at 9 and 16, uint32 at 17 and 32, uint64 at 33.
    *[(StructureSpec.plain(2, 2, 2), 10, math.ldexp(1.5, -steps)) for steps in (9, 16, 17, 32, 33)],
], ids=["two-blocks", "53-steps", "one-trial-blocks",
        "9-steps", "16-steps", "17-steps", "32-steps", "33-steps"])
def test_estimate_p_alpha_equals_bisection_across_blocks(spec, trials, p_tol):
    event = EventSpec("percolates", spec)
    got = estimate_p_alpha(spec, event, 0.5, trials, 2 ** 64 - 1, p_tol)
    assert (got.ci_low, got.ci_high) == bisection_oracle(event, 0.5, trials, 2 ** 64 - 1, p_tol)


def test_top_bits_below_a_grid_index_are_the_uniform_rule():
    # At grid point i * 2**-K the uniform rule's cut ceil(p * 2**53) is
    # i * 2**(53 - K), so word w is a hit exactly when (w >> (64 - K)) < i:
    # the comparison each row of estimate_p_alpha makes.
    for steps in range(1, 54):
        unit = 1 << (64 - steps)
        marks = [unit * j for j in (1, 1 << (steps - 1), (1 << steps) - 1)]
        words = np.array([0, 2 ** 64 - 1, *marks, *(m - 1 for m in marks)], np.uint64)
        for i in (0, 1, 1 << (steps - 1), (1 << steps) - 1, 1 << steps):
            assert np.array_equal(words >> np.uint64(64 - steps) < np.uint64(i),
                                  _hits(words.copy(), math.ldexp(i, -steps))), (steps, i)


def test_estimate_p_alpha_with_no_step_draws_nothing():
    est = estimate_p_alpha(StructureSpec.plain(2, 2, 2), "percolates", 0.5, 10, 1, 1.5)
    assert est == Estimate(0.5, 0, 0.0, 1.0, 1)


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


def test_sweep_rows_name_their_event(tmp_path):
    # Both rows were written with the bare kind "crossed", so that they
    # differed only in their seed and pHat.
    slab = {"family": "slab", "n": 4, "d": 2, "ell": 1, "k": 3, "r": 2}
    grid = [{"structure": slab, "p": 0.3, "trials": 50,
             "event": {"kind": "crossed", "rect": [[1, 1], [4, 4]], "direction": name}}
            for name in ("left-to-right", "bottom-to-top")]
    config = SweepConfig.from_json({"masterSeed": 9, "grid": grid})
    out = tmp_path / "rows.csv"
    run_sweep(config, str(out))
    with open(out) as handle:
        events = [row["event"] for row in csv.DictReader(handle)]
    assert events == [
        '{"kind":"crossed","rect":[[1,1],[4,4]],"direction":{"axis":1,"reverse":false}}',
        '{"kind":"crossed","rect":[[1,1],[4,4]],"direction":{"axis":2,"reverse":false}}',
    ]
    assert [EventSpec.from_json(json.loads(event), config.points[0].structure)
            for event in events] == [point.event for point in config.points]


def test_sweep_of_numpy_integers_writes_the_rows_of_python_ints(tmp_path):
    # With an int64 trial count pHat, ciLow and ciHigh were written as
    # "np.float64(0.6)", since the estimate divided by the count as given.
    spec = StructureSpec.plain(3, 2, 2)
    event = EventSpec("percolates", spec)
    texts = []
    for trials, seed in ((10, 3), (np.int64(10), np.int64(3))):
        config = SweepConfig((SweepPoint(spec, event, 0.5, trials),), seed)
        assert type(config.points[0].trials) is int and type(config.master_seed) is int
        run_sweep(config, str(tmp_path / "rows.csv"))
        texts.append((tmp_path / "rows.csv").read_text())
    assert texts[1] == texts[0]
    assert "np." not in texts[0]


# --- the blocked trial path against the per-trial reference -----------------

def reference_estimate(event, p, trials, seed):
    """estimate_event_prob written as one trial at a time."""
    spec = event.structure
    successes = sum(event.evaluate(sample_bin(spec, p, trial_rng(seed, t)))
                    for t in range(trials))
    return Estimate(successes / trials, trials,
                    *wilson_interval(successes, trials), seed)


def block_rule(size):
    """The trials in a block of grids of ``size`` cells: 64 * W, W the most
    with B * size <= 2**18 but at least 1, on a grid of at most 2**15 cells,
    and one above."""
    return 64 * max(1, 2 ** 18 // (64 * size)) if size <= 2 ** 15 else 1


# Structures on both sides of _VECTOR_VERTICES: plain(100, 2, 2) and
# plain(_VECTOR_VERTICES, 1, 1) re-key one Philox per trial, the others
# draw their words with _philox_words.
SAMPLE_SPECS = [StructureSpec.plain(100, 2, 2), StructureSpec.plain(_VECTOR_VERTICES, 1, 1),
                StructureSpec.plain(_VECTOR_VERTICES - 1, 1, 1), StructureSpec.star(3, 2, 1, 2),
                StructureSpec.plain(2, 2, 2)]


@pytest.mark.parametrize("p", [0.0, 1.0, 0.3, 1 - 2 ** -53, 2 ** -60])
@pytest.mark.parametrize("seed", [0, -5, 2 ** 64 + 17, 2 ** 70 - 1])
@pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=str)
def test_sample_blocks_rows_equal_sample_bin(spec, p, seed):
    step = block_rule(spec.num_vertices)  # plain(100, 2, 2): blocks of 64
    trials = min(2 * step + 3, 140)
    blocks = list(sample_blocks(spec, p, seed, trials))
    assert [len(b) for b in blocks] == [min(step, trials - s) for s in range(0, trials, step)]
    rows = np.concatenate(blocks)
    assert rows.shape == (trials,) + spec.shape and rows.dtype == bool
    for t in range(trials):
        assert np.array_equal(rows[t], sample_bin(spec, p, trial_rng(seed, t)).mask)


def test_sample_blocks_fill_one_block_and_part_of_a_second():
    spec = StructureSpec.star(3, 2, 1, 2)
    assert spec.num_vertices < _VECTOR_VERTICES
    step = block_rule(spec.num_vertices)
    assert step == 64 * 227  # 227 words of bit planes
    blocks = list(sample_blocks(spec, 0.3, -1, step + 5))
    assert [len(b) for b in blocks] == [step, 5]
    for t, row in enumerate(np.concatenate(blocks)):
        assert np.array_equal(row, sample_bin(spec, 0.3, trial_rng(-1, t)).mask)


# Sizes that are not multiples of 4, trial indices at both ends of [0, 2**64),
# and master seed -1, whose seed word is 2**64 - 1.
@pytest.mark.parametrize("size", [1, 3, 5, 18, 63])
@pytest.mark.parametrize("seed", [0, 5, 2 ** 64 - 1, -1])
def test_philox_words_equal_random_raw(size, seed):
    seed_word = _seed_word(seed)
    for first, count in ((0, 6), (2 ** 64 - 3, 3)):
        words = _philox_words(seed_word, first, count, size)
        assert words.shape == (count, size) and words.dtype == np.uint64
        for t, row in enumerate(words, start=first):
            want = np.random.Philox(key=seed_word * 2 ** 64 + t).random_raw(size)
            assert np.array_equal(row, want)


@pytest.mark.parametrize("block", [BLOCK_VERTICES, 150])
@pytest.mark.parametrize("size", [3, _VECTOR_VERTICES - 1, _VECTOR_VERTICES, 100])
@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_draw_blocks_rows_are_the_trial_streams(size, seed, block, monkeypatch):
    # Chunks of one trial, of several and of the whole block, on both sides
    # of _VECTOR_VERTICES; row t is trial t's first size raw words.
    monkeypatch.setattr("bootperc.montecarlo.BLOCK_VERTICES", block)
    rows = np.concatenate(list(_draw_blocks(size, seed, 7, lambda words: words, np.uint64)))
    assert rows.shape == (7, size) and rows.dtype == np.uint64
    for t, row in enumerate(rows):
        assert np.array_equal(row, trial_rng(seed, t).bit_generator.random_raw(size))


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


@pytest.mark.parametrize("trials", [2.5, "5", True, -3])
def test_sample_blocks_holds_trials_to_the_integer_rule(trials):
    # 2.5 and "5" raised a bare TypeError from range, True ran one trial and
    # -3 yielded nothing.
    with pytest.raises(DomainError, match="trials must be|trials = .* outside") as info:
        next(sample_blocks(StructureSpec.plain(2, 2, 2), 0.3, 1, trials))
    assert "\n" not in str(info.value)


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
    # so that both outcomes occur.  Each row's answer is the oracle's, and an
    # empty block gives an empty answer.
    spec = event.structure
    rng = np.random.default_rng([41, spec.n, spec.ell, round(1000 * p)])
    rows = rng.random((32,) + spec.shape) < rng.uniform(p / 2, 2 * p, (32,) + (1,) * len(spec.shape))
    if event.rectangle is not None:
        rows[::2][(slice(None),) + event.rectangle.slices] = True
    want = [reference_event(event, CellSet.from_mask(row)) for row in rows]
    held = event.holds(rows)
    assert held.dtype == bool and held.tolist() == want
    assert event.holds(rows[:0]).tolist() == []
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("trials", [True, 2.5, 10.0, "10", 0, 2 ** 64 + 1])
def test_trial_count_rule_is_one_rule(trials):
    event = EventSpec("percolates", StructureSpec.plain(3, 2, 2))
    for route in (lambda: wilson_interval(1, trials),
                  lambda: estimate_event_prob(event, 0.3, trials, 1),
                  lambda: estimate_lgap(1, 5, 0.3, trials, 1),
                  lambda: SweepPoint(event.structure, event, 0.3, trials)):
        with pytest.raises(DomainError, match="trials must be|trials = .* outside"):
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
    lambda: beta(2, True),
    lambda: beta(2, "0.3"),
    lambda: l_exact(1, 5, True),
    lambda: g(2, True),
    lambda: g(2, "1"),
    lambda: q_of_p(False),
    lambda: q_of_p("0.3"),
], ids=["alpha-string", "p_tol-string", "p_tol-boolean", "abs_tol-boolean", "beta-u-boolean",
        "beta-u-string", "l_exact-u-boolean", "g-z-boolean", "g-z-string", "q_of_p-boolean",
        "q_of_p-string"])
def test_tolerances_and_levels_follow_the_number_rule(make):
    # The strings raised a bare TypeError, and True ran as 1.0.
    with pytest.raises(DomainError, match="must be a number"):
        make()


FLOAT_MAX = int(sys.float_info.max)
STAR = StructureSpec.star(4, 2, 1, 2)
SLAB = StructureSpec.slab(4, 2, 1, 3, 2)
WHOLE = Rectangle((1, 1), (4, 4))


@pytest.mark.parametrize("make,message", [
    (lambda: q_of_p(1.0), "infinite at p = 1"),
    (lambda: wilson_interval(7, 5), "outside"),
    (lambda: wilson_interval(-1, 5), "outside"),
    (lambda: beta(10 ** 400, 0.5), "k = 1"),
    (lambda: g(2, 10 ** 400), "z = 1"),
    (lambda: g(10 ** 400, 1.0), "k = 1"),
    (lambda: l_exact(10 ** 400, 3, 0.5), "ell = 1"),
    (lambda: wilson_interval(0, 10 ** 400), "trials = 1"),
    (lambda: QuadratureSettings(10 ** 400), "abs_tol"),
    (lambda: estimate_event_prob(EventSpec("percolates", StructureSpec.plain(3, 2, 2)),
                                 0.5, 10 ** 400, 1), "trials = 1"),
    (lambda: lambda_constant(10 ** 400, 2), "d = 1"),
    (lambda: lambda_constant(10 ** 400, 3), "d = 1"),
    (lambda: lambda_table(10 ** 400), "d_max = 1"),
    (lambda: StructureSpec("plain", 4, 0, 2), "d = 0 outside"),
    (lambda: StructureSpec("plain", 4, 2, 0), "r = 0 outside"),
    (lambda: StructureSpec("star", 4, 2, 2, -1, 2), "ell = -1 outside"),
    (lambda: estimate_p_alpha(StructureSpec.plain(3, 2, 2), "percolates", 0.5, 2 ** 64 + 1,
                              1, 2.0), "trials = 18446744073709551617 outside"),
    (lambda: estimate_lgap(1, -1, 0.5, 10, 1), "m = -1 outside"),
    (lambda: estimate_p_alpha(StructureSpec.plain(3, 2, 2), "percolates", 0.5, 10, 1,
                              2.0 ** -53), "p_tol must exceed 2"),
    (lambda: has_double_gap((4, 4), [], axes=[0]), "axis = 0 outside"),
    (lambda: find_spanned_component(STAR, CellSet(STAR.shape), 0), "target length = 0 outside"),
    (lambda: l_exact(1, -2, 0.5), "m = -2 outside"),
    (lambda: lambda_constant(3, 1), "r = 1 outside"),
    (lambda: g(2, math.inf), "z = inf outside"),
    (lambda: g(2, np.float64(math.inf)), "z = inf outside"),
    (lambda: g(2, math.nan), "z must be a number"),
    (lambda: EventSpec("long_span", STAR, long_threshold=math.inf),
     "length threshold = inf outside"),
    (lambda: estimate_lgap(np.int64(2 ** 62), np.int64(4), 0.5, 10, 1), "wider than"),
], ids=["q_of_p-one", "wilson-above-trials", "wilson-negative", "beta-k-past-float",
        "g-z-past-float", "g-k-past-float", "l_exact-ell-past-float", "wilson-trials-past-float",
        "abs_tol-past-float", "trials-past-64-bits", "lambda-d-past-float",
        "lambda-d-past-float-r3", "lambda_table-d_max-past-float", "structure-d-zero",
        "structure-r-zero", "structure-ell-negative", "p_alpha-trials-past-64-bits",
        "lgap-m-negative", "p_tol-below-a-uniform", "double-gap-axis-zero", "component-length-zero",
        "l_exact-m-below-minus-one", "lambda-r-one", "g-z-inf", "g-z-float64-inf", "g-z-nan",
        "long-threshold-inf", "lgap-width-past-int64"])
def test_values_out_of_their_range_are_refused(make, message):
    # The two Wilson intervals died with a bare "math domain error", the
    # integers past a float with a bare OverflowError, QuadratureSettings
    # took 10**400, and 10**400 trials started a loop with no practical end,
    # as did the lambda table; lambda of a d past a float returned 0.0.
    # g(2, inf) returned 0.0 while g(2, np.float64(inf)) was refused, and an
    # infinite length threshold was written to JSON as Infinity.  An lgap
    # width of numpy integers wrapped to 0 and passed the width budget.
    with pytest.raises(DomainError, match=message) as info:
        make()
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("holds", [
    lambda: StructureSpec("plain", 1, 1, 1).num_vertices == 1,
    lambda: StructureSpec.star(2, 2, 0, 2).shape == (2, 2),
    lambda: sample_bin((3, 3), 0, trial_rng(1, 0)).mask.sum() == 0,
    lambda: sample_bin((3, 3), 1, trial_rng(1, 0)).mask.sum() == 9,
    lambda: wilson_interval(0, 1)[0] == 0.0 and wilson_interval(1, 1)[1] == 1.0,
    lambda: wilson_interval(2 ** 64, 2 ** 64)[1] == 1.0,
    lambda: trial_rng(5, 0) is not None and derive_seed(5, 0) >= 0,
    lambda: estimate_event_prob(EventSpec("percolates", STAR), 0.3, 1, 1).trials == 1,
    lambda: estimate_lgap(0, 0, 0.5, 1, 1).p_hat == 1.0,
    lambda: len(closure_uniform(Rectangle((1, 1), (3, 3)), [(2, 2)], 1)) == 9,
    lambda: EventSpec("crossed", SLAB, WHOLE, BOTTOM_TO_TOP).direction.axis == SLAB.d,
    lambda: EventSpec("semi_crossed", STAR, WHOLE, axis=2).axis == STAR.d,
    lambda: has_double_gap((4, 4), [], axes=[2]),
    lambda: find_spanned_rectangle(STAR, CellSet(STAR.shape), 1) is None,
    lambda: find_spanned_component(STAR, CellSet(STAR.shape), 1) is None,
    lambda: beta(1, 0.5) > 0.5 and beta(FLOAT_MAX, 0.5) == 1.0,
    lambda: g(FLOAT_MAX, 1.0) == 0.0 and g(2, sys.float_info.max) == 0.0,
    lambda: l_exact(0, -1, 0.5) == 1.0 and l_exact(FLOAT_MAX, 1, 0.5) == 1.0,
    lambda: lambda_constant(2, 2) == pytest.approx(math.pi ** 2 / 18, abs=1e-6),
    lambda: [(d, r) for d, r, _ in lambda_table(2)] == [(2, 2)],
    lambda: g(2, np.float32(0.5)) == g(2, 0.5),
    lambda: beta(2, np.float32(0.5)) == beta(2, 0.5),
    lambda: lambda_constant(2, 2, QuadratureSettings(np.float32(1e-6)))
    == lambda_constant(2, 2, QuadratureSettings(float(np.float32(1e-6)))),
    lambda: g(np.int64(2), 0.5) == g(2, 0.5),
    lambda: g(FLOAT_MAX, 2) == 0.0,
    lambda: EventSpec("long_span", STAR, long_threshold=-sys.float_info.max).long_threshold < 0,
    lambda: l_exact(np.int64(2 ** 63 - 1), 3, 0.5) == l_exact(2 ** 63 - 1, 3, 0.5) == 1.0,
    lambda: json.dumps(EventSpec("long_span", STAR, long_threshold=np.float32(2.5)).to_json())
    == '{"kind": "long_span", "longThreshold": 2.5}',
    lambda: type(EventSpec("long_span", STAR, long_threshold=np.int64(3)).long_threshold) is int,
], ids=["structure-ones", "star-ell-zero", "p-zero", "p-one", "wilson-one-trial",
        "wilson-2**64-trials", "index-zero", "one-trial", "lgap-ell-m-zero",
        "uniform-t-one", "crossing-axis-d", "semi-crossing-axis-d", "double-gap-axis-ndim",
        "rectangle-length-one", "component-length-one", "beta-k-edges", "g-edges",
        "l_exact-edges", "lambda-r-two", "lambda_table-two", "g-z-float32", "beta-u-float32",
        "abs_tol-float32", "g-k-int64", "g-k-past-int-z", "long-threshold-finite",
        "l_exact-ell-int64", "long-threshold-float32-json", "long-threshold-int64"])
def test_values_on_the_edge_of_their_range_are_accepted(holds):
    # Under -W error a float32 z or abs_tol raised "overflow encountered in
    # cast", and g(FLOAT_MAX, 2) with an integer z an OverflowError.  l_exact
    # of an int64 ell overflowed in ell + 1, and a numpy length threshold was
    # kept as given, which JSON cannot write.
    assert holds()


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
    assert spec.num_vertices > max(BLOCK_VERTICES, 2 ** 15) and block_rule(spec.num_vertices) == 1
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


# mc_small's rows of 4 and 16 cells, a grid of 12 axes (the axis budget),
# 130 x 130, which has more than 2**14 vertices, so a single grid takes the
# np.unique rounds, and r = 1 on grids with axes longer than 1 (the star's
# thresholds are 1 and 2), so the plane rounds run at r = 1.
ENGINE_SPECS = CLOSURE_SPECS + [StructureSpec.plain(2, 2, 2), StructureSpec.plain(4, 2, 2),
                                StructureSpec.plain(2, 12, 2), StructureSpec.plain(130, 2, 2),
                                StructureSpec.plain(5, 2, 1), StructureSpec.star(4, 2, 1, 1)]


# No row, one grid (the frontier engine), and bit planes of one partly filled
# word, one full word, a full word and one bit, and three words; with no
# grid small enough for the planes, every row goes to the frontier engine.
@pytest.mark.parametrize("plane_vertices", [None, 0], ids=["planes", "frontier"])
@pytest.mark.parametrize("rows", [0, 1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("spec", ENGINE_SPECS, ids=str)
def test_closure_engine_equals_reference(spec, rows, plane_vertices, monkeypatch):
    if plane_vertices is not None:
        monkeypatch.setattr("bootperc.dynamics._PLANE_VERTICES", plane_vertices)
    rng = np.random.default_rng([7, rows, spec.n, spec.d, spec.r, spec.ell, spec.k])
    block = random_block(rng, rows, spec.shape)
    closed = closure_batch(spec, block)
    assert closed.shape == block.shape and closed.dtype == bool
    for row, got in zip(block, closed):
        want = reference_closure(spec, row)
        assert np.array_equal(got, want)
        assert np.array_equal(closure(spec, CellSet.from_mask(row)).mask, want)


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
    # Each field below is one the kind does not read, and used to be ignored.
    lambda: EventSpec("crossed", SLAB4, Rectangle((1, 1), (4, 4)), axis=2),
    lambda: EventSpec("semi_crossed", STAR4, Rectangle((1, 1), (4, 4)), BOTTOM_TO_TOP),
    lambda: EventSpec("spans", PLAIN5, Rectangle((1, 1), (5, 5)), axis=1),
    lambda: EventSpec("spans", PLAIN5, Rectangle((1, 1), (5, 5)), long_threshold=3),
    lambda: EventSpec("percolates", PLAIN5, Rectangle((1, 1), (5, 5))),
    lambda: EventSpec("percolates", PLAIN5, LEFT_TO_RIGHT),
    lambda: EventSpec("percolates", PLAIN5, axis=1),
    lambda: EventSpec("percolates", PLAIN5, long_threshold=3),
    lambda: EventSpec("semi_percolates", STAR4, axis=1),
    lambda: EventSpec("long_span", PLAIN5, LEFT_TO_RIGHT, long_threshold=3),
    lambda: EventSpec.from_json({"kind": "spans", "rect": [[1, 1], [5, 5]], "axis": [1]}, PLAIN5),
    # An unhashable kind is an unknown kind, not a TypeError.
    lambda: EventSpec.from_json({"kind": [1]}, PLAIN5),
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


# --- fixed-seed pins ----------------------------------------------------------

# Success counts at master seeds 1 and 2**64 - 1 on the benchmark's larger
# structures, taken from the engine before bit planes; each kind at least
# once, blocks of one word, several words and a partly filled last word.
PLAIN32, PLAIN64 = StructureSpec.plain(32, 2, 2), StructureSpec.plain(64, 2, 2)
STAR20, SLAB32 = StructureSpec.star(20, 2, 1, 2), StructureSpec.slab(32, 2, 1, 3, 2)
WHOLE32 = Rectangle((1, 1), (32, 32))
PINNED_COUNTS = [
    (EventSpec("percolates", PLAIN64), 0.06, 70, (33, 31)),
    (EventSpec("semi_percolates", STAR20), 0.07, 200, (68, 65)),
    (EventSpec("spans", PLAIN32, WHOLE32), 0.075, 130, (40, 36)),
    (EventSpec("crossed", SLAB32, WHOLE32), 0.035, 100, (74, 82)),
    (EventSpec("crossed", SLAB32, Rectangle((3, 5), (30, 20)), TOP_TO_BOTTOM), 0.035, 100,
     (73, 75)),
    (EventSpec("semi_crossed", STAR20, Rectangle((5, 5), (16, 16)), axis=1), 0.075, 200,
     (114, 108)),
    (EventSpec("long_span", PLAIN32, long_threshold=16), 0.07, 130, (48, 55)),
]


@pytest.mark.parametrize("event,p,trials,counts", PINNED_COUNTS,
                         ids=["percolates", "semi_percolates", "spans", "crossed",
                              "crossed_top_to_bottom", "semi_crossed", "long_span"])
def test_fixed_seed_success_counts_are_pinned(event, p, trials, counts):
    got = tuple(round(estimate_event_prob(event, p, trials, seed).p_hat * trials)
                for seed in (1, 2 ** 64 - 1))
    assert got == counts


# p_alpha brackets at alpha = 1/2, 200 trials and p_tol 0.005 (eight steps),
# at master seeds 1 and 2**64 - 1, from one draw of each trial.
PINNED_BRACKETS = [
    (StructureSpec.plain(16, 2, 2), ((0.13671875, 0.140625), (0.12890625, 0.1328125))),
    (PLAIN32, ((0.0859375, 0.08984375), (0.0859375, 0.08984375))),
]


@pytest.mark.parametrize("spec,brackets", PINNED_BRACKETS, ids=["plain16", "plain32"])
def test_fixed_seed_p_alpha_brackets_are_pinned(spec, brackets):
    got = tuple((est.ci_low, est.ci_high) for est in
                (estimate_p_alpha(spec, "percolates", 0.5, 200, seed, 0.005)
                 for seed in (1, 2 ** 64 - 1)))
    assert got == brackets


def test_fixed_seed_sweep_csv_is_pinned(tmp_path):
    points = tuple(SweepPoint(PLAIN32, EventSpec("percolates", PLAIN32), p, 130)
                   for p in (0.07, 0.09))
    points += (SweepPoint(STAR20, EventSpec("semi_percolates", STAR20), 0.08, 130),)
    out = tmp_path / "rows.csv"
    run_sweep(SweepConfig(points, 7), str(out))
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "17c450c339f9cd888538faf7089ef97f2366b58990c85d9e09743c6a29cf045a"
