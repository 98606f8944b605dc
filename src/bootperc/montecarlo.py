"""Seeded Monte Carlo estimation of event probabilities and critical
probabilities, plus the sweep runner.

Per-trial randomness comes from a counter-style Philox stream keyed on
(master seed, trial index), so estimates are reproducible regardless of
execution order.  ``trial_rng`` and ``sample_bin`` give one trial's stream
and initial set.  The estimators draw the same sets in blocks of trials by
one draw loop (``_draw_blocks``).  On a structure of fewer than ``_VECTOR_VERTICES``
vertices a block's Philox words are computed for all its trials at once
(``_philox_words``, since Philox is counter based); on a larger one a Philox
bit generator is re-keyed to (master seed, t) for each trial t.  A block is
evaluated at once by ``EventSpec.holds``, the one dispatch over event kinds,
which answers for each row; ``EventSpec.evaluate`` is its form for one
initial set.  A block holds whole words of the closure engine's bit planes,
64 * W trials, by ``dynamics.block_rows``, which lives beside the rule that
picks the engine.  Every estimator turns raw Philox words into indicators
by one uniform rule (``_hits``, a numerator w >> 11 below ceil(p * 2**53))
and draws at most ``BLOCK_VERTICES`` words at a time; ``estimate_lgap`` reads
trial t at its fixed position in one stream, so no estimate depends on the
block size.  ``sample_blocks`` keeps a drawn block's indicators at one p,
and ``estimate_p_alpha`` each word's top bits, which fix every trial at every
density of its grid, so it draws each trial once, brackets each row on its
own words (``_row_brackets``) and reads its bracket as an order statistic of
the rows' brackets.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import numbers
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .structures import (
    MAX_VERTICES,
    CellSet,
    DomainError,
    Rectangle,
    StructureSpec,
    check_number,
    check_object,
    check_probability,
    check_rectangle,
    check_sides,
)
from .dynamics import (
    LEFT_TO_RIGHT,
    CrossDirection,
    block_rows,
    check_crossing,
    check_semi_crossing,
    check_semi_percolation,
    crossed_batch,
    percolates_batch,
    semi_crossed_batch,
    semi_percolates_batch,
)
from .span import span_boxes_batch

_Z95 = 1.959963984540054

PERCOLATES = "percolates"
SEMI_PERCOLATES = "semi_percolates"
SPANS = "spans"
CROSSED = "crossed"
SEMI_CROSSED = "semi_crossed"
LONG_SPAN = "long_span"

# The fields each kind of event reads.  A kind that reads a rectangle or a
# length threshold requires it; a direction defaults to left to right and a
# semi-crossing axis to 1.
_FIELDS = {
    PERCOLATES: (),
    SEMI_PERCOLATES: (),
    SPANS: ("rectangle",),
    CROSSED: ("rectangle", "direction"),
    SEMI_CROSSED: ("rectangle", "axis"),
    LONG_SPAN: ("long_threshold",),
}


def _check_increasing(kind: str) -> None:
    """The rule for bisecting on an event: it increases with the initial set,
    and so with p.  Every kind but ``spans`` does; a span equal to R can be
    lost by adding cells, so its probability need not cross alpha once."""
    if kind == SPANS:
        raise DomainError(f"a {kind} event does not increase with p, so bisection "
                          "does not locate its p_alpha")


# Raw words drawn at once for B >= 1 trials of W words each (W = |V| for an
# initial set): B * W <= BLOCK_VERTICES, so they take at most 512 KiB unless
# one trial is larger.
BLOCK_VERTICES = 1 << 16

# The values of one 64-bit Philox key word: trial and task indices lie in
# [0, _KEY_WORDS), trial counts in [1, _KEY_WORDS], seeds are taken modulo it.
_KEY_WORDS = 2 ** 64

# Structures with fewer vertices than this draw a block's words with one
# vectorized Philox pass (``_philox_words``), larger ones by re-keying one
# Philox per trial.  Per trial, words plus ``_hits``, best of 5 over 20 000
# trials in three processes on 2 cores, vectorized against re-key: V = 4
# 0.16-0.23 against 1.3-2.7 us, V = 18 0.63-0.99 against 1.4-2.8 us, V = 49
# 1.6-2.3 against 1.8-3.3 us, V = 64 1.9-2.8 against 1.8-3.6 us, V = 81
# 2.5-3.7 against 1.8-2.3 us, V = 256 7.8-10.4 against 2.8-3.0 us.
_VECTOR_VERTICES = 64


@dataclass(frozen=True)
class EventSpec:
    """A monotone event evaluated on the random initial set."""

    kind: str
    structure: StructureSpec
    rectangle: Rectangle | None = None
    direction: CrossDirection | None = None
    axis: int | None = None
    long_threshold: float | None = None

    def __post_init__(self) -> None:
        spec = self.structure
        # An unhashable kind is unknown too.
        if not (isinstance(self.kind, str) and self.kind in _FIELDS):
            raise DomainError(f"unknown event kind {self.kind!r}")
        reads = _FIELDS[self.kind]
        for name in ("rectangle", "direction", "axis", "long_threshold"):
            given = getattr(self, name) is not None
            if given and name not in reads:
                raise DomainError(f"a {self.kind} event reads no {name}")
            if not given and name in reads and name in ("rectangle", "long_threshold"):
                raise DomainError(f"a {self.kind} event requires a {name}")
        if self.long_threshold is not None:
            big = sys.float_info.max  # finite, since JSON and CSV have no Infinity
            threshold = check_number(self.long_threshold, "length threshold", lo=-big, hi=big)
            object.__setattr__(self, "long_threshold", threshold)
        # The event rules live in dynamics and structures; applied here, a
        # bad event is refused when it is built, before any trial.
        if self.kind == SEMI_PERCOLATES:
            check_semi_percolation(spec)
        if self.kind == CROSSED:
            check_crossing(spec, self.rectangle, self.direction or LEFT_TO_RIGHT)
        elif self.kind == SEMI_CROSSED:
            axis = check_semi_crossing(spec, self.rectangle, 1 if self.axis is None else self.axis)
            object.__setattr__(self, "axis", None if self.axis is None else axis)
        elif self.rectangle is not None:
            check_rectangle(spec, self.rectangle)

    def holds(self, masks: np.ndarray) -> np.ndarray:
        """The event on each row of a block of initial sets of shape
        ``(B, *shape)``, as a length-B bool array.  This is the only place
        the kinds are told apart, and every kind decides the whole block at
        once.  The empty span's longest side is 0.
        """
        spec = self.structure
        if self.kind == PERCOLATES:
            return percolates_batch(spec, masks)
        if self.kind == SEMI_PERCOLATES:
            return semi_percolates_batch(spec, masks)
        if self.kind == CROSSED:
            return crossed_batch(spec, self.rectangle, masks, self.direction or LEFT_TO_RIGHT)
        if self.kind == SEMI_CROSSED:
            return semi_crossed_batch(spec, self.rectangle, masks, self.axis or 1)
        held = np.full(len(masks), self.kind == LONG_SPAN and self.long_threshold <= 0)
        for box in span_boxes_batch(spec, masks):
            if (box[1:] == self.rectangle.slices if self.kind == SPANS
                    else max(s.stop - s.start for s in box[1:]) >= self.long_threshold):
                held[box[0]] = True
        return held

    def evaluate(self, cells: CellSet) -> bool:
        """The event on one initial set: ``holds`` at B = 1."""
        return bool(self.holds(cells.mask[None])[0])

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.rectangle is not None:
            out["rect"] = self.rectangle.to_json()
        if self.direction is not None:
            out["direction"] = {"axis": self.direction.axis,
                                "reverse": self.direction.reverse}
        if self.axis is not None:
            out["axis"] = self.axis
        if self.long_threshold is not None:
            out["longThreshold"] = self.long_threshold
        return out

    @staticmethod
    def from_json(obj: dict, structure: StructureSpec) -> "EventSpec":
        [kind] = check_object(obj, "event JSON", "kind",
                              optional=("rect", "direction", "axis", "longThreshold"))
        rect = Rectangle.from_json(obj["rect"]) if "rect" in obj else None
        direction = None
        if "direction" in obj:
            dobj = obj["direction"]
            if isinstance(dobj, str):
                direction = CrossDirection.from_name(dobj)
            else:
                check_object(dobj, "event direction that is not a name",
                             optional=("axis", "reverse"))
                direction = CrossDirection(dobj.get("axis", 1), dobj.get("reverse", False))
        return EventSpec(kind, structure, rect, direction,
                         obj.get("axis"), obj.get("longThreshold"))


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo estimate.  Of ``estimate_event_prob``, ``estimate_lgap``
    and a sweep row: the share ``p_hat`` of ``trials`` trials in which the
    event held, with its Wilson 95% interval.  Of ``estimate_p_alpha``: the
    midpoint and ends of the final bracket, with ``trials`` the initial sets
    drawn."""

    p_hat: float
    trials: int
    ci_low: float
    ci_high: float
    master_seed: int


def _estimate(successes: int, trials: int, master_seed: int) -> Estimate:
    """The estimate from ``successes`` of ``trials`` trials."""
    return Estimate(successes / trials, trials, *wilson_interval(successes, trials), master_seed)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """The Wilson 95% interval of ``successes``, an integer in [0, trials], out of ``trials``."""
    trials = check_number(trials, "trials", numbers.Integral, 1, _KEY_WORDS)
    successes = check_number(successes, "successes", numbers.Integral, 0, trials)
    z, phat = _Z95, successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # The exact bounds at 0 and at all successes, which rounding misses.
    return (max(0.0, center - half) if successes else 0.0,
            min(1.0, center + half) if successes < trials else 1.0)


def _seed_word(master_seed: int) -> int:
    """The 64-bit word of an integer master seed: its value modulo 2**64, so -1 is 2**64 - 1."""
    return check_number(master_seed, "master seed", numbers.Integral) & (_KEY_WORDS - 1)


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Counter-style stream for one trial: Philox keyed on (seed, trial)."""
    trial = check_number(trial, "trial", numbers.Integral, 0, _KEY_WORDS - 1)
    key = _seed_word(master_seed) * _KEY_WORDS + trial
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(master_seed: int, index: int) -> int:
    """A stable 64-bit subseed for the index-th child task."""
    index = check_number(index, "task index", numbers.Integral, 0, _KEY_WORDS - 1)
    ss = np.random.SeedSequence([_seed_word(master_seed), index])
    return int(ss.generate_state(1, np.uint64)[0])


def sample_bin(region, p: float, rng: np.random.Generator) -> CellSet:
    """Bin(region, p): include each vertex independently with probability p,
    one uniform per vertex in canonical order.
    """
    p = check_probability(p, "p")
    shape = region.shape if isinstance(region, (StructureSpec, CellSet)) else check_sides(region)
    return CellSet.from_mask(rng.random(shape) < p)


def _hits(words: np.ndarray, p: float) -> np.ndarray:
    """The uniform rule: raw Philox word w is a hit of probability p when the
    uniform (w >> 11) * 2**-53 of ``Generator.random`` is below p, that is
    when (w >> 11) < ceil(p * 2**53) as uint64.  ``words`` is shifted in place."""
    return np.right_shift(words, 11, out=words) < np.uint64(math.ceil(p * 2.0 ** 53))


def _philox_words(seed_word: int, first: int, count: int, size: int) -> np.ndarray:
    """Raw words [0, size) of ``Philox(key=seed_word * 2**64 + t)`` for t in
    [first, first + count), as a (count, size) uint64 array, computed for all
    trials at once.

    Word group g of a trial is Philox4x64-10 at counter (g + 1, 0, 0, 0),
    since numpy increments the counter before each group of four words, with
    key words (t, seed_word).  The high half of a 64 x 64-bit product comes
    from four 32-bit partial products (Hacker's Delight's mulhu), the low
    half is the wrapping product.  The rounds write into seven arrays
    allocated once; the key words are arrays, because numpy warns on uint64
    scalar overflow.
    """
    u64 = np.uint64
    mask, half = u64(0xFFFFFFFF), u64(32)
    shape = (count, -(-size // 4))
    x = [np.zeros(shape, u64) for _ in range(4)]
    x[0] += np.arange(1, shape[1] + 1, dtype=u64)
    k0 = np.arange(count, dtype=u64)[:, None] + u64(first)
    k1 = np.full(1, seed_word, u64)
    spare, hi, c = (np.empty(shape, u64) for _ in range(3))
    for rnd in range(10):
        if rnd:
            k0 += u64(0x9E3779B97F4A7C15)
            k1 += u64(0xBB67AE8584CAA73B)
        x0, x1, x2, x3 = x
        # (x0, x1, x2, x3) <- (hi(x2*M1) ^ x1 ^ k0, lo(x2*M1), hi(x0*M0) ^ x3 ^ k1, lo(x0*M0));
        # x0 is free once its product is taken, so it holds lo(x2*M1).
        for a, m, lo, out, key in ((x0, 0xD2E7470EE14C6C93, spare, x3, k1),
                                   (x2, 0xCA5A826395121157, x0, x1, k0)):
            m_lo, m_hi = u64(m & 0xFFFFFFFF), u64(m >> 32)
            np.right_shift(a, half, out=hi)
            np.bitwise_and(a, mask, out=c)
            c *= m_lo
            c >>= half
            np.multiply(hi, m_lo, out=lo)
            c += lo  # s = a_hi*m_lo + (a_lo*m_lo >> 32) fits in 64 bits
            np.bitwise_and(c, mask, out=lo)
            c >>= half
            hi *= m_hi
            hi += c  # a_hi*m_hi + (s >> 32)
            np.bitwise_and(a, mask, out=c)
            c *= m_hi
            c += lo
            c >>= half
            hi += c  # + ((a_lo*m_hi + (s & mask)) >> 32)
            np.multiply(a, u64(m), out=lo)
            out ^= hi
            out ^= key
        x, spare = [x1, x0, x3, spare], x2
    del spare, hi, c  # before the output is built, for a lower peak
    return np.stack(x, axis=-1).reshape(count, 4 * shape[1])[:, :size]


def _draw_blocks(size: int, master_seed: int, trials: int, keep, dtype):
    """The raw words [0, size) of the streams of trials 0, ..., trials - 1,
    each through ``keep``, as ``(B, size)`` blocks of ``dtype`` in trial order,
    of ``block_rows(size)`` trials but the last.

    Row t reads ``trial_rng(master_seed, t)``'s words, at most
    ``BLOCK_VERTICES`` words at a time.  Below ``_VECTOR_VERTICES`` vertices
    those words are computed for all their trials at once
    (``_philox_words``); otherwise one Philox bit generator is re-keyed to
    (master_seed, t) with a zero counter for each trial.
    """
    rows, step = block_rows(size), max(1, BLOCK_VERTICES // size)
    seed_word = _seed_word(master_seed)
    bits = np.random.Philox(key=0)
    # Trial t's stream: key words (t, seed), counter 0, nothing buffered.
    # Plain lists make the state setter several times cheaper than arrays.
    key = [0, seed_word]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for first in range(0, trials, rows):
        stop = min(first + rows, trials)
        block = np.empty((stop - first, size), dtype=dtype)
        for start in range(first, stop, step):
            count = min(step, stop - start)
            if size < _VECTOR_VERTICES:
                words = _philox_words(seed_word, start, count, size)
            else:
                words = np.empty((count, size), dtype=np.uint64)
                for i in range(count):
                    key[0] = start + i
                    bits.state = state
                    words[i] = bits.random_raw(size)
            block[start - first:start - first + count] = keep(words)
        yield block


def sample_blocks(spec: StructureSpec, p: float, master_seed: int, trials: int):
    """The initial sets of trials 0, ..., trials - 1 as bool blocks of shape
    ``(B, *spec.shape)``, in trial order, of ``block_rows(|V|)`` trials but
    the last.

    Row t is ``sample_bin(spec, p, trial_rng(master_seed, t)).mask``: the raw
    words of trial t's stream (``_draw_blocks``) go through ``_hits``.
    """
    p = check_probability(p, "p")
    trials = check_number(trials, "trials", numbers.Integral, 1, _KEY_WORDS)
    for block in _draw_blocks(spec.num_vertices, master_seed, trials,
                              lambda words: _hits(words, p), bool):
        yield block.reshape((len(block),) + spec.shape)


def estimate_event_prob(event: EventSpec, p: float, trials: int,
                        master_seed: int) -> Estimate:
    """Estimate P(event) at density p over independent seeded trials.

    Trial t evaluates the event on
    ``sample_bin(spec, p, trial_rng(master_seed, t))``; the trials are drawn
    in blocks (``sample_blocks``), and the count of successes is the sum of
    ``EventSpec.holds`` over them.
    """
    trials = check_number(trials, "trials", numbers.Integral, 1, _KEY_WORDS)
    master_seed = check_number(master_seed, "master seed", numbers.Integral)
    successes = sum(int(event.holds(block).sum())
                    for block in sample_blocks(event.structure, p, master_seed, trials))
    return _estimate(successes, trials, master_seed)


def _check_event_structure(event: EventSpec, spec: StructureSpec) -> None:
    """The rule for an event run on a structure: it is an event of that structure."""
    if event.structure != spec:
        raise DomainError(f"event is on {event.structure}, not on {spec}")


def _row_brackets(event: EventSpec, cells: np.ndarray, steps: int) -> np.ndarray:
    """For each row of a ``(B, |V|)`` block of cells, the low end L of the
    row's own ``steps``-step bisection bracket on the grid i * 2**-steps, in
    the cells' dtype: the event fails at grid point L and holds at L + 1,
    where the ends 0 and 2**steps count as failing and holding.

    ``cells`` holds the top ``steps`` bits w >> (64 - steps) of each raw
    word w.  At grid point i * 2**-steps the uniform rule's cut
    ceil(p * 2**53) is i * 2**(53 - steps), so the row's set there is the
    vertices whose cell is below i.
    """
    rows, shape = len(cells), event.structure.shape
    lo = np.zeros(rows, cells.dtype)
    for level in reversed(range(steps)):
        half = cells.dtype.type(1 << level)
        held = event.holds((cells < (lo + half)[:, None]).reshape((rows,) + shape))
        lo += ~held * half
    return lo


def estimate_p_alpha(spec: StructureSpec, event, alpha: float,
                     trials_per_eval: int, seed: int, p_tol: float) -> Estimate:
    """The bisection bracket of p_alpha = inf{p : P(event at p) >= alpha}.

    ``event`` is an increasing event kind on ``spec`` or an EventSpec whose
    structure must be ``spec``; ``spans`` is refused.  The bracket is the
    one that bisection of [0, 1] on
    ``estimate_event_prob(event, mid, trials_per_eval, seed)`` returns once
    it is narrower than ``p_tol``, which must exceed 2**-53, the resolution
    of a uniform.  That takes K steps, and every midpoint lies on the grid
    i * 2**-K.

    Each trial t < trials_per_eval is drawn once at master seed ``seed``:
    of each raw word only its top K bits are kept, which fix the trial's
    set at every grid point.  Each row bisects on its own to its bracket
    [L_t, L_t + 1] * 2**-K (``_row_brackets``); the increasing event holds
    in trial t at grid point i exactly when L_t < i, and the share of such
    trials grows with i.  So the bracket's low end is the least L with
    #{t : L_t <= L} / trials_per_eval >= alpha, an order statistic of the
    L_t, read from the count of each distinct L_t kept across blocks.
    ``trials`` of the result counts the initial sets drawn:
    ``trials_per_eval``, or 0 when no step runs.  The returned interval is
    the final bracket, not a confidence interval.
    """
    if not 0.0 < check_number(alpha, "alpha") < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if not check_number(p_tol, "p_tol") > 2.0 ** -53:
        raise DomainError("p_tol must exceed 2**-53, the resolution of a uniform")
    trials_per_eval = check_number(trials_per_eval, "trials", numbers.Integral, 1, _KEY_WORDS)
    seed = check_number(seed, "master seed", numbers.Integral)
    if not isinstance(event, EventSpec):
        event = EventSpec(event, spec)
    _check_event_structure(event, spec)
    _check_increasing(event.kind)
    steps = 0
    while 2.0 ** -steps >= p_tol:
        steps += 1
    if not steps:
        return Estimate(0.5, 0, 0.0, 1.0, seed)
    # A cell needs only a word's top ``steps`` bits, in the least unsigned
    # type that holds them.
    shift = np.uint64(64 - steps)
    cells = _draw_blocks(spec.num_vertices, seed, trials_per_eval,
                         lambda words: np.right_shift(words, shift, out=words),
                         np.min_scalar_type((1 << steps) - 1))
    counts = Counter()
    for block in cells:
        lows, number = np.unique(_row_brackets(event, block, steps), return_counts=True)
        counts.update(dict(zip(lows.tolist(), number.tolist())))
    # alpha < 1, so the walk stops at the latest when held = trials_per_eval.
    held = 0
    for low in sorted(counts):
        held += counts[low]
        if held / trials_per_eval >= alpha:
            break
    lo, hi = math.ldexp(low, -steps), math.ldexp(low + 1, -steps)
    return Estimate(0.5 * (lo + hi), trials_per_eval, lo, hi, seed)


def estimate_lgap(ell: int, m: int, u: float, trials: int, master_seed: int) -> Estimate:
    """Directly simulate the no-L-gap event on m+1 primary and ell*m
    secondary independent indicators of probability u.

    Trial t reads words [t*W, (t+1)*W), W = (m+1) + ell*m, of the raw stream
    of ``Philox(key=master_seed)`` through ``_hits``: m+1 primary indicators,
    then ell rows of m secondary ones, so it is fixed by its stream position.
    """
    ell = check_number(ell, "ell", numbers.Integral, 0)
    m = check_number(m, "m", numbers.Integral, 0)
    u = check_probability(u, "u")
    trials = check_number(trials, "trials", numbers.Integral, 1, _KEY_WORDS)
    master_seed = check_number(master_seed, "master seed", numbers.Integral)
    width = (m + 1) + ell * m
    if width > MAX_VERTICES:
        raise DomainError(f"an lgap trial of (m + 1) + ell * m words is wider than {MAX_VERTICES}")
    step = max(1, BLOCK_VERTICES // width)
    bits = np.random.Philox(key=_seed_word(master_seed))
    gaps = 0
    for start in range(0, trials, step):
        b = min(step, trials - start)
        empty = ~_hits(bits.random_raw((b, width)), u)
        gap = empty[:, :m] & empty[:, 1:m + 1] & empty[:, m + 1:].reshape(b, ell, m).all(axis=1)
        gaps += int(gap.any(axis=1).sum())
    return _estimate(trials - gaps, trials, master_seed)


@dataclass(frozen=True)
class SweepPoint:
    structure: StructureSpec
    event: EventSpec
    p: float
    trials: int

    def __post_init__(self) -> None:
        _check_event_structure(self.event, self.structure)
        object.__setattr__(self, "p", check_probability(self.p, "p"))
        object.__setattr__(self, "trials",
                           check_number(self.trials, "trials", numbers.Integral, 1, _KEY_WORDS))


@dataclass(frozen=True)
class SweepConfig:
    """A declarative experiment grid; fully determines the output rows."""

    points: tuple[SweepPoint, ...]
    master_seed: int

    def __post_init__(self) -> None:
        if not self.points:
            raise DomainError("sweep grid must be nonempty")
        object.__setattr__(self, "master_seed",
                           check_number(self.master_seed, "masterSeed", numbers.Integral))

    @staticmethod
    def from_json(obj: dict) -> "SweepConfig":
        master_seed, grid = check_object(obj, "sweep config", "masterSeed", "grid")
        if not isinstance(grid, list):
            raise DomainError("bad sweep config: 'grid' must be a list")
        points = []
        for entry in grid:
            structure, event, ps, trials = check_object(
                entry, "sweep grid entry", "structure", "event", "p", "trials")
            structure = StructureSpec.from_json(structure)
            event = EventSpec.from_json(event, structure)
            points += [SweepPoint(structure, event, p, trials)
                       for p in (ps if isinstance(ps, list) else [ps])]
        return SweepConfig(tuple(points), master_seed)


SWEEP_COLUMNS = ["family", "n", "d", "ell", "k", "r", "event", "p",
                 "trials", "pHat", "ciLow", "ciHigh", "seed"]


def run_sweep(config: SweepConfig, out_path: str | None = None) -> list[dict]:
    """Evaluate every grid point; stream rows to CSV if a path is given.  A
    row's event is its kind, or the compact JSON of an event that has fields."""
    rows = []
    with contextlib.ExitStack() as stack:
        writer = None
        if out_path is not None:
            try:
                handle = stack.enter_context(open(out_path, "w", newline=""))
            except OSError as exc:
                raise OSError(f"cannot open sweep output {out_path!r}: {exc}") from exc
            writer = csv.DictWriter(handle, fieldnames=SWEEP_COLUMNS)
            writer.writeheader()
        for idx, point in enumerate(config.points):
            seed = derive_seed(config.master_seed, idx)
            est = estimate_event_prob(point.event, point.p, point.trials, seed)
            event = point.event.to_json()
            event = json.dumps(event, separators=(",", ":")) if len(event) > 1 else event["kind"]
            row = {
                **point.structure.to_json(),
                "event": event, "p": repr(point.p),
                "trials": point.trials, "pHat": repr(est.p_hat),
                "ciLow": repr(est.ci_low), "ciHigh": repr(est.ci_high),
                "seed": seed,
            }
            rows.append(row)
            if writer is not None:
                writer.writerow(row)
                handle.flush()
    return rows
