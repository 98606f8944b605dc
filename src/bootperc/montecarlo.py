"""Seeded Monte Carlo estimation of event probabilities and critical
probabilities, plus the sweep runner.

Per-trial randomness comes from a counter-style Philox stream keyed on
(master seed, trial index), so estimates are reproducible regardless of
execution order.  ``trial_rng`` and ``sample_bin`` give one trial's stream
and initial set.  The estimators draw the same sets in blocks of trials
(``sample_blocks``): one Philox bit generator is re-keyed to
(master seed, t) for each trial t instead of building a generator per
trial, and a block is evaluated at once by ``EventSpec.count``, the one
dispatch over event kinds; ``EventSpec.evaluate`` is its form for one
initial set.  Every estimator turns raw Philox words into indicators by one
uniform rule (``_hits``) and draws blocks of at most ``BLOCK_VERTICES``
words; ``estimate_lgap`` reads trial t at its fixed position in one stream,
so no estimate depends on the block size.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .structures import (
    CellSet,
    DomainError,
    Rectangle,
    StructureSpec,
    check_number,
    check_rectangle,
    check_sides,
)
from .dynamics import (
    LEFT_TO_RIGHT,
    CrossDirection,
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

_KINDS = (PERCOLATES, SEMI_PERCOLATES, SPANS, CROSSED, SEMI_CROSSED, LONG_SPAN)

# Raw words in one block of B >= 1 trials of W words each (W = |V| for an
# initial set): B * W <= BLOCK_VERTICES.  A block's words (8 bytes each),
# masks and closure arrays then take about 1 MiB, unless one trial is larger.
BLOCK_VERTICES = 1 << 16


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
        if self.kind not in _KINDS:
            raise DomainError(f"unknown event kind {self.kind!r}")
        if self.kind in (SPANS, CROSSED, SEMI_CROSSED) and self.rectangle is None:
            raise DomainError(f"{self.kind} requires a rectangle")
        if self.kind == LONG_SPAN and self.long_threshold is None:
            raise DomainError("long_span requires a length threshold")
        if self.long_threshold is not None:
            check_number(self.long_threshold, "length threshold")
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

    def count(self, masks: np.ndarray) -> int:
        """Rows of a block of initial sets, shape ``(B, *shape)``, on which
        the event holds.  This is the only place the kinds are told apart,
        and every kind decides the whole block at once.
        """
        spec = self.structure
        if self.kind == PERCOLATES:
            hits = percolates_batch(spec, masks)
        elif self.kind == SEMI_PERCOLATES:
            hits = semi_percolates_batch(spec, masks)
        elif self.kind == CROSSED:
            hits = crossed_batch(spec, self.rectangle, masks, self.direction or LEFT_TO_RIGHT)
        elif self.kind == SEMI_CROSSED:
            hits = semi_crossed_batch(spec, self.rectangle, masks, self.axis or 1)
        else:
            boxes = span_boxes_batch(spec, masks)
            if self.kind == SPANS:
                return len({box[0].start for box in boxes if box[1:] == self.rectangle.slices})
            rows = np.array([box[0].start for box in boxes], dtype=np.intp)
            longest = np.zeros(len(masks), dtype=np.int64)
            np.maximum.at(longest, rows, [max(s.stop - s.start for s in box[1:]) for box in boxes])
            hits = longest >= self.long_threshold
        return int(hits.sum())

    def evaluate(self, cells: CellSet) -> bool:
        """The event on one initial set: ``count`` at B = 1."""
        return bool(self.count(cells.mask[None]))

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
        try:
            kind = obj["kind"]
        except (KeyError, TypeError) as exc:
            raise DomainError("bad event JSON: missing 'kind'") from exc
        rect = Rectangle.from_json(obj["rect"]) if "rect" in obj else None
        direction = None
        if "direction" in obj:
            dobj = obj["direction"]
            if isinstance(dobj, str):
                direction = CrossDirection.from_name(dobj)
            elif not isinstance(dobj, dict):
                raise DomainError("bad event JSON: 'direction' must be a name or an object")
            else:
                direction = CrossDirection(dobj.get("axis", 1), dobj.get("reverse", False))
        return EventSpec(kind, structure, rect, direction,
                         obj.get("axis"), obj.get("longThreshold"))


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo point estimate with its Wilson 95% interval."""

    p_hat: float
    trials: int
    ci_low: float
    ci_high: float
    master_seed: int


def _estimate(successes: int, trials: int, master_seed: int) -> Estimate:
    """The estimate from ``successes`` of ``trials`` trials."""
    return Estimate(successes / trials, trials, *wilson_interval(successes, trials), master_seed)


def _check_trials(trials: int) -> None:
    """The rule for a trial count: an integer >= 1."""
    check_number(trials, "trials", numbers.Integral)
    if trials < 1:
        raise DomainError("trials must be >= 1")


def _check_density(p: float, name: str = "p") -> float:
    """The rule for a density: a number in [0, 1].  Returns it as a float."""
    check_number(p, name)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"{name} = {p} outside [0, 1]")
    return float(p)


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    _check_trials(trials)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _seed_word(master_seed: int) -> int:
    """The 64-bit word of an integer master seed: its value modulo 2**64, so -1 is 2**64 - 1."""
    return check_number(master_seed, "master seed", numbers.Integral) & (2 ** 64 - 1)


def _index_word(index: int, name: str) -> int:
    """The rule for a trial or task index: an integer in [0, 2**64)."""
    index = check_number(index, name, numbers.Integral)
    if not 0 <= index < 2 ** 64:
        raise DomainError(f"{name} {index} outside [0, 2**64)")
    return index


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Counter-style stream for one trial: Philox keyed on (seed, trial)."""
    key = _seed_word(master_seed) * 2 ** 64 + _index_word(trial, "trial")
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(master_seed: int, index: int) -> int:
    """A stable 64-bit subseed for the index-th child task."""
    ss = np.random.SeedSequence([_seed_word(master_seed), _index_word(index, "task index")])
    return int(ss.generate_state(1, np.uint64)[0])


def sample_bin(region, p: float, rng: np.random.Generator) -> CellSet:
    """Bin(region, p): include each vertex independently with probability p,
    one uniform per vertex in canonical order.
    """
    _check_density(p)
    shape = region.shape if isinstance(region, (StructureSpec, CellSet)) else check_sides(region)
    return CellSet.from_mask(rng.random(shape) < p)


def _hits(words: np.ndarray, p: float) -> np.ndarray:
    """The uniform rule: raw Philox word w is a hit of probability p when the
    uniform (w >> 11) * 2**-53 of ``Generator.random`` is below p, that is
    when (w >> 11) < ceil(p * 2**53) as uint64.  ``words`` is shifted in place."""
    return np.right_shift(words, 11, out=words) < np.uint64(math.ceil(p * 2.0 ** 53))


def sample_blocks(spec: StructureSpec, p: float, master_seed: int, trials: int):
    """The initial sets of trials 0, ..., trials - 1 as bool blocks of shape
    ``(B, *spec.shape)``, in trial order, with B * |V| <= BLOCK_VERTICES.

    Row t is ``sample_bin(spec, p, trial_rng(master_seed, t)).mask``: one
    Philox bit generator is re-keyed to (master_seed, t) with a zero
    counter for each trial, and its raw words go through ``_hits``.
    """
    _check_density(p)
    size = spec.num_vertices
    step = max(1, BLOCK_VERTICES // size)
    bits = np.random.Philox(key=0)
    # Trial t's stream: key words (t, seed), counter 0, nothing buffered.
    # Plain lists make the state setter several times cheaper than arrays.
    key = [0, _seed_word(master_seed)]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for start in range(0, trials, step):
        words = np.empty((min(step, trials - start), size), dtype=np.uint64)
        for i in range(len(words)):
            key[0] = start + i
            bits.state = state
            words[i] = bits.random_raw(size)
        yield _hits(words, p).reshape((len(words),) + spec.shape)


def estimate_event_prob(event: EventSpec, p: float, trials: int,
                        master_seed: int) -> Estimate:
    """Estimate P(event) at density p over independent seeded trials.

    Trial t evaluates the event on
    ``sample_bin(spec, p, trial_rng(master_seed, t))``; the trials are drawn
    and evaluated in blocks (``sample_blocks``, ``EventSpec.count``), which
    gives the same count.
    """
    _check_trials(trials)
    successes = sum(event.count(block)
                    for block in sample_blocks(event.structure, p, master_seed, trials))
    return _estimate(successes, trials, master_seed)


def estimate_p_alpha(spec: StructureSpec, event, alpha: float,
                     trials_per_eval: int, seed: int, p_tol: float) -> Estimate:
    """Stochastic bisection for p_alpha = inf{p : P(event at p) >= alpha}.

    ``event`` is an event kind on ``spec`` or an EventSpec whose structure
    must be ``spec``.  Each midpoint gets a fresh derived seed; the returned
    interval is the final bisection bracket, not a guaranteed confidence
    interval.
    """
    if not 0.0 < check_number(alpha, "alpha") < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if not check_number(p_tol, "p_tol") > 0.0:
        raise DomainError("p_tol must be positive")
    if not isinstance(event, EventSpec):
        event = EventSpec(event, spec)
    elif event.structure != spec:
        raise DomainError(f"event is on {event.structure}, not on {spec}")
    lo, hi = 0.0, 1.0
    evals = 0
    while hi - lo >= p_tol:
        mid = 0.5 * (lo + hi)
        est = estimate_event_prob(event, mid, trials_per_eval,
                                  derive_seed(seed, evals))
        evals += 1
        if est.p_hat >= alpha:
            hi = mid
        else:
            lo = mid
    return Estimate(0.5 * (lo + hi), evals * trials_per_eval, lo, hi, seed)


def estimate_lgap(ell: int, m: int, u: float, trials: int, master_seed: int) -> Estimate:
    """Directly simulate the no-L-gap event on m+1 primary and ell*m
    secondary independent indicators of probability u.

    Trial t reads words [t*W, (t+1)*W), W = (m+1) + ell*m, of the raw stream
    of ``Philox(key=master_seed)`` through ``_hits``: m+1 primary indicators,
    then ell rows of m secondary ones, so it is fixed by its stream position.
    """
    check_number(ell, "ell", numbers.Integral)
    check_number(m, "m", numbers.Integral)
    if ell < 0 or m < 0:
        raise DomainError("ell and m must be >= 0")
    _check_density(u, "u")
    _check_trials(trials)
    width = (m + 1) + ell * m
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
        _check_density(self.p)
        _check_trials(self.trials)


@dataclass(frozen=True)
class SweepConfig:
    """A declarative experiment grid; fully determines the output rows."""

    points: tuple[SweepPoint, ...]
    master_seed: int

    def __post_init__(self) -> None:
        if not self.points:
            raise DomainError("sweep grid must be nonempty")
        check_number(self.master_seed, "masterSeed", numbers.Integral)

    @staticmethod
    def from_json(obj: dict) -> "SweepConfig":
        try:
            master_seed, grid = obj["masterSeed"], obj["grid"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"bad sweep config: {exc}") from exc
        if not isinstance(grid, list):
            raise DomainError("bad sweep config: 'grid' must be a list")
        points = []
        for entry in grid:
            try:
                structure = StructureSpec.from_json(entry["structure"])
                event = EventSpec.from_json(entry["event"], structure)
                ps = entry["p"]
                ps = [_check_density(p) for p in (ps if isinstance(ps, list) else [ps])]
                trials = entry["trials"]
            except (KeyError, TypeError, ValueError) as exc:
                raise DomainError(f"bad sweep grid entry: {exc}") from exc
            points += [SweepPoint(structure, event, p, trials) for p in ps]
        return SweepConfig(tuple(points), master_seed)


SWEEP_COLUMNS = ["family", "n", "d", "ell", "k", "r", "event", "p",
                 "trials", "pHat", "ciLow", "ciHigh", "seed"]


def run_sweep(config: SweepConfig, out_path: str | None = None) -> list[dict]:
    """Evaluate every grid point; stream rows to CSV if a path is given."""
    rows = []
    writer = None
    handle = None
    try:
        if out_path is not None:
            try:
                handle = open(out_path, "w", newline="")
            except OSError as exc:
                raise OSError(f"cannot open sweep output {out_path!r}: {exc}") from exc
            writer = csv.DictWriter(handle, fieldnames=SWEEP_COLUMNS)
            writer.writeheader()
        for idx, point in enumerate(config.points):
            seed = derive_seed(config.master_seed, idx)
            try:
                est = estimate_event_prob(point.event, point.p, point.trials, seed)
            except Exception as exc:
                raise type(exc)(f"sweep point {idx} ({point.event.kind}, "
                                f"p={point.p}): {exc}") from exc
            spec = point.structure
            row = {
                "family": spec.family, "n": spec.n, "d": spec.d,
                "ell": spec.ell, "k": spec.k, "r": spec.r,
                "event": point.event.kind, "p": repr(point.p),
                "trials": point.trials, "pHat": repr(est.p_hat),
                "ciLow": repr(est.ci_low), "ciHigh": repr(est.ci_high),
                "seed": seed,
            }
            rows.append(row)
            if writer is not None:
                writer.writerow(row)
                handle.flush()
    finally:
        if handle is not None:
            handle.close()
    return rows
