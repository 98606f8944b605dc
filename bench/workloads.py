"""The benchmark's workloads: inputs made from the seed, the operations of
one round, and the checks on their outputs.

Inputs are generated here with numpy, apart from bootperc; ``prepare``
turns them into the program's objects (that part is timed as set-up).
Every round runs the same operations on the same inputs.  A check returns
``OK``; ``WRONG`` when the program's output is incorrect; or ``ERROR`` when
the operation did not complete as a user would need (a crash, a traceback).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

OK, WRONG, ERROR = "ok", "wrong", "error"


@dataclass
class Op:
    """One call into the program.  ``items`` is the work ``items_per_s``
    counts; ``units`` is the number of calls ``call_s``/``batch_s`` count (0
    for the second half of a pair); ``fresh`` marks a run in a new process."""

    label: str
    section: str
    fn: Callable[[], object]
    items: int = 0
    units: int = 1
    fresh: bool = False


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _spec(bp, struct):
    family, n, d, r, ell, k = struct
    return bp.StructureSpec(family, n, d, r, ell, k)


def _prime(bp, specs) -> None:
    """Fill the program's per-shape tables, the lazy part of its set-up."""
    for spec in specs:
        bp.structures.grid_tables(spec.shape)
        bp.structures.threshold_table(spec)


def _exact_count(rng, struct, m: int) -> np.ndarray:
    shape = oracles.shape_of(struct)
    flat = np.zeros(math.prod(shape), dtype=bool)
    flat[rng.choice(flat.size, m, replace=False)] = True
    return flat.reshape(shape)


def _within(est, exact: float, trials: int, z: float = 4.0) -> tuple[str, str]:
    sigma = math.sqrt(exact * (1 - exact) / trials)
    ok = abs(est - exact) <= z * sigma
    return (OK if ok else WRONG), f"{est:.5f} vs exact {exact:.5f} (4 sigma = {z * sigma:.5f})"


class Workload:
    name = ""
    # end-to-end metric -> section of ops it is measured on
    sections: dict[str, str] = {}

    def __init__(self, seed: int, workdir: str, env: dict):
        """``workdir`` takes input files; ``env`` runs the CLI on the checkout."""
        self.rng = _rng(seed, self.name)
        self.workdir = workdir
        self.env = env

    def prepare(self, bp) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, label: str, out) -> tuple[str, str]:
        raise NotImplementedError

    def check_together(self, outs: dict) -> list[tuple[str, str, str]]:
        """Checks that relate several operations of one round."""
        return []

    def close(self) -> None:
        pass


# --- mc_small ----------------------------------------------------------------

PLAIN2 = ("plain", 2, 2, 2, 0, 1)
PLAIN4 = ("plain", 4, 2, 2, 0, 1)
STAR3 = ("star", 3, 2, 2, 1, 2)


class McSmall(Workload):
    """Tiny structures, many trials: per-trial set-up dominates, and exact
    event polynomials are known by enumerating every initial set."""

    name = "mc_small"
    sections = {"items_per_s": "points", "call_s": "p_alpha", "batch_s": "points"}
    POINTS = [(PLAIN2, "percolates", 0.3), (PLAIN2, "percolates", 0.5),
              (PLAIN2, "percolates", 0.7), (PLAIN4, "percolates", 0.4),
              (STAR3, "semi_percolates", 0.3)]
    TRIALS = 10_000
    # 20 000 trials per step keep a wrong bisection step at distance 0.01 from
    # the root below 1e-5 per run; p_tol 0.008 takes seven steps.
    ALPHA, ALPHA_TRIALS, P_TOL = 0.5, 20_000, 0.008

    def __init__(self, *args):
        super().__init__(*args)
        rng = self.rng
        self.seeds = [int(x) for x in rng.integers(0, 2 ** 62, len(self.POINTS) + 1)]
        self._counts: dict = {}

    def prepare(self, bp) -> None:
        self.bp = bp
        self.specs = {s: _spec(bp, s) for s in (PLAIN2, PLAIN4, STAR3)}
        self.events = [bp.EventSpec(kind, self.specs[s]) for s, kind, _ in self.POINTS]
        self.alpha_event = bp.EventSpec("percolates", self.specs[PLAIN2])
        _prime(bp, self.specs.values())

    def _label(self, i: int) -> str:
        struct, kind, p = self.POINTS[i]
        return f"{struct[0]}{struct[1]}.{kind}@{p}"

    def ops(self) -> list[Op]:
        bp = self.bp
        out = []
        for i, (_, _, p) in enumerate(self.POINTS):
            out.append(Op(self._label(i), "points",
                          lambda e=self.events[i], p=p, s=self.seeds[i]:
                          bp.estimate_event_prob(e, p, self.TRIALS, s),
                          items=self.TRIALS))
        out.append(Op("p_alpha.plain2", "p_alpha",
                      lambda: bp.estimate_p_alpha(self.specs[PLAIN2], self.alpha_event,
                                                  self.ALPHA, self.ALPHA_TRIALS,
                                                  self.seeds[-1], self.P_TOL)))
        return out

    def counts(self, struct, kind) -> np.ndarray:
        if (struct, kind) not in self._counts:
            self._counts[(struct, kind)] = oracles.event_counts(struct, kind)
        return self._counts[(struct, kind)]

    def check(self, label, out):
        if label == "p_alpha.plain2":
            root = oracles.prob_root(self.counts(PLAIN2, "percolates"), self.ALPHA)
            if abs(root - math.sqrt(1 - 1 / math.sqrt(2))) > 1e-9:
                raise RuntimeError(f"exact oracle gives p_1/2 = {root} for plain(2,2,2)")
            ok = abs(out.p_hat - root) <= 0.01 and out.ci_low <= out.p_hat <= out.ci_high
            return (OK if ok else WRONG), f"p_1/2 {out.p_hat:.5f} vs exact {root:.5f}"
        i = [self._label(j) for j in range(len(self.POINTS))].index(label)
        struct, kind, p = self.POINTS[i]
        exact = oracles.event_prob(self.counts(struct, kind), p)
        return _within(out.p_hat, exact, self.TRIALS)


# --- mc_large ----------------------------------------------------------------

PLAIN16 = ("plain", 16, 2, 2, 0, 1)
PLAIN32 = ("plain", 32, 2, 2, 0, 1)
PLAIN64 = ("plain", 64, 2, 2, 0, 1)
STAR20 = ("star", 20, 2, 2, 1, 2)
SLAB32 = ("slab", 32, 2, 2, 1, 3)

# A 12 x 12 rectangle of acceptance criterion 11, semi-crossed along axis 1.
SEMI_RECT, SEMI_AXIS, SEMI_SIDE = ((5, 5), (16, 16)), 1, 12


def _semi_p(u: float) -> float:
    """Density at which each line of SEMI_SIDE cells across the axis is hit w.p. u."""
    return 1 - (1 - u) ** (1 / SEMI_SIDE)


class McLarge(Workload):
    """Near-critical densities on larger structures: closure, crossing and
    span code dominate, and per-trial set-up is small."""

    name = "mc_large"
    sections = {"items_per_s": "points", "call_s": "p_alpha", "batch_s": "sweep"}
    # (key, structure, event, extra event fields, two densities, trials);
    # both densities share one master seed, so the success counts must not
    # decrease from the first to the second.
    POINTS = [
        ("plain64", PLAIN64, "percolates", {}, (0.055, 0.065), 60),
        ("star20", STAR20, "semi_percolates", {}, (0.06, 0.08), 150),
        ("star20", STAR20, "semi_crossed", {"rect": SEMI_RECT, "axis": SEMI_AXIS, "u": (0.5, 0.7)},
         (_semi_p(0.5), _semi_p(0.7)), 400),
        ("slab32", SLAB32, "crossed", {"rect": ((1, 1), (32, 32))}, (0.03, 0.04), 100),
        ("plain32", PLAIN32, "long_span", {"long_threshold": 16}, (0.06, 0.075), 60),
    ]
    ALPHA_SIZES, ALPHA_TRIALS, P_TOL = (PLAIN16, PLAIN32), 200, 0.005
    SWEEP_PS, SWEEP_TRIALS = (0.07, 0.08, 0.09, 0.10), 500

    def __init__(self, *args):
        super().__init__(*args)
        rng = self.rng
        self.seeds = [int(x) for x in rng.integers(0, 2 ** 62, len(self.POINTS) + 3)]

    def prepare(self, bp) -> None:
        self.bp = bp
        specs = {s: _spec(bp, s) for s in (PLAIN16, PLAIN32, PLAIN64, STAR20, SLAB32)}
        self.specs = specs
        self.events = []
        for _, struct, kind, extra, _, _ in self.POINTS:
            rect = extra.get("rect")
            self.events.append(bp.EventSpec(
                kind, specs[struct], bp.Rectangle(*rect) if rect else None,
                axis=extra.get("axis"), long_threshold=extra.get("long_threshold")))
        self.alpha_events = [bp.EventSpec("percolates", specs[s]) for s in self.ALPHA_SIZES]
        sweep_event = bp.EventSpec("percolates", specs[PLAIN32])
        self.sweep = bp.SweepConfig(
            tuple(bp.SweepPoint(specs[PLAIN32], sweep_event, p, self.SWEEP_TRIALS)
                  for p in self.SWEEP_PS), self.seeds[-1])
        _prime(bp, specs.values())

    def _point_labels(self):
        for i, (key, _, kind, _, ps, trials) in enumerate(self.POINTS):
            for j, p in enumerate(ps):
                yield f"{key}.{kind}@{j}", i, j, p, trials

    def ops(self) -> list[Op]:
        bp = self.bp
        out = [Op(label, "points",
                  lambda e=self.events[i], p=p, t=trials, s=self.seeds[i]:
                  bp.estimate_event_prob(e, p, t, s), items=trials)
               for label, i, _, p, trials in self._point_labels()]
        for j, struct in enumerate(self.ALPHA_SIZES):
            out.append(Op(f"p_alpha.plain{struct[1]}", "p_alpha",
                          lambda e=self.alpha_events[j], s=self.seeds[len(self.POINTS) + j]:
                          bp.estimate_p_alpha(e.structure, e, 0.5, self.ALPHA_TRIALS,
                                              s, self.P_TOL)))
        out.append(Op("sweep.plain32", "sweep", lambda: bp.run_sweep(self.sweep)))
        return out

    def _own_successes(self, struct, kind, extra, p, trials, seed) -> int:
        """Successes recounted with the benchmark's closure on the program's
        own sample_bin(spec, p, trial_rng(seed, t)) cells."""
        bp = self.bp
        spec = self.specs[struct]
        masks = np.stack([bp.sample_bin(spec, p, bp.trial_rng(seed, t)).mask
                          for t in range(trials)])
        closed = oracles.closure(masks, oracles.threshold_array(struct))
        flat = closed.reshape(trials, -1)
        if kind == "percolates":
            return int(flat.all(axis=1).sum())
        if kind == "semi_percolates":
            base = closed[(slice(None),) * (1 + struct[2]) + (0,) * struct[4]]
            return int(base.reshape(trials, -1).all(axis=1).sum())
        # long_span: the longest side of any span box reaches the threshold
        hits = 0
        for c in closed:
            sides = [max(b - a + 1 for a, b in zip(lo, hi))
                     for lo, hi in oracles.boxes(c.any(axis=tuple(range(struct[2], c.ndim))))]
            hits += max(sides, default=0) >= extra["long_threshold"]
        return hits

    def check(self, label, out):
        if label.startswith("p_alpha."):
            ok = out.ci_low <= out.p_hat <= out.ci_high and out.ci_high - out.ci_low < self.P_TOL
            return (OK if ok else WRONG), f"p_1/2 {out.p_hat:.5f} in [{out.ci_low:.5f}, {out.ci_high:.5f}]"
        if label == "sweep.plain32":
            bad = []
            for row, p in zip(out, self.SWEEP_PS):
                own = self._own_successes(PLAIN32, "percolates", {}, p,
                                          self.SWEEP_TRIALS, int(row["seed"]))
                if float(row["p"]) != p or float(row["pHat"]) != own / self.SWEEP_TRIALS:
                    bad.append(f"p={row['p']} pHat={row['pHat']} own={own}")
            if len(out) != len(self.SWEEP_PS):
                bad.append(f"{len(out)} rows")
            return (WRONG if bad else OK), "; ".join(bad) or f"{len(out)} rows agree with own closure"
        _, i, j, p, trials = next(x for x in self._point_labels() if x[0] == label)
        _, struct, kind, extra, _, _ = self.POINTS[i]
        successes = round(out.p_hat * trials)
        if kind == "semi_crossed":
            u = extra["u"][j]
            bound = oracles.beta(2, u) ** (SEMI_SIDE + 1)
            sigma = math.sqrt(max(out.p_hat * (1 - out.p_hat), 1e-9) / trials)
            ok = out.p_hat >= bound - 4 * sigma
            return (OK if ok else WRONG), f"{out.p_hat:.4f} >= beta^(a+1) {bound:.4f} - 4 sigma"
        if kind == "crossed":
            return OK, f"{successes}/{trials}"
        own = self._own_successes(struct, kind, extra, p, trials, self.seeds[i])
        return (OK if own == successes else WRONG), f"{successes}/{trials} vs own closure {own}"

    def check_together(self, outs):
        found = []
        labels = list(self._point_labels())
        for (lab1, _, _, _, t), (lab2, *_) in zip(labels[::2], labels[1::2]):
            s1, s2 = round(outs[lab1].p_hat * t), round(outs[lab2].p_hat * t)
            if s1 > s2:
                found.append((lab2, WRONG, f"successes fell from {s1} to {s2} as p rose"))
        p16, p32 = outs["p_alpha.plain16"].p_hat, outs["p_alpha.plain32"].p_hat
        if not p16 > p32:
            found.append(("p_alpha.plain32", WRONG, f"p_1/2 {p32:.4f} at n=32 not below {p16:.4f} at n=16"))
        return found


# --- span_witness -------------------------------------------------------------

# Grid sizes of the span-equivalence acceptance criterion, with its density ranges.
CRITERION8 = [(("plain", 6, 2, 2, 0, 1), 0.05, 0.30), (("plain", 4, 3, 3, 0, 1), 0.10, 0.35),
              (("slab", 5, 2, 2, 1, 3), 0.03, 0.22)]


class SpanWitness(Workload):
    """Spans and witnesses on seeded grids; no random streams of the program."""

    name = "span_witness"
    sections = {"items_per_s": "spans", "call_s": "witness", "batch_s": "main"}
    # (key, structure, density, grids).  plain(64) at 0.05 leaves some 130
    # span rectangles, which stresses labelling and bounding boxes; plain(256)
    # at 0.055 and the slab at 0.04 fill the grid, which stresses closure.
    DIRECT = [("plain64", PLAIN64, 0.05, 10), ("plain256", ("plain", 256, 2, 2, 0, 1), 0.055, 3),
              ("slab32", SLAB32, 0.04, 10)]
    MAIN_GRIDS = 100  # per criterion-8 size
    # (n, infected cells, grids, L): grids are drawn until their closure is full
    WITNESS = [(20, 40, 8, 5), (40, 110, 4, 10)]

    def __init__(self, *args):
        super().__init__(*args)
        rng = self.rng
        self.direct = []
        for key, struct, p, count in self.DIRECT:
            m = round(p * math.prod(oracles.shape_of(struct)))
            self.direct += [(f"{key}.{i}", struct, _exact_count(rng, struct, m)) for i in range(count)]
        self.main = []
        for struct, lo, hi in CRITERION8:
            for i in range(self.MAIN_GRIDS):
                mask = rng.random(oracles.shape_of(struct)) < rng.uniform(lo, hi)
                self.main.append((f"{struct[0]}{struct[1]}d{struct[2]}.{i}", struct, mask))
        self.witness = []
        for n, m, count, length in self.WITNESS:
            struct = ("plain", n, 2, 2, 0, 1)
            for i in range(count):
                while True:
                    mask = _exact_count(rng, struct, m)
                    if oracles.closure_one(mask, struct).all():
                        break
                self.witness.append((f"n{n}.{i}", struct, mask, length))

    def prepare(self, bp) -> None:
        self.bp = bp
        specs = {}
        self.cells = {}
        for label, struct, mask, *_ in self.direct + self.main + self.witness:
            specs.setdefault(struct, _spec(bp, struct))
            self.cells[label] = bp.CellSet.from_mask(mask.copy())
        self.specs = specs
        _prime(bp, specs.values())

    def ops(self) -> list[Op]:
        bp, specs, cells = self.bp, self.specs, self.cells
        out = [Op(f"span_direct.{label}", "spans",
                  lambda s=specs[struct], a=cells[label]: bp.span_direct(s, a), items=1)
               for label, struct, _ in self.direct]
        out += [Op(f"span_main.{label}", "main",
                   lambda s=specs[struct], a=cells[label]: bp.span_main_algorithm(s, a))
                for label, struct, _ in self.main]
        for label, struct, _, length in self.witness:
            s, a = specs[struct], cells[label]
            out.append(Op(f"rect.{label}", "witness",
                          lambda s=s, a=a, L=length: bp.find_spanned_rectangle(s, a, L)))
            out.append(Op(f"comp.{label}", "witness",
                          lambda s=s, a=a, L=length: bp.find_spanned_component(s, a, L), units=0))
        return out

    def check(self, label, out):
        kind, _, grid = label.partition(".")
        if kind in ("span_direct", "span_main"):
            _, struct, mask = next(g for g in self.direct + self.main if g[0] == grid)
            got = {(r.lo, r.hi) for r in out.rectangles}
            want = oracles.span(mask, struct)
            ok = got == want and len(got) == len(out.rectangles)
            return (OK if ok else WRONG), f"{len(got)} rectangles, own span has {len(want)}"
        _, struct, mask, length = next(g for g in self.witness if g[0] == grid)
        if out is None:
            return WRONG, f"no witness for L={length}"
        if kind == "rect":
            ok = (length <= out.long <= 2 * length
                  and oracles.internally_spanned(mask, struct, out.lo, out.hi))
            return (OK if ok else WRONG), f"rectangle {out.lo}-{out.hi} for L={length}"
        filled, diam = oracles.filled_component(mask, out.mask, struct)
        ok = filled and length <= diam <= 2 * length
        return (OK if ok else WRONG), f"component of diameter {diam}, filled={filled}, L={length}"


# --- analytic_cli -------------------------------------------------------------

_ENTRY = "import sys; from bootperc.cli import main; sys.exit(main())"

MALFORMED = {
    "ell_not_int": {"structure": {"family": "star", "n": 4, "d": 2, "r": 2, "ell": "one"},
                    "infected": []},
    "infected_not_list": {"structure": {"family": "plain", "n": 4, "d": 2, "r": 2},
                          "infected": 5},
    "too_many_vertices": {"structure": {"family": "plain", "n": 100000, "d": 3, "r": 3},
                          "infected": []},
}


class AnalyticCli(Workload):
    """No lattice work of size: scalar numerics, and fresh CLI processes whose
    time is mostly interpreter start-up and imports."""

    name = "analytic_cli"
    sections = {"items_per_s": "lgap", "call_s": "cli_scalar", "batch_s": "lambda_table"}
    # ell, m, trials per call; four calls make 1e6 trials a round and give
    # the speed probe a sample near each call
    LGAP, LGAP_CALLS = (1, 20, 250_000), 4
    TABLE_REPEATS = 30
    TIGHT = (7, 3, 1e-12)  # d, r, abs_tol
    GRID = ("plain", 8, 2, 2, 0, 1)

    def __init__(self, *args):
        super().__init__(*args)
        rng = self.rng
        self.lgap_u = float(rng.uniform(0.3, 0.7))
        self.lgap_seeds = [int(x) for x in rng.integers(0, 2 ** 62, self.LGAP_CALLS)]
        self.l_grid = [(ell, m, float(u)) for ell in (0, 1, 2) for m in range(1, 41)
                       for u in rng.uniform(0.05, 0.95, 5)]
        k = [int(x) for x in rng.integers(1, 5, 2)]
        u = [round(float(x), 4) for x in rng.uniform(0.05, 0.95, 2)]
        z = round(float(rng.uniform(0.1, 5.0)), 4)
        d = int(rng.integers(2, 6))
        r = int(rng.integers(2, d + 1))
        ell, m = int(rng.integers(0, 3)), int(rng.integers(5, 41))
        # command -> (argv, the library value it prints)
        self.scalar = {
            "beta": (["beta", "--k", str(k[0]), "--u", str(u[0])],
                     lambda bp: bp.beta(k[0], u[0])),
            "g": (["g", "--k", str(k[1]), "--z", str(z)], lambda bp: bp.g(k[1], z)),
            "lambda": (["lambda", "--d", str(d), "--r", str(r)],
                       lambda bp: bp.lambda_constant(d, r)),
            "lgap": (["lgap", "--ell", str(ell), "--m", str(m), "--u", str(u[1]), "--exact"],
                     lambda bp: bp.l_exact(ell, m, u[1])),
        }
        self.grid_mask = rng.random(oracles.shape_of(self.GRID)) < 0.2
        self.dir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir)
        self.grid_path = self._write("grid.json", {
            "structure": {"family": "plain", "n": 8, "d": 2, "r": 2},
            "infected": [[int(x) + 1 for x in c] for c in np.argwhere(self.grid_mask)]})
        self.bad_paths = {key: self._write(f"{key}.json", obj) for key, obj in MALFORMED.items()}

    def _write(self, name: str, obj) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w") as handle:
            json.dump(obj, handle)
        return path

    def close(self) -> None:
        for name in os.listdir(self.dir):
            os.remove(os.path.join(self.dir, name))
        os.rmdir(self.dir)

    def prepare(self, bp) -> None:
        self.bp = bp
        self.tight = bp.QuadratureSettings(abs_tol=self.TIGHT[2])
        _prime(bp, [_spec(bp, self.GRID)])

    def _cli(self, args):
        return subprocess.run([sys.executable, "-c", _ENTRY, *args], env=self.env,
                              capture_output=True, text=True, timeout=120)

    def _main(self, args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.bp.cli.main(args)
        return code, buf.getvalue()

    def ops(self) -> list[Op]:
        bp = self.bp
        ell, m, trials = self.LGAP
        out = [Op(f"estimate_lgap.{i}", "lgap",
                  lambda s=seed: bp.estimate_lgap(ell, m, self.lgap_u, trials, s), items=trials)
               for i, seed in enumerate(self.lgap_seeds)]
        out += [Op(f"lambda_table.{i}", "lambda_table", lambda: bp.lambda_table(7))
                for i in range(self.TABLE_REPEATS)]
        d, r, _ = self.TIGHT
        out.append(Op("lambda_tight", "other", lambda: bp.lambda_constant(d, r, self.tight)))
        out.append(Op("l_exact_grid", "other",
                      lambda: [bp.l_exact(ell, m, u) for ell, m, u in self.l_grid]))
        out += [Op(f"cli.{key}", "cli_scalar", lambda a=argv: self._cli(a), fresh=True)
                for key, (argv, _) in self.scalar.items()]
        out.append(Op("cli.closure", "other",
                      lambda: self._cli(["closure", "--input", self.grid_path]), fresh=True))
        out.append(Op("cli.span", "other",
                      lambda: self._cli(["span", "--input", self.grid_path]), fresh=True))
        out += [Op(f"cli.bad.{key}", "other",
                   lambda p=path: self._cli(["closure", "--input", p]), fresh=True)
                for key, path in self.bad_paths.items()]
        out.append(Op("main.beta", "other", lambda: self._main(self.scalar["beta"][0])))
        out.append(Op("main.closure", "other",
                      lambda: self._main(["closure", "--input", self.grid_path])))
        return out

    def _printed(self, key: str, text: str) -> tuple[str, str]:
        want = f"{self.scalar[key][1](self.bp):.7g}"
        got = text.strip().splitlines()[-1]
        return (OK if got == want else WRONG), f"printed {got}, library {want}"

    def _check_closure_text(self, text: str) -> tuple[str, str]:
        result = json.loads(text.strip().splitlines()[-1])
        closed = oracles.closure_one(self.grid_mask, self.GRID)
        want = {tuple(int(x) + 1 for x in c) for c in np.argwhere(closed)}
        got = {tuple(c) for c in result["closure"]}
        ok = got == want and result["percolates"] == bool(closed.all())
        return (OK if ok else WRONG), f"closure of {len(got)} cells, own {len(want)}"

    def check(self, label, out):
        if label.startswith("estimate_lgap."):
            ell, m, trials = self.LGAP
            return _within(out.p_hat, oracles.no_gap_dp(ell, m, self.lgap_u), trials)
        if label.startswith("lambda_table."):
            bad = [(d, r, v) for d, r, v in out if abs(v - oracles.lambda_quad(d, r)) > 1e-7]
            pi_err = abs(next(v for d, r, v in out if (d, r) == (2, 2)) - math.pi ** 2 / 18)
            ok = len(out) == 21 and not bad and pi_err <= 1e-7
            return (OK if ok else WRONG), f"{len(out)} rows, off quad: {bad}, |l(2,2)-pi^2/18|={pi_err:.1e}"
        if label == "lambda_tight":
            ref = oracles.lambda_quad(*self.TIGHT[:2])
            return (OK if abs(out - ref) <= 1e-9 else WRONG), f"{out!r} vs quad {ref!r}"
        if label == "l_exact_grid":
            worst = max(abs(v - oracles.no_gap_dp(ell, m, u)) for v, (ell, m, u) in zip(out, self.l_grid))
            brute = max(abs(v - oracles.no_gap_brute(ell, m, u))
                        for v, (ell, m, u) in zip(out, self.l_grid) if (m + 1) + ell * m <= 14)
            ok = len(out) == len(self.l_grid) and worst <= 1e-12 and brute <= 1e-12
            return (OK if ok else WRONG), f"max error {worst:.1e} (chain), {brute:.1e} (enumeration)"
        if label.startswith("cli.bad."):
            lines = out.stderr.strip().splitlines()
            ok = out.returncode == 1 and len(lines) == 1 and "Traceback" not in out.stderr
            return (OK if ok else ERROR), f"exit {out.returncode}, last stderr line: {lines[-1] if lines else ''}"
        if label.startswith("main."):
            code, text = out
            if code != 0:
                return ERROR, f"exit {code}"
            if label == "main.closure":
                return self._check_closure_text(text)
            return self._printed("beta", text)
        if out.returncode != 0:
            return ERROR, f"exit {out.returncode}: {out.stderr.strip()[-200:]}"
        key = label.split(".", 1)[1]
        if key == "closure":
            return self._check_closure_text(out.stdout)
        if key == "span":
            got = {(tuple(lo), tuple(hi)) for lo, hi in json.loads(out.stdout.strip().splitlines()[-1])["rectangles"]}
            want = oracles.span(self.grid_mask, self.GRID)
            return (OK if got == want else WRONG), f"{len(got)} rectangles, own {len(want)}"
        return self._printed(key, out.stdout)


WORKLOADS = {w.name: w for w in (McSmall, McLarge, SpanWitness, AnalyticCli)}
