"""Benchmark of bootperc: one workload per process, run as a closed loop.

    python3 bench/run.py --workload mc_small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up (a fresh interpreter importing bootperc, then building the
workload's inputs as program objects) is timed several times and its
median reported.  The timed phase repeats whole rounds of the same
operations for about ``--seconds`` (it stops at the round end nearest to
that); per-round figures are reported as medians over rounds, scaled by
the two speed probes below.  Outputs are checked after the timed phase
against computations made apart from the program (see ``oracles.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, read from
spans recorded around the program's public functions, plus the tracing
overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from tracing import Tracer
from workloads import ERROR, OK, WORKLOADS, WRONG

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5

# The speed probe: a fixed piece of interpreter and small-array numpy work,
# timed every PROBE_EVERY_S from a timer signal during the timed phase, so
# also inside long operations; its own time is taken out of the time of the
# operation it interrupted.  This 2-core machine runs the same work up to a
# third faster or slower, in phases that change within seconds and drift
# over minutes, so the times of in-process operations are reported in
# reference seconds: each time measured is divided by the median probe time
# around that operation (from PROBE_WINDOW_S before it starts to
# PROBE_WINDOW_S after it ends) and multiplied by REFERENCE_PROBE_S.
# Fresh interpreters (set-up imports, CLI runs) do not follow that probe:
# their time is mostly loading numpy and scipy, which drifts in its own
# way.  They are scaled the same way by the cold-start probe: a fresh
# interpreter that imports numpy and scipy.ndimage, the modules bootperc
# loads, and no code of bootperc.  It runs after each set-up import and
# before a fresh-process operation, at most every COLD_EVERY_S.
PROBE_EVERY_S, PROBE_WINDOW_S = 0.1, 1.0
REFERENCE_PROBE_S = 0.004
_PROBE_DATA = np.random.default_rng(0).random(4096)
COLD_EVERY_S = 2.0
REFERENCE_COLD_S = 0.6
COLD_PROBE = "import numpy, scipy.ndimage"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import bootperc; "
                "print(time.perf_counter() - t)")


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(samples: list[float]) -> str:
    """Median, plus the highest percentile with ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    text = f"n={n} median={_median(xs):.6g}s"
    if n >= 40:
        q = math.floor(100 * (n - 10) / n)
        text += f" p{q}={xs[math.ceil(q * n / 100) - 1]:.6g}s"
    return text


def fresh_import(env: dict) -> tuple[float, float, float]:
    """(start, wall seconds of a fresh interpreter importing bootperc, import
    seconds)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return start, time.perf_counter() - start, float(proc.stdout)


def ndimage_import_s(env: dict) -> float:
    """Cumulative import time of scipy.ndimage under ``-X importtime``.

    scipy loads its submodules lazily, so the package may have no line of
    its own; its outermost submodule lines are summed instead."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bootperc"],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    rows = []  # (indent, cumulative us)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        name = parts[-1].strip()
        if len(parts) == 3 and (name == "scipy.ndimage" or name.startswith("scipy.ndimage.")):
            rows.append((len(parts[2]) - len(parts[2].lstrip()), int(parts[1])))
    outer = min((indent for indent, _ in rows), default=0)
    return sum(us for indent, us in rows if indent == outer) / 1e6


class Probe:
    """Times of a fixed reference task taken during one run, each with the
    moment it ended."""

    every = window = reference = 0.0

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, seconds)
        self.last = -math.inf
        self.busy = 0.0  # seconds spent probing so far

    def task(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        start = time.perf_counter()
        self.task()
        self.last = time.perf_counter()
        self.samples.append((self.last, self.last - start))
        self.busy += self.last - start

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= self.every:
            self.run()

    def factor(self, start: float, end: float) -> float:
        """Median probe time from ``window`` before ``start`` to ``window``
        after ``end`` (the nearest one if none), over the reference time;
        > 1 when the machine ran slower than the reference."""
        near = [s for t, s in self.samples if start - self.window <= t <= end + self.window]
        if not near:
            near = [min(self.samples, key=lambda x: min(abs(x[0] - start), abs(x[0] - end)))[1]]
        return statistics.median(near) / self.reference

    def summary(self) -> str:
        times = [s for _, s in self.samples]
        return (f"{len(times)} samples, median {statistics.median(times):.6f}s, "
                f"factor {statistics.median(times) / self.reference:.4f}")


class SpeedProbe(Probe):
    every, window, reference = PROBE_EVERY_S, PROBE_WINDOW_S, REFERENCE_PROBE_S
    ticking = False

    def resume(self) -> None:
        """Probe every PROBE_EVERY_S from SIGALRM until ``pause``."""
        if not self.ticking:
            signal.signal(signal.SIGALRM, lambda *_: self.run())
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
            self.ticking = True

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.ticking = False

    def task(self) -> None:
        total = 0
        for i in range(20000):
            total += i & 7
        for _ in range(200):
            np.bincount(np.flatnonzero(_PROBE_DATA > 0.5) & 63, minlength=64)


class ColdProbe(Probe):
    every, window, reference = COLD_EVERY_S, COLD_EVERY_S, REFERENCE_COLD_S

    def __init__(self, env: dict):
        super().__init__()
        self.env = env

    def task(self) -> None:
        subprocess.run([sys.executable, "-c", COLD_PROBE], env=self.env,
                       capture_output=True, check=True, timeout=120)


def run_round(ops, probe: SpeedProbe | None, cold: ColdProbe):
    """Run every operation once, in order; returns (seconds of the
    operations, [(op, s, start, out, err)]).  The speed probe ticks during
    in-process operations unless ``probe`` is None, and is paused for
    fresh-process ones, which the cold-start probe precedes."""
    records = []
    for op in ops:
        if op.fresh:
            if probe:
                probe.pause()
            cold.maybe()
        elif probe:
            probe.resume()
        busy = probe.busy if probe else 0.0
        t0 = time.perf_counter()
        try:
            out, err = op.fn(), None
        except Exception as exc:  # counted as a failed operation
            out, err = None, f"{type(exc).__name__}: {exc}"
        probed = probe.busy - busy if probe else 0.0
        records.append((op, time.perf_counter() - t0 - probed, t0, out, err))
    return sum(r[1] for r in records), records


def section_figure(metric: str, section: str, timed) -> float:
    """items_per_s, or seconds per call, of one round's ops in ``section``."""
    chosen = [(op, s) for op, s in timed if op.section == section]
    seconds = sum(s for _, s in chosen)
    if metric == "items_per_s":
        return sum(op.items for op, _ in chosen) / seconds
    return seconds / sum(op.units for op, _ in chosen)


def layer_metrics(tr, rounds: int, setup: dict) -> dict:
    """Per-layer metrics from the traced rounds; counts are per round."""
    us, ms = 1e6, 1e3
    trials = tr.work["estimate_event_prob"]
    alpha_calls = tr.calls("estimate_p_alpha")
    evals, alpha_trials = tr.under[("estimate_event_prob", "estimate_p_alpha")]
    witness_closures = (tr.under[("closure", "find_spanned_rectangle")][0]
                        + tr.under[("closure", "find_spanned_component")][0])
    tables = tr.calls("lambda_table")
    m = {
        "montecarlo.trial_rng.us": (tr.mean("trial_rng") * us, "us"),
        "montecarlo.sample_bin.us": (tr.mean("sample_bin") * us, "us"),
        "montecarlo.estimate_event_prob.self_us": (
            tr.seconds("estimate_event_prob", own=True) / trials * us if trials else 0.0, "us"),
        "montecarlo.trials": (trials / rounds, "count"),
        "montecarlo.p_alpha.evals": (evals / alpha_calls if alpha_calls else 0.0, "count"),
        "montecarlo.p_alpha.trials": (alpha_trials / alpha_calls if alpha_calls else 0.0, "count"),
        "montecarlo.estimate_lgap.ms": (tr.mean("estimate_lgap") * ms, "ms"),
    }
    for tag in ("plain2", "plain64", "plain256", "star20", "slab32"):
        m[f"dynamics.closure.{tag}.us"] = (tr.mean("closure", tag) * us, "us")
    closure_s = tr.seconds("closure")
    m["dynamics.closure.vertices_per_s"] = (
        tr.work["closure"] / closure_s if closure_s else 0.0, "vertices/s")
    m["dynamics.closure.calls"] = (tr.calls("closure") / rounds, "count")
    for name in ("percolates", "semi_percolates", "is_crossed", "is_semi_crossed"):
        m[f"dynamics.{name}.us"] = (tr.mean(name) * us, "us")
    for tag in ("plain64", "plain256"):
        m[f"span.span_direct.{tag}.ms"] = (tr.mean("span_direct", tag) * ms, "ms")
    for name in ("find_spanned_rectangle", "find_spanned_component"):
        for tag in ("n20", "n40"):
            m[f"span.{name}.{tag}.ms"] = (tr.mean(name, tag) * ms, "ms")
    m["span.witness.closure_calls"] = (witness_closures / rounds, "count")
    m["span.span_main_algorithm.ms"] = (tr.mean("span_main_algorithm", "top") * ms, "ms")
    m["span.internally_spans.us"] = (tr.mean("internally_spans") * us, "us")
    m["structures.grid_tables.cold_ms"] = (_median(tr.cold["grid_tables"]) * ms, "ms")
    m["structures.threshold_table.cold_us"] = (_median(tr.cold["threshold_table"]) * us, "us")
    m["structures.components.ms"] = (tr.mean("components") * ms, "ms")
    m["structures.projection.us"] = (tr.mean("projection") * us, "us")
    m["analytic.lambda_constant.d7r3.ms"] = (tr.mean("lambda_constant", "d7r3") * ms, "ms")
    m["analytic.g.us"] = (tr.mean("g") * us, "us")
    m["analytic.l_exact.us"] = (tr.mean("l_exact") * us, "us")
    m["analytic.lambda_table.integrand_calls"] = (
        tr.under[("g", "lambda_table")][0] / tables if tables else 0.0, "count")
    m["cli.import.s"] = (setup["import_s"], "s")
    m["cli.import.scipy_ndimage.s"] = (setup["ndimage_s"], "s")
    m["cli.main.beta.ms"] = (tr.mean("main", "beta") * ms, "ms")
    m["cli.main.closure.ms"] = (tr.mean("main", "closure") * ms, "ms")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bootperc", "__init__.py")):
        print(f"error: no bootperc package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    # Trials run with the default single worker.
    os.environ.pop("BOOTPERC_THREADS", None)
    env = dict(os.environ, PYTHONPATH=SRC)
    sys.path.insert(0, SRC)
    import numpy
    import scipy
    import bootperc as bp
    import bootperc.cli  # noqa: F401  (cli.main is called in process)

    if os.path.dirname(os.path.abspath(bp.__file__)) != os.path.join(SRC, "bootperc"):
        print(f"error: imported bootperc from {bp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    print(f"env workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={nproc} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"bootperc={bp.__version__} BOOTPERC_THREADS=unset", flush=True)

    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT, env)
    try:
        return _run(args, workload, bp, env)
    finally:
        workload.close()


def _run(args, workload, bp, env) -> int:
    tracer = Tracer() if args.trace else None
    caches = (bp.structures.grid_tables, bp.structures.threshold_table)

    # --- set-up, repeated; medians reported --------------------------------
    probe = SpeedProbe()
    cold = ColdProbe(env)
    imports = []
    for _ in range(SETUP_REPEATS):
        probe.maybe()
        imports.append(fresh_import(env))
        cold.run()
    prepares = []
    for _ in range(SETUP_REPEATS):
        probe.maybe()
        for cache in caches:
            cache.cache_clear()
        if tracer:
            tracer.install(setup=True)
        start = time.perf_counter()
        try:
            workload.prepare(bp)
        finally:
            prepares.append((start, time.perf_counter() - start))
            if tracer:
                tracer.uninstall()
    setup = {
        "wall_s": _median([w for _, w, _ in imports]),
        "import_s": _median([i for _, _, i in imports]),
        "prepare_s": _median([p for _, p in prepares]),
        "ndimage_s": ndimage_import_s(env) if tracer else 0.0,
    }
    print(f"setup fresh-interpreter import {setup['wall_s']:.4f}s (import alone "
          f"{setup['import_s']:.4f}s) + inputs {setup['prepare_s']:.6f}s, median of "
          f"{SETUP_REPEATS}", flush=True)

    # --- timed phase: whole rounds for about --seconds ----------------------
    ops = workload.ops()
    rounds = []  # (traced, seconds, [(op, seconds, start)])
    outputs: dict = {}  # label -> {digest: output}; errors keyed "error: ..."
    op_digests = []  # per round, the digest of each op's output
    # The speed probe only scales untraced runs, and would add to traced spans.
    ticking = None if tracer else probe
    begin = time.perf_counter()
    try:
        while True:
            traced = bool(tracer) and len(rounds) % 2 == 1
            if traced:
                tracer.install()
            try:
                wall, records = run_round(ops, ticking, cold)
            finally:
                if traced:
                    tracer.uninstall()
            digests = []
            for op, _, _, out, err in records:
                key = f"error: {err}" if err else hashlib.sha1(pickle.dumps(out)).hexdigest()
                outputs.setdefault(op.label, {}).setdefault(key, out)
                digests.append(key)
            op_digests.append(digests)
            rounds.append((traced, wall, [(op, s, t0) for op, s, t0, _, _ in records]))
            # Each distinct output is kept once, in ``outputs``, so that peak
            # memory does not grow with the number of rounds.
            del records
            # Stop when another round would end nearer past --seconds than
            # now is before it, so that a run lasts --seconds on average.
            elapsed = time.perf_counter() - begin
            done = elapsed + 0.5 * elapsed / len(rounds) >= args.seconds
            if done and len(rounds) >= 2:
                break
    finally:
        probe.pause()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # --- output checks -------------------------------------------------------
    verdict: dict = {}
    for label, seen in outputs.items():
        for key, out in seen.items():
            if key.startswith("error: "):
                verdict[(label, key)] = (ERROR, key[7:])
            else:
                verdict[(label, key)] = workload.check(label, out)
            if len(seen) > 1 and verdict[(label, key)][0] == OK:
                verdict[(label, key)] = (WRONG, "output differs between rounds")
    first = {op.label: outputs[op.label][key]
             for op, key in zip(ops, op_digests[0]) if not key.startswith("error: ")}
    together = {}
    try:
        for label, status, message in workload.check_together(first):
            together[label] = (status, message)
    except (KeyError, AttributeError):
        pass  # an operation they relate failed; it is counted already
    attempted = failed = 0
    wrong = False
    for digests in op_digests:
        for op, key in zip(ops, digests):
            status = verdict[(op.label, key)][0]
            if status == OK and op.label in together:
                status = together[op.label][0]
            attempted += 1
            failed += status != OK
            wrong |= status == WRONG
    for (label, key), (status, message) in verdict.items():
        print(f"check {label}: {status} {message}")
    for label, (status, message) in together.items():
        print(f"check {label} (with others): {status} {message}")

    # --- metrics ---------------------------------------------------------------
    plain = [r for r in rounds if not r[0]]
    per_op = {}
    for _, _, timed in plain:
        for op, s, _ in timed:
            per_op.setdefault(op.section, []).append(s)
    for section, samples in per_op.items():
        print(f"time {workload.name}.{section} per call: {_tail(samples)}")
    print(f"rounds untraced={len(plain)} traced={len(rounds) - len(plain)} "
          f"ops_per_round={len(ops)}")

    if tracer:
        traced_walls = [wall for t, wall, _ in rounds if t]
        untraced = _median([wall for _, wall, _ in plain])
        overhead = 100 * (_median(traced_walls) / untraced - 1)
        metrics = layer_metrics(tracer, len(traced_walls), setup)
        metrics["trace.overhead_pct"] = (overhead, "%")
        print(f"trace overhead {overhead:.1f}% of a round (traced {_median(traced_walls):.4f}s, "
              f"untraced {untraced:.4f}s)")
        path = os.path.join(OUT, f"trace-{workload.name}-{args.seed}.json")
        tracer.dump(path, {"workload": workload.name, "seed": args.seed,
                           "traced_rounds": len(traced_walls)})
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        def figures(rounds_timed) -> dict:
            out = {"run_s": (_median([sum(s for _, s in timed) for timed in rounds_timed]), "s")}
            for metric in ("items_per_s", "call_s", "batch_s"):
                section = workload.sections[metric]
                out[metric] = (_median([section_figure(metric, section, timed)
                                        for timed in rounds_timed]),
                               "1/s" if metric == "items_per_s" else "s")
            return out

        print(f"speed probe {probe.summary()}")
        print(f"cold-start probe {cold.summary()}")
        print(f"measured setup_s = {setup['wall_s'] + setup['prepare_s']:.6g} s")
        for name, (value, unit) in figures([[(op, s) for op, s, _ in timed]
                                            for _, _, timed in plain]).items():
            print(f"measured {name} = {value:.6g} {unit}")
        # Fresh processes are scaled by the cold-start probe, the rest by the
        # speed probe, each around the time the operation ran.
        scaled = [[(op, s / (cold if op.fresh else probe).factor(t0, t0 + s))
                   for op, s, t0 in timed] for _, _, timed in plain]
        setup_s = (_median([w / cold.factor(t0, t0 + w) for t0, w, _ in imports])
                   + _median([p / probe.factor(t0, t0 + p) for t0, p in prepares]))
        metrics = {"setup_s": (setup_s, "s"), **figures(scaled),
                   "peak_rss_mb": (peak_rss_mb, "MiB")}
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"ops attempted={attempted} failed={failed} correct={str(not wrong).lower()}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
