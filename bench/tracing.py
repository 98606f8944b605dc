"""Spans around calls into bootperc's public functions, recorded from outside.

``Tracer.install`` rebinds each function listed in ``LAYERS``, in every
bootperc module that holds it, to a wrapper that records a span (name, tag,
start, end, parent).  Calls between the program's modules go through those
module globals, so nested calls are caught too.  Self time is a span's
duration minus the time its direct children cover; the calls are
synchronous, so children never overlap.  Totals are kept for every span;
raw spans are kept for the first ``KEEP_SPANS`` of them and written by
``dump``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# module -> public functions wrapped; each is a layer boundary that a
# per-layer metric reads.
LAYERS = {
    "structures": ("grid_tables", "threshold_table", "components", "projection"),
    "dynamics": ("closure", "percolates", "semi_percolates", "is_crossed",
                 "is_semi_crossed"),
    "span": ("span_direct", "span_main_algorithm", "internally_spans",
             "find_spanned_rectangle", "find_spanned_component"),
    "analytic": ("g", "l_exact", "lambda_constant", "lambda_table"),
    "montecarlo": ("trial_rng", "sample_bin", "estimate_event_prob",
                   "estimate_p_alpha", "estimate_lgap", "run_sweep"),
    "cli": ("main",),
}

# Cached table functions: wrapped only while the inputs are set up, where
# their first (cold) calls happen, since a wrapper on every warm call would
# add its own cost to each closure.
SETUP_ONLY = frozenset({"grid_tables", "threshold_table"})

# Calls of these are also counted under each enclosing traced function.
_COUNTED_UNDER = {"estimate_event_prob", "closure", "g"}


def _tag(name: str, args: tuple, kwargs: dict, depth: int) -> str:
    """A label that splits one function's calls by input size or kind."""
    if name in ("closure", "span_direct") and args:
        return f"{args[0].family}{args[0].n}"
    if name in ("find_spanned_rectangle", "find_spanned_component") and args:
        return f"n{args[0].n}"
    if name == "lambda_constant" and len(args) >= 2:
        settings = args[2] if len(args) > 2 else kwargs.get("settings")
        default = sys.modules["bootperc.analytic"].DEFAULT_SETTINGS
        extra = "" if settings in (None, default) else f".tol{settings.abs_tol:g}"
        return f"d{args[0]}r{args[1]}{extra}"
    if name == "span_main_algorithm":
        return "top" if depth == 0 else "nested"
    if name == "main":
        argv = args[0] if args else kwargs.get("argv")
        return argv[0] if argv else ""
    return ""


def _work(name: str, args: tuple, kwargs: dict) -> int:
    """Work handed to a call: trials for estimators, vertices for closure."""
    if name == "estimate_event_prob":
        return int(args[2] if len(args) > 2 else kwargs["trials"])
    if name == "closure" and args:
        return args[0].num_vertices
    return 0


KEEP_SPANS = 20000  # raw spans kept for the trace file; totals cover all


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [name, child seconds, span id]
        self.totals: dict = defaultdict(lambda: [0, 0.0, 0.0])  # (name, tag) -> calls, s, self s
        self.work: dict = defaultdict(int)  # name -> work handed to its calls
        self.under: dict = defaultdict(lambda: [0, 0])  # (name, ancestor) -> calls, work
        self.cold: dict = defaultdict(list)  # cached name -> seconds of each cache miss
        self.next_id = 0
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer = self
        cached = hasattr(fn, "cache_info")
        counted = name in _COUNTED_UNDER

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            tag = _tag(name, args, kwargs, len(stack))
            ident = tracer.next_id
            tracer.next_id += 1
            frame = [name, 0.0, ident]
            misses = fn.cache_info().misses if cached else 0
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                row = tracer.totals[(name, tag)]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[1]
                work = _work(name, args, kwargs)
                tracer.work[name] += work
                if counted:
                    for ancestor in {f[0] for f in stack}:
                        cell = tracer.under[(name, ancestor)]
                        cell[0] += 1
                        cell[1] += work
                if cached and fn.cache_info().misses > misses:
                    tracer.cold[name].append(dur)
                if len(tracer.spans) < KEEP_SPANS:
                    parent = stack[-1][2] if stack else -1
                    tracer.spans.append((ident, name, tag, start, end, parent))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, setup: bool = False) -> None:
        """Rebind the listed functions in every loaded bootperc module: the
        ``SETUP_ONLY`` ones when ``setup`` is true, the others otherwise."""
        modules = [m for key, m in sys.modules.items()
                   if key == "bootperc" or key.startswith("bootperc.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"bootperc.{layer}"]
            for name in names:
                if (name in SETUP_ONLY) != setup:
                    continue
                orig = getattr(home, name)
                wrapped = self._wrap(name, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # --- reading the record ---------------------------------------------

    def calls(self, name: str, tag: str | None = None) -> int:
        return sum(v[0] for (n, t), v in self.totals.items()
                   if n == name and (tag is None or t == tag))

    def seconds(self, name: str, tag: str | None = None, own: bool = False) -> float:
        col = 2 if own else 1
        return sum(v[col] for (n, t), v in self.totals.items()
                   if n == name and (tag is None or t == tag))

    def mean(self, name: str, tag: str | None = None, own: bool = False) -> float:
        """Mean seconds per call; 0.0 when the workload makes no such call."""
        count = self.calls(name, tag)
        return self.seconds(name, tag, own) / count if count else 0.0

    def dump(self, path: str, meta: dict) -> None:
        totals = [{"name": n, "tag": t, "calls": v[0], "seconds": v[1], "self_seconds": v[2]}
                  for (n, t), v in sorted(self.totals.items())]
        spans = [{"id": i, "name": n, "tag": t, "start": s, "end": e, "parent": p}
                 for i, n, t, s, e, p in self.spans]
        with open(path, "w") as handle:
            json.dump({"meta": meta, "totals": totals, "spans": spans}, handle)
