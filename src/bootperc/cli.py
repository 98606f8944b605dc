"""Command-line front end.

Exit status: 0 success, 1 domain/config error, 2 numeric/convergence error,
3 I/O error.  Every run prints its resolved configuration (including the
seed, where one is used) before the results.
"""

from __future__ import annotations

import argparse
import json
import sys

from .structures import CellSet, DomainError, Rectangle, StructureSpec, check_object
from .dynamics import CrossDirection
from .analytic import (
    ConvergenceError,
    QuadratureSettings,
    beta,
    g,
    l_exact,
    lambda_constant,
    lambda_table,
)
from .montecarlo import (
    EventSpec,
    SweepConfig,
    estimate_event_prob,
    estimate_lgap,
    estimate_p_alpha,
    run_sweep,
)
from .span import find_spanned_component, find_spanned_rectangle, span_direct
from . import dynamics


def _load_json(path: str) -> dict:
    """The one reader of an input file: text that is not UTF-8 JSON within
    Python's digit and nesting limits is a DomainError."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"malformed JSON in {path!r}: {exc}") from exc


def _load_grid(path: str) -> tuple[StructureSpec, CellSet]:
    structure, infected = check_object(_load_json(path), f"grid file {path!r}",
                                      "structure", "infected")
    spec = StructureSpec.from_json(structure)
    return spec, CellSet.from_json(spec.shape, infected)


def _parse_rect(text: str) -> Rectangle:
    try:
        parts = [int(x) for x in text.replace(";", ",").split(",")]
    except ValueError as exc:
        raise DomainError(f"bad --rect {text!r}: {exc}") from exc
    if len(parts) % 2:
        raise DomainError(f"bad --rect {text!r}: need an even number of values")
    half = len(parts) // 2
    return Rectangle(tuple(parts[:half]), tuple(parts[half:]))


def _build_event(args, spec: StructureSpec) -> EventSpec:
    kind = args.event.replace("-", "_")
    rect = _parse_rect(args.rect) if args.rect else None
    direction = CrossDirection.from_name(args.orientation) if args.orientation else None
    return EventSpec(kind, spec, rect, direction, args.axis, args.long_threshold)


def _fmt(x: float) -> str:
    return f"{x:.7g}"


def _cmd_beta(args) -> int:
    print(f"config: beta k={args.k} u={args.u}")
    print(_fmt(beta(args.k, args.u)))
    return 0


def _cmd_g(args) -> int:
    print(f"config: g k={args.k} z={args.z}")
    print(_fmt(g(args.k, args.z)))
    return 0


def _cmd_lambda(args) -> int:
    settings = QuadratureSettings(abs_tol=args.tol)
    print(f"config: lambda d={args.d} r={args.r} tol={args.tol}")
    print(_fmt(lambda_constant(args.d, args.r, settings)))
    return 0


def _cmd_lambda_table(args) -> int:
    settings = QuadratureSettings(abs_tol=args.tol)
    print(f"config: lambda-table dmax={args.dmax} tol={args.tol}")
    rows = lambda_table(args.dmax, settings)
    lines = ["d,r,lambda,absTol"]
    lines += [f"{d},{r},{value:.10g},{args.tol:g}" for d, r, value in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_lgap(args) -> int:
    if args.exact:
        if args.trials is not None or args.seed is not None:
            raise DomainError("lgap --exact reads no --trials or --seed")
        print(f"config: lgap exact ell={args.ell} m={args.m} u={args.u}")
        print(_fmt(l_exact(args.ell, args.m, args.u)))
        return 0
    if args.trials is None or args.seed is None:
        raise DomainError("Monte Carlo lgap needs --trials and --seed "
                          "(or pass --exact)")
    print(f"config: lgap mc ell={args.ell} m={args.m} u={args.u} "
          f"trials={args.trials} seed={args.seed}")
    est = estimate_lgap(args.ell, args.m, args.u, args.trials, args.seed)
    print(f"pHat={_fmt(est.p_hat)} ci=[{_fmt(est.ci_low)}, {_fmt(est.ci_high)}] "
          f"trials={est.trials}")
    return 0


def _cmd_closure(args) -> int:
    spec, cells = _load_grid(args.input)
    print(f"config: closure structure={spec.dumps()} |A|={len(cells)}")
    closed = dynamics.closure(spec, cells)
    print(json.dumps({"closure": closed.to_json(),
                      "percolates": bool(closed.mask.all())}))
    return 0


def _cmd_span(args) -> int:
    spec, cells = _load_grid(args.input)
    print(f"config: span structure={spec.dumps()} |A|={len(cells)}")
    result = span_direct(spec, cells)
    print(json.dumps({"rectangles": [r.to_json() for r in result.rectangles]}))
    return 0


def _cmd_witness(args) -> int:
    spec, cells = _load_grid(args.input)
    print(f"config: witness structure={spec.dumps()} |A|={len(cells)} L={args.L}")
    rect = find_spanned_rectangle(spec, cells, args.L)
    comp = find_spanned_component(spec, cells, args.L)
    print(json.dumps({
        "rectangle": rect.to_json() if rect else None,
        "component": comp.to_json() if comp else None,
    }))
    return 0


def _cmd_estimate(args) -> int:
    spec = StructureSpec.from_json(_load_json(args.structure))
    event = _build_event(args, spec)
    print(f"config: estimate event={json.dumps(event.to_json())} "
          f"structure={spec.dumps()} p={args.p} trials={args.trials} "
          f"seed={args.seed}")
    est = estimate_event_prob(event, args.p, args.trials, args.seed)
    print(f"pHat={_fmt(est.p_hat)} ci=[{_fmt(est.ci_low)}, {_fmt(est.ci_high)}] "
          f"trials={est.trials}")
    return 0


def _cmd_threshold(args) -> int:
    spec = StructureSpec.from_json(_load_json(args.structure))
    event = _build_event(args, spec)
    print(f"config: threshold alpha={args.alpha} event={json.dumps(event.to_json())} "
          f"structure={spec.dumps()} trials={args.trials} seed={args.seed} "
          f"ptol={args.ptol}")
    est = estimate_p_alpha(spec, event, args.alpha, args.trials, args.seed, args.ptol)
    print(f"pAlpha={_fmt(est.p_hat)} bracket=[{_fmt(est.ci_low)}, "
          f"{_fmt(est.ci_high)}] totalTrials={est.trials}")
    return 0


def _cmd_sweep(args) -> int:
    config = SweepConfig.from_json(_load_json(args.config))
    print(f"config: sweep points={len(config.points)} "
          f"masterSeed={config.master_seed} out={args.out}")
    rows = run_sweep(config, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _event_flags(sub) -> None:
    sub.add_argument("--rect", help="rectangle as lo,hi coordinates, e.g. 1,1,4,3")
    sub.add_argument("--axis", type=int, help="semi-crossing axis (1-based)")
    sub.add_argument("--orientation",
                     choices=sorted(CrossDirection._NAMES),
                     help="crossing orientation")
    sub.add_argument("--long-threshold", dest="long_threshold", type=float,
                     help="length threshold for the long-span event")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootperc",
        description="Bootstrap percolation engine and threshold-constant library.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("beta", help="evaluate the growth root beta_k(u)")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--u", type=float, required=True)
    sub.set_defaults(func=_cmd_beta)

    sub = subs.add_parser("g", help="evaluate g_k(z)")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--z", type=float, required=True)
    sub.set_defaults(func=_cmd_g)

    sub = subs.add_parser("lambda", help="threshold constant lambda(d, r)")
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.set_defaults(func=_cmd_lambda)

    sub = subs.add_parser("lambda-table", help="CSV table of lambda(d, r)")
    sub.add_argument("--dmax", type=int, default=7)
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.add_argument("--out")
    sub.set_defaults(func=_cmd_lambda_table)

    sub = subs.add_parser("lgap", help="no-L-gap probability, exact or Monte Carlo")
    sub.add_argument("--ell", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--u", type=float, required=True)
    sub.add_argument("--exact", action="store_true")
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", type=int)
    sub.set_defaults(func=_cmd_lgap)

    sub = subs.add_parser("closure", help="closure of a grid file")
    sub.add_argument("--input", required=True)
    sub.set_defaults(func=_cmd_closure)

    sub = subs.add_parser("span", help="span of a grid file")
    sub.add_argument("--input", required=True)
    sub.set_defaults(func=_cmd_span)

    sub = subs.add_parser("witness", help="spanned-rectangle/component witnesses")
    sub.add_argument("--input", required=True)
    sub.add_argument("--L", type=int, required=True)
    sub.set_defaults(func=_cmd_witness)

    sub = subs.add_parser("estimate", help="Monte Carlo event probability")
    sub.add_argument("--event", required=True)
    sub.add_argument("--structure", required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--trials", type=int, required=True)
    sub.add_argument("--seed", type=int, required=True)
    _event_flags(sub)
    sub.set_defaults(func=_cmd_estimate)

    sub = subs.add_parser("threshold", help="bisection estimate of p_alpha")
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--structure", required=True)
    sub.add_argument("--event", required=True, help="an increasing event: any kind but spans")
    sub.add_argument("--trials", type=int, required=True,
                     help="initial sets drawn, once each, and read at every step; "
                          "totalTrials prints this count, or 0 when no step runs")
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--ptol", type=float, required=True,
                     help="bracket width to reach, above 2**-53")
    _event_flags(sub)
    sub.set_defaults(func=_cmd_threshold)

    sub = subs.add_parser("sweep", help="run a sweep config to CSV")
    sub.add_argument("--config", required=True)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
