"""Command-line front end.

Subcommands: levels, analyze, recover, rates, widths, cubature,
noncompact, comb.  Tables are written as CSV (fixed headers) or JSON
mirroring the same field names; a one-line summary goes to stdout,
prefixed with ``# `` so that tables printed to stdout stay parseable.
Identical invocations (including seeds) produce byte-identical output.

Exit codes: 0 success, 2 usage error, 1 computation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from . import experiments, measure, testbed
from .dyadic import levels_up_to, node_count
from .faber import (
    analyze,
    series_from_json,
    series_from_text,
    series_to_json,
    series_to_text,
    synthesize,
)
from .measure import CompositeGauss, MeasureSpec, StratifiedMC, SupGrid

_CONFIG_LINES = (
    f"gauss order G = {measure.DEFAULT_GAUSS_ORDER}",
    "composite mesh level L = n + 2",
    f"monte carlo samples N = {measure.DEFAULT_MC_SAMPLES}",
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} must be >= 1")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} must be >= 0")
    return value


def _single_budget(text: str) -> list[int]:
    """One budget, as the one-element range of a study."""
    return [_nonneg_int(text)]


def _budget_range(text: str) -> list[int]:
    """Inclusive range ``a..b`` or a single budget."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            a, b = int(lo), int(hi)
        else:
            a = b = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad budget range {text!r}")
    if b < a or a < 0:
        raise argparse.ArgumentTypeError(f"bad budget range {text!r}")
    return list(range(a, b + 1))


def _build_function(args, parser):
    d = args.dim
    name = args.func
    if name == "extremal":
        handle, _ = testbed.extremal(args.p, args.depth, args.seed, d)
        return handle
    if name == "spike":
        handle, _ = testbed.spike(args.depth, args.seed, d)
        return handle
    if name == "kink":
        anchor = None
        if args.anchor:
            anchor = tuple(float(v) for v in args.anchor.split(","))
        return testbed.kink(anchor, d)
    if name == "hat":
        return testbed.hat_family(args.hat_level, d)
    if name == "prescribed":
        if not args.series:
            raise ValueError("--func prescribed needs --series PATH")
        with open(args.series) as fh:
            text = fh.read()
        loader = series_from_json if args.series.endswith(".json") else series_from_text
        series = loader(text)
        if series.dim != d:
            raise ValueError(f"series has dim {series.dim}, requested {d}")
        return synthesize(series, label=f"prescribed:{args.series}")
    if name in testbed.SMOOTH_IDS:
        return testbed.smooth(name, d)
    parser.error(f"unknown --func {name!r}")


def _spec_factory(args):
    q = args.q

    def factory(n: int) -> MeasureSpec:
        if args.measure == "composite":
            level = args.mesh_level if args.mesh_level else n + 2
            return MeasureSpec(q, CompositeGauss(level=level, order=args.gauss_order))
        if args.measure == "mc":
            return MeasureSpec(q, StratifiedMC(samples=args.mc_samples, seed=args.seed))
        if args.measure == "sup":
            level = args.mesh_level if args.mesh_level else n + 2
            return MeasureSpec(math.inf, SupGrid(level=level))
        return measure.default_spec(q, n, args.dim, seed=args.seed)

    return factory


def _emit(path: str, payload: str) -> None:
    """Write payload to the --out path, or to stdout when it is empty."""
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _write_rows(path, fieldnames: Sequence[str], rows, fmt: str) -> None:
    if fmt == "csv":
        text_rows = [",".join(fieldnames)]
        for row in rows:
            text_rows.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        payload = "\n".join(text_rows) + "\n"
    else:
        doc = [dict(zip(fieldnames, row)) for row in rows]
        payload = json.dumps(doc, separators=(",", ":")) + "\n"
    _emit(path, payload)


def _summary(text: str) -> None:
    sys.stdout.write(f"# {text}\n")


def _cmd_levels(args, parser) -> int:
    vectors = levels_up_to(args.n, args.dim)
    for j in vectors:
        print(" ".join(str(e) for e in j.entries))
    _summary(f"levels={len(vectors)} nodes={node_count(args.n, args.dim)}")
    return 0


def _cmd_analyze(args, parser) -> int:
    f = _build_function(args, parser)
    series = analyze(f, args.n)
    _emit(args.out, series_to_json(series) + "\n" if args.format == "json" else series_to_text(series))
    _summary(f"coefficients={series.size} nodes={f.eval_count}")
    return 0


def _cmd_study(args, parser) -> int:
    """recover, rates and widths: one convergence study over args.n."""
    f = _build_function(args, parser)
    if args.command == "widths":
        table = experiments.sampling_width_table(f, args.p, args.q, args.n, _spec_factory(args))
        rows = [(w.m, w.error, w.upper_ref, w.lower_ref) for w in table]
        _write_rows(args.out, ("m", "error", "upper_ref", "lower_ref"), rows, args.format)
        _summary(f"rows={len(rows)} nodes={rows[-1][0]}")
        return 0
    records = experiments.convergence_study(f, args.p, args.q, args.n, _spec_factory(args))
    rows = [(r.n, r.m, r.error, r.error_estimate, r.reference) for r in records]
    _write_rows(args.out, ("n", "m", "error", "error_estimate", "reference"), rows, args.format)
    r = records[-1]
    if args.command == "recover":
        _summary(f"error={r.error!r} nodes={r.m}")
        return 0
    d = args.dim
    e_log = (d - 1) / args.q if args.q > args.p else float(d - 1)
    try:
        slope = repr(experiments.fit_rate(records, e_log).slope)
    except ValueError:
        slope = "nan"
    _summary(f"slope={slope} records={len(records)} nodes={r.m}")
    return 0


def _cmd_cubature(args, parser) -> int:
    f = _build_function(args, parser)
    records = experiments.cubature_study(f, args.n)
    rows = [(r.n, r.m, r.abs_error, r.reference) for r in records]
    _write_rows(args.out, ("n", "m", "abs_error", "reference"), rows, args.format)
    r = records[-1]
    _summary(f"abs_error={r.abs_error!r} nodes={r.m}")
    return 0


def _cmd_noncompact(args, parser) -> int:
    report = experiments.noncompact_demo(args.max_level)
    doc = {
        "levels": list(report.levels),
        "witnesses": [list(row) for row in report.witnesses],
        "distances": [list(row) for row in report.distances],
        "profiles": [list(row) for row in report.profiles],
        "conclusion": report.conclusion,
    }
    _emit(args.out, json.dumps(doc, separators=(",", ":")) + "\n")
    off_diag = min(
        report.distances[a][b]
        for a in report.levels
        for b in report.levels
        if a != b
    )
    _summary(f"members={len(report.levels)} min_offdiag_distance={off_diag!r}")
    return 0


def _cmd_comb(args, parser) -> int:
    rows = experiments.comb_check(args.alpha, args.dim, args.n)
    _write_rows(args.out, ("n", "ratio_tail", "ratio_bulk"), rows, args.format)
    _summary(f"rows={len(rows)} alpha={args.alpha!r}")
    return 0


def _add_function_flags(sub) -> None:
    sub.add_argument(
        "--func",
        default="x2",
        help="extremal|spike|kink|hat|prescribed|" + "|".join(testbed.SMOOTH_IDS),
    )
    sub.add_argument("--depth", type=int, default=14, help="series depth J for extremal/spike")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--anchor", default="", help="comma-separated kink anchor")
    sub.add_argument("--hat-level", type=int, default=0)
    sub.add_argument("--series", default="", help="series file for --func prescribed")


def _add_measure_flags(sub) -> None:
    sub.add_argument("--measure", choices=("auto", "composite", "mc", "sup"), default="auto")
    sub.add_argument("--gauss-order", type=int, default=measure.DEFAULT_GAUSS_ORDER)
    sub.add_argument("--mesh-level", type=int, default=0, help="0 selects n + 2")
    sub.add_argument("--mc-samples", type=int, default=measure.DEFAULT_MC_SAMPLES)


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", default="", help="output path (stdout when omitted)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="faberkit")
    parser.add_argument("--print-config", action="store_true", help="print defaults and exit")
    subs = parser.add_subparsers(dest="command")

    sp = subs.add_parser("levels", help="enumerate level vectors")
    sp.add_argument("--dim", type=_positive_int, required=True)
    sp.add_argument("--n", type=_nonneg_int, required=True)
    sp.set_defaults(handler=_cmd_levels)

    sp = subs.add_parser("analyze", help="sample a function and write its series")
    sp.add_argument("--dim", type=_positive_int, required=True)
    sp.add_argument("--n", type=_nonneg_int, required=True)
    sp.add_argument("--p", type=float, default=2.0)
    _add_function_flags(sp)
    sp.add_argument("--out", default="")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(handler=_cmd_analyze)

    for name, help_text, budgets in (
        ("recover", "recovery error at one budget", _single_budget),
        ("rates", "convergence study over a budget range", _budget_range),
        ("widths", "error versus sample count", _budget_range),
    ):
        sp = subs.add_parser(name, help=help_text)
        sp.add_argument("--dim", type=_positive_int, required=True)
        sp.add_argument(
            "--n",
            type=budgets,
            required=True,
            help=None if budgets is _single_budget else "budget range a..b or single budget",
        )
        sp.add_argument("--p", type=float, default=2.0)
        sp.add_argument("--q", type=float, default=2.0)
        _add_function_flags(sp)
        _add_measure_flags(sp)
        _add_output_flags(sp)
        sp.set_defaults(handler=_cmd_study)

    sp = subs.add_parser("cubature", help="integration error study")
    sp.add_argument("--dim", type=_positive_int, required=True)
    sp.add_argument("--n", type=_budget_range, required=True)
    sp.add_argument("--p", type=float, default=2.0)
    _add_function_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_cubature)

    sp = subs.add_parser("noncompact", help="hat-family distance/profile report")
    sp.add_argument("--max-level", type=_positive_int, default=8)
    sp.add_argument("--out", default="")
    sp.set_defaults(handler=_cmd_noncompact)

    sp = subs.add_parser("comb", help="level-set sum ratio check")
    sp.add_argument("--dim", type=_positive_int, required=True)
    sp.add_argument("--n", type=_budget_range, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_comb)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.print_config:
        for line in _CONFIG_LINES:
            print(line)
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args, parser)
    except SystemExit as exc:  # parser.error from inside a handler
        return int(exc.code or 0)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
