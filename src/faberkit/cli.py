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
import dataclasses
import functools
import json
import math
import sys
from typing import Sequence

from . import experiments, measure, testbed
from .dyadic import _ROWS, _grid_plan
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


_STUDIES = ("recover", "rates", "widths")

#: --func and --measure: each one's default and choices
_CHOICES = {
    "func": ("x2", ("extremal", "spike", "kink", "hat", "prescribed", *testbed.SMOOTH_IDS)),
    "measure": ("auto", ("auto", "composite", "mc", "sup")),
}

#: The flags that --func or --measure picks: flag, kind, default (its type is
#: the flag's type), help, and the --func or --measure values or commands
#: that read it (auto reads --seed for its Monte Carlo fallback).  A flag at
#: another value that none of them reads is refused, measure flags first.
_CHOICE_FLAGS = (
    ("--gauss-order", "measure", measure.DEFAULT_GAUSS_ORDER, None, ("composite",)),
    ("--mesh-level", "measure", 0, "0 selects n + 2", ("composite", "sup")),
    ("--mc-samples", "measure", measure.DEFAULT_MC_SAMPLES, None, ("mc",)),
    ("--p", "func", 2.0, None, ("extremal", *_STUDIES)),
    ("--depth", "func", 14, "series depth J for extremal/spike", ("extremal", "spike")),
    ("--seed", "func", 0, None, ("extremal", "spike", "mc", "auto")),
    ("--anchor", "func", "", "comma-separated kink anchor", ("kink",)),
    ("--hat-level", "func", 0, None, ("hat",)),
    ("--series", "func", "", "series file for --func prescribed", ("prescribed",)),
)


def _refuse_unread(args) -> None:
    """ValueError for the first choice flag away from its default that neither
    the command, --func nor --measure reads.  It names the command's choices
    of each kind that has a reader: both for --seed where --measure exists."""
    chosen = {args.command, args.func, getattr(args, "measure", None)}
    for flag, kind, default, _, readers in _CHOICE_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), default)
        if value != default and chosen.isdisjoint(readers):
            named = " or ".join(f"--{k} {getattr(args, k)}" for k, (_, values) in _CHOICES.items()
                                if hasattr(args, k) and not set(values).isdisjoint(readers))
            hint = "; use --measure mc|composite|sup" if getattr(args, kind) == "auto" else ""
            raise ValueError(f"{flag} {value} is not read by {named}{hint}")


def _build_function(args):
    """The --func handle, after refusing a choice flag that is not read."""
    _refuse_unread(args)
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
    return testbed.smooth(name, d)


def _spec_factory(args):
    """Each budget's measure spec."""

    def factory(n: int) -> MeasureSpec:
        level = args.mesh_level or measure._default_level(n)
        if args.measure == "composite":
            return MeasureSpec(args.q, CompositeGauss(level=level, order=args.gauss_order))
        if args.measure == "mc":
            return MeasureSpec(args.q, StratifiedMC(samples=args.mc_samples, seed=args.seed))
        if args.measure == "sup":
            return MeasureSpec(math.inf, SupGrid(level=level))
        return measure.default_spec(args.q, n, args.dim, seed=args.seed)

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


def _cmd_levels(args) -> int:
    """Print the level table, turning _ROWS rows into Python lists at a time."""
    layout = _grid_plan(args.n, args.dim).layout  # the cap, before any level is enumerated
    for start in range(0, len(layout.keys), _ROWS):
        for row in layout.entries[start : start + _ROWS].tolist():
            print(" ".join(map(str, row)))
    _summary(f"levels={len(layout.keys)} nodes={layout.size}")
    return 0


def _cmd_analyze(args) -> int:
    f = _build_function(args)
    series = analyze(f, args.n)
    _emit(args.out, series_to_json(series) + "\n" if args.format == "json" else series_to_text(series))
    _summary(f"coefficients={series.size} nodes={f.eval_count}")
    return 0


def _cmd_study(args) -> int:
    """recover, rates and widths: one convergence study over args.n."""
    specs = _spec_factory(args)
    f = _build_function(args)
    if args.command == "widths":
        table = experiments.sampling_width_table(f, args.p, args.q, args.n, specs)
        rows = [(w.m, w.error, w.upper_ref, w.lower_ref) for w in table]
        _write_rows(args.out, ("m", "error", "upper_ref", "lower_ref"), rows, args.format)
        _summary(f"rows={len(rows)} nodes={rows[-1][0]}")
        return 0
    records = experiments.convergence_study(f, args.p, args.q, args.n, specs)
    rows = [(r.n, r.m, r.error, r.error_estimate, r.reference) for r in records]
    _write_rows(args.out, ("n", "m", "error", "error_estimate", "reference"), rows, args.format)
    r = records[-1]
    if args.command == "recover":
        _summary(f"error={r.error!r} nodes={r.m}")
        return 0
    e_log = experiments._log_exponent(args.p, args.q, args.dim)
    try:
        slope = repr(experiments.fit_rate(records, e_log).slope)
    except ValueError:
        slope = "nan"
    _summary(f"slope={slope} records={len(records)} nodes={r.m}")
    return 0


def _cmd_cubature(args) -> int:
    f = _build_function(args)
    records = experiments.cubature_study(f, args.n)
    rows = [(r.n, r.m, r.abs_error, r.reference) for r in records]
    _write_rows(args.out, ("n", "m", "abs_error", "reference"), rows, args.format)
    r = records[-1]
    _summary(f"abs_error={r.abs_error!r} nodes={r.m}")
    return 0


def _cmd_noncompact(args) -> int:
    report = experiments.noncompact_demo(args.max_level)
    _emit(args.out, json.dumps(dataclasses.asdict(report), separators=(",", ":")) + "\n")
    off_diag = min(
        report.distances[a][b]
        for a in report.levels
        for b in report.levels
        if a != b
    )
    _summary(f"members={len(report.levels)} min_offdiag_distance={off_diag!r}")
    return 0


def _cmd_comb(args) -> int:
    rows = experiments.comb_check(args.alpha, args.dim, args.n)
    _write_rows(args.out, ("n", "ratio_tail", "ratio_bulk"), rows, args.format)
    _summary(f"rows={len(rows)} alpha={args.alpha!r}")
    return 0


def _add_choice_flags(sub, kind: str) -> None:
    """--func or --measure, then the flags of its kind in _CHOICE_FLAGS."""
    default, choices = _CHOICES[kind]
    sub.add_argument(f"--{kind}", default=default, choices=choices)
    for flag, owner, value, help_text, _ in _CHOICE_FLAGS:
        if owner == kind:
            sub.add_argument(flag, type=type(value), default=value, help=help_text)


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", default="", help="output path (stdout when omitted)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


class _Parser(argparse.ArgumentParser):
    """argparse that reads ``-inf`` and ``-nan`` as values, as it reads ``-1``.

    argparse takes an argument that starts with "-" and does not look like
    a negative number for a flag, so ``--p -inf`` would miss its value
    while ``--p=-inf`` has it.  No flag of this parser is spelled so.
    """

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:].lower() in ("inf", "infinity", "nan"):
            return None  # a value, as argparse returns for "-1"
        return super()._parse_optional(arg_string)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="faberkit")
    parser.add_argument("--print-config", action="store_true", help="print defaults and exit")
    subs = parser.add_subparsers(dest="command")

    sp = subs.add_parser("levels", help="enumerate level vectors")
    sp.add_argument("--dim", type=_positive_int, required=True)
    sp.add_argument("--n", type=_nonneg_int, required=True)
    sp.set_defaults(handler=_cmd_levels)

    sp = subs.add_parser("analyze", help="sample a function and write its series")
    sp.add_argument("--dim", type=_positive_int, required=True)
    sp.add_argument("--n", type=_nonneg_int, required=True)
    _add_choice_flags(sp, "func")
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
        sp.add_argument("--q", type=float, default=2.0)
        _add_choice_flags(sp, "func")
        _add_choice_flags(sp, "measure")
        _add_output_flags(sp)
        sp.set_defaults(handler=_cmd_study)

    sp = subs.add_parser("cubature", help="integration error study")
    sp.add_argument("--dim", type=_positive_int, required=True)
    sp.add_argument("--n", type=_budget_range, required=True)
    _add_choice_flags(sp, "func")
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
        return args.handler(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
