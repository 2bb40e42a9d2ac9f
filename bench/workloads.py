"""The benchmark's two workloads: op inputs, the timed op and its checks.

Each workload has a catalog of inputs numbered 0..catalog-1.  An input is
built from its number alone (the number seeds the testbed family), and
``refs/<workload>.json`` stores what the op returned for every catalog
input when the benchmark was defined.  A run draws a seeded permutation of
the catalog, so no two ops of a run share an input.

Why these two: planning and hierarchization, and evaluation, each do
most of the work in one workload and almost none in the other.

* cubature-hd: planning and hierarchization (``faber.analyze`` at d=4,
  where every node is revisited many times); no evaluation, no measure.
* scatter-io: evaluation (``evaluate_batch``) on scattered Monte Carlo
  points, plus series files and the ``cli`` layer; ``analyze`` is small.

The modules are reached through their module objects (``experiments.x``),
never bound by name here, so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from faberkit import cli, experiments, faber, seqnorm, testbed

#: Tolerance against the stored references, relative to the size of the
#: quantities a value is computed from (``Workload.scales``), not to the
#: value itself: an integral error or an error estimate is the difference
#: of two nearly equal numbers.  The smallest stored differences are
#: 2.9e-8 (cubature-hd ``abs_error``, from integrals of 0.004-0.032) and
#: 3.7e-4 (scatter-io ``error_estimate``, scaled by norms of 0.21-0.29).  A
#: reordered floating-point sum moves an evaluation by ~1e-12 relative
#: (ROADMAP item 3's prototype deviated by 6.5e-13), so each operand by
#: < 1e-11 relative; a wrong sample or coefficient moves the values by far
#: more than 1e-8 of their operands.
REL_TOL = 1e-8

#: ``analyze`` of a synthesized series must return that series (ROADMAP
#: round-trip contract).
ROUND_TRIP_TOL = 1e-12


@dataclass
class OpInput:
    input_id: int
    handle: faber.FunctionHandle | None = None
    series: faber.FaberSeries | None = None
    paths: dict[str, str] = field(default_factory=dict)

    @property
    def coeffs(self) -> int:
        return 0 if self.series is None else self.series.size

    def cleanup(self) -> None:
        for path in self.paths.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


@dataclass
class Outcome:
    """What an op returned.

    counts: black-box evaluations of each ``analyze`` call, in call order.
    values: errors, integral errors and profile values compared to refs.
    The scatter-io op returns CLI output; ``finish`` fills both from it.
    """

    counts: list[int]
    values: list[float]
    extra: dict = field(default_factory=dict)


class CubatureHD:
    name = "cubature-hd"
    catalog = 512
    dim = 4
    budgets = (2, 3, 4)
    profile_budget = 5

    def make_input(self, input_id: int, workdir: str, tag: str) -> OpInput:
        rng = np.random.default_rng(input_id)
        while True:
            anchor = tuple(float(v) for v in rng.uniform(0.05, 0.95, self.dim))
            try:
                return OpInput(input_id, handle=testbed.kink(anchor, self.dim))
            except ValueError:  # a shallow dyadic coordinate: draw again
                continue

    def run_op(self, inp: OpInput) -> Outcome:
        f = inp.handle
        records = experiments.cubature_study(f, self.budgets)
        before = f.eval_count
        profile = seqnorm.decay_profile(f, 1.0, self.profile_budget)
        return Outcome(
            counts=[r.m for r in records] + [f.eval_count - before],
            values=[r.abs_error for r in records] + [v for _, v in profile],
        )

    def analyze_calls(self) -> list[tuple[int, int]]:
        return [(n, self.dim) for n in self.budgets] + [(self.profile_budget, self.dim)]

    def scales(self, inp: OpInput, ref_values: list[float]) -> list[float]:
        # abs_error = |exact integral - integral of the series|; profile
        # values are sums of nonnegative terms, so their own size
        return [abs(inp.handle.exact_integral)] * len(self.budgets) + [0.0] * (
            len(ref_values) - len(self.budgets))

    def finish(self, inp: OpInput, out: Outcome) -> list[str]:
        profile = out.values[len(self.budgets) :]
        # criterion 7: the decay profile stays at or below twice its head
        if max(profile) > 2.0 * profile[0]:
            return [f"decay profile max {max(profile)!r} > 2 x head {profile[0]!r}"]
        return []


class ScatterIO:
    name = "scatter-io"
    catalog = 320
    dim = 3
    depth = 5
    analyze_budget = 5
    recover_budget = 3

    def make_input(self, input_id: int, workdir: str, tag: str) -> OpInput:
        _, series = testbed.extremal(2.0, self.depth, input_id, self.dim)
        stem = os.path.join(workdir, f"{input_id}-{tag}")
        inp = OpInput(
            input_id,
            series=series,
            paths={"text": stem + ".txt", "json": stem + ".json"},
        )
        with open(inp.paths["text"], "w", newline="") as fh:
            fh.write(faber.series_to_text(series))
        return inp

    def run_op(self, inp: OpInput) -> Outcome:
        d = str(self.dim)
        buf = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            rc_analyze = cli.run(
                ["analyze", "--dim", d, "--n", str(self.analyze_budget),
                 "--func", "prescribed", "--series", inp.paths["text"],
                 "--format", "json", "--out", inp.paths["json"]]
            )
            rc_recover = cli.run(
                ["recover", "--dim", d, "--n", str(self.recover_budget),
                 "--func", "prescribed", "--series", inp.paths["json"],
                 "--measure", "mc", "--seed", str(inp.input_id)]
            )
        return Outcome(
            counts=[],
            values=[],
            extra={"rc": (rc_analyze, rc_recover), "stdout": buf.getvalue(),
                   "stderr": err.getvalue()},
        )

    def analyze_calls(self) -> list[tuple[int, int]]:
        return [(self.analyze_budget, self.dim), (self.recover_budget, self.dim)]

    def scales(self, inp: OpInput, ref_values: list[float]) -> list[float]:
        # error is a Monte Carlo norm; error_estimate is its standard error,
        # taken from a variance that is a difference of moments of the same
        # samples, so it is scaled like the norm
        return [0.0, ref_values[0]]

    def finish(self, inp: OpInput, out: Outcome) -> list[str]:
        """Read counts and values from the commands' stdout; check the JSON round trip."""
        if out.extra["rc"] != (0, 0):
            return [f"cli exit codes {out.extra['rc']}: {out.extra['stderr'].strip()}"]
        lines = out.extra["stdout"].splitlines()
        summary = dict(kv.split("=", 1) for kv in lines[0].removeprefix("# ").split())
        (row,) = csv.DictReader(ln for ln in lines[1:] if not ln.startswith("#"))
        out.counts = [int(summary["nodes"]), int(row["m"])]
        out.values = [float(row["error"]), float(row["error_estimate"])]
        with open(inp.paths["json"]) as fh:
            out.extra["json"] = fh.read()
        gap = faber.series_from_json(out.extra["json"]).max_abs_diff(inp.series)
        problems = []
        if not gap <= ROUND_TRIP_TOL:
            problems.append(f"series JSON round trip off by {gap!r}")
        if int(summary["coefficients"]) != inp.series.size:
            problems.append(
                f"analyze wrote {summary['coefficients']} coefficients, series has {inp.series.size}"
            )
        return problems


WORKLOADS = {w.name: w for w in (CubatureHD(), ScatterIO())}


def check(wl, inp: OpInput, out: Outcome, ref: dict) -> list[str]:
    """Every correctness check of one op; an empty list means it passed.

    ``ref`` holds ``counts`` (node_count per analyze call, the sample
    contract) and ``values`` (this input's stored results, or None to skip
    that comparison).  Value i must lie within ``REL_TOL`` of its reference,
    relative to the larger of the reference and ``scales[i]``.
    """
    problems = wl.finish(inp, out)
    if problems and not out.counts:
        return problems
    if out.counts != ref["counts"]:
        problems.append(f"evaluations per analyze {out.counts} != node counts {ref['counts']}")
    if ref["values"] is None:
        return problems
    if len(out.values) != len(ref["values"]):
        problems.append(f"{len(out.values)} values, reference has {len(ref['values'])}")
    scales = wl.scales(inp, ref["values"])
    for i, (got, want, scale) in enumerate(zip(out.values, ref["values"], scales)):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=REL_TOL * scale):
            problems.append(f"value {i}: {got!r} vs reference {want!r}")
    return problems


def signature(out: Outcome) -> tuple:
    """Everything an op produced; a traced op must reproduce it exactly."""
    return (tuple(out.counts), tuple(out.values), out.extra.get("stdout"), out.extra.get("json"))
