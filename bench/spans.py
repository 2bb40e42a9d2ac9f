"""Outside-in tracing of faberkit: spans around the package's public names.

``Tracer.install`` rebinds each traced function in every loaded faberkit
module that holds it.  Several modules import ``analyze``,
``evaluate_batch``, ``synthesize`` and the series readers and writers by
name, so patching only ``faberkit.faber`` would miss, for example, the
CLI's ``analyze`` calls.  The black box is timed by wrapping a handle's
evaluation with the public ``FunctionHandle`` API.

A span records its name, start, end, parent span, op id, a count (points,
characters or evaluations, depending on the name) and, for ``analyze``,
its ``(n, d)``.  Spans stay in memory until the run writes them out.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from faberkit import dyadic, faber

SAMPLE = "faber.sample"  # black-box evaluation inside analyze
BLACKBOX = "blackbox.eval"  # black-box evaluation anywhere else


def _points(args, kwargs, out, state):
    return (len(args[1]),)


def _out_len(args, kwargs, out, state):
    return (len(out),)


def _arg_len(args, kwargs, out, state):
    return (len(args[0]),)


def _eval_count(args):
    return args[0].eval_count


def _eval_delta(args, kwargs, out, state):
    return (args[0].eval_count - state,)


def _budget(args, kwargs, out, state):
    f, n, *rest = args
    d = rest[0] if rest else kwargs.get("d")
    return (0, n, f.dim if d is None else d)


#: (module, attribute, span name, state before the call, span fields after
#: it: count, and for analyze n and d).  ``synthesize`` has a wrapper of its
#: own.
TARGETS = (
    ("faberkit.faber", "analyze", "faber.analyze", None, _budget),
    ("faberkit.cli", "run", "cli.run", None, None),
    ("faberkit.experiments", "convergence_study", "experiments.study", None, None),
    ("faberkit.experiments", "cubature_study", "experiments.study", None, None),
    ("faberkit.seqnorm", "decay_profile", "seqnorm.decay_profile", None, None),
    ("faberkit.seqnorm", "series_profile", "seqnorm.series_profile", None, None),
    ("faberkit.faber", "evaluate_batch", "faber.evaluate_batch", None, _points),
    ("faberkit.faber", "integrate", "faber.integrate", None, None),
    ("faberkit.faber", "series_to_text", "faber.series_io.write", None, _out_len),
    ("faberkit.faber", "series_to_json", "faber.series_io.write", None, _out_len),
    ("faberkit.faber", "series_from_text", "faber.series_io.read", None, _arg_len),
    ("faberkit.faber", "series_from_json", "faber.series_io.read", None, _arg_len),
    ("faberkit.measure", "lq_norm", "measure.lq_norm", _eval_count, _eval_delta),
    ("faberkit.measure", "lq_error", "measure.lq_error", None, None),
    ("faberkit.dyadic", "levels_up_to", "dyadic.levels_up_to", None, None),
)

#: Span names whose share of op time the traced run reports.
SHARE_NAMES = (
    "faber.analyze",
    SAMPLE,
    BLACKBOX,
    "faber.evaluate_batch",
    "measure.lq_norm",
    "measure.lq_error",
    "faber.series_io.read",
    "faber.series_io.write",
    "cli.run",
    "experiments.study",
    "seqnorm.decay_profile",
    "seqnorm.series_profile",
    "faber.integrate",
    "faber.synthesize",
    "dyadic.levels_up_to",
    "op",
)


class Tracer:
    """Span recorder; rebinds faberkit's public names while installed."""

    def __init__(self) -> None:
        # (op, id, parent, name, start, end, self_s, count, n, d)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._patched: list[tuple] = []
        self._op = -1
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list, count: int = 0, n: int = -1, d: int = -1) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[2]
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append(
            (self._op, frame[0], parent, frame[1], frame[2], end, dur - frame[3], count, n, d)
        )

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` under a root span named ``op``."""
        self._op = op_id
        frame = self._enter("op")
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            state = before(args) if before else None
            fields = ()
            try:
                out = fn(*args, **kwargs)
                if after:
                    fields = after(args, kwargs, out, state)
                return out
            finally:
                self._exit(frame, *fields)

        return traced

    def _wrap_synthesize(self, fn):
        synth = self._wrap("faber.synthesize", fn, None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.black_box(synth(*args, **kwargs))

        return traced

    def black_box(self, handle: faber.FunctionHandle) -> faber.FunctionHandle:
        """A handle equal to ``handle`` whose evaluations are recorded as spans."""

        def evaluator(X):
            in_analyze = any(fr[1] == "faber.analyze" for fr in self._stack)
            frame = self._enter(SAMPLE if in_analyze else BLACKBOX)
            try:
                return handle.eval_batch(X)
            finally:
                self._exit(frame, X.shape[0])

        return faber.FunctionHandle(
            evaluator,
            handle.dim,
            label=handle.label,
            exact_integral=handle.exact_integral,
            exact_l2=handle.exact_l2,
        )

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for key, m in sys.modules.items()
            if key == "faberkit" or key.startswith("faberkit.")
        ]
        targets = [
            (sys.modules[mod], attr, self._wrap(name, getattr(sys.modules[mod], attr), b, a))
            for mod, attr, name, b, a in TARGETS
        ]
        targets.append((faber, "synthesize", self._wrap_synthesize(faber.synthesize)))
        for home, attr, wrapper in targets:
            original = getattr(home, attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path: str, env: dict) -> None:
        keys = ("op", "id", "parent", "name", "start", "end", "self_s", "count", "n", "d")
        with open(path, "w") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans: list[tuple], ops: int) -> dict[str, tuple[float, str]]:
    """Per-module metrics from the spans of ``ops`` traced ops (per-op means)."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    nodes = 0
    for _, _, _, name, start, end, self_s, count, n, d in spans:
        calls[name] += 1
        total[name] += end - start
        selfs[name] += self_s
        counts[name] += count
        if name == "faber.analyze" and n >= 0:  # n is -1 if analyze raised
            nodes += dyadic.node_count(n, d)
    op_time = total["op"]
    per_op = 1.0 / ops

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {
        "faber.analyze.calls": (calls["faber.analyze"] * per_op, "count/op"),
        "faber.analyze.self_s": (selfs["faber.analyze"] * per_op, "s/op"),
        "faber.analyze.nodes_per_s": (rate(nodes, total["faber.analyze"]), "1/s"),
        "dyadic.levels_up_to.calls": (calls["dyadic.levels_up_to"] * per_op, "count/op"),
        "dyadic.levels_up_to.s": (total["dyadic.levels_up_to"] * per_op, "s/op"),
        "faber.sample.evals": (counts[SAMPLE] * per_op, "count/op"),
        "faber.sample.s": (total[SAMPLE] * per_op, "s/op"),
        "faber.sample.evals_per_node": (rate(counts[SAMPLE], nodes), "ratio"),
        "faber.evaluate_batch.calls": (calls["faber.evaluate_batch"] * per_op, "count/op"),
        "faber.evaluate_batch.points": (counts["faber.evaluate_batch"] * per_op, "count/op"),
        "faber.evaluate_batch.s": (total["faber.evaluate_batch"] * per_op, "s/op"),
        "faber.evaluate_batch.points_per_s": (
            rate(counts["faber.evaluate_batch"], total["faber.evaluate_batch"]), "1/s"),
        "measure.lq_norm.calls": (calls["measure.lq_norm"] * per_op, "count/op"),
        "measure.lq_norm.points": (counts["measure.lq_norm"] * per_op, "count/op"),
        "measure.lq_norm.self_s": (selfs["measure.lq_norm"] * per_op, "s/op"),
        "faber.series_io.read_s": (total["faber.series_io.read"] * per_op, "s/op"),
        "faber.series_io.write_s": (total["faber.series_io.write"] * per_op, "s/op"),
        "faber.series_io.bytes": (
            (counts["faber.series_io.read"] + counts["faber.series_io.write"]) * per_op, "B/op"),
        "cli.run.calls": (calls["cli.run"] * per_op, "count/op"),
        "cli.run.self_s": (selfs["cli.run"] * per_op, "s/op"),
        "faber.integrate.s": (total["faber.integrate"] * per_op, "s/op"),
        "seqnorm.series_profile.s": (total["seqnorm.series_profile"] * per_op, "s/op"),
        "experiments.study.self_s": (selfs["experiments.study"] * per_op, "s/op"),
    }
    for name in SHARE_NAMES:
        m[f"share.{name}"] = (rate(selfs[name], op_time), "frac")
    return m
