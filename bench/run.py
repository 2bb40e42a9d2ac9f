"""faberkit study benchmark: one closed-loop client running one workload.

    python3 bench/run.py --workload cubature-hd --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, and the benchmark exits with a non-zero code and
prints no result when that is missing.  The client sends its next op only when the previous one has
finished.  Op inputs come from a permutation of the workload's catalog
drawn from ``--seed``.  Building an op's input and checking its result
happen outside the op's timed span.

``--trace 0`` reports the end-to-end metrics, with op times scaled to a
reference host speed by a calibration kernel timed before every op;
``--trace 1`` runs every input untraced and traced (alternating which
goes first), requires identical results, and reports per-module metrics
from spans recorded around faberkit's public names (see spans.py).  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; lines before it start with ``#``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 11

# The host slows this process in stretches of seconds to minutes, on both
# vCPUs at once, and an op's time moves with it by up to 2x.  So every
# untraced op is preceded by a fixed calibration kernel that uses no
# faberkit code, and the reported op times are scaled by
# CALIBRATION_REF_S / the kernel's time: milliseconds on a host where the
# kernel takes CALIBRATION_REF_S (about its time on a quiet 2-core VM).
CALIBRATION_REF_S = 0.060

# One worker everywhere: FABER_THREADS unset is faberkit's single-worker
# default, and the BLAS/OpenMP pools are pinned to one thread (<= nproc).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_environment() -> dict:
    faber_threads = os.environ.pop("FABER_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {
        "FABER_THREADS": "unset" if faber_threads is None else f"unset (was {faber_threads!r})",
        **{var: "1" for var in THREAD_VARS},
    }


def import_faberkit():
    src = ROOT / "src"
    if not (src / "faberkit" / "__init__.py").is_file():
        sys.exit(f"error: no faberkit sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import faberkit

    if Path(faberkit.__file__).resolve().parent != src / "faberkit":
        sys.exit(f"error: imported faberkit from {faberkit.__file__}, not {src}")
    return faberkit


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="internal: build the first op's input, print 'ready', exit")
    return ap.parse_args(argv)


class SetupProbes:
    """Set-up time, probed SETUP_REPEATS times spread evenly over a run.

    Each probe is the seconds from spawning a fresh process to its first op
    being ready.  Spreading the probes over the run lets them see the same
    host as the run's ops and calibration kernels.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", "0", "--probe-setup"]
        self.times: list[float] = []

    def due(self, fraction: float) -> float:
        """Probe if the run is ``fraction`` done and a probe is due; returns seconds spent."""
        if len(self.times) >= SETUP_REPEATS or fraction < len(self.times) / SETUP_REPEATS:
            return 0.0
        start = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"error: set-up probe failed (exit {proc.returncode}, said {line!r})")
        self.times.append(elapsed)
        return time.perf_counter() - start


def calibration_seconds() -> float:
    """Time one run of the calibration kernel.

    An interpreted loop over a dict and floats, like faberkit's planning,
    then a numpy hat-function sweep, ten times over 20 000 points in 3
    dimensions, like its evaluation.  Its dict and arrays are small, so it
    does not raise the process's peak RSS.
    """
    import numpy as np

    x = np.random.default_rng(0).random((3, 20_000))
    start = time.perf_counter()
    table: dict = {}
    total = 0.0
    for i in range(120_000):
        key = (i & 255, (i >> 8) & 15)
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key] / (1 + (i & 7))
    acc = np.ones(x.shape[1])
    for _ in range(10):
        for level in range(1, 7):
            for row in x:
                t = row * (1 << level)
                acc += np.maximum(0.0, 1.0 - np.abs(t - np.floor(t) - 0.5))
    return time.perf_counter() - start


def percentile(latencies: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the two nearest ops."""
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    # numpy reads the thread variables when first imported, so it and every
    # module that imports it (faberkit, spans, workloads) load after this.
    env_vars = pin_environment()
    faberkit = import_faberkit()
    import numpy as np

    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    order = input_order(wl, args.seed)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe_setup:
            wl.make_input(order[0], str(workdir), "probe")
            print("ready", flush=True)
            return 0
        refs = load_refs(wl)
        env = {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "faberkit": faberkit.__version__,
            "commit": git_commit(),
            "machine": platform.machine(),
            **env_vars,
        }
        print("# env " + json.dumps(env))
        result = run(wl, refs, order, str(workdir), args.seconds, args.trace,
                     OUT_DIR / f"spans-{wl.name}-s{args.seed}.jsonl", env,
                     None if args.trace else SetupProbes(args))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_refs(wl) -> dict:
    path = Path(__file__).resolve().parent / "refs" / f"{wl.name}.json"
    refs = json.loads(path.read_text())
    if len(refs["values"]) != wl.catalog:
        sys.exit(f"error: {path} holds {len(refs['values'])} inputs, catalog has {wl.catalog}")
    return refs


def input_order(wl, seed: int) -> list[int]:
    import numpy as np

    return [int(i) for i in np.random.default_rng(seed).permutation(wl.catalog)]


def run(wl, refs, order, workdir, seconds, trace, spans_path, env, setup=None) -> dict:
    """Closed loop over ``order`` for ``seconds``; returns the result object.

    With ``setup`` (untraced runs), its probes run between ops, left out
    of the run's clock, and ``setup_s`` is reported.
    """
    import spans

    tracer = spans.Tracer() if trace else None
    ok_ops: list[tuple[float, float]] = []  # (op seconds, calibration seconds)
    plain_s = traced_s = build_s = 0.0
    coeffs = attempted = failed = ops = 0
    start = time.perf_counter()
    for i, input_id in enumerate(order):
        elapsed = time.perf_counter() - start
        if i and elapsed >= seconds:
            break
        if setup:
            start += setup.due(elapsed / seconds if seconds else 1.0)
        t0 = time.perf_counter()
        inputs = {False: wl.make_input(input_id, workdir, "plain")}
        build_s += time.perf_counter() - t0
        coeffs += inputs[False].coeffs
        modes = (False,)
        if tracer:
            inputs[True] = wl.make_input(input_id, workdir, "traced")
            if inputs[True].handle is not None:
                inputs[True].handle = tracer.black_box(inputs[True].handle)
            modes = (False, True) if i % 2 == 0 else (True, False)
        signatures = []
        for traced in modes:
            inp = inputs[traced]
            attempted += 1
            cal_s = 0.0 if tracer else calibration_seconds()
            problems, op_s, sig = one_op(wl, inp, refs, tracer if traced else None, i)
            inp.cleanup()
            if traced:
                traced_s += op_s
            else:
                plain_s += op_s
            if problems:
                failed += 1
                print(f"# FAIL {wl.name} input {input_id}{' traced' if traced else ''}: "
                      + "; ".join(problems), file=sys.stderr)
            elif not traced:
                ok_ops.append((op_s, cal_s))
            signatures.append(sig)
        if tracer and None not in signatures and signatures[0] != signatures[1]:
            failed += 1
            print(f"# FAIL {wl.name} input {input_id}: traced result differs", file=sys.stderr)
        ops += 1
    wall = time.perf_counter() - start
    if ops == len(order) and wall < seconds:
        print(f"# catalog of {len(order)} inputs exhausted after {wall:.1f} s")

    if tracer:
        metrics = spans.layer_metrics(tracer.spans, ops)
        metrics["testbed.build.s"] = (build_s / ops, "s/op")
        metrics["testbed.build.coeffs"] = (coeffs / ops, "count/op")
        metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0 if plain_s else 0.0, "frac")
        tracer.write(str(spans_path), env)
        print(f"# {len(tracer.spans)} spans of {ops} traced ops written to {spans_path}")
        shares = sorted(((v, k) for k, (v, u) in metrics.items() if k.startswith("share.")), reverse=True)
        print("# self-time shares: " + ", ".join(f"{k[6:]} {v:.1%}" for v, k in shares if v >= 0.005))
    else:
        metrics = {}
        if ok_ops:
            ref_ms = [op_s * 1e3 * CALIBRATION_REF_S / cal_s for op_s, cal_s in ok_ops]
            upper_ms = percentile(ref_ms, 75)
            metrics = {
                "ops_per_s": (len(ref_ms) / (sum(ref_ms) / 1e3), "1/ref_s"),
                "op_p50_ms": (percentile(ref_ms, 50), "ref_ms"),
                "op_p75_ms": (upper_ms, "ref_ms"),
            }
            timed_ms = [op_s * 1e3 for op_s, _ in ok_ops]
            print(f"# {len(ref_ms)} ops ok of {attempted}, {sum(t > upper_ms for t in ref_ms)} "
                  f"above op_p75_ms; as timed: median {percentile(timed_ms, 50):.1f} ms, "
                  f"p75 {percentile(timed_ms, 75):.1f} ms, {len(timed_ms) / plain_s:.3f} ops/s; "
                  f"calibration median {statistics.median(c for _, c in ok_ops) * 1e3:.1f} ms "
                  f"(reference {CALIBRATION_REF_S * 1e3:.0f} ms); fail_frac {failed / attempted:.4f}")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        if setup and ok_ops:
            while setup.due(1.0):  # a run cut short by its catalog
                pass
            # scaled by the run's median kernel time: one probe's own
            # kernel would add that kernel's noise to the probe's
            cal_s = statistics.median(c for _, c in ok_ops)
            timed_s = statistics.median(setup.times)
            metrics["setup_s"] = (timed_s * CALIBRATION_REF_S / cal_s, "s")
            print(f"# setup_s as timed {timed_s:.4f} s, median of {len(setup.times)} fresh "
                  "processes: " + " ".join(f"{t:.4f}" for t in setup.times))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def one_op(wl, inp, refs, tracer, op_id):
    """Run and check one op; returns (problems, op seconds, result signature)."""
    import workloads

    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = tracer.run_op(op_id, wl.run_op, inp) if tracer else wl.run_op(inp)
        error = None
    except Exception:
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    if error:
        return [error], seconds, None
    ref = {"counts": refs["counts"], "values": refs["values"][inp.input_id]}
    try:
        problems = workloads.check(wl, inp, out, ref)
        sig = workloads.signature(out)
    except Exception:
        return [traceback.format_exc(limit=3)], seconds, None
    return problems, seconds, sig


if __name__ == "__main__":
    sys.exit(main())
