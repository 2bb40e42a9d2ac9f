"""Self-test of the benchmark's checks and output contract.

    python3 bench/selftest.py

Run from the root of a source checkout.  It shows that

1. on every workload one op passes, and the same op fails, counted in
   ``failed`` and so in fail_frac, when the black box returns one
   perturbed value or takes one extra evaluation;
2. every metric name ``run.py`` prints, traced and untraced, is declared
   in ``BENCHMARK.json``, and every declared one is printed;
3. in a directory holding only ``BENCHMARK.json`` and the benchmark's own
   files the command exits non-zero without printing a result.

Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys

import run

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PERTURBATION = 1e-6


@contextlib.contextmanager
def faulty_black_box(kind: str):
    """Make the first black-box call return a perturbed value or take an extra evaluation."""
    from faberkit.faber import FunctionHandle

    original = FunctionHandle.eval_batch
    state = {"first": True}

    def eval_batch(self, points):
        vals = original(self, points)
        if state["first"]:
            state["first"] = False
            if kind == "perturbed":
                vals = vals.copy()
                vals[0] += PERTURBATION
            else:
                original(self, points[:1])
        return vals

    FunctionHandle.eval_batch = eval_batch
    try:
        yield
    finally:
        FunctionHandle.eval_batch = original


def check_faults(workloads) -> list[str]:
    problems = []
    workdir = run.OUT_DIR / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, wl in workloads.WORKLOADS.items():
            refs = run.load_refs(wl)
            order = run.input_order(wl, 0)[:1]
            for fault in (None, "perturbed", "extra evaluation"):
                with faulty_black_box(fault) if fault else contextlib.nullcontext():
                    res = run.run(wl, refs, order, str(workdir), 0, 0, None, {})
                frac = res["failed"] / res["attempted"]
                want = 0.0 if fault is None else 1.0
                status = "ok" if frac == want else "WRONG"
                print(f"{status:5s} {name:12s} {fault or 'no fault':17s} "
                      f"attempted {res['attempted']} failed {res['failed']} fail_frac {frac}")
                if frac != want:
                    problems.append(f"{name} with {fault or 'no fault'}: fail_frac {frac}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def bench_command(workload: str, trace: int) -> list[str]:
    return SPEC["command"] + ["--workload", workload, "--seed", "0", "--seconds", "0",
                              "--trace", str(trace)]


def check_metric_names() -> list[str]:
    problems = []
    declared = {0: {m["name"] for m in SPEC["end_to_end"]},
                1: {m["name"] for m in SPEC["per_layer"]}}
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(bench_command(w["name"], trace), cwd=ROOT,
                                  capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                problems.append(f"{w['name']} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            printed = set(result["metrics"])
            extra, missing = printed - declared[trace], declared[trace] - printed
            ok = not extra and not missing and result["correct"] and result["failed"] == 0
            print(f"{'ok' if ok else 'WRONG':5s} {w['name']:12s} trace {trace}: "
                  f"{len(printed)} metrics, undeclared {sorted(extra)}, missing {sorted(missing)}, "
                  f"correct {result['correct']}")
            if not ok:
                problems.append(f"{w['name']} trace {trace}: metric names or result wrong")
    return problems


def check_bare_directory() -> list[str]:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        w = SPEC["workloads"][0]["name"]
        proc = subprocess.run(bench_command(w, 0), cwd=bare, capture_output=True,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"{'ok' if ok else 'WRONG':5s} bare directory: exit {proc.returncode}, "
          f"stdout {proc.stdout.strip()[:80]!r}, stderr {proc.stderr.strip()[-120:]!r}")
    return [] if ok else ["bare directory run did not fail cleanly"]


def main() -> int:
    run.pin_environment()
    run.import_faberkit()
    import workloads

    problems = check_faults(workloads) + check_metric_names() + check_bare_directory()
    for p in problems:
        print("FAIL:", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
