"""Run the benchmark several times per workload and keep every result.

    python3 bench/sweep.py --runs 10 --out .bench_out/sweep ROOT_A [ROOT_B]

Each ROOT is a source checkout holding ``BENCHMARK.json``; its command is
run from that root, once per workload and seed, each in a fresh process.
With two roots the runs alternate which root goes first, pair by pair,
and each seed is run on both.  Results go to ``OUT/a.jsonl`` (and
``OUT/b.jsonl``), one JSON object per run with the workload, seed, trace
flag, the run's ``# env`` record and its result; ``compare.py`` reads
them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    record = {"root": str(root), "workload": workload, "seed": seed, "trace": trace,
              "exit": proc.returncode}
    for line in lines:
        if line.startswith("# env "):
            record["env"] = json.loads(line[6:])
    if proc.returncode != 0 or not lines:
        record["error"] = proc.stderr[-2000:]
        return record
    record["result"] = json.loads(lines[-1])
    record["notes"] = [ln for ln in lines[:-1] if not ln.startswith("# env ")]
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("roots", nargs="+", type=Path, help="one or two source checkouts")
    ap.add_argument("--out", type=Path, required=True, help="directory for a.jsonl/b.jsonl")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if len(args.roots) > 2:
        ap.error("give one or two roots")
    roots = [r.resolve() for r in args.roots]
    specs = [json.loads((r / "BENCHMARK.json").read_text()) for r in roots]
    names = args.workload or [w["name"] for w in specs[0]["workloads"]]
    args.out.mkdir(parents=True, exist_ok=True)
    outs = [args.out / f"{label}.jsonl" for label in "ab"[: len(roots)]]
    for name in names:
        for i in range(args.runs):
            seed = args.first_seed + i
            order = range(len(roots)) if i % 2 == 0 else reversed(range(len(roots)))
            for k in order:
                rec = run_once(roots[k], specs[k], name, seed, args.trace)
                with open(outs[k], "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
                res = rec.get("result")
                summary = (json.dumps({m: round(v["value"], 4) for m, v in res["metrics"].items()})
                           if res and not args.trace else rec.get("error", "ok")[-300:])
                print(f"{'ab'[k]} {name} seed={seed}: {summary}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
