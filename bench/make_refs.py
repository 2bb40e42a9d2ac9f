"""Regenerate refs/<workload>.json: the stored result of every catalog input.

    python3 bench/make_refs.py [WORKLOAD ...]

Run from the root of a source checkout at the commit whose results are
the reference.  Each stored file holds the node count of every analyze
call of the op (the sample contract) and, per catalog input, the values
that ``run.py`` compares within ``workloads.REL_TOL``.  Every op must pass
the checks that do not depend on stored values (node counts, round trip,
decay bound) before anything is written.  Two worker processes share the
catalog.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from faberkit import dyadic  # noqa: E402
from run import git_commit  # noqa: E402


def expected_counts(wl) -> list[int]:
    return [dyadic.node_count(n, d) for n, d in wl.analyze_calls()]


def reference_values(task: tuple[str, int]) -> list[float]:
    name, input_id = task
    wl = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=HERE.parent / ".bench_out") as workdir:
        inp = wl.make_input(input_id, workdir, "ref")
        out = wl.run_op(inp)
        problems = workloads.check(wl, inp, out, {"counts": expected_counts(wl), "values": None})
        inp.cleanup()
    if problems:
        raise RuntimeError(f"{name} input {input_id}: {problems}")
    return out.values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workloads", nargs="*", default=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    (HERE.parent / ".bench_out").mkdir(exist_ok=True)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        for name in args.workloads:
            wl = workloads.WORKLOADS[name]
            tasks = [(name, i) for i in range(wl.catalog)]
            values = pool.map(reference_values, tasks, chunksize=4)
            head = {
                "workload": name,
                "commit": git_commit(),
                "rel_tol": workloads.REL_TOL,
                "counts": expected_counts(wl),
            }
            rows = ",\n".join(json.dumps(v) for v in values)
            path = HERE / "refs" / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            with open(path, "w") as fh:
                fh.write(json.dumps(head)[:-1] + ', "values": [\n' + rows + "\n]}\n")
            print(f"{name}: {len(values)} inputs -> {os.path.relpath(path)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
