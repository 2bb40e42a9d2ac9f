"""Turn a parent/change benchmark sweep into a ``BENCH_*.json`` record.

    python3 bench/sweep.py --runs 10 --first-seed S --out OUT PARENT_DIR CHANGE_DIR
    python3 bench/sweep.py --runs 2 --first-seed T --trace 1 --out OUT PARENT_DIR CHANGE_DIR
    python3 scripts/bench_record.py OUT PARENT CHANGE --output BENCH_N.json

OUT is the sweep's output directory: ``a.jsonl`` holds the parent's runs
and ``b.jsonl`` the change's, untraced and traced runs alike.  PARENT and
CHANGE name the two sides (commit ids, say) in the record.  Untraced runs
give ``workloads``: per workload the failed ops and, per end-to-end metric
of ``BENCHMARK.json``, both sides' quartiles and runs, the change over
parent ratio of the medians, the pairs won and ``bench/compare.py``'s
verdict.  Traced runs give ``per_layer_traced``: per workload and
per-layer metric both sides' medians and runs.  The verdicts and
statistics are ``bench/compare.py``'s own, imported from it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import compare  # noqa: E402


def sides(out: Path) -> tuple[dict, dict]:
    """compare.load of the parent's and the change's runs; its notes go to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        return compare.load(str(out / "a.jsonl")), compare.load(str(out / "b.jsonl"))


def env_record(path: Path) -> dict:
    """The ``# env`` record of the first run in a sweep file."""
    for line in path.read_text().splitlines():
        env = json.loads(line).get("env")
        if env:
            return env
    return {}


def machine(out: Path) -> dict:
    env = env_record(out / "b.jsonl")
    return {
        "cpus": env.get("nproc"),
        "arch": platform.machine(),
        "python": env.get("python"),
        "numpy": env.get("numpy"),
        "kernel": platform.release(),
        "note": "op times are scaled by the calibration kernel of bench/run.py (see bench/README.md)",
        "env_record": env,
    }


def end_to_end(a: dict, b: dict) -> dict:
    """Per untraced workload: failed ops and each end-to-end metric's verdict."""
    out = {}
    for workload, trace in sorted(set(a) & set(b)):
        if trace:
            continue
        ra, rb = a[(workload, 0)], b[(workload, 0)]
        fa, fb = compare.fail_frac(ra), compare.fail_frac(rb)
        metrics = {}
        for name, spec in compare.E2E.items():
            sa, sb = compare.series(ra, name), compare.series(rb, name)
            if not sa or not sb:
                continue
            sign = -1.0 if spec["better"] == "lower" else 1.0
            pairs = [(sa[s], sb[s]) for s in sa if s in sb]
            won = sum(1 for x, y in pairs if (y - x) * sign > 0)
            qa, qb = compare.quartiles(list(sa.values())), compare.quartiles(list(sb.values()))
            metrics[name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "bound": spec["bound"],
                "parent": dict(zip(("q1", "median", "q3"), qa)),
                "change": dict(zip(("q1", "median", "q3"), qb)),
                "change_over_parent": qb[1] / qa[1],
                "pairs_won": f"{won}/{len(pairs)}",
                "verdict": compare.verdict(sa, sb, spec, fa[0], fb[0]),
                "runs": {"parent": [sa[s] for s in sorted(sa)], "change": [sb[s] for s in sorted(sb)]},
            }
        out[workload] = {
            "failed_ops": {"parent": f"{fa[0]}/{fa[1]}", "change": f"{fb[0]}/{fb[1]}"},
            "metrics": metrics,
        }
    return out


def per_layer(a: dict, b: dict) -> dict:
    """Per traced workload: each per-layer metric's medians and runs."""
    out = {}
    for workload, trace in sorted(set(a) & set(b)):
        if not trace:
            continue
        ra, rb = a[(workload, 1)], b[(workload, 1)]
        names = sorted({m for r in (*ra.values(), *rb.values()) for m in r["metrics"]} - set(compare.E2E))
        rows = {}
        for name in names:
            sa, sb = compare.series(ra, name), compare.series(rb, name)
            if not sa or not sb:
                continue
            unit = next(r["metrics"][name]["unit"] for r in ra.values() if name in r["metrics"])
            rows[name] = {
                "unit": unit,
                "parent": statistics.median(sa.values()),
                "change": statistics.median(sb.values()),
                "runs": {"parent": [sa[s] for s in sorted(sa)], "change": [sb[s] for s in sorted(sb)]},
            }
        out[workload] = rows
    return out


def seeds(runs: dict, traced: int) -> list[int]:
    return sorted({s for (_, trace), results in runs.items() if trace == traced for s in results})


def record(out: Path, parent: str, change: str) -> dict:
    a, b = sides(out)
    plain, traced = seeds(a, 0), seeds(a, 1)
    rec = {
        "what": f"parent {parent} vs change {change}: {len(plain)} alternating pairs of untraced "
                f"runs per workload, and {len(traced)} traced pairs for the per-layer split",
        "commands": [
            f"python3 bench/sweep.py --runs {len(used)} --first-seed {used[0]}{flag} --out OUT "
            "PARENT_CHECKOUT CHANGE_CHECKOUT"
            for used, flag in ((plain, ""), (traced, " --trace 1")) if used
        ] + [f"python3 scripts/bench_record.py OUT {parent} {change}"],
        "seeds": plain,
        "machine": machine(out),
        "workloads": end_to_end(a, b),
    }
    if traced:
        rec["per_layer_traced"] = {
            "what": f"medians of traced runs per side (bench/run.py --trace 1, seeds {traced}); "
                    "spans are recorded outside the package",
            "seeds": traced,
            "workloads": per_layer(a, b),
        }
    return rec


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out", type=Path, help="bench/sweep.py output directory (a.jsonl, b.jsonl)")
    ap.add_argument("parent", help="name of the parent side, e.g. its commit")
    ap.add_argument("change", help="name of the change side, e.g. its commit")
    ap.add_argument("--output", type=Path, help="JSON file to write (default: stdout)")
    args = ap.parse_args(argv)
    text = json.dumps(record(args.out, args.parent, args.change), indent=1) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
