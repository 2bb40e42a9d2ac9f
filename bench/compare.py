"""Summarise benchmark runs and compare two sets of them.

    python3 bench/compare.py .bench_out/sweep/a.jsonl [.bench_out/sweep/b.jsonl]

Input files are written by ``sweep.py``.  For one set, each workload's
end-to-end metrics are printed with their median, quartiles and spread
(interquartile distance over the median) next to the bound in
``BENCHMARK.json``, plus fail_frac (failed ops over attempted ops) and
the medians of any per-module metrics from traced runs.

For two sets (a = parent, b = change), runs are paired by workload and
seed and each metric gets a verdict:

* improved: b is better in at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than a's interquartile
  distance, and b fails no more ops than a;
* regressed: b's median is worse than a's by more than the bound;
* unresolved: not regressed, but a's spread is wider than the bound and
  not every run of b is better than every run of a;
* unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}


def load(path: str) -> dict:
    """{(workload, trace): {seed: result}} from one JSONL file."""
    runs: dict = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if "result" not in rec:
            print(f"# {path}: {rec['workload']} seed {rec['seed']} exited {rec['exit']}")
            continue
        runs[(rec["workload"], rec["trace"])][rec["seed"]] = rec["result"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(results: dict, metric: str) -> dict[int, float]:
    return {s: r["metrics"][metric]["value"] for s, r in results.items() if metric in r["metrics"]}


def fail_frac(results: dict) -> tuple[int, int]:
    return (sum(r["failed"] for r in results.values()),
            sum(r["attempted"] for r in results.values()))


def verdict(a: dict[int, float], b: dict[int, float], spec: dict, fails_a: int, fails_b: int) -> str:
    sign = -1.0 if spec["better"] == "lower" else 1.0
    q1a, ma, q3a = quartiles(list(a.values()))
    mb = statistics.median(b.values())
    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum(1 for x, y in pairs if (y - x) * sign > 0)
    gain = (mb - ma) * sign
    if pairs and wins >= 0.9 * len(pairs) and gain > q3a - q1a:
        return "improved" if fails_b <= fails_a else "unresolved (more failed ops)"
    if -gain > spec["bound"] * abs(ma):
        return "regressed"
    all_better = min(v * sign for v in b.values()) > max(v * sign for v in a.values())
    if (q3a - q1a) > spec["bound"] * abs(ma) and not all_better:
        return "unresolved"
    return f"unchanged ({wins}/{len(pairs)} pairs better)"


def summarise(runs: dict) -> None:
    for (workload, trace), results in sorted(runs.items()):
        failed, attempted = fail_frac(results)
        print(f"\n{workload} (trace {trace}): {len(results)} runs, "
              f"fail_frac {failed}/{attempted} = {failed / max(attempted, 1):.4f}")
        names = sorted({m for r in results.values() for m in r["metrics"]},
                       key=lambda m: (m not in E2E, m))
        for metric in names:
            values = list(series(results, metric).values())
            q1, med, q3 = quartiles(values)
            unit = next(iter(results.values()))["metrics"][metric]["unit"]
            line = f"  {metric:40s} {med:12.6g} {unit:8s} [q1 {q1:.6g}, q3 {q3:.6g}]"
            if metric in E2E and med:
                spread = (q3 - q1) / abs(med)
                bound = E2E[metric]["bound"]
                flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "WIDE")
                line += f" spread {spread:.3f} bound {bound} {flag}"
            print(line)


def compare(runs_a: dict, runs_b: dict) -> int:
    regressions = 0
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, trace = key
        if trace:
            continue
        a, b = runs_a[key], runs_b[key]
        fa, fb = fail_frac(a), fail_frac(b)
        print(f"\n{workload}: {len(a)} vs {len(b)} runs, failed ops {fa[0]}/{fa[1]} vs {fb[0]}/{fb[1]}")
        for metric, spec in E2E.items():
            sa, sb = series(a, metric), series(b, metric)
            if not sa or not sb:
                continue
            qa, qb = quartiles(list(sa.values())), quartiles(list(sb.values()))
            v = verdict(sa, sb, spec, fa[0], fb[0])
            regressions += v == "regressed"
            print(f"  {metric:14s} a {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"b {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {spec['unit']:5s} "
                  f"({(qb[1] - qa[1]) / qa[1]:+.1%})  {v}")
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(p) for p in argv]
    for path, runs in zip(argv, sets):
        print(f"== {path}")
        summarise(runs)
    if len(sets) == 2:
        print("\n== comparison (a = first file, b = second)")
        return compare(*sets)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
