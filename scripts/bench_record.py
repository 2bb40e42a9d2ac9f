"""Turn a parent/change benchmark sweep into a ``BENCH_*.json`` record.

    python3 bench/sweep.py --runs 10 --first-seed S --out OUT PARENT_DIR CHANGE_DIR
    python3 bench/sweep.py --runs 2 --first-seed T --trace 1 --out OUT PARENT_DIR CHANGE_DIR
    python3 scripts/bench_record.py OUT PARENT CHANGE --output BENCH_N.json \
        [--studies PARENT_DIR CHANGE_DIR]

OUT is the sweep's output directory: ``a.jsonl`` holds the parent's runs
and ``b.jsonl`` the change's, untraced and traced runs alike.  PARENT and
CHANGE name the two sides (commit ids, say) in the record.  Its
``commands`` hold one sweep command per set of runs with the same trace
flag and seeds, with ``--workload`` flags unless the set covers every
workload of ``BENCHMARK.json``.  Untraced runs
give ``workloads``: per workload the failed ops and, per end-to-end metric
of ``BENCHMARK.json``, both sides' quartiles and runs, the change over
parent ratio of the medians, the pairs won and ``bench/compare.py``'s
verdict.  Traced runs give ``per_layer_traced``: per workload and
per-layer metric both sides' medians and runs.  The verdicts and
statistics are ``bench/compare.py``'s own, imported from it.

With ``--studies``, each one-shot CLI study of ``STUDIES`` runs
``STUDY_RUNS`` times per side as a fresh ``python -m faberkit.cli``
process of that checkout's ``src/``, the sides alternating run by run.
A study may name an untimed setup command in ``SETUPS``, run as a fresh
process in the study's empty directory before the calibration kernel and
the timed run, so that the study can read what the setup wrote.
``studies`` then holds per study and side, for every run, the wall time,
the time of ``bench/run.py``'s calibration kernel timed right before the
run, the wall time scaled by it as the bench scales op times
(``wall_ref_s = wall_s * CALIBRATION_REF_S / kernel_s``) and the child's
peak RSS (``os.wait4``'s ``ru_maxrss``), with their medians, minima and
maxima; the SHA-256 of stdout and of every file the study writes, and
whether both sides wrote the same bytes on every run.  A median of five
fresh processes can move 10% on the same work as the host's speed
drifts; the minima and maxima show whether two sides' runs overlap.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import compare  # noqa: E402
import run  # noqa: E402


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


def sweep_commands(runs: dict) -> list[str]:
    """One ``bench/sweep.py`` command per set of runs with the same trace flag and
    seeds, naming its workloads unless the set holds every one of BENCHMARK.json."""
    sets: dict[tuple[int, tuple[int, ...]], list[str]] = {}
    for (workload, trace), results in sorted(runs.items()):
        sets.setdefault((trace, tuple(sorted(results))), []).append(workload)
    every = sorted(w["name"] for w in compare.SPEC["workloads"])
    return [
        f"python3 bench/sweep.py --runs {len(used)} --first-seed {used[0]}"
        + (" --trace 1" if trace else "")
        + ("" if names == every else "".join(f" --workload {w}" for w in names))
        + " --out OUT PARENT_CHECKOUT CHANGE_CHECKOUT"
        for (trace, used), names in sorted(sets.items())
    ]


def record(out: Path, parent: str, change: str) -> dict:
    a, b = sides(out)
    plain, traced = seeds(a, 0), seeds(a, 1)
    pairs = ", ".join(f"{len(runs)} of {w}" for (w, trace), runs in sorted(a.items()) if not trace)
    rec = {
        "what": f"parent {parent} vs change {change}: alternating pairs of untraced runs, {pairs}, "
                f"and {len(traced)} traced pairs for the per-layer split",
        "commands": sweep_commands(a) + [f"python3 scripts/bench_record.py OUT {parent} {change}"],
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


#: name -> faberkit CLI arguments of a one-shot study; relative --out paths
#: land in the run's own empty directory.
STUDIES = {
    "recover-d3-mc": [
        "recover", "--dim", "3", "--n", "4", "--func", "extremal", "--depth", "7",
        "--measure", "mc", "--seed", "3",
    ],
    "rates-d2": [
        "rates", "--dim", "2", "--p", "2", "--q", "2", "--func", "extremal",
        "--depth", "12", "--n", "4..8", "--seed", "7",
    ],
    "rates-d1": [  # the README's rates command
        "rates", "--dim", "1", "--p", "2", "--q", "2", "--func", "extremal",
        "--depth", "14", "--n", "4..12", "--seed", "7", "--out", "rates.csv",
    ],
    "levels-d12": ["levels", "--dim", "12", "--n", "2"],  # 120,832 levels
    # layouts over the plan memo's size cap, built once per call
    "analyze-d8": ["analyze", "--dim", "8", "--n", "3", "--func", "kink", "--out", "s.txt"],
    "noncompact-18": ["noncompact", "--max-level", "18"],
    "cubature-d4": ["cubature", "--dim", "4", "--func", "kink", "--n", "2..7"],
    # the recovery defect of a black-box f
    "rates-d2-kink": [
        "rates", "--dim", "2", "--func", "kink", "--n", "2..5", "--measure", "composite",
    ],
    # a series file read back: the (14, 2) JSON round trip
    "read-json-14-2": [
        "recover", "--dim", "2", "--n", "14", "--func", "prescribed", "--series", "s.json",
        "--measure", "mc", "--seed", "3",
    ],
}

#: name -> faberkit CLI arguments run untimed before each run of that study,
#: in the same empty directory
SETUPS = {
    "read-json-14-2": [
        "analyze", "--dim", "2", "--n", "14", "--func", "kink", "--format", "json", "--out", "s.json",
    ],
}

#: what ``study_row`` records of each run, with medians, minima and maxima
STUDY_KEYS = ("wall_s", "wall_ref_s", "kernel_s", "peak_rss_mb")

#: fresh processes per study and side
STUDY_RUNS = 5


def run_study(root: Path, args: list[str], setup: list[str] = ()) -> dict:
    """One fresh CLI process of ``root``'s source in an empty directory, after the
    untimed ``setup`` process there, if any: its exit code, wall time, the
    calibration kernel's time right before it and the wall time scaled by it,
    peak RSS and the SHA-256 of stdout and of each file in the directory."""
    with tempfile.TemporaryDirectory() as work, tempfile.TemporaryFile() as out:
        env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
        if setup:
            subprocess.run([sys.executable, "-m", "faberkit.cli", *setup], cwd=work, env=env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        kernel = run.calibration_seconds()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "faberkit.cli", *args],
            cwd=work, env=env, stdout=out, stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)  # the child's own rusage
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digests = {"stdout": hashlib.sha256(out.read()).hexdigest()}
        for path in sorted(Path(work).rglob("*")):
            if path.is_file():
                digests[str(path.relative_to(work))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"exit": proc.returncode, "wall_s": wall, "kernel_s": kernel,
            "wall_ref_s": wall * run.CALIBRATION_REF_S / kernel,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "sha256": digests}


def study_row(args: list[str], runs: dict[str, list[dict]], setup: list[str] = ()) -> dict:
    """One study's row from its ``run_study`` results per side ("parent", "change")."""
    row = {"command": "faberkit " + " ".join(args)}
    if setup:
        row["setup"] = "faberkit " + " ".join(setup)
    outputs = {}
    for side, results in runs.items():
        distinct = {json.dumps(r["sha256"], sort_keys=True) for r in results}
        outputs[side] = distinct
        each = {key: [r[key] for r in results] for key in STUDY_KEYS}
        row[side] = {
            **{key: statistics.median(values) for key, values in each.items()},
            "exits": sorted({r["exit"] for r in results}),
            "sha256": [json.loads(d) for d in sorted(distinct)],
            "runs": each,
            **{bound.__name__: {key: bound(v) for key, v in each.items()} for bound in (min, max)},
        }
    for key in ("wall_s", "wall_ref_s", "peak_rss_mb"):
        row[f"{key}_change_over_parent"] = row["change"][key] / row["parent"][key]
    row["same_output"] = len(outputs["parent"]) == 1 and outputs["parent"] == outputs["change"]
    return row


def studies(roots: dict[str, Path]) -> dict:
    """``study_row`` per study, each run ``STUDY_RUNS`` times per side, alternating."""
    rows = {}
    for name, args in STUDIES.items():
        setup = SETUPS.get(name, ())
        results = {side: [] for side in roots}
        for i in range(STUDY_RUNS):
            for side in list(roots)[:: 1 if i % 2 == 0 else -1]:
                results[side].append(run_study(roots[side], args, setup))
        rows[name] = study_row(args, results, setup)
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out", type=Path, help="bench/sweep.py output directory (a.jsonl, b.jsonl)")
    ap.add_argument("parent", help="name of the parent side, e.g. its commit")
    ap.add_argument("change", help="name of the change side, e.g. its commit")
    ap.add_argument("--output", type=Path, help="JSON file to write (default: stdout)")
    ap.add_argument("--studies", nargs=2, type=Path, metavar=("PARENT_DIR", "CHANGE_DIR"),
                    help="also record the one-shot CLI studies of these two checkouts")
    args = ap.parse_args(argv)
    rec = record(args.out, args.parent, args.change)
    if args.studies:
        rec["studies"] = {
            "what": f"{STUDY_RUNS} fresh processes per study and side, alternating; wall time, "
                    "the calibration kernel's time before each run, the wall time scaled by "
                    f"it to a {run.CALIBRATION_REF_S} s kernel, and peak RSS are medians, with "
                    "each run and their min and max; sha256 lists each distinct set of outputs",
            "command": f"python3 scripts/bench_record.py OUT {args.parent} {args.change} "
                       "--studies PARENT_CHECKOUT CHANGE_CHECKOUT",
            "rows": studies(dict(zip(("parent", "change"), args.studies))),
        }
    text = json.dumps(rec, indent=1) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
