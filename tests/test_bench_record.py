"""scripts/bench_record.py: sweep JSONL in, BENCH_*.json record out."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _run(workload, seed, trace, metrics, failed=0):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "exit": 0,
        "env": {"nproc": 2, "python": "3.x", "numpy": "2.x"},
        "result": {
            "attempted": 100,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
        },
    }


def _write(path, runs):
    path.write_text("".join(json.dumps(r) + "\n" for r in runs))


def test_record_matches_compare_schema(tmp_path, capsys):
    seeds = range(1, 11)
    parent = [_run("w", s, 0, {"ops_per_s": (100.0 + s, "1/ref_s")}) for s in seeds]
    change = [_run("w", s, 0, {"ops_per_s": (200.0 + s, "1/ref_s")}) for s in seeds]
    parent += [_run("w", s, 1, {"faber.sample.s": (0.002, "s/op")}) for s in (11, 12)]
    change += [_run("w", s, 1, {"faber.sample.s": (0.001, "s/op")}) for s in (11, 12)]
    change.append({"workload": "w", "seed": 13, "trace": 0, "exit": 1, "error": "boom"})
    _write(tmp_path / "a.jsonl", parent)
    _write(tmp_path / "b.jsonl", change)
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(tmp_path), "p0", "c1", "--output", str(out)]) == 0
    assert "exited 1" in capsys.readouterr().err  # compare.load's note, off stdout
    rec = json.loads(out.read_text())
    assert rec["seeds"] == list(seeds)
    assert "untraced runs, 10 of w, and 2 traced pairs" in rec["what"]
    ops = rec["workloads"]["w"]["metrics"]["ops_per_s"]
    assert ops["verdict"] == "improved" and ops["pairs_won"] == "10/10"
    assert ops["parent"]["median"] == 105.5 and ops["change"]["median"] == 205.5
    assert ops["runs"]["change"][0] == 201.0
    assert rec["workloads"]["w"]["failed_ops"] == {"parent": "0/1000", "change": "0/1000"}
    layer = rec["per_layer_traced"]["workloads"]["w"]["faber.sample.s"]
    assert (layer["parent"], layer["change"], layer["unit"]) == (0.002, 0.001, "s/op")
    assert rec["per_layer_traced"]["seeds"] == [11, 12]
    tail = " --out OUT PARENT_CHECKOUT CHANGE_CHECKOUT"
    assert rec["commands"] == [
        "python3 bench/sweep.py --runs 10 --first-seed 1 --workload w" + tail,
        "python3 bench/sweep.py --runs 2 --first-seed 11 --trace 1 --workload w" + tail,
        "python3 scripts/bench_record.py OUT p0 c1",
    ]


def test_commands_name_each_set_of_runs():
    # one sweep command per (trace, seeds) set, with --workload flags unless the
    # set holds every workload of BENCHMARK.json
    workloads = sorted(w["name"] for w in bench_record.compare.SPEC["workloads"])
    tail = " --out OUT PARENT_CHECKOUT CHANGE_CHECKOUT"

    def runs(seeds_per_workload, trace=0):
        return {(w, trace): {s: {} for s in seeds} for w, seeds in seeds_per_workload.items()}

    one = runs({"scatter-io": range(1, 11)}) | runs({"scatter-io": (11, 12)}, trace=1)
    assert bench_record.sweep_commands(one) == [
        "python3 bench/sweep.py --runs 10 --first-seed 1 --workload scatter-io" + tail,
        "python3 bench/sweep.py --runs 2 --first-seed 11 --trace 1 --workload scatter-io" + tail,
    ]
    two = runs({"cubature-hd": range(21, 31), "scatter-io": range(1, 6)})
    assert bench_record.sweep_commands(two) == [
        "python3 bench/sweep.py --runs 5 --first-seed 1 --workload scatter-io" + tail,
        "python3 bench/sweep.py --runs 10 --first-seed 21 --workload cubature-hd" + tail,
    ]
    every = runs({w: range(1, 11) for w in workloads})
    assert bench_record.sweep_commands(every) == [
        "python3 bench/sweep.py --runs 10 --first-seed 1" + tail
    ]
    assert bench_record.sweep_commands(every | runs({"other": range(1, 11)})) == [
        "python3 bench/sweep.py --runs 10 --first-seed 1"
        + "".join(f" --workload {w}" for w in sorted([*workloads, "other"])) + tail
    ]


def _study_run(wall, rss, stdout="aa", exit=0, kernel=0.06):
    return {"exit": exit, "wall_s": wall, "kernel_s": kernel, "wall_ref_s": wall * 0.06 / kernel,
            "peak_rss_mb": rss, "sha256": {"stdout": stdout}}


def test_study_row_takes_medians_and_compares_outputs():
    # the parent's host ran its kernel in 0.12 s, twice the reference
    runs = {
        "parent": [_study_run(w, r, kernel=0.12) for w, r in ((2.0, 50.0), (3.0, 52.0), (2.5, 51.0))],
        "change": [_study_run(w, r) for w, r in ((1.0, 45.0), (1.5, 46.0), (1.2, 44.0))],
    }
    row = bench_record.study_row(["rates", "--dim", "1"], runs)
    assert row["command"] == "faberkit rates --dim 1"
    assert (row["parent"]["wall_s"], row["parent"]["peak_rss_mb"]) == (2.5, 51.0)
    assert (row["change"]["wall_s"], row["change"]["peak_rss_mb"]) == (1.2, 45.0)
    assert (row["parent"]["wall_ref_s"], row["parent"]["kernel_s"]) == (1.25, 0.12)
    assert (row["change"]["wall_ref_s"], row["change"]["kernel_s"]) == (1.2, 0.06)
    assert row["peak_rss_mb_change_over_parent"] == 45.0 / 51.0
    assert row["wall_ref_s_change_over_parent"] == 1.2 / 1.25
    assert row["change"]["runs"]["wall_s"] == [1.0, 1.5, 1.2]
    assert row["parent"]["runs"]["peak_rss_mb"] == [50.0, 52.0, 51.0]
    assert row["parent"]["runs"]["wall_ref_s"] == [1.0, 1.5, 1.25]
    assert row["parent"]["min"] == {"wall_s": 2.0, "wall_ref_s": 1.0, "kernel_s": 0.12, "peak_rss_mb": 50.0}
    assert row["parent"]["max"] == {"wall_s": 3.0, "wall_ref_s": 1.5, "kernel_s": 0.12, "peak_rss_mb": 52.0}
    assert row["change"]["min"] == {"wall_s": 1.0, "wall_ref_s": 1.0, "kernel_s": 0.06, "peak_rss_mb": 44.0}
    assert row["change"]["max"] == {"wall_s": 1.5, "wall_ref_s": 1.5, "kernel_s": 0.06, "peak_rss_mb": 46.0}
    assert row["parent"]["sha256"] == [{"stdout": "aa"}] and row["same_output"]
    runs["change"][1] = _study_run(1.5, 46.0, stdout="bb", exit=1)
    row = bench_record.study_row(["rates"], runs)
    assert not row["same_output"] and len(row["change"]["sha256"]) == 2
    assert row["change"]["exits"] == [0, 1]


def _checkout(root, greeting):
    # a stand-in source tree whose CLI prints its arguments, writes --out,
    # prints the file --series names and sleeps --sleep seconds
    package = root / "src" / "faberkit"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import sys, time\n"
        f"print({greeting!r}, sys.argv[1:])\n"
        "if '--out' in sys.argv:\n"
        "    open(sys.argv[sys.argv.index('--out') + 1], 'w').write('rows\\n')\n"
        "if '--series' in sys.argv:\n"
        "    print(open(sys.argv[sys.argv.index('--series') + 1]).read())\n"
        "if '--sleep' in sys.argv:\n"
        "    time.sleep(float(sys.argv[sys.argv.index('--sleep') + 1]))\n"
    )
    return root


def test_studies_list_the_level_table_study():
    assert bench_record.STUDIES["levels-d12"] == ["levels", "--dim", "12", "--n", "2"]


def test_studies_list_the_series_read_study_and_its_setup():
    assert bench_record.SETUPS["read-json-14-2"] == [
        "analyze", "--dim", "2", "--n", "14", "--func", "kink", "--format", "json", "--out", "s.json",
    ]
    assert bench_record.STUDIES["read-json-14-2"] == [
        "recover", "--dim", "2", "--n", "14", "--func", "prescribed", "--series", "s.json",
        "--measure", "mc", "--seed", "3",
    ]


def test_a_study_setup_runs_untimed_in_the_study_directory(tmp_path, monkeypatch):
    # the setup writes s.txt and sleeps 1 s; the timed run reads s.txt
    monkeypatch.setattr(bench_record, "STUDIES", {"toy": ["read", "--series", "s.txt"]})
    monkeypatch.setattr(bench_record, "SETUPS", {"toy": ["make", "--out", "s.txt", "--sleep", "1"]})
    monkeypatch.setattr(bench_record, "STUDY_RUNS", 1)
    kernels = iter([0.06, 0.06])  # one per timed run, none for a setup
    monkeypatch.setattr(bench_record.run, "calibration_seconds", lambda: next(kernels))
    roots = {side: _checkout(tmp_path / side, "hello") for side in ("parent", "change")}
    row = bench_record.studies(roots)["toy"]
    assert row["command"] == "faberkit read --series s.txt"
    assert row["setup"] == "faberkit make --out s.txt --sleep 1"
    for side in roots:
        assert row[side]["exits"] == [0]  # s.txt was there to read
        assert row[side]["wall_s"] < 1.0
        assert set(row[side]["sha256"][0]) == {"stdout", "s.txt"}
    assert row["same_output"]
    assert "setup" not in bench_record.study_row(["read"], {side: [_study_run(1.0, 1.0)] for side in roots})


def test_studies_list_the_over_memo_cap_studies():
    assert bench_record.STUDIES["analyze-d8"] == [
        "analyze", "--dim", "8", "--n", "3", "--func", "kink", "--out", "s.txt",
    ]
    assert bench_record.STUDIES["noncompact-18"] == ["noncompact", "--max-level", "18"]


def test_studies_list_the_cubature_and_black_box_defect_studies():
    assert bench_record.STUDIES["cubature-d4"] == [
        "cubature", "--dim", "4", "--func", "kink", "--n", "2..7",
    ]
    assert bench_record.STUDIES["rates-d2-kink"] == [
        "rates", "--dim", "2", "--func", "kink", "--n", "2..5", "--measure", "composite",
    ]


def test_studies_run_each_checkout_as_fresh_processes(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "STUDIES", {"toy": ["toy", "--out", "t.csv"]})
    monkeypatch.setattr(bench_record, "STUDY_RUNS", 2)
    kernels = iter([0.03, 0.12] * 4)  # timed once before each run
    monkeypatch.setattr(bench_record.run, "calibration_seconds", lambda: next(kernels))
    for side, seed in (("a", 1), ("b", 1)):
        _write(tmp_path / f"{side}.jsonl", [_run("w", seed, 0, {"ops_per_s": (1.0, "1/ref_s")})])
    same = [_checkout(tmp_path / name, "hello") for name in ("p", "c")]
    other = _checkout(tmp_path / "o", "bye")
    out = tmp_path / "BENCH.json"
    for change, equal in ((same[1], True), (other, False)):
        argv = [str(tmp_path), "p0", "c1", "--output", str(out),
                "--studies", str(same[0]), str(change)]
        assert bench_record.main(argv) == 0
        row = json.loads(out.read_text())["studies"]["rows"]["toy"]
        assert row["same_output"] is equal
        assert row["command"] == "faberkit toy --out t.csv"
        for side in ("parent", "change"):
            assert row[side]["exits"] == [0] and len(row[side]["runs"]["wall_s"]) == 2
            for key, runs in row[side]["runs"].items():
                assert row[side]["min"][key] == min(runs) <= max(runs) == row[side]["max"][key]
            assert row[side]["runs"]["kernel_s"] == ([0.03, 0.12] if side == "parent" else [0.12, 0.03])
            for wall, kernel, ref in zip(*(row[side]["runs"][k] for k in ("wall_s", "kernel_s", "wall_ref_s"))):
                assert ref == wall * bench_record.run.CALIBRATION_REF_S / kernel
            assert row[side]["peak_rss_mb"] > 0.0
            assert set(row[side]["sha256"][0]) == {"stdout", "t.csv"}
