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
    ops = rec["workloads"]["w"]["metrics"]["ops_per_s"]
    assert ops["verdict"] == "improved" and ops["pairs_won"] == "10/10"
    assert ops["parent"]["median"] == 105.5 and ops["change"]["median"] == 205.5
    assert ops["runs"]["change"][0] == 201.0
    assert rec["workloads"]["w"]["failed_ops"] == {"parent": "0/1000", "change": "0/1000"}
    layer = rec["per_layer_traced"]["workloads"]["w"]["faber.sample.s"]
    assert (layer["parent"], layer["change"], layer["unit"]) == (0.002, 0.001, "s/op")
    assert rec["per_layer_traced"]["seeds"] == [11, 12]
