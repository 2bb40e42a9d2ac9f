"""Command-line behavior: schemas, determinism, exit codes."""

import json

import pytest

from faberkit.cli import run
from faberkit.faber import series_from_json, series_from_text


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLevels:
    def test_levels_2d_budget1(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "--dim", "2", "--n", "1")
        assert code == 0
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert len(rows) == 8
        assert rows[0] == "-1 -1"
        assert out.splitlines()[-1].startswith("# levels=8")


class TestRates:
    def test_csv_schema_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "rates.csv"
        code, out, _ = run_cli(
            capsys,
            "rates", "--dim", "1", "--p", "2", "--q", "2", "--func", "extremal",
            "--depth", "8", "--n", "2..6", "--seed", "7", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "n,m,error,error_estimate,reference"
        assert len(lines) == 6
        assert "slope=" in out

    def test_nine_rows_for_4_to_12(self, capsys, tmp_path):
        out_path = tmp_path / "r.csv"
        code, _, _ = run_cli(
            capsys,
            "rates", "--dim", "1", "--func", "extremal", "--depth", "8",
            "--n", "4..12", "--seed", "7", "--measure", "composite",
            "--mesh-level", "9", "--out", str(out_path),
        )
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 10

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "rates", "--dim", "2", "--func", "extremal", "--depth", "5",
            "--n", "1..4", "--seed", "3", "--measure", "mc",
            "--mc-samples", "5000", "--out",
        ]
        assert run(argv + [str(a)]) == 0
        assert run(argv + [str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_json_mirrors_csv_fields(self, capsys, tmp_path):
        out_path = tmp_path / "rates.json"
        code, _, _ = run_cli(
            capsys,
            "rates", "--dim", "1", "--func", "x2", "--n", "1..4",
            "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc) == 4
        assert set(doc[0]) == {"n", "m", "error", "error_estimate", "reference"}


class TestComb:
    def test_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "comb", "--alpha", "1", "--dim", "2", "--n", "10..20")
        assert code == 0
        rows = [ln for ln in out.splitlines() if not ln.startswith(("#", "n,"))]
        assert len(rows) == 11

    def test_header(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        run_cli(capsys, "comb", "--alpha", "0.5", "--dim", "1", "--n", "3", "--out", str(out_path))
        assert out_path.read_text().splitlines()[0] == "n,ratio_tail,ratio_bulk"


class TestAnalyzeAndRecover:
    def test_analyze_text_series_loads(self, capsys, tmp_path):
        out_path = tmp_path / "series.txt"
        code, out, _ = run_cli(
            capsys,
            "analyze", "--dim", "2", "--n", "2", "--func", "exp", "--out", str(out_path),
        )
        assert code == 0
        series = series_from_text(out_path.read_text())
        assert series.dim == 2 and series.budget == 2
        assert "nodes=" in out

    def test_analyze_json_series_loads(self, capsys, tmp_path):
        out_path = tmp_path / "series.json"
        code, _, _ = run_cli(
            capsys,
            "analyze", "--dim", "1", "--n", "3", "--func", "poly-mix",
            "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        series = series_from_json(out_path.read_text())
        assert series.budget == 3

    def test_recover_single_row(self, capsys, tmp_path):
        out_path = tmp_path / "row.csv"
        code, out, _ = run_cli(
            capsys,
            "recover", "--dim", "1", "--n", "4", "--func", "x2", "--out", str(out_path),
        )
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 2
        assert "error=" in out

    def test_prescribed_series_round_trip(self, capsys, tmp_path):
        series_path = tmp_path / "series.txt"
        run_cli(
            capsys,
            "analyze", "--dim", "1", "--n", "3", "--func", "exp",
            "--out", str(series_path),
        )
        code, out, _ = run_cli(
            capsys,
            "recover", "--dim", "1", "--n", "3", "--func", "prescribed",
            "--series", str(series_path),
        )
        assert code == 0
        # the prescribed series is its own truncation: defect at machine scale
        error = float(out.splitlines()[-1].split("error=")[1].split()[0])
        assert error <= 1e-12

    def test_prescribed_without_path_fails(self, capsys):
        code, _, err = run_cli(
            capsys, "recover", "--dim", "1", "--n", "2", "--func", "prescribed",
        )
        assert code == 1
        assert "--series" in err


class TestWidthsAndCubature:
    def test_widths_schema(self, capsys, tmp_path):
        out_path = tmp_path / "w.csv"
        code, _, _ = run_cli(
            capsys,
            "widths", "--dim", "1", "--func", "extremal", "--depth", "6",
            "--n", "2..5", "--seed", "1", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "m,error,upper_ref,lower_ref"
        ms = [int(ln.split(",")[0]) for ln in lines[1:]]
        assert ms == sorted(ms)

    def test_cubature_schema(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        code, _, _ = run_cli(
            capsys,
            "cubature", "--dim", "2", "--func", "x2", "--n", "1..5", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().splitlines()[0] == "n,m,abs_error,reference"

    def test_noncompact_json(self, capsys, tmp_path):
        out_path = tmp_path / "nc.json"
        code, out, _ = run_cli(capsys, "noncompact", "--max-level", "4", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["distances"][0][1] == 1.0
        assert "min_offdiag_distance=1.0" in out


class TestErrorsAndConfig:
    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag_named_in_error(self, capsys):
        code, _, err = run_cli(capsys, "levels", "--dim", "2", "--n", "1", "--bogus")
        assert code == 2
        assert "--bogus" in err

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "levels", "--dim", "2")
        assert code == 2

    def test_invalid_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "comb", "--alpha", "1", "--dim", "1", "--n", "9..3")
        assert code == 2
        assert "--n" in err

    def test_zero_dim_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "levels", "--dim", "0", "--n", "2")
        assert code == 2
        assert "--dim" in err

    def test_unknown_func_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "recover", "--dim", "1", "--n", "2", "--func", "wat")
        assert code == 2
        assert "wat" in err

    def test_computation_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "comb", "--alpha", "-1", "--dim", "1", "--n", "3")
        assert code == 1
        assert "error:" in err

    def test_depth_over_node_cap_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "rates", "--func", "extremal", "--depth", "40", "--dim", "1", "--n", "4",
        )
        assert code == 1
        assert "cap" in err

    @pytest.mark.parametrize(
        "alpha,dim,n", [("1", "2", "1100"), ("1", "1", "1030"), ("2", "2", "535")]
    )
    def test_comb_budget_outside_binary64_exits_1(self, capsys, alpha, dim, n):
        code, _, err = run_cli(capsys, "comb", "--alpha", alpha, "--dim", dim, "--n", n)
        assert code == 1
        assert err.startswith(f"error: budget n={n} ")

    @pytest.mark.parametrize(
        "name,text",
        [("s.txt", "dim 1 budget 40"), ("s.json", '{"dim":1,"budget":40,"entries":[]}')],
    )
    def test_series_header_over_node_cap_exits_1(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, _, err = run_cli(
            capsys, "recover", "--dim", "1", "--n", "2", "--func", "prescribed",
            "--series", str(path),
        )
        assert code == 1
        assert err.startswith("error:") and "cap" in err

    def test_bad_anchor_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "recover", "--dim", "1", "--n", "2", "--func", "kink",
            "--anchor", "0.5",
        )
        assert code == 1

    def test_print_config(self, capsys):
        code, out, _ = run_cli(capsys, "--print-config")
        assert code == 0
        assert "G = 5" in out and "L = n + 2" in out and "200000" in out

    def test_no_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2
