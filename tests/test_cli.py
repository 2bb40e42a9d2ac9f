"""Command-line behavior: schemas, determinism, exit codes."""

import json

import pytest

from faberkit import cli, experiments, measure, testbed
from faberkit.cli import run
from faberkit.dyadic import MAX_POINTS, levels_up_to, node_count
from faberkit.faber import series_from_json, series_from_text
from faberkit.measure import CompositeGauss


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

    def test_levels_printed_in_row_blocks_are_the_level_rows(self, capsys):
        code, out, _ = run_cli(capsys, "levels", "--dim", "8", "--n", "3")
        expected = [" ".join(map(str, j.entries)) for j in levels_up_to(3, 8)]
        assert code == 0 and len(expected) == 10496 > cli._ROWS  # two blocks
        assert out.splitlines() == [*expected, f"# levels=10496 nodes=768609"]

    @pytest.mark.parametrize("dim,n", [("40", "0"), ("16", "0"), ("1", "62")])
    def test_levels_over_node_cap_exits_1(self, capsys, dim, n):
        # --n 0 has 2**d levels: the cap comes before any is enumerated
        code, out, err = run_cli(capsys, "levels", "--dim", dim, "--n", n)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "cap" in err


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

    def test_sup_measure_with_q_inf(self, capsys, tmp_path):
        out_path = tmp_path / "rates.csv"
        code, out, err = run_cli(
            capsys, "rates", "--dim", "1", "--n", "2..5", "--q", "inf", "--measure", "sup",
            "--out", str(out_path),
        )
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        # x**2 against its interpolant on cells of width 2**-(n+1): the sup
        # error (2**-(n+1))**2 / 4 is attained at the cell midpoints, which
        # lie on the level-(n + 2) sup grid
        assert [float(r[2]) for r in rows] == [4.0 ** -(n + 2) for n in range(2, 6)]
        assert [float(r[4]) for r in rows] == [1.0] * 4  # the q = inf envelope
        assert "slope=" in out


class TestComb:
    def test_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "comb", "--alpha", "1", "--dim", "2", "--n", "10..20")
        assert code == 0
        rows = [ln for ln in out.splitlines() if not ln.startswith(("#", "n,"))]
        assert len(rows) == 11

    def test_high_dimension_has_no_recursion_limit(self, capsys):
        code, out, err = run_cli(capsys, "comb", "--alpha", "1", "--dim", "400", "--n", "2")
        assert (code, err) == (0, "")
        rows = [ln for ln in out.splitlines() if not ln.startswith(("#", "n,"))]
        assert len(rows) == 1 and rows[0].startswith("2,")

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

    def test_prescribed_series_of_another_dim_fails(self, capsys, tmp_path):
        series_path = tmp_path / "series.txt"
        series_path.write_text("dim 1 budget 0\n-1 0 1.0\n-1 1 2.5\n0 0 -0.2\n")
        argv = f"recover --dim 2 --n 2 --func prescribed --series {series_path}".split()
        assert run_cli(capsys, *argv) == (1, "", "error: series has dim 1, requested 2\n")


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


#: Series files the boundary table refers to as ``@name``.
SERIES_FILES = {
    "s.txt": "dim 1 budget 40",
    "s.json": '{"dim":1,"budget":40,"entries":[]}',
}

#: Inputs that must fail with exit 1, one ``error:`` line and no traceback.
BAD_INPUTS = {
    "levels-d40": "levels --dim 40 --n 0",
    "levels-d16": "levels --dim 16 --n 0",
    "levels-n62": "levels --dim 1 --n 62",
    "prescribed-without-series": "recover --dim 1 --n 2 --func prescribed",
    "series-txt-over-cap": "recover --dim 1 --n 2 --func prescribed --series @s.txt",
    "series-json-over-cap": "recover --dim 1 --n 2 --func prescribed --series @s.json",
    "bad-anchor": "recover --dim 1 --n 2 --func kink --anchor 0.5",
    "depth-over-cap": "rates --func extremal --depth 40 --dim 1 --n 4",
    "noncompact-over-cap": "noncompact --max-level 400",
    "mc-samples-over-cap": "recover --dim 1 --n 2 --func exp --measure mc --mc-samples 100000000000",
    "comb-negative-alpha": "comb --alpha -1 --dim 1 --n 3",
    "comb-n1100": "comb --alpha 1 --dim 2 --n 1100",
    "comb-n1030": "comb --alpha 1 --dim 1 --n 1030",
    "comb-n535": "comb --alpha 2 --dim 2 --n 535",
    "comb-alpha-1e-17": "comb --dim 2 --n 1..3 --alpha 1e-17",
    "comb-alpha-5e-324": "comb --dim 2 --n 1..3 --alpha 5e-324",
    "comb-d1030-full-sum-overflow": "comb --dim 1030 --n 2 --alpha 1",
    "comb-d400-n10-denominator-overflow": "comb --dim 400 --n 10 --alpha 1",
    "comb-d578-tail-ratio-overflow": "comb --alpha 0.5 --dim 578 --n 1",
    "widths-p0": "widths --dim 1 --n 2..5 --p 0",
    "rates-p0": "rates --dim 1 --n 2..5 --p 0",
    "rates-p-1": "rates --dim 1 --n 2..5 --p -1",
    "rates-p-nan": "rates --dim 1 --n 2..5 --p nan",
    "rates-q-half-sup": "rates --dim 1 --n 2..5 --q 0.5 --measure sup",
    "rates-sup-q2": "rates --dim 1 --n 2..5 --measure sup",
    "widths-sup-q2": "widths --dim 1 --n 2..5 --measure sup",
    "gauss-order-100000": "recover --dim 1 --n 3 --measure composite --gauss-order 100000",
    "q200-underflow": "recover --dim 1 --n 3 --func kink --q 200",
    "q1000-mc-underflow": "recover --dim 1 --n 3 --func kink --q 1000 --measure mc",
    "q2000-overflow": "recover --dim 3 --n 0 --func spike --depth 6 --q 2000",
    "q2000-mc-overflow": "recover --dim 3 --n 0 --func spike --depth 6 --q 2000 --measure mc",
    "auto-mc-samples": "widths --dim 4 --n 1..2 --func exp --mc-samples 5000",
    "p-minus-inf-spaced": "recover --dim 3 --n 0 --p -inf",
    "p-minus-inf-joined": "recover --dim 3 --n 0 --p=-inf",
    "unread-anchor-depth": "recover --dim 2 --n 2 --func x2 --anchor nan --depth -5",
    "unread-depth-hat-level": "cubature --dim 2 --n 2 --func kink --depth -3 --hat-level 99",
    "unread-series": "rates --dim 1 --n 2..3 --func exp --series @s.txt",
    "analyze-unread-p": "analyze --dim 1 --n 2 --func spike --depth 3 --p 3",
    "cubature-unread-seed": "cubature --dim 1 --n 2 --func hat --seed 4",
    "extremal-p-nan": "recover --dim 1 --n 2 --func extremal --p nan",
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_1_with_one_error_line(capsys, tmp_path, argv):
    for name, text in SERIES_FILES.items():
        (tmp_path / name).write_text(text)
    args = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv.split()]
    code, out, err = run_cli(capsys, *args)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def node_cap_line(n, d):
    return f"budget n={n} needs {node_count(n, d)} nodes in d={d}, over the cap {MAX_POINTS}"


@pytest.mark.parametrize(
    "argv,line",
    [
        ("cubature --dim 5 --n 2..40", node_cap_line(12, 5)),
        ("rates --dim 1 --n 2..40 --q 3", node_cap_line(24, 1)),
        # the node cap comes first: the sup grid is over its cap from n = 23
        ("rates --dim 1 --n 2..40 --q inf", node_cap_line(24, 1)),
        ("rates --dim 3 --n 2..7 --q inf --func kink",
         "sup grid level 9 in d=3 exceeds the cell budget"),
        ("rates --dim 2 --n 2..8 --measure composite --func kink",
         "composite mesh level 10 in d=2 exceeds the cell budget; use stratified_mc instead"),
        ("widths --dim 4 --n 1..2 --measure composite",
         "composite Gauss supports d <= 3; use stratified_mc"),
        # n = 3 alone fails in measurement (|g|^200 underflows): the cap is reported first
        ("rates --dim 1 --n 3..20 --func kink --q 200 --measure composite",
         "composite mesh level 22 in d=1 exceeds the cell budget; use stratified_mc instead"),
    ],
    ids=["cubature-d5", "rates-d1", "rates-d1-sup", "rates-d3-sup", "rates-d2-composite",
         "widths-d4-composite", "rates-d1-cap-before-underflow"],
)
def test_over_cap_range_exits_1_before_its_first_budget(capsys, monkeypatch, argv, line):
    # a spy in place of analyze: no budget of the range, cap-sized or not, runs
    def analyze_spy(f, budget):
        raise AssertionError(f"analyze called at n={budget}")

    monkeypatch.setattr(experiments, "analyze", analyze_spy)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1 and out == ""
    assert err == f"error: {line}\n"


@pytest.mark.parametrize(
    "flags,line",
    [
        ("--gauss-order 7", "--gauss-order 7"),
        ("--mesh-level 4", "--mesh-level 4"),
        ("--mc-samples 5000", "--mc-samples 5000"),
        ("--mc-samples 5000 --gauss-order 3", "--gauss-order 3"),
    ],
    ids=["gauss-order", "mesh-level", "mc-samples", "two-flags"],
)
def test_auto_measure_refuses_flags_it_does_not_read(capsys, monkeypatch, flags, line):
    def analyze_spy(f, budget):
        raise AssertionError(f"analyze called at n={budget}")

    monkeypatch.setattr(experiments, "analyze", analyze_spy)
    argv = f"widths --dim 4 --n 1..2 --func exp {flags}".split()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {line} is not read by --measure auto; use --measure mc|composite|sup\n"


@pytest.mark.parametrize(
    "flags,line",
    [
        ("--measure mc --gauss-order 7", "--gauss-order 7 is not read by --measure mc"),
        ("--measure sup --q inf --gauss-order 3", "--gauss-order 3 is not read by --measure sup"),
        ("--measure mc --mesh-level 4", "--mesh-level 4 is not read by --measure mc"),
        ("--measure composite --mc-samples 5000", "--mc-samples 5000 is not read by --measure composite"),
        ("--measure sup --q inf --mc-samples 5000", "--mc-samples 5000 is not read by --measure sup"),
        ("--measure mc --mc-samples 5000 --mesh-level 4 --gauss-order 3",
         "--gauss-order 3 is not read by --measure mc"),
        ("--measure composite --depth 3 --mc-samples 5000", "--mc-samples 5000 is not read by --measure composite"),
    ],
    ids=["mc-gauss-order", "sup-gauss-order", "mc-mesh-level", "composite-mc-samples", "sup-mc-samples",
         "mc-three-flags", "measure-flag-before-function-flag"],
)
def test_explicit_measure_refuses_flags_it_does_not_read(capsys, monkeypatch, flags, line):
    def analyze_spy(f, budget):
        raise AssertionError(f"analyze called at n={budget}")

    monkeypatch.setattr(experiments, "analyze", analyze_spy)
    code, out, err = run_cli(capsys, *f"recover --dim 1 --n 3 --func x2 {flags}".split())
    assert (code, out, err) == (1, "", f"error: {line}\n")


def test_parser_defaults_are_not_refused_after_a_patched_measure_default(capsys, monkeypatch):
    # the refusal compares with the parser's own default, whatever measure's default is now
    cli._build_parser()
    monkeypatch.setattr(measure, "DEFAULT_MC_SAMPLES", 1000)
    code, out, err = run_cli(capsys, *"recover --dim 4 --n 1 --func exp".split())
    assert (code, err) == (0, "") and out.splitlines()[-1].endswith("nodes=297")


@pytest.mark.parametrize(
    "argv,line",
    [
        ("recover --dim 2 --n 2 --func x2 --anchor nan --depth -5", "--depth -5 is not read by --func x2"),
        ("cubature --dim 2 --n 2 --func kink --depth -3 --hat-level 99",
         "--depth -3 is not read by --func kink"),
        ("widths --dim 1 --n 2 --func hat --anchor 0.3", "--anchor 0.3 is not read by --func hat"),
        ("recover --dim 1 --n 2 --func kink --hat-level 2", "--hat-level 2 is not read by --func kink"),
        ("rates --dim 1 --n 2 --func extremal --depth 3 --series s.txt",
         "--series s.txt is not read by --func extremal"),
        ("analyze --dim 1 --n 2 --func spike --depth 3 --p 3", "--p 3.0 is not read by --func spike"),
        ("analyze --dim 1 --n 2 --func kink --p nan", "--p nan is not read by --func kink"),
        ("cubature --dim 1 --n 2 --func hat --seed 4", "--seed 4 is not read by --func hat"),
        # --seed is read by values of both kinds: a command with --measure names both
        ("recover --dim 1 --n 3 --func x2 --measure composite --seed 5",
         "--seed 5 is not read by --func x2 or --measure composite"),
        ("rates --dim 1 --n 2..3 --q inf --func kink --measure sup --seed 5",
         "--seed 5 is not read by --func kink or --measure sup"),
    ],
    ids=["recover-x2", "cubature-kink", "widths-hat", "recover-kink", "rates-extremal",
         "analyze-spike-p", "analyze-kink-p-nan", "cubature-hat-seed", "composite-seed", "sup-seed"],
)
def test_function_flags_the_func_does_not_read_are_refused(capsys, monkeypatch, argv, line):
    # refused before the function is built, let alone sampled
    for name in ("extremal", "spike", "kink", "hat_family", "smooth"):
        monkeypatch.setattr(testbed, name, lambda *args: pytest.fail("function built"))
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (1, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "argv",
    [
        "recover --dim 1 --n 2 --func exp --p 3 --seed 4",
        "rates --dim 1 --n 2..3 --func kink --anchor 0.3 --p 1.5 --seed 2 --measure mc --mc-samples 1000",
        "widths --dim 1 --n 2 --func hat --hat-level 1 --seed 5",
        "analyze --dim 1 --n 2 --func extremal --depth 3 --p 3 --seed 4",
        "cubature --dim 1 --n 2 --func spike --depth 3 --seed 4",
        "cubature --dim 1 --n 2 --func x2 --depth 14 --anchor= --hat-level 0 --p 2 --seed 0",
        "recover --dim 1 --n 3 --func x2 --measure composite --gauss-order 3 --mesh-level 6",
        "recover --dim 1 --n 3 --func x2 --measure sup --q inf --mesh-level 6",
        "recover --dim 1 --n 3 --func x2 --measure mc --mc-samples 1000 --seed 3",
        "recover --dim 1 --n 3 --func x2 --measure sup --q inf --gauss-order 5 --mc-samples 200000",
    ],
    ids=["recover-p-seed", "rates-kink", "widths-hat", "analyze-extremal", "cubature-spike",
         "cubature-defaults", "composite-flags", "sup-mesh-level", "mc-flags", "sup-defaults"],
)
def test_function_flags_that_are_read_or_at_their_defaults_pass(capsys, argv):
    code, _, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")


def test_extremal_p_nan_is_refused_as_below_one(capsys):
    for command in ("recover", "analyze"):
        argv = f"{command} --dim 1 --n 2 --func extremal --depth 3 --p nan".split()
        assert run_cli(capsys, *argv) == (1, "", "error: p must be >= 1\n")


def test_auto_measure_accepts_its_flags_at_their_defaults(capsys):
    argv = ["recover", "--dim", "1", "--n", "2", "--func", "exp"]
    defaults = [
        "--gauss-order", str(measure.DEFAULT_GAUSS_ORDER), "--mesh-level", "0",
        "--mc-samples", str(measure.DEFAULT_MC_SAMPLES),
    ]
    assert run_cli(capsys, *argv, *defaults) == run_cli(capsys, *argv)
    assert run_cli(capsys, *argv)[0] == 0


@pytest.mark.parametrize("value", ["-inf", "-nan", "-INF", "-Infinity", "-NaN", "-1", "-0.5"])
@pytest.mark.parametrize(
    "head", ["recover --dim 3 --n 0 --p", "rates --dim 1 --n 2..3 --q", "comb --dim 1 --n 3 --alpha"]
)
def test_negative_float_values_parse_alike_in_both_spellings(capsys, head, value):
    spaced = run_cli(capsys, *head.split(), value)
    joined = run_cli(capsys, *head.split()[:-1], f"{head.split()[-1]}={value}")
    assert spaced == joined and spaced[0] == 1 and spaced[2].startswith("error: ")


class TestErrorsAndConfig:
    @pytest.mark.parametrize(
        "exc,line",
        [
            (MemoryError("Unable to allocate 760. MiB for an array with shape (11100000, 9)"),
             "error: Unable to allocate 760. MiB for an array with shape (11100000, 9)"),
            (MemoryError(), "error: out of memory"),
        ],
    )
    def test_memory_error_is_one_error_line(self, capsys, monkeypatch, exc, line):
        # a stand-in for an allocation the machine refuses: none is attempted
        def refuse(f, n):
            raise exc

        monkeypatch.setattr(cli, "analyze", refuse)
        code, out, err = run_cli(capsys, "analyze", "--dim", "9", "--n", "4")
        assert (code, out, err) == (1, "", line + "\n")

    def test_other_exceptions_still_propagate(self, monkeypatch):
        def fail(f, n):
            raise RuntimeError("not a computation error")

        monkeypatch.setattr(cli, "analyze", fail)
        with pytest.raises(RuntimeError):
            run(["analyze", "--dim", "1", "--n", "1"])

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

    @pytest.mark.parametrize("budgets", ["5..3", "5..x", "x", "3..-1", "2..", ""])
    def test_bad_budget_range_is_named(self, capsys, budgets):
        code, out, err = run_cli(capsys, "rates", "--dim", "1", "--n", budgets)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"faberkit rates: error: argument --n: bad budget range {budgets!r}"

    def test_zero_dim_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "levels", "--dim", "0", "--n", "2")
        assert code == 2
        assert "--dim" in err

    def test_unknown_func_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "recover", "--dim", "1", "--n", "2", "--func", "wat")
        assert code == 2
        assert "wat" in err

    def test_high_q_composite_recovery_has_no_second_moment_check(self, capsys):
        # composite Gauss sums |g|^q only: |g|^2q of this defect underflows to
        # 0 at q = 120, which must not fail the run (Monte Carlo alone needs it)
        code, out, err = run_cli(
            capsys, "recover", "--dim", "1", "--n", "3", "--func", "kink", "--q", "120"
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "# error=0.023166657986755303 nodes=17"

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

    def test_noncompact_budget_over_cap_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "noncompact", "--max-level", "400")
        assert code == 1
        assert err.startswith("error: budget exceeds MAX_LEVEL")
        assert out == ""

    def test_mc_samples_over_point_cap_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "recover", "--dim", "1", "--n", "2", "--func", "exp",
            "--measure", "mc", "--mc-samples", str(10**11),
        )
        assert code == 1
        assert err.startswith("error:") and "cap" in err
        assert out == ""

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


def test_default_mesh_level_is_measures_rule():
    # composite, sup and auto read one rule, measure's n + 2; auto falls
    # back to Monte Carlo, which has no mesh, only at d = 3
    for d in (1, 2, 3):
        for name in ("composite", "sup", "auto"):
            argv = ["rates", "--dim", str(d), "--n", "0..6", "--measure", name]
            factory = cli._spec_factory(cli._build_parser().parse_args(argv))
            for n in range(7):
                method = factory(n).method
                if name == "auto" and not isinstance(method, CompositeGauss):
                    assert d == 3, (n, method)
                    continue
                assert method.level == measure._default_level(n) == n + 2, (d, name, n)
