"""Byte-identical CLI contract: every README command against stored output.

Each case runs one command through ``cli.run`` in a fresh directory and
compares its stdout and every file it writes with the bytes stored under
``tests/golden/<case>/``.  The stored files were captured once from a
known-good revision; a change to the package must reproduce them, never
regenerate them.

Capture (only from a revision whose outputs are the reference)::

    PYTHONPATH=src python tests/test_golden_cli.py DEST_DIR
"""

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import pytest

from faberkit import cli
from faberkit.cli import run

GOLDEN = Path(__file__).parent / "golden"

#: case name -> argv; relative paths are resolved in the case's directory,
#: ``{golden}`` in the stored reference directory.
CASES = {
    "levels": ["levels", "--dim", "2", "--n", "1"],
    "analyze": ["analyze", "--dim", "2", "--n", "4", "--func", "exp", "--out", "series.txt"],
    "recover": ["recover", "--dim", "1", "--n", "6", "--func", "kink", "--q", "2"],
    "rates": [
        "rates", "--dim", "1", "--p", "2", "--q", "2", "--func", "extremal",
        "--depth", "14", "--n", "4..12", "--seed", "7", "--out", "rates.csv",
    ],
    "widths": [
        "widths", "--dim", "1", "--p", "2", "--q", "2", "--func", "extremal",
        "--depth", "12", "--n", "4..10", "--out", "widths.csv",
    ],
    "cubature": ["cubature", "--dim", "2", "--func", "x2", "--n", "2..10", "--out", "cub.csv"],
    "comb": ["comb", "--alpha", "1", "--dim", "2", "--n", "10..20"],
    "noncompact": ["noncompact", "--max-level", "8", "--out", "report.json"],
    "print-config": ["--print-config"],
    "analyze-d3-json": [
        "analyze", "--dim", "3", "--n", "3", "--func", "poly-mix",
        "--format", "json", "--out", "s3.json",
    ],
    "recover-mc": [
        "recover", "--dim", "3", "--n", "2", "--func", "prescribed",
        "--series", "{golden}/analyze-d3-json/s3.json",
        "--measure", "mc", "--mc-samples", "20000", "--seed", "5",
    ],
    "analyze-d2-extremal": [
        "analyze", "--dim", "2", "--n", "6", "--func", "extremal", "--depth", "6", "--seed", "3",
    ],
    "analyze-d2-spike": [
        "analyze", "--dim", "2", "--n", "7", "--func", "spike", "--depth", "7", "--seed", "11",
    ],
    "rates-d4-mc": [
        "rates", "--dim", "4", "--func", "exp", "--n", "1..3", "--measure", "mc",
        "--mc-samples", "4000", "--seed", "2", "--out", "rates.csv",
    ],
}


def run_case(name: str, workdir: Path, golden: Path) -> dict[str, bytes]:
    """Run one case in ``workdir``; return its stdout and written files."""
    argv = [a.replace("{golden}", str(golden)) for a in CASES[name]]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = run(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{name} exited {code}"
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return {"stdout": out.getvalue().encode(), **files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    stored = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
    assert run_case(name, tmp_path, GOLDEN) == stored


def test_one_parser_serves_a_usage_error_then_golden_commands(tmp_path, capsys):
    cli._build_parser.cache_clear()
    assert run(["levels", "--dim", "0", "--n", "2"]) == 2
    assert "--dim" in capsys.readouterr().err
    for name in ("analyze", "recover"):
        (tmp_path / name).mkdir()
        stored = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
        assert run_case(name, tmp_path / name, GOLDEN) == stored
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def capture(dest: Path) -> None:
    dest = dest.resolve()
    for name in CASES:
        case_dir = dest / name
        if case_dir.exists():
            shutil.rmtree(case_dir)
        case_dir.mkdir(parents=True)
        for fname, data in run_case(name, case_dir, dest).items():
            if fname == "stdout":
                (case_dir / fname).write_bytes(data)


if __name__ == "__main__":
    capture(Path(sys.argv[1]))
