"""A fuzz over the CLI's grammar: every subcommand, flag, choice and type.

Requests are drawn from ``cli._build_parser()`` itself: each subcommand's
flags, with choices from the parser and values from small pools per flag
(``POOLS``), floats from the edge values.  A flag that the parser gains
without a pool here fails the test.  The pools are small budgets, dims,
levels, samples and depths, or values far over a cap that the request
refuses before any work, so no cap-sized case ever runs; budgets shrink as
the dimension grows (``MAX_N``), and the auto measure's Monte Carlo
samples are cut to 1000 for the fuzz.  A flag that the chosen command,
``--func`` and ``--measure`` do not read is kept one time in ten, and then
its refusal is the expected error.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faberkit import cli, experiments, measure
from faberkit.cli import run

#: The largest budget drawn per dimension; other dimensions are over the
#: node cap at every budget, or not dimensions at all.
MAX_N = {1: 3, 2: 2, 3: 0, 4: 1}

#: flag -> (values, edge values), besides the parser's choices; "float"
#: serves every float flag.  An edge value is drawn one time in five.
POOLS = {
    "float": (("1", "1.5", "2", "3", "inf"), ("0", "-1", "nan", "-inf", "1e308", "1e-320")),
    "--dim": (("1", "2", "3", "4"), ("40", "0", "-1")),
    "--n": ((), ("40", "2..40", "-1", "3..1", "x")),  # small budgets come from MAX_N
    "--depth": (("0", "1", "3"), ("-1", "40")),
    "--seed": (("0", "5"), ("-1",)),
    "--anchor": (("", "0.3", "0.3,0.6"), ("nan", "0.5,x", "1")),
    "--hat-level": (("0", "1", "3"), ("-1", "40")),
    "--series": (("{tmp}/s1.txt",), ("", "{tmp}/over.txt", "{tmp}/missing.txt")),
    "--gauss-order": (("2", "5"), ("0", "101")),
    "--mesh-level": (("0", "1", "2"), ("30", "63", "-1")),
    "--mc-samples": (("1000", "1500"), ("999", "-5", "100000000000")),
    "--out": (("", "{tmp}/out"), ("{tmp}/missing/out",)),
    "--max-level": (("1", "2", "4"), ("0", "400")),
}

#: Flags always drawn: their defaults (depth 14, 200,000 samples) are too large.
ALWAYS = ("--depth", "--mc-samples")

#: The measure and function flags, in the order the CLI refuses them, and
#: those each --measure or --func value reads (a smooth function reads none;
#: auto reads --seed for its Monte Carlo fallback); the study commands read
#: --p themselves.
MEASURE_FLAGS = ("--gauss-order", "--mesh-level", "--mc-samples")
FUNCTION_FLAGS = ("--p", "--depth", "--seed", "--anchor", "--hat-level", "--series")
READS = {
    "composite": ("--gauss-order", "--mesh-level"),
    "sup": ("--mesh-level",),
    "mc": ("--mc-samples", "--seed"),
    "auto": ("--seed",),
    "extremal": ("--p", "--depth", "--seed"),
    "spike": ("--depth", "--seed"),
    "kink": ("--anchor",),
    "hat": ("--hat-level",),
    "prescribed": ("--series",),
}

#: Error lines of a request refused for a node, mesh or sup-grid cap.
CAP_ERROR = re.compile(r"over the cap|exceeds the cell budget|composite Gauss supports d <= 3")

STUDIES = ("recover", "rates", "widths", "cubature")


def subparsers():
    (action,) = (a for a in cli._build_parser()._actions if a.dest == "command")
    return action.choices


def pick(draw, pool, small=()):
    """A value of pool, or of small; an edge value one time in five."""
    values, edges = pool
    if draw(st.sampled_from(range(5))) == 2:
        return draw(st.sampled_from(edges))
    return draw(st.sampled_from(values + small))


@st.composite
def requests(draw):
    """argv of one request: usually a subcommand with some of its flags."""
    head = draw(st.sampled_from(("sub",) * 12 + ("--print-config", "bogus", "none")))
    if head != "sub":
        return [] if head == "none" else [head]
    name = draw(st.sampled_from(sorted(subparsers())))
    dim = pick(draw, POOLS["--dim"])
    top = MAX_N.get(int(dim), 1)
    lo = draw(st.integers(0, top))
    hi = draw(st.integers(lo, top))
    drawn = []
    for action in subparsers()[name]._actions:
        flag = action.option_strings[0]
        if flag == "-h" or flag not in ALWAYS and (
            draw(st.sampled_from(range(10))) == 5 if action.required else draw(st.booleans())
        ):
            continue  # a required flag is left out one time in ten, another one in two
        if flag == "--dim":
            value = dim
        elif action.choices is not None:
            value = draw(st.sampled_from(sorted(action.choices)))
        elif flag == "--n":  # a range where the parser takes one, else a single budget
            small = f"{lo}..{hi}" if action.type is cli._budget_range else str(lo)
            value = pick(draw, POOLS[flag], (small,))
        else:
            value = pick(draw, POOLS["float" if action.type is float else flag])
        drawn.append((flag, value))
    argv = [name]
    chosen = (dict(drawn).get(f"--{kind}", subparsers()[name].get_default(kind)) for kind in ("func", "measure"))
    unread = unread_flags(name, *chosen)
    for flag, value in drawn:
        if flag in unread and draw(st.sampled_from(range(10))) != 5:
            continue  # a flag that is not read is kept one time in ten
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


def unread_flags(command, func, measure):
    """The flags that neither ``command``, ``func`` nor ``measure`` reads, in
    the order the CLI refuses them; ``measure`` is None where there is none."""
    read = set(READS.get(func, ()) + READS.get(measure, ()))
    if command in ("recover", "rates", "widths"):
        read |= {"--p"}
    flags = FUNCTION_FLAGS if measure is None else MEASURE_FLAGS + FUNCTION_FLAGS
    return [flag for flag in flags if flag not in read]


def refusals(argv):
    """The error lines that refuse argv's unread flags at non-default values,
    one per such flag, in the order the CLI checks them; argv must parse."""
    parser = subparsers().get(argv[0]) if argv else None
    if parser is None or parser.get_default("func") is None:
        return []
    args = parser.parse_args(argv[1:])
    chosen = {"func": args.func, "measure": getattr(args, "measure", None)}
    lines = []
    for flag in unread_flags(argv[0], chosen["func"], chosen["measure"]):
        dest = flag[2:].replace("-", "_")
        value = getattr(args, dest)
        if value != parser.get_default(dest):
            kind = "measure" if flag in MEASURE_FLAGS else "func"
            hint = "; use --measure mc|composite|sup" if chosen[kind] == "auto" else ""
            named = f"--{kind} {chosen[kind]}"
            if flag == "--seed" and chosen["measure"] is not None:  # mc and auto read it too
                named += f" or --measure {chosen['measure']}"
            lines.append(f"error: {flag} {value} is not read by {named}{hint}")
    return lines


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "s1.txt").write_text("dim 1 budget 1\n-1 0 1.0\n-1 1 2.5\n0 0 -0.2\n1 0 0.1\n1 1 0.0\n")
    (path / "over.txt").write_text("dim 1 budget 40")
    return path


#: Requests refused for each cap, with only flags that are read; the fuzz
#: draws few of them.
CAP_REFUSALS = (
    "cubature --dim=1 --n=2..40",
    "rates --dim=1 --n=2..40 --q=inf",
    "rates --dim=1 --n=2..3 --measure=composite --mesh-level=30",
    "rates --dim=2 --n=1..2 --q=inf --measure=sup --mesh-level=30",
    "widths --dim=4 --n=1..2 --measure=composite",
)


def with_examples(test):
    for argv in CAP_REFUSALS:
        test = example(argv=argv.split())(test)
    return test


def run_patched(argv):
    """run(argv) with the auto measure's samples cut to 1000: its exit code,
    its stderr lines and the budgets that analyze was called at."""
    analyze, called = experiments.analyze, []

    def analyze_spy(f, n):
        called.append(n)
        return analyze(f, n)

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        mp.setattr(experiments, "analyze", analyze_spy)
        mp.setattr(measure, "DEFAULT_MC_SAMPLES", 1000)
        code = run(argv)
    return code, err.getvalue().splitlines(), called


@pytest.mark.parametrize("argv", CAP_REFUSALS)
def test_cap_examples_are_refused_for_a_cap_before_analyze(argv):
    code, lines, called = run_patched(argv.split())
    assert code == 1 and len(lines) == 1 and CAP_ERROR.search(lines[0])
    assert called == []


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@with_examples
@given(argv=requests())
def test_every_request_exits_0_1_or_2(tmp, argv):
    argv = [a.replace("{tmp}", str(tmp)) for a in argv]
    code, lines, called = run_patched(argv)
    assert code in (0, 1, 2)
    assert not any("Traceback" in line for line in lines)
    expected = [] if code == 2 else refusals(argv)
    if expected:  # refused for the first unread flag, before any work
        assert code == 1 and lines[0] == expected[0]
        assert called == []
    else:
        assert not any("is not read by" in line for line in lines)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if argv[0] in STUDIES and CAP_ERROR.search(lines[0]):
            assert called == []  # refused before its first budget
