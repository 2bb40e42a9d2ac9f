"""Series files: the array-pass writers and readers against the line-by-line oracles."""

import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberkit import cli, dyadic, faber
from faberkit.dyadic import levels_up_to, node_count
from faberkit.testbed import kink
from faberkit.faber import (
    FaberSeries,
    analyze,
    series_from_json,
    series_from_text,
    series_to_json,
    series_to_text,
)
from oracles import (
    per_entry_from_json,
    per_entry_to_json,
    per_line_from_text,
    per_line_to_text,
    random_series,
)


@pytest.fixture(params=[3, faber._ROWS], ids=["block3", "block-default"])
def io_block(request, monkeypatch):
    """Run the test with tiny blocks, so that blocks split levels and files."""
    monkeypatch.setattr(faber, "_ROWS", request.param)
    return request.param


def outcome(read, text):
    """What a reader makes of a file: the series' bytes, or the error's type and message."""
    try:
        s = read(text)
    except Exception as exc:  # compared, not handled
        return type(exc).__name__, str(exc)
    return "ok", (s.dim, s.budget, s.coeffs.tobytes())


def awkward_series(budget, dim, rng):
    """Random series with zeroed levels, -0.0, subnormals and magnitudes of 1e±300."""
    blocks = []
    for j in levels_up_to(budget, dim):
        kind = rng.integers(6)
        size = j.translation_count()
        if kind == 0:
            block = np.zeros(size)
        elif kind == 1:
            block = np.where(rng.random(size) < 0.5, -0.0, 0.0)
        elif kind == 2:
            block = rng.uniform(-1.0, 1.0, size) * 5e-324 * rng.integers(1, 1 << 20, size)
        else:
            block = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-300, 301, size)
        blocks.append(block)
    return FaberSeries(budget, dim, np.concatenate(blocks))


@settings(max_examples=40, deadline=None, database=None)
@given(
    d=st.integers(1, 4),
    n=st.integers(0, 4),
    block=st.sampled_from([1, 5, faber._ROWS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_writers_byte_equal_to_per_line_writers(d, n, block, seed):
    s = awkward_series(n, d, np.random.default_rng(seed))
    saved = faber._ROWS
    faber._ROWS = block
    try:
        text, doc = series_to_text(s), series_to_json(s)
    finally:
        faber._ROWS = saved
    assert text == per_line_to_text(s)
    assert doc == per_entry_to_json(s)
    assert series_from_text(text).coeffs.tobytes() == s.coeffs.tobytes()
    assert series_from_json(doc).coeffs.tobytes() == s.coeffs.tobytes()


# -- differential fuzz of the readers -------------------------------------------

TOKENS = [
    "1.0", "+1", "1_0", "٣", "１", "0x1", "nan", "inf", "-0", "01", "1e3",
    "", "abc", "-", "2", "-1", "-2", "0", "3", "7", "0.5", "-0.0", "1e400",
    str(10**30), str(-(10**30)),
]
SEPARATORS = [" ", "  ", "\t", " \t ", " ", "\x1f"]
LINE_ENDS = ["\n", "\r\n", "\r", "\x0c", "\x1e", "\x85", " ", "\n \n", "\n\t\n"]
HEADERS = [
    "dim x budget 1", "dim 2 budget", "budget 1 dim 2", "dim 0 budget 1", "dim -1 budget 2",
    "dim 2 budget -1", "dim 2 budget 40", "dim 1.0 budget 1", "dim 2 budget 1 extra",
    "dim +2 budget 01", "dim ٢ budget 1", "", "dim 3 budget 0", "dim 1 budget 4",
]


def corrupt_text(text, rnd):
    head, *lines = text.splitlines()
    rows = [ln.split() for ln in lines]
    if rnd.random() < 0.25:  # integer values, which a misaligned parse would accept
        for row in rows:
            row[-1] = str(rnd.randint(-3, 3))
    for _ in range(rnd.randint(1, 3)):
        what = rnd.randrange(10)
        at = rnd.randrange(len(rows)) if rows else 0
        if what == 0 and rows:
            del rows[at]
        elif what == 1 and rows:
            rows.insert(rnd.randrange(len(rows) + 1), list(rows[at]))
        elif what == 2 and len(rows) > 1:
            other = rnd.randrange(len(rows))
            rows[at], rows[other] = rows[other], rows[at]
        elif what in (3, 4) and rows:
            row = rows[at]
            row[rnd.randrange(len(row))] = rnd.choice(TOKENS)
        elif what == 5 and rows:
            del rows[at][rnd.randrange(len(rows[at]))]
        elif what == 6 and rows:
            rows[at].insert(rnd.randrange(len(rows[at]) + 1), rnd.choice(TOKENS))
        elif what == 7:
            head = rnd.choice(HEADERS)
        elif what == 8 and rows:
            row = rows[at]
            row[rnd.randrange(len(row))] = str(rnd.randint(-3, 40))
        elif what == 9 and rows and rows[at]:  # the token count stays right in all
            rows[rnd.randrange(len(rows))].append(rows[at].pop())
    sep, end = " ", "\n"
    if rnd.random() < 0.3:
        sep, end = rnd.choice(SEPARATORS), rnd.choice(LINE_ENDS)
    return end.join([head] + [sep.join(r) for r in rows]) + end * rnd.randrange(2)


HEADER_VALUES = [1.7, 2.0, "3", True, None, -1, 0, 40, [2], 10**30]
ENTRY_VALUES = [
    None, True, False, "2", "x", -1, 5, 1.5, [], {}, [0], [0, 0, 0, 0, 0], [-1.9], [0.5],
    [True], [10**30], [-(10**30)], ["1"], [None], 10**400, 10**30, float("nan"), -0.0, 3,
]


def corrupt_json(text, rnd):
    doc = json.loads(text)
    entries = doc["entries"]
    for _ in range(rnd.randint(1, 3)):
        what = rnd.randrange(10)
        at = rnd.randrange(len(entries)) if entries else 0
        if what in (3, 4, 5, 6) and not (entries and type(entries[at]) is dict):
            continue
        if what == 0 and entries:
            del entries[at]
        elif what == 1 and entries:
            entries.insert(rnd.randrange(len(entries) + 1), entries[at])
        elif what == 2 and len(entries) > 1:
            other = rnd.randrange(len(entries))
            entries[at], entries[other] = entries[other], entries[at]
        elif what in (3, 4):
            entries[at] = dict(entries[at])
            entries[at][rnd.choice(["j", "k", "value"])] = rnd.choice(ENTRY_VALUES)
        elif what == 5:
            key = rnd.choice(["j", "k"])
            if type(entries[at].get(key)) is not list:
                continue
            entries[at] = dict(entries[at])
            entries[at][key] = list(entries[at][key]) or [0]
            entries[at][key][rnd.randrange(len(entries[at][key]))] = rnd.choice(
                [-2, -1, 0, 1, 2, 7, 40, 10**30, 1.0, True, "0"]
            )
        elif what == 6:
            entries[at] = dict(entries[at])
            entries[at].pop(rnd.choice(["j", "k", "value"]), None)
        elif what == 7 and entries:
            entries[at] = rnd.choice([[0, 0], "x", 5, None])
        elif what == 8:
            key = rnd.choice(["dim", "budget"])
            value = rnd.choice(HEADER_VALUES)
            if key == "budget" or value != 10**30:  # a huge dim stalls node_count
                doc[key] = value
        elif what == 9:
            key = rnd.choice(["dim", "budget", "entries"])
            if rnd.random() < 0.5:
                doc.pop(key, None)
            else:
                doc[key] = rnd.choice([5, "x", {}, None])
    if rnd.random() < 0.05:
        doc = [doc]
    out = json.dumps(doc, separators=(",", ":")) if rnd.random() < 0.7 else json.dumps(doc)
    if rnd.random() < 0.05:
        out = out[: rnd.randrange(len(out))]
    return out


def loose(doc):
    """Whether a document holds a field of a JSON type series_from_json refuses.

    These are the inputs the per-entry reader coerces (a float or string
    ``dim``, ``budget``, ``j`` or ``k`` entry, a string or bool ``value``)
    or fails with TypeError on; series_from_json raises ValueError for each.
    """
    if type(doc) is not dict:
        return True
    if any(key in doc and type(doc[key]) is not int for key in ("dim", "budget")):
        return True
    if "entries" not in doc:
        return False
    if type(doc["entries"]) is not list:
        return True
    for e in doc["entries"]:
        if type(e) is not dict:
            return True
        for key in ("j", "k"):
            if key in e and (type(e[key]) is not list or any(type(v) is not int for v in e[key])):
                return True
        if "value" in e and type(e["value"]) not in (int, float):
            return True
    return False


def base_file(rnd, write):
    d, n = rnd.randint(1, 3), rnd.randint(0, 3)
    return write(random_series(n, d, np.random.default_rng(rnd.randrange(2**32))))


def test_text_reader_matches_per_line_reader_on_corrupted_files(io_block):
    rnd = random.Random(8)
    errors = 0
    for _ in range(1000):
        text = base_file(rnd, series_to_text)
        if rnd.random() < 0.9:
            text = corrupt_text(text, rnd)
        want = outcome(per_line_from_text, text)
        assert outcome(series_from_text, text) == want, text
        errors += want[0] != "ok"
    assert 700 < errors < 1000


def test_json_reader_matches_per_entry_reader_on_corrupted_files():
    rnd = random.Random(9)
    exact = departed = 0
    for _ in range(1500):
        text = base_file(rnd, series_to_json)
        if rnd.random() < 0.9:
            text = corrupt_json(text, rnd)
        want, got = outcome(per_entry_from_json, text), outcome(series_from_json, text)
        if got == want:
            exact += 1
            continue
        # the one departure: a field of another JSON type fails with ValueError
        assert loose(json.loads(text)) and got[0] == "ValueError", text
        departed += 1
    assert exact > 800 and departed > 100


# -- JSON types -----------------------------------------------------------------


def json_doc(**changes):
    doc = json.loads(series_to_json(random_series(1, 2, np.random.default_rng(3))))
    doc.update(changes)
    return doc


def with_entry(at, **fields):
    doc = json_doc()
    doc["entries"][at] = {**doc["entries"][at], **fields}
    return doc


@pytest.mark.parametrize(
    "doc,message",
    [
        (with_entry(4, value=None), r"entry 4: 'value' must be a number, got None"),
        (json_doc(entries=5), r"'entries' must be a list, got 5"),
        ([json_doc()], r"series JSON must be an object"),
        (with_entry(2, j=-1), r"entry 2: 'j' must be a list of integers, got -1"),
        (json_doc(dim=1.7), r"header 'dim' must be an integer, got 1.7"),
        (json_doc(budget=1.0), r"header 'budget' must be an integer, got 1.0"),
        (json_doc(dim=True), r"header 'dim' must be an integer, got True"),
        (with_entry(0, j=[-1.9, 0]), r"entry 0: 'j' must be a list of integers"),
        (with_entry(1, k=[0.5, 0]), r"entry 1: 'k' must be a list of integers"),
        (with_entry(3, value="2"), r"entry 3: 'value' must be a number, got '2'"),
        (with_entry(3, value=True), r"entry 3: 'value' must be a number, got True"),
        (with_entry(5, k=[True, 0]), r"entry 5: 'k' must be a list of integers"),
        (with_entry(5, k="00"), r"entry 5: 'k' must be a list of integers, got '00'"),
        (json_doc(entries=[[0, 0]]), r"entry 0 must be an object, got \[0, 0\]"),
    ],
    ids=[
        "value-null", "entries-int", "top-level-list", "j-int", "dim-float", "budget-float",
        "dim-bool", "j-float", "k-float", "value-string", "value-bool", "k-bool", "k-string",
        "entry-list",
    ],
)
def test_json_fields_of_another_type_are_value_errors(doc, message):
    with pytest.raises(ValueError, match=message):
        series_from_json(json.dumps(doc))


def test_json_type_error_comes_after_earlier_entries_checks():
    doc = json_doc()
    doc["entries"].insert(1, {**doc["entries"][0], "value": 0.5})
    doc["entries"].insert(3, {**doc["entries"][2], "value": None})
    with pytest.raises(ValueError, match="duplicate"):
        series_from_json(json.dumps(doc))


def test_json_missing_key_stays_key_error():
    doc = json_doc()
    del doc["entries"][2]["value"]
    with pytest.raises(KeyError):
        series_from_json(json.dumps(doc))


def test_json_integer_values_and_huge_ints():
    doc = json_doc()
    doc["entries"][0]["value"] = 3
    assert series_from_json(json.dumps(doc)).coeffs[0] == 3.0
    doc["entries"][0]["value"] = 10**400
    with pytest.raises(OverflowError):
        series_from_json(json.dumps(doc))
    doc = with_entry(1, j=[10**30, 0])
    with pytest.raises(ValueError, match=r"level \(10{30}, 0\) outside budget 1"):
        series_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "doc",
    [with_entry(4, value=None), json_doc(entries=5), [json_doc()], with_entry(2, j=-1)],
    ids=["value-null", "entries-int", "top-level-list", "j-int"],
)
def test_cli_reports_bad_series_json_and_exits_1(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    argv = ["recover", "--dim", "2", "--n", "1", "--func", "prescribed", "--series", str(path)]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("dim", [16, 20000, 10**6])
def test_dimension_over_node_cap_refused_by_both_readers_and_cli(dim, tmp_path, capsys):
    # m(n, d) >= 3**d: refused by the cap before any node count or entry
    files = {
        "s.txt": f"dim {dim} budget 0\n",
        "s.json": json.dumps({"dim": dim, "budget": 0, "entries": []}),
    }
    message = f"d={dim} needs at least 3\\*\\*d nodes, over the cap"
    for (name, text), read in zip(files.items(), (series_from_text, series_from_json)):
        with pytest.raises(ValueError, match=message):
            read(text)
        path = tmp_path / name
        path.write_text(text)
        argv = ["recover", "--dim", "2", "--n", "1", "--func", "prescribed", "--series", str(path)]
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cap" in err


# -- text files over several blocks -----------------------------------------------


def test_text_reader_reports_first_error_in_a_later_block(io_block):
    s = random_series(3, 2, np.random.default_rng(4))
    head, *lines = series_to_text(s).splitlines()
    late = len(lines) - 2
    for token, message in [
        ("1.0", "invalid literal for int"),
        ("x", "invalid literal for int"),
        (str(10**30), r"level \(10{30},"),
    ]:
        bad = list(lines)
        bad[late] = " ".join([token] + bad[late].split()[1:])
        bad[-1] = bad[-1] + " 7"  # a later error must not be reported first
        text = "\n".join([head] + bad)
        want = outcome(per_line_from_text, text)
        assert outcome(series_from_text, text) == want
        if "level" in message:  # the line count error comes first there
            assert want[0] == "ValueError" and "bad coefficient line" in want[1]
        else:
            assert message in want[1]


def test_text_reader_reads_valid_non_canonical_tokens(io_block):
    s = random_series(4, 1, np.random.default_rng(6))
    head, *lines = series_to_text(s).splitlines()
    rows = [ln.split() for ln in lines]
    rows[-1][1] = "+" + rows[-1][1]
    rows[-2][1] = "0" + rows[-2][1]
    rows[-3][0] = rows[-3][0].replace("4", "٤")
    text = "\r\n".join([head] + ["\t".join(r) for r in rows])
    assert series_from_text(text).coeffs.tobytes() == s.coeffs.tobytes()


# -- JSON in the writer's own layout: the token path ---------------------------------


def with_integral_values(s, rng):
    """The series with about a third of its values integral, up to 1e19 (beyond 2**53)."""
    coeffs = s.coeffs.copy()
    whole = rng.random(coeffs.size) < 0.3
    scale = 10.0 ** rng.integers(0, 20, whole.sum())
    coeffs[whole] = np.round(rng.uniform(-1.0, 1.0, whole.sum()) * scale)
    return FaberSeries(s.budget, s.dim, coeffs)


@settings(max_examples=40, deadline=None, database=None)
@given(
    d=st.integers(1, 4),
    n=st.integers(0, 4),
    block=st.sampled_from([1, 3, faber._ROWS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_token_path_reads_writer_output_as_json_loads_does(d, n, block, seed):
    rng = np.random.default_rng(seed)
    s = with_integral_values(awkward_series(n, d, rng), rng)
    text = series_to_json(s) + "\n"  # as the CLI writes it
    saved = faber._ROWS
    faber._ROWS = block  # slices of 32 * block characters split files and levels
    try:
        assert faber._json_layout(text) is not None
        fast = series_from_json(text)
    finally:
        faber._ROWS = saved
    decoded = faber._series_from_doc(json.loads(text))
    assert fast.coeffs.tobytes() == decoded.coeffs.tobytes() == s.coeffs.tobytes()


def test_token_path_keeps_exponents():
    # a translate table that blanked the "e" of "value" would split these
    values = [1e-05, -2.5e-300, 1.5e300, 5e-324, 1e16, -0.0, 123.0, 0.1, -7.2e-17]
    text = series_to_json(FaberSeries(2, 1, values))
    assert "e-05" in text and "e+300" in text and "e+16" in text
    *_, slices = faber._json_layout(text)
    read = np.concatenate([V for _, _, V in slices])
    assert read.tobytes() == np.array(values).tobytes()
    assert series_from_json(text).coeffs.tobytes() == np.array(values).tobytes()


def layout_doc():
    return series_to_json(random_series(2, 2, np.random.default_rng(13)))


def first_value(text, token):
    """The text with the first entry's value token replaced."""
    head, rest = text.split('"value":', 1)
    return head + '"value":' + token + rest[rest.index("}") :]


OUTSIDE_LAYOUT = {
    "whitespace": (lambda t: json.dumps(json.loads(t)), "ok"),
    "leading-space": (lambda t: " " + t, "ok"),
    "reordered-keys": (
        lambda t: t.replace('{"j":[-1,-1],"k":[0,0],', '{"k":[0,0],"j":[-1,-1],', 1),
        "ok",
    ),
    "capital-exponent": (lambda t: first_value(t, "1E5"), "ok"),
    "unsigned-exponent": (lambda t: first_value(t, "1e5"), "ok"),
    "integer-value": (lambda t: first_value(t, "3"), "ok"),
    "400-digit-value": (lambda t: first_value(t, "1" + "0" * 400), "OverflowError"),
    "bool-value": (lambda t: first_value(t, "true"), "ValueError"),
    "19-digit-k": (
        lambda t: t.replace('"k":[0,0]', '"k":[0,1000000000000000000]', 1),
        "ValueError",
    ),
    "leading-zero": (lambda t: first_value(t, "01.5"), "JSONDecodeError"),
    "plus-sign": (lambda t: first_value(t, "+1.5"), "JSONDecodeError"),
    "trailing-comma": (lambda t: t[: t.rindex("]")] + ",]}", "JSONDecodeError"),
    "no-entries": (lambda t: t[: t.index("[") + 1] + "]}", "ValueError"),
}


@pytest.mark.parametrize("name", OUTSIDE_LAYOUT)
def test_json_outside_the_layout_takes_json_loads_with_its_first_error(name, io_block):
    edit, kind = OUTSIDE_LAYOUT[name]
    text = edit(layout_doc())
    assert faber._json_layout(text) is None
    got = outcome(series_from_json, text)
    try:
        want = outcome(faber._series_from_doc, json.loads(text))
    except json.JSONDecodeError as exc:
        want = type(exc).__name__, str(exc)
    assert got == want and got[0] == kind
    if kind == "ok":  # json.loads reads what a layout file of those values reads
        doc = json.loads(text)
        compact = json.dumps(doc, separators=(",", ":"))
        assert got[1][2] == series_from_json(compact).coeffs.tobytes()


def test_token_path_errors_name_the_entry_as_read():
    text = layout_doc()
    for edit, message in [
        (lambda t: t.replace('"k":[0,0]', '"k":[0,-5]', 1), r"translation \(0, -5\)"),
        (lambda t: t.replace('"j":[-1,-1]', '"j":[-1,-7]', 1), r"level \(-1, -7\) outside"),
        (lambda t: t.replace('"k":[0,1]', '"k":[0,0]', 1), r"duplicate coefficient at level"),
    ]:
        bad = edit(text)
        assert faber._json_layout(bad) is not None
        with pytest.raises(ValueError, match=message):
            series_from_json(bad)
        assert outcome(series_from_json, bad) == outcome(faber._series_from_doc, json.loads(bad))


@pytest.mark.parametrize(
    "read,write",
    [
        (series_from_text, series_to_text),
        (series_from_json, series_to_json),
        (lambda text: faber._series_from_doc(json.loads(text)), series_to_json),
    ],
    ids=["text", "json", "json-decoded"],
)
def test_reader_over_the_memo_size_cap_builds_its_layout_once(read, write, monkeypatch):
    # the cap is checked by counting nodes; the layout is built by
    # _build_series, handed to the series, and never kept
    n, d = 17, 1
    assert node_count(n, d) * d > dyadic._PLAN_MEMO_POINTS
    s = FaberSeries(n, d, np.random.default_rng(17).standard_normal(node_count(n, d)))
    text = write(s)
    built = []
    layout = dyadic._Layout
    monkeypatch.setattr(dyadic, "_Layout", lambda *fields: built.append(1) or layout(*fields))
    assert read(text).coeffs.tobytes() == s.coeffs.tobytes()
    assert len(built) == 1


@pytest.mark.parametrize(
    "read,write", [(series_from_text, series_to_text), (series_from_json, series_to_json)],
    ids=["text", "json"],
)
def test_reader_peak_per_coefficient_holds_at_two_sizes(read, write, monkeypatch):
    # slices of 32 KiB, whose lines and tokens hold well under 1 MiB; the
    # slices' (J, K, V) tables hold 16 d + 8 B per coefficient and the
    # series 9 B more, so a reader that joined the slices into one more
    # table, or held every line or token, would pass 16 d + 32
    monkeypatch.setattr(faber, "_ROWS", 1 << 10)
    for n, d in ((10, 2), (12, 2), (2, 6), (3, 6)):
        s = analyze(kink(None, d), n)
        text = write(s)
        read(text)  # warm: the level layout memo
        tracemalloc.start()
        try:
            read(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (16 * d + 32) * s.size + (1 << 20), (n, d)
