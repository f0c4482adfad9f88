"""Mutated golden inputs and numeric flags through the commands that read them.

``fit``, ``compare`` and ``offset`` get a golden bin table, ``bin`` the
golden testbed log or a scanner log at the golden drive's positions, and
``o2i`` one golden indoor or outdoor sample file, each with cells set to
``nan``, ``inf``, ``1e308``, text or nothing, rows cut short, repeated or
cut off the end, a stray quote or a byte that is not UTF-8. ``bin``,
``o2i`` and ``fit`` get a golden site config, LOS polygon file, o2i
manifest or config file with one value (the top level included) set to
null, a boolean, text, a list, an object, ``NaN``, ``Infinity`` or
``1e308``. ``synth`` (with and without ``--model``), ``fit`` and
``compare`` get one to three numeric flags set to 0, -1, ``nan``,
``inf``, ``-inf``, ``1e-300`` or ``1e308``, and ``compare --site`` a site
config with numbers set to those values. Each run exits 0 or 2, never
with a traceback; no CSV or JSON artifact it leaves holds a number that
is not finite, no CSV cell holds the int64 sentinel, an exit 0 leaves no
CSV table without rows, and a bin table ``synth`` writes reads back. As in
the ``plkit`` script, a warning is never raised as an error.
"""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plkit.analysis import read_bins_csv
from plkit.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CELLS = ["nan", "inf", "-inf", "1e308", "-1e308", "abc", ""]
EDITS = ["cell", "cut row", "repeat row", "cut table", "quote", "byte"]


@st.composite
def mutated(draw, text: str) -> bytes:
    """The file ``text`` after one to three edits of its data lines, encoded."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, len(lines) - 1))
        cells = lines[k].split(",")
        edit = draw(st.sampled_from(EDITS))
        j = draw(st.integers(0, len(cells) - 1))
        if edit == "cell":
            cells[j] = draw(st.sampled_from(CELLS))
        elif edit == "quote":
            cells[j] = '"' + cells[j]
        elif edit == "byte":  # a lone surrogate: encodes as the byte 0xb5
            cells[j] += "\udcb5"
        if edit in ("cell", "quote", "byte"):
            lines[k] = ",".join(cells)
        elif edit == "cut row":
            lines[k] = ",".join(cells[:j])
        elif edit == "repeat row":
            lines.insert(k, lines[k])
        else:
            del lines[k:]
        if len(lines) < 2:
            break
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")


def scanner_log(testbed_log: Path) -> str:
    """A scanner log at the first 60 positions of a testbed log: cell 301
    and then cell 302 at each."""
    rows = ["timestamp_ms,lat,lon,cell_id,rsrp_dbm"]
    for k, line in enumerate(testbed_log.read_text().splitlines()[1:61]):
        _, lat, lon = line.split(",")[:3]
        rows += [f"{1000 * k},{lat},{lon},301,-8{k % 10}.5",
                 f"{1000 * k + 500},{lat},{lon},302,-91.0"]
    return "\n".join(rows) + "\n"


def golden_text(*parts) -> str:
    return GOLDEN.joinpath(*parts).read_text()


SITE_FILES = ["--site", GOLDEN / "bin" / "site.json", "--pattern", GOLDEN / "bin" / "pattern.csv"]
# each slice: its command, the tables it reads, its other flags and its output
TABLES = {
    "fit": ("fit", [golden_text("bin", "bins.csv")], ["--split", "nlos"], "fit.json"),
    "compare": ("compare", [golden_text("bins.csv")],
                ["--models", "FSPL,TR38901_UMA_NLOS,TWO_RAY", "--curve-points", "20"], "cmp"),
    "offset": ("offset", [golden_text("offset", "bins_high.csv"),
                          golden_text("offset", "bins_low.csv")], [], "offset.json"),
    "bin testbed": ("bin", [golden_text("bin", "testbed_log.csv")],
                    SITE_FILES + ["--polygons", GOLDEN / "bin" / "los.geojson"], "bins.csv"),
    "bin scanner": ("bin", [scanner_log(GOLDEN / "bin" / "testbed_log.csv")],
                    SITE_FILES + ["--source", "scanner", "--cells", "301"], "bins.csv"),
}


def refuse(constant):
    raise ValueError(f"{constant} in a JSON artifact")


INT64_SENTINEL = str(np.iinfo(np.int64).min)  # what a NaN cast to int64 gives


def csv_defects(path: Path, exit_code: int) -> list[str]:
    """What is wrong with a CSV artifact: a cell that reads as a number that
    is not finite, a cell holding the int64 sentinel, or no rows after an
    exit 0."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    defects = [] if exit_code or len(rows) > 1 else ["a table without rows"]
    for cell in (cell for row in rows for cell in row):
        if cell == INT64_SENTINEL:
            defects.append(f"the int64 sentinel {cell}")
        with contextlib.suppress(ValueError):
            if not math.isfinite(float(cell)):
                defects.append(f"the cell {cell!r}")
    return defects


def assert_exits_0_or_2(argv, tmp: Path) -> int:
    """``main(argv)`` exits 0 or 2 with no traceback, every JSON file under
    ``tmp`` is strict JSON, and no CSV file has a defect (the inputs,
    ``in*``, aside); the exit code."""
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("ignore")
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse refuses what a flag's type cannot read
            code = exc.code
    assert code in (0, 2), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    for artifact in tmp.rglob("*"):
        if artifact.name.startswith("in"):
            continue
        if artifact.suffix == ".json":
            json.loads(artifact.read_text(), parse_constant=refuse)
        elif artifact.suffix == ".csv":
            assert not csv_defects(artifact, code), artifact.name
    return code


@pytest.mark.parametrize("name", sorted(TABLES))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_tables_exit_0_or_2(data, name):
    command, tables, flags, out = TABLES[name]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [command]
        for i, table in enumerate(tables):
            (tmp / f"in{i}.csv").write_bytes(data.draw(mutated(table)))
            argv.append(tmp / f"in{i}.csv")
        assert_exits_0_or_2(argv + flags + ["--out", tmp / out], tmp)


VALUES = [None, True, False, "abc", [], [1.0], {}, {"a": 1}, math.nan, math.inf, -math.inf, 1e308]


def value_paths(doc, at=()):
    """The key path of every value in a JSON document, the top level's ()
    first."""
    yield at
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from value_paths(value, at + (key,))


@st.composite
def mutated_json(draw, doc):
    """``doc`` with one value, perhaps the top level, replaced from ``VALUES``."""
    doc = copy.deepcopy(doc)
    at, value = draw(st.sampled_from(list(value_paths(doc)))), draw(st.sampled_from(VALUES))
    if not at:
        return value
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    parent[at[-1]] = value
    return doc


def golden_json(*parts):
    return json.loads(GOLDEN.joinpath(*parts).read_text())


BIN = ["bin", GOLDEN / "bin" / "testbed_log.csv", "--site", GOLDEN / "bin" / "site.json",
       "--pattern", GOLDEN / "bin" / "pattern.csv"]
MANIFEST = golden_json("o2i", "manifest.json")
for session in MANIFEST["sessions"]:
    for log in ("indoor_log", "outdoor_log"):
        session[log] = str(GOLDEN / "o2i" / session[log])

# each JSON input: its golden document, and the command that reads it from
# ``path`` and writes under ``out``
JSON_INPUTS = {
    "site": (golden_json("bin", "site.json"),
             lambda path, out: BIN + ["--site", path, "--out", out / "bins.csv"]),
    "polygons": (golden_json("bin", "los.geojson"),
                 lambda path, out: BIN + ["--polygons", path, "--out", out / "bins.csv"]),
    "o2i manifest": (MANIFEST, lambda path, out: ["o2i", path, "--out", out / "cdfs"]),
    "config": ({"grid_size": 5, "d0": 100, "min_d": 100, "max_d": 1e4, "seed": 0,
                "models": "FSPL", "site": str(GOLDEN / "bin" / "site.json")},
               lambda path, out: ["fit", GOLDEN / "bin" / "bins.csv", "--config", path,
                                  "--out", out / "fit.json"]),
}


@pytest.mark.parametrize("name", sorted(JSON_INPUTS))
@settings(derandomize=True, max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_json_inputs_exit_0_or_2(data, name):
    doc, argv = JSON_INPUTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.json").write_text(json.dumps(data.draw(mutated_json(doc))))
        assert_exits_0_or_2(argv(tmp / "in.json", tmp), tmp)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_o2i_samples_exit_0_or_2(data):
    manifest = copy.deepcopy(MANIFEST)
    session = data.draw(st.sampled_from(manifest["sessions"]))
    log = data.draw(st.sampled_from(["indoor_log", "outdoor_log"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.csv").write_bytes(data.draw(mutated(Path(session[log]).read_text())))
        session[log] = str(tmp / "in.csv")
        (tmp / "in.json").write_text(json.dumps(manifest))
        assert_exits_0_or_2(["o2i", tmp / "in.json", "--out", tmp / "cdfs"], tmp)


FLAG_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e308"]
LINK = ["--freq", "--h-bs", "--h-ut", "--avg-building-height", "--avg-street-width"]
SYNTH = ["--n", "--seed", "--d-min", "--d-max", "--sigma", "--grid-size", "--lat", "--lon",
         "--tx-power", "--rx-gain"] + LINK
# each run of the flag slice: its arguments (a small --n and --curve-points),
# its numeric flags and its output
FLAG_RUNS = {
    "synth": (["synth", "--n", 20], SYNTH + ["--a0", "--gamma", "--d0"], "bins.csv"),
    "synth --model": (["synth", "--n", 20, "--model", "TR38901_RMA_NLOS"], SYNTH, "bins.csv"),
    "synth --emit log": (["synth", "--n", 20, "--emit", "log"],
                         SYNTH + ["--a0", "--gamma", "--d0"], "demo"),
    "fit": (["fit", GOLDEN / "bin" / "bins.csv"], ["--d0", "--min-d", "--max-d", "--pin-a0"],
            "fit.json"),
    "compare": (["compare", GOLDEN / "bins.csv", "--models", "FSPL,SUI_A,ECC33,TR38901_RMA_NLOS",
                 "--curve-points", 5], LINK + ["--curve-points"], "cmp"),
}


@pytest.mark.parametrize("name", sorted(FLAG_RUNS))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_numeric_flags_exit_0_or_2(data, name):
    argv, flags, out = FLAG_RUNS[name]
    chosen = data.draw(st.lists(st.sampled_from(flags), min_size=1, max_size=3, unique=True))
    argv = argv + [f"{flag}={data.draw(st.sampled_from(FLAG_VALUES))}" for flag in chosen]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        code = assert_exits_0_or_2(argv + ["--out", tmp / out], tmp)
        if code == 0 and out == "bins.csv":
            read_bins_csv(tmp / out)


SITE = golden_json("bin", "site.json")
SITE_NUMBERS = [key for key, value in SITE.items() if isinstance(value, (int, float))]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_compare_site_numbers_exit_0_or_2(data):
    site = dict(SITE, pattern=str(GOLDEN / "bin" / SITE["pattern"]))
    for key in data.draw(st.lists(st.sampled_from(SITE_NUMBERS), min_size=1, max_size=3,
                                  unique=True)):
        site[key] = float(data.draw(st.sampled_from(FLAG_VALUES)))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.json").write_text(json.dumps(site))
        assert_exits_0_or_2(FLAG_RUNS["compare"][0] + ["--site", tmp / "in.json",
                                                       "--out", tmp / "cmp"], tmp)
