"""Mutated golden inputs and numeric flags through the commands that read them.

``fit``, ``compare`` and ``offset`` get a golden bin table with cells set
to ``nan``, ``inf``, ``1e308``, text or nothing, rows cut short, repeated
or cut off the end. ``bin``, ``o2i`` and ``fit`` get a golden site config,
LOS polygon file, o2i manifest or config file with one value (the top
level included) set to null, a boolean, text, a list, an object, ``NaN``,
``Infinity`` or ``1e308``. ``synth`` (with and without ``--model``),
``fit`` and ``compare`` get one to three numeric flags set to 0, -1,
``nan``, ``inf``, ``-inf``, ``1e-300`` or ``1e308``, and ``compare
--site`` a site config with numbers set to those values. Each run exits 0
or 2, never with a traceback; no CSV or JSON artifact it leaves holds a
number that is not finite, and a bin table ``synth`` writes reads back. As
in the ``plkit`` script, a warning is never raised as an error.
"""

import contextlib
import copy
import csv
import io
import itertools
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plkit.analysis import read_bins_csv
from plkit.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CELLS = ["nan", "inf", "-inf", "1e308", "-1e308", "abc", ""]


@st.composite
def mutated(draw, path: Path) -> str:
    """The table at ``path`` after one to three edits of its data lines."""
    lines = path.read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, len(lines) - 1))
        cells = lines[k].split(",")
        edit = draw(st.sampled_from(["cell", "cut row", "repeat row", "cut table"]))
        if edit == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELLS))
            lines[k] = ",".join(cells)
        elif edit == "cut row":
            lines[k] = ",".join(cells[:draw(st.integers(0, len(cells) - 1))])
        elif edit == "repeat row":
            lines.insert(k, lines[k])
        else:
            del lines[k:]
        if len(lines) < 2:
            break
    return "\n".join(lines) + "\n"


# each command: the golden tables it reads, its other flags and its output
COMMANDS = {
    "fit": ([GOLDEN / "bin" / "bins.csv"], ["--split", "nlos"], "fit.json"),
    "compare": ([GOLDEN / "bins.csv"],
                ["--models", "FSPL,TR38901_UMA_NLOS,TWO_RAY", "--curve-points", "20"], "cmp"),
    "offset": ([GOLDEN / "offset" / "bins_high.csv", GOLDEN / "offset" / "bins_low.csv"], [],
               "offset.json"),
}


def refuse(constant):
    raise ValueError(f"{constant} in a JSON artifact")


def finite_cells(path: Path) -> bool:
    """Whether every cell of a CSV file that reads as a number is finite."""
    with path.open(newline="") as fh:
        for cell in itertools.chain.from_iterable(csv.reader(fh)):
            with contextlib.suppress(ValueError):
                if not math.isfinite(float(cell)):
                    return False
    return True


def assert_exits_0_or_2(argv, tmp: Path) -> int:
    """``main(argv)`` exits 0 or 2 with no traceback, every JSON file under
    ``tmp`` is strict JSON and every CSV file holds finite numbers only
    (the inputs, ``in*``, aside); the exit code."""
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
            assert finite_cells(artifact), artifact.name
    return code


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_bin_tables_exit_0_or_2(data, command):
    tables, flags, out = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [command]
        for i, table in enumerate(tables):
            (tmp / f"in{i}.csv").write_text(data.draw(mutated(table)))
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
