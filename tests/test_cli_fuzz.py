"""Mutated golden inputs through the commands that read them.

``fit``, ``compare`` and ``offset`` get a golden bin table with cells set
to ``nan``, ``inf``, ``1e308``, text or nothing, rows cut short, repeated
or cut off the end. ``bin``, ``o2i`` and ``fit`` get a golden site config,
LOS polygon file, o2i manifest or config file with one value (the top
level included) set to null, a boolean, text, a list, an object, ``NaN``,
``Infinity`` or ``1e308``. Each run exits 0 or 2, never with a traceback,
and every JSON artifact it leaves is strict JSON (no NaN or infinity). As
in the ``plkit`` script, a warning is never raised as an error.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def assert_exits_0_or_2(argv, tmp: Path) -> None:
    """``main(argv)`` exits 0 or 2 with no traceback, and every JSON file
    under ``tmp`` is strict JSON."""
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("ignore")
        code = main([str(a) for a in argv])
    assert code in (0, 2), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    for artifact in tmp.rglob("*.json"):
        if artifact.name != "in.json":
            json.loads(artifact.read_text(), parse_constant=refuse)


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
