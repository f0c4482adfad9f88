"""Mutated golden bin tables through the commands that read them.

``fit``, ``compare`` and ``offset`` get a golden bin table with cells set
to ``nan``, ``inf``, ``1e308``, text or nothing, rows cut short, repeated
or cut off the end. Each run exits 0 or 2, never with a traceback, and
every JSON artifact it leaves is strict JSON (no NaN or infinity). As in
the ``plkit`` script, a warning is never raised as an error.
"""

import contextlib
import io
import json
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
            argv.append(str(tmp / f"in{i}.csv"))
        argv += flags + ["--out", str(tmp / out)]
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("ignore")
            code = main(argv)
        assert code in (0, 2), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        for artifact in tmp.rglob("*.json"):
            json.loads(artifact.read_text(), parse_constant=refuse)
