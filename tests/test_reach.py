"""Every top-level function and method of ``src/plkit`` is called by a fixed
list of ``plkit`` commands, or has one documented reason to exist.

A child process installs a ``sys.setprofile`` hook before ``import plkit``
(so calls made at import count), runs the commands through ``cli.main`` and
writes the first line of every ``src/plkit`` code object called. The test
then finds each top-level ``def`` and each method of a top-level class with
``ast``: every one must have been called or sit in ``ALLOWED``, whose reason
is itself checked. A new function that no command reaches fails here.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "plkit"
GOLDEN = ROOT / "tests" / "data" / "golden"

# what no command calls, by dotted name: where its use is written down, as
# "README.md: <section>", "perfbench/<file>" or "test: <the test it is a reference of>"
LIBRARY = "README.md: Library use"
ALLOWED = {
    # the list API: records in, records out
    "analysis.BinTable.__eq__": LIBRARY,
    "analysis.BinTable.__iter__": LIBRARY,
    "analysis.BinTable.from_records": LIBRARY,
    "analysis.GridBin.__post_init__": LIBRARY,
    "geo.GridIndex.__post_init__": LIBRARY,
    "ingest.MeasurementSample.__post_init__": LIBRARY,
    "ingest.SampleTable.__iter__": LIBRARY,
    "ingest.SampleTable.from_samples": LIBRARY,
    # library functions
    "analysis.distance_profile": LIBRARY,
    "analysis.shadow_fading": LIBRARY,
    "antenna.envelope": LIBRARY,
    "antenna.synthetic_aas_beamset": LIBRARY,
    "antenna.synthetic_beam": LIBRARY,
    "models.LinkGeometry.at": LIBRARY,
    # what the benchmark generates its inputs with or traces
    "geo.LocalPoint.__post_init__": "perfbench/workloads.py",
    "geo.from_local": "perfbench/workloads.py",
    "ingest.write_samples_csv": "perfbench/workloads.py",
    "geo.point_in_ring": "perfbench/tracing.py",
    "geo.to_local": "perfbench/tracing.py",
    "ingest.ParseResult.samples": "perfbench/tracing.py",
    "models.validity_warnings": "perfbench/tracing.py",
    # the references tests compare the pipeline's numbers against
    "analysis.rmse_identity": "test: test_criterion_1_rmse_identity",
    "models.two_ray_asymptote": "test: test_asymptote_value",
}

CHILD = """
import json, sys
src, out, commands = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
called = set()

def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(hook)
from plkit import cli
codes = [cli.main(argv) for argv in commands]
sys.setprofile(None)
with open(out, "w") as fh:
    json.dump({"codes": codes, "called": sorted(called)}, fh)
"""

# the README's LOS areas: the northern half of the synthetic drive, NLOS in its north-east corner
LOS_AREAS = {"type": "FeatureCollection", "features": [
    {"type": "Feature", "properties": {"los": los}, "geometry": {
        "type": "Polygon", "coordinates": [[[w, s], [e, s], [e, n], [w, n]]]}}
    for los, (w, s, e, n) in ((True, (7.97, 47.0, 8.03, 47.02)), (False, (8.0, 47.01, 8.03, 47.02)))
]}
SCANNER_LOG = ("timestamp_ms,lat,lon,cell_id,rsrp_dbm\n"
               + "".join(f"{1000 * k},46.98{k},7.47,{300 + k % 2},-80.5\n" for k in range(1, 9)))


def commands(tmp: Path) -> list[tuple[list[str], int]]:
    """Write the inputs into ``tmp``; the commands the child runs there, each
    with the exit code it must give."""
    (tmp / "los.geojson").write_text(json.dumps(LOS_AREAS))
    (tmp / "scanner.csv").write_text(SCANNER_LOG)
    (tmp / "config.json").write_text(json.dumps({"models": ["FSPL", "SUI_A"],
                                                 "output_dir": "demo/config"}))
    bins = (GOLDEN / "bins.csv").read_text().splitlines()
    # a quoted cell sends the file through csv.reader; a count of 0 is a bad row
    (tmp / "quoted.csv").write_text("\n".join(bins[:2] + [bins[2].replace(",1,", ',"1",')]) + "\n")
    (tmp / "bad.csv").write_text("\n".join(bins[:2] + [bins[2].replace(",1,", ",0,")]) + "\n")
    site, golden_bin = "demo/site.json", GOLDEN / "bin"
    readme = [
        ["synth", "--emit", "log", "--out", "demo", "--n", "2000", "--seed", "17",
         "--gamma", "2.9", "--sigma", "6.9"],
        ["bin", "demo/testbed_log.csv", "--site", site, "--polygons", "los.geojson",
         "--out", "demo/bins.csv"],
        ["fit", "demo/bins.csv", "--out", "demo/fit.json"],
        ["fit", "demo/bins.csv", "--split", "nlos", "--distance", "2d",
         "--out", "demo/fit_nlos.json"],
        ["compare", "demo/bins.csv", "--models", "TR38901_RMA_NLOS,WINNER2_D1_NLOS,FSPL",
         "--site", site, "--out", "demo/cmp"],
        ["synth", "--out", "demo/bins_3500.csv", "--n", "2000", "--seed", "5", "--freq", "3.5",
         "--band", "3.5GHz"],
        ["synth", "--out", "demo/bins_800.csv", "--n", "2000", "--seed", "5", "--freq", "0.8",
         "--band", "800MHz"],
        ["offset", "demo/bins_3500.csv", "demo/bins_800.csv", "--out", "demo/offset.json"],
        ["o2i", str(GOLDEN / "o2i" / "manifest.json"), "--out", "demo/o2i"],
        ["models", "--out", "demo/catalog.json"],
    ]
    more = [
        ["synth", "--model", "TR38901_UMA_NLOS", "--sigma", "6", "--n", "200",
         "--out", "demo/model.csv"],
        ["bin", "scanner.csv", "--source", "scanner", "--cells", "301", "--site",
         str(golden_bin / "site.json"), "--out", "demo/scanner_bins.csv"],
        ["bin", str(golden_bin / "testbed_log.csv"), "--site", str(golden_bin / "site.json"),
         "--exclusion-mask", str(golden_bin / "mask.geojson"), "--out", "demo/masked.csv"],
        ["compare", "demo/bins.csv", "--out", "demo/all"],
        ["compare", "demo/bins.csv", "--config", "config.json"],
        ["fit", "quoted.csv", "--out", "demo/quoted.json"],
    ]
    return [(argv, 0) for argv in readme + more] + [(["fit", "bad.csv", "--out", "bad.json"], 2)]


def definitions() -> dict[tuple[str, int], str]:
    """(file, first line) of every top-level function and method of a
    top-level class in src/plkit, as a code object gives them (a decorated
    function starts at its first decorator), with its dotted name."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = [(f"{module}.{node.name}.", n) for n in node.body] if isinstance(
                node, ast.ClassDef) else [(f"{module}.", node)]
            for prefix, fn in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    found[(str(path), first)] = prefix + fn.name
    return found


def readme_section(heading: str) -> str:
    """The README text under ``## heading`` up to the next heading of its
    level or above (a ``#`` line in a code block is no heading)."""
    fenced, section = False, None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        fenced ^= line.startswith("```")
        level = len(line) - len(line.lstrip("#"))
        if not fenced and level and line[level:level + 1] == " ":
            if section is not None and level <= depth:
                break
            if line[level + 1:] == heading:
                section, depth = [], level
        elif section is not None:
            section.append(line)
    assert section is not None, f"README.md has no section {heading!r}"
    return "\n".join(section)


def _test_source(name: str) -> str:
    """The source of the test function ``name`` (a method of a test class
    too) in tests/."""
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and node.name == name:
                return ast.get_source_segment(source, node)
    raise AssertionError(f"no test function {name!r} in tests/")


def reason_text(reason: str) -> str:
    kind, _, where = reason.partition(": ")
    if kind == "README.md":
        return readme_section(where)
    if kind == "test":
        return _test_source(where)
    assert reason.startswith("perfbench/"), f"unknown reason {reason!r}"
    return (ROOT / reason).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reach")
    runs = commands(tmp)
    out = tmp / "called.json"
    child = subprocess.run([sys.executable, "-c", CHILD, str(SRC), str(out),
                            json.dumps([argv for argv, _ in runs])],
                           cwd=tmp, capture_output=True, text=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert child.returncode == 0, child.stderr
    result = json.loads(out.read_text())
    assert result["codes"] == [code for _, code in runs]
    return {(path, line) for path, line in result["called"]}


def test_every_function_is_reached_or_allowed(reached):
    names = definitions()
    unreached = sorted(name for key, name in names.items() if key not in reached)
    dead = [name for name in unreached if name not in ALLOWED]
    assert not dead, f"no command reaches {', '.join(dead)}: call it, document it or delete it"
    # an entry for a function a command reaches, or for one that is gone, is stale
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, f"stale ALLOWED entries: {', '.join(stale)}"


def mention(name: str) -> str:
    """What the text of a reason must hold: a function's name, ``.method``
    for a method, and the class for a special method (``__iter__``)."""
    parts = name.split(".")
    if len(parts) == 2 or parts[2].startswith("__"):
        return rf"\b{parts[1]}\b"
    return rf"\.{parts[2]}\b"


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_each_allowed_name_is_named_where_its_reason_says(name):
    assert re.search(mention(name), reason_text(ALLOWED[name])), (
        f"{ALLOWED[name]} does not name {name}")
