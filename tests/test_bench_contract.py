"""What the benchmark under perfbench/ relies on in plkit.

The tracer wraps plkit functions by name for traced passes, counts what
they return, and the input generators write ``from_local`` results with
``!r``. A refactor that renames a wrapped function, returns something the
counters cannot measure, or returns numpy scalars from the scalar
projection fails here rather than in a benchmark run.
"""

import io
import sys
from pathlib import Path

from plkit import analysis, ingest, models
from plkit.geo import GeodeticPoint, LocalPoint, from_local, to_local

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def patched_targets():
    for owner, attr, _ in tracing.SPANS + tracing.POINTS:
        yield owner, attr
    for mid, info in models.MODEL_CATALOG.items():
        if info.evaluate is not None:
            yield models.MODEL_CATALOG, mid


def current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_tracer_installs_and_restores_every_name():
    for owner, attr in patched_targets():
        assert (attr in owner) if isinstance(owner, dict) else hasattr(owner, attr), attr
    before = [(owner, attr, current(owner, attr)) for owner, attr in patched_targets()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        changed = [attr for owner, attr, value in before if current(owner, attr) is not value]
    finally:
        tracer.uninstall()
    assert len(changed) == len(before)
    for owner, attr, value in before:
        assert current(owner, attr) is value, attr


def test_scalar_projection_returns_python_floats():
    origin = GeodeticPoint(47.37, 8.54)
    p = from_local(origin, LocalPoint(1234.5, -678.9, 1.5))
    assert type(p.latitude) is float and type(p.longitude) is float
    assert type(p.altitude_agl) is float
    assert "np.float64" not in f"{p.latitude!r},{p.longitude!r}"
    lp = to_local(origin, p)
    assert type(lp.east) is float and type(lp.north) is float


GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def test_results_support_what_the_tracer_counts():
    """Row accounting, ``len(result.samples)`` and ``len(result)`` on the
    parse, read and pairing results."""
    scanner = "timestamp_ms,lat,lon,cell_id,rsrp_dbm\n1000,47.0,8.0,12,-80.0\n1001,47.0,8.0,13,-80.0\n"
    for result in (ingest.parse_testbed_log(GOLDEN / "bin" / "testbed_log.csv"),
                   ingest.parse_scanner_log(io.StringIO(scanner), [12])):
        total = result.rows - result.skipped - result.filtered
        assert total > 0 and len(result.samples) == total
    table = analysis.read_bins_csv(GOLDEN / "offset" / "bins_high.csv")
    assert len(table) == 41
    pairs = analysis.pair_bins_by_index(
        table, analysis.read_bins_csv(GOLDEN / "offset" / "bins_low.csv"))
    assert len(pairs) == 30
