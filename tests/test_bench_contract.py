"""What the benchmark under perfbench/ relies on in plkit.

The tracer wraps plkit functions by name for traced passes, and the input
generators write ``from_local`` results with ``!r``. A refactor that
renames a wrapped function or returns numpy scalars from the scalar
projection fails here rather than in a benchmark run.
"""

import sys
from pathlib import Path

from plkit import models
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
