"""The array-valued ``bin`` stage: a golden table, summarised warnings, and
array kernels (ring containment, pattern gain, projection) against their
per-point forms.

tests/data/golden/bin/ holds a 460-row, 4-beam testbed log, its site,
pattern, LOS polygons (two LOS, one NLOS-labelled) and exclusion mask, and
the ``bins.csv`` that the per-bin implementation wrote from them with

    plkit bin testbed_log.csv --site site.json --polygons los.geojson
        --exclusion-mask mask.geojson --out bins.csv

The log has a street 8 m from the mast (16 bins beyond the pattern's
elevation span), a sample exactly at the site, a sample alone in its cell
exactly on an LOS polygon edge and one on a vertex, cells of 8, 9 and 11
samples (numpy sums those pairwise) and two rows with no beam.
"""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plkit import analysis
from plkit.antenna import gain_at, load_pattern_csv, synthetic_beam
from plkit.cli import main
from plkit.geo import (
    GeodeticPoint,
    LocalPoint,
    Polygon,
    from_local,
    hypot,
    load_polygons,
    point_in_ring,
    points_in_ring,
    project,
    to_local,
    unproject,
)
from plkit.ingest import load_site_config, parse_testbed_log

GOLDEN = Path(__file__).parent / "data" / "golden" / "bin"
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def bin_args(out):
    return ["bin", str(GOLDEN / "testbed_log.csv"), "--site", str(GOLDEN / "site.json"),
            "--polygons", str(GOLDEN / "los.geojson"),
            "--exclusion-mask", str(GOLDEN / "mask.geojson"), "--out", str(out)]


def test_bin_reproduces_golden_table_bytes(tmp_path):
    out = tmp_path / "bins.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(bin_args(out)) == 0
    assert out.read_bytes() == (GOLDEN / "bins.csv").read_bytes()


def test_bin_over_the_log_cut_in_two_writes_the_whole_log_table(tmp_path, capsys):
    """Two logs bin as one: the golden table, and the parse counts of the
    two runs summed (each part holds one of the rows with no beam)."""
    lines = (GOLDEN / "testbed_log.csv").read_text().splitlines(keepends=True)
    parts = {"a": lines[:200], "b": lines[:1] + lines[200:]}
    for name, part in parts.items():
        (tmp_path / f"{name}.csv").write_text("".join(part))
    counts = {}
    for logs in (["testbed_log"], ["a"], ["b"], ["a", "b"]):
        args = bin_args(tmp_path / f"{'_'.join(logs)}_bins.csv")
        args[1:2] = [str(GOLDEN / "testbed_log.csv")] if logs == ["testbed_log"] else [
            str(tmp_path / f"{name}.csv") for name in logs]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(args) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        counts[tuple(logs)] = [int(n) for n in re.findall(r"\d+", summary)]
    assert (tmp_path / "a_b_bins.csv").read_bytes() == (GOLDEN / "bins.csv").read_bytes()
    assert counts[("a", "b")] == counts[("testbed_log",)] == [
        a + b for a, b in zip(counts[("a",)], counts[("b",)])]
    assert counts[("a", "b")][2] == 2  # skipped


def test_near_mast_run_warns_once_per_kind(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(bin_args(tmp_path / "bins.csv")) == 0
    messages = [str(w.message) for w in caught]
    clamps = [m for m in messages if "clamping" in m]
    at_site = [m for m in messages if "site location" in m]
    assert len(clamps) == 1 and len(at_site) == 1, messages
    assert len(messages) == 2, messages
    assert clamps[0].startswith("16 elevation(s)")
    assert "-70.92 deg" in clamps[0]
    assert at_site[0].startswith("1 bin(s)")


def test_table_and_object_paths_agree():
    site = load_site_config(GOLDEN / "site.json")
    samples = parse_testbed_log(GOLDEN / "testbed_log.csv").samples
    origin = site.site_position
    table = analysis.aggregate_bins(analysis.SampleTable.from_samples(samples), origin)
    aggregates = analysis.aggregate_bins(samples, origin)
    assert isinstance(table, analysis.BinTable)
    assert all(isinstance(a, analysis.BinAggregate) for a in aggregates)
    assert analysis.BinTable.from_records(aggregates) == table

    pattern = load_pattern_csv(GOLDEN / site.pattern_ref,
                               boresight_azimuth=site.boresight_azimuth_deg)
    polygons = load_polygons(GOLDEN / "los.geojson")
    mask = load_polygons(GOLDEN / "mask.geojson")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = analysis.extract_path_loss(table, site, pattern, band="3.5GHz")
        objects = analysis.extract_path_loss(aggregates, site, pattern, band="3.5GHz")
    assert objects == list(table)
    table = analysis.classify_los(table, polygons, origin)
    objects = analysis.classify_los(objects, polygons, origin)
    assert objects == list(table)
    # the cells of the sample on the polygon edge and of the one on its vertex
    labels = dict(zip(zip(table.ix.tolist(), table.iy.tolist()), table.los.tolist()))
    assert labels[(30, 20)] == "LOS" and labels[(40, 39)] == "LOS"
    masked = analysis.apply_exclusion_mask(table, mask, origin)
    assert 0 < len(masked) < len(table)
    assert analysis.apply_exclusion_mask(objects, mask, origin) == list(masked)


def test_tables_and_records_without_centroids_are_refused_alike():
    table = analysis.read_bins_csv(GOLDEN / "bins.csv")
    assert np.isnan(table.east).all()
    origin = load_site_config(GOLDEN / "site.json").site_position
    # a square 0.2 deg around the site covers every bin of the table
    lat, lon = origin.latitude, origin.longitude
    cover = [Polygon(tuple(GeodeticPoint(lat + a, lon + b) for a, b in
                           ((-0.1, -0.1), (-0.1, 0.1), (0.1, 0.1), (0.1, -0.1))))]
    assert (np.abs(table.lat - lat) < 0.1).all() and (np.abs(table.lon - lon) < 0.1).all()
    for bins in (table, list(table)):
        with pytest.raises(ValueError, match="bins must carry centroids for LOS classification"):
            analysis.classify_los(bins, cover, origin)
        with pytest.raises(ValueError, match="bins must carry centroids for exclusion masking"):
            analysis.apply_exclusion_mask(bins, cover, origin)


# -- ring containment --------------------------------------------------------

def reference_point_in_ring(x, y, ring, eps=1e-9):
    """Per-point even-odd test with an on-edge check, as plkit computed it
    one point at a time before the array kernel."""
    n = len(ring)
    for i in range(n):
        (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % n]
        seg = math.hypot(x2 - x1, y2 - y1)
        if seg == 0.0:
            if math.hypot(x - x1, y - y1) <= eps:
                return True
            continue
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        dot = (x - x1) * (x2 - x1) + (y - y1) * (y2 - y1)
        if abs(cross) / seg <= eps and -eps * seg <= dot <= seg * seg + eps * seg:
            return True
    inside = False
    j = n - 1
    for i in range(n):
        (xi, yi), (xj, yj) = ring[i], ring[j]
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return inside


coords = st.integers(-20, 20).map(float)


@st.composite
def ring_and_points(draw):
    """A ring on a small integer lattice (possibly self-touching) and query
    points: random ones, every vertex, and points along every edge."""
    ring = draw(st.lists(st.tuples(coords, coords), min_size=3, max_size=9))
    free = draw(st.lists(st.tuples(st.floats(-25, 25), st.floats(-25, 25)), max_size=30))
    boundary = list(ring)
    for (x1, y1), (x2, y2) in zip(ring, ring[1:] + ring[:1]):
        for t in (0.25, 0.5, draw(st.floats(0.0, 1.0))):
            boundary.append((x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    return ring, free, boundary


L_RING = [(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (1.0, 1.0), (1.0, 3.0), (0.0, 3.0)]


@PROPERTY_SETTINGS
@given(ring_and_points())
@example((L_RING, [(2.0, 2.0), (0.5, 0.5), (-0.5, 0.5), (3.0, 0.5)],
          [(0.5, 0.0), (4.0, 1.0), (1.0, 2.0), (0.0, 3.0)]))
def test_points_in_ring_equals_per_point_tests(case):
    ring, free, boundary = case
    points = free + boundary
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    got = points_in_ring(x, y, ring)
    assert got.dtype == bool and got.shape == x.shape
    assert got.tolist() == [point_in_ring(px, py, ring) for px, py in points]
    assert got.tolist() == [reference_point_in_ring(px, py, ring) for px, py in points]
    assert got[len(free):].all()  # vertices and edges count as inside


def test_point_in_ring_returns_a_bool():
    assert point_in_ring(0.5, 0.5, [(0, 0), (1, 0), (1, 1)]) is True
    assert point_in_ring(5.0, 0.5, [(0, 0), (1, 0), (1, 1)]) is False


def _on_segment(x, y, x1, y1, x2, y2, eps=1e-9):
    seg = math.hypot(x2 - x1, y2 - y1)
    if seg == 0.0:
        return hypot(x - x1, y - y1) <= eps
    cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    dot = (x - x1) * (x2 - x1) + (y - y1) * (y2 - y1)
    return (abs(cross) / seg <= eps) & (-eps * seg <= dot) & (dot <= seg * seg + eps * seg)


def per_edge_points_in_ring(x, y, ring):
    """``points_in_ring`` as it was before it skipped the points outside the
    ring's bounding box: every edge against every point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    vertices = [(float(vx), float(vy)) for vx, vy in ring]
    on_boundary = np.zeros(np.broadcast(x, y).shape, dtype=bool)
    odd = np.zeros_like(on_boundary)
    for (x1, y1), (x2, y2) in zip(vertices[-1:] + vertices[:-1], vertices):
        on_boundary |= _on_segment(x, y, x1, y1, x2, y2)
        if y1 != y2:
            x_cross = (x1 - x2) * (y - y2) / (y1 - y2) + x2
            odd ^= ((y2 > y) != (y1 > y)) & (x < x_cross)
    return on_boundary | odd


@st.composite
def ring_and_box_points(draw):
    """A ring (lattice or float vertices) and points on its vertices and
    edges, around its bounding box (within 1e-9, and either side of the
    1e-6 margin) and anywhere, NaN and infinities included."""
    vertex = st.one_of(coords, st.floats(-500.0, 500.0))
    ring = draw(st.lists(st.tuples(vertex, vertex), min_size=3, max_size=9))
    points = list(ring)
    for (x1, y1), (x2, y2) in zip(ring, ring[1:] + ring[:1]):
        t = draw(st.floats(0.0, 1.0))
        points.append((x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    (x_lo, y_lo), (x_hi, y_hi) = np.min(ring, axis=0), np.max(ring, axis=0)
    offsets = st.sampled_from([0.0, 1e-9, -1e-9, 5e-7, 1e-6, 1.0000001e-6, 2e-6, 1.0])
    for _ in range(draw(st.integers(0, 12))):
        x = draw(st.one_of(st.sampled_from([x_lo, x_hi]), st.floats(x_lo, x_hi)))
        y = draw(st.one_of(st.sampled_from([y_lo, y_hi]), st.floats(y_lo, y_hi)))
        dx, dy = draw(offsets), draw(offsets)
        points.append((x - dx if x == x_lo else x + dx, y - dy if y == y_lo else y + dy))
    points += draw(st.lists(st.tuples(st.floats(allow_nan=True), st.floats(allow_nan=True)),
                            max_size=4))
    return ring, points


@settings()  # examples from the loaded profile (tests/conftest.py)
@given(ring_and_box_points())
@example(([(0.0, 0.0), (4.0, 0.0), (4.0, 1.0)],
          [(4.0 + 1e-9, 0.5), (-1e-9, 0.0), (2.0, -1.0000001e-6), (math.nan, 0.5),
           (-math.inf, 0.5)]))
@example(([(0.0, 0.0), (4.0, 0.0), (math.nan, 1.0), (0.0, 2.0)], [(1.0, 0.5), (-1.0, 0.5)]))
def test_points_in_ring_matches_the_per_edge_loop(case):
    ring, points = case
    x, y = np.array(points).T
    with np.errstate(all="ignore"):
        want = per_edge_points_in_ring(x, y, ring)
        got = points_in_ring(x, y, ring)
        assert got.tolist() == want.tolist()
        assert points_in_ring(x.reshape(-1, 1), y[0], ring).tolist() == per_edge_points_in_ring(
            x.reshape(-1, 1), y[0], ring).tolist()


# -- pattern gain ------------------------------------------------------------

PATTERN = synthetic_beam(20.0, -3.0, azimuth_step=10.0, elevation_range=(-30.0, 30.0),
                         elevation_step=5.0)


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(st.floats(-720.0, 720.0), st.floats(-29.9, 29.9)),
                min_size=1, max_size=40))
def test_array_gain_equals_scalar_gain(directions):
    az = np.array([d[0] for d in directions])
    el = np.array([d[1] for d in directions])
    got = gain_at(PATTERN, az, el)
    assert got.tolist() == [gain_at(PATTERN, a, e) for a, e in directions]


def test_array_gain_warns_once_with_count_and_extreme():
    el = np.array([-80.0, -35.0, 0.0, 40.0, 10.0])
    with pytest.warns(UserWarning, match="clamping") as record:
        got = gain_at(PATTERN, np.zeros(5), el)
    assert len(record) == 1
    message = str(record[0].message)
    assert message.startswith("3 elevation(s)") and "-80.00 deg" in message
    assert got.tolist() == [gain_at(PATTERN, 0.0, e) for e in (-30.0, -30.0, 0.0, 30.0, 10.0)]


# -- projection --------------------------------------------------------------

def test_to_local_wraps_across_the_antimeridian():
    origin = GeodeticPoint(-17.0, 179.9)
    east_of = GeodeticPoint(-17.0, -179.9)
    lp = to_local(origin, east_of)
    want = to_local(GeodeticPoint(-17.0, 0.0), GeodeticPoint(-17.0, 0.2))
    assert lp.east == pytest.approx(want.east, rel=1e-9)
    assert 21000.0 < lp.east < 21500.0 and abs(lp.north) < 1e-6
    west_of = to_local(GeodeticPoint(-17.0, -179.9), GeodeticPoint(-17.0, 179.9))
    assert west_of.east == pytest.approx(-lp.east, rel=1e-9)
    back = from_local(origin, lp)
    assert back.longitude == pytest.approx(-179.9, abs=1e-9)

    east, north = project(origin, np.array([-17.0, -17.001]), np.array([-179.9, 179.95]))
    assert east.tolist() == [lp.east, to_local(origin, GeodeticPoint(-17.001, 179.95)).east]
    lat, lon = unproject(origin, east, north)
    assert lon == pytest.approx([-179.9, 179.95], abs=1e-9)
    assert lat == pytest.approx([-17.0, -17.001], abs=1e-9)


def test_array_projection_equals_scalar_projection(rng):
    origin = GeodeticPoint(47.37, 8.54, 2.0)
    east = rng.uniform(-3000.0, 3000.0, 200)
    north = rng.uniform(-3000.0, 3000.0, 200)
    lat, lon = unproject(origin, east, north)
    points = [from_local(origin, LocalPoint(e, n)) for e, n in zip(east.tolist(), north.tolist())]
    assert lat.tolist() == [p.latitude for p in points]
    assert lon.tolist() == [p.longitude for p in points]
    e2, n2 = project(origin, lat, lon)
    locals_ = [to_local(origin, p) for p in points]
    assert e2.tolist() == [p.east for p in locals_]
    assert n2.tolist() == [p.north for p in locals_]


def test_array_projection_names_the_first_far_point():
    origin = GeodeticPoint(47.0, 8.0)
    with pytest.raises(ValueError, match=r"point \(48.5, 8.0\) too far"):
        project(origin, np.array([47.1, 48.5, 49.0]), np.array([8.0, 8.0, 8.0]))


# -- GeoJSON -----------------------------------------------------------------

def test_polygon_with_hole_is_rejected(tmp_path):
    outer = [[8.0, 47.0], [8.01, 47.0], [8.01, 47.01], [8.0, 47.01], [8.0, 47.0]]
    hole = [[8.004, 47.004], [8.006, 47.004], [8.006, 47.006], [8.004, 47.004]]
    doc = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {},
         "geometry": {"type": "Polygon", "coordinates": [outer]}},
        {"type": "Feature", "properties": {},
         "geometry": {"type": "Polygon", "coordinates": [outer, hole]}},
    ]}
    path = tmp_path / "holes.geojson"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"feature 1: interior rings \(holes\) are not supported"):
        load_polygons(path)
