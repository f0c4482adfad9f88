import json
import math

import numpy as np
import pytest

from plkit.analysis import GridBin, aggregate_bins, classify_los
from plkit.geo import (
    GeodeticPoint,
    GridIndex,
    LocalPoint,
    Polygon,
    from_local,
    hypot,
    link_angles,
    load_polygons,
    point_in_ring,
    to_local,
)
from plkit.ingest import MeasurementSample

WGS84_A = 6378137.0
WGS84_E2 = (1 / 298.257223563) * (2 - 1 / 298.257223563)


def meridian_arc_per_degree(lat_deg):
    """Independent oracle: truncated meridian arc-length series (m/deg)."""
    lat = math.radians(lat_deg)
    return 111132.954 - 559.822 * math.cos(2 * lat) + 1.175 * math.cos(4 * lat)


def parallel_arc_per_degree(lat_deg):
    """Independent oracle: R_N * cos(lat) per degree of longitude."""
    lat = math.radians(lat_deg)
    rn = WGS84_A / math.sqrt(1 - WGS84_E2 * math.sin(lat) ** 2)
    return rn * math.cos(lat) * math.pi / 180.0


def winding_number_inside(x, y, ring):
    """Independent oracle: nonzero winding number (for simple polygons
    equivalent to even-odd away from the boundary)."""
    wn = 0
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if y1 <= y:
            if y2 > y and cross > 0:
                wn += 1
        elif y2 <= y and cross < 0:
            wn -= 1
    return wn != 0


class TestValidation:
    def test_latitude_range(self):
        with pytest.raises(ValueError):
            GeodeticPoint(91.0, 0.0)

    def test_longitude_range(self):
        with pytest.raises(ValueError):
            GeodeticPoint(0.0, -181.0)

    def test_local_point_finite(self):
        with pytest.raises(ValueError):
            LocalPoint(float("nan"), 0.0)

    def test_grid_size_positive(self):
        with pytest.raises(ValueError):
            GridIndex(0, 0, 0.0)

    def test_polygon_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon((GeodeticPoint(0, 0), GeodeticPoint(0, 1)))

    def test_polygon_rejects_closed_ring(self):
        with pytest.raises(ValueError):
            Polygon((
                GeodeticPoint(0, 0), GeodeticPoint(0, 1),
                GeodeticPoint(1, 1), GeodeticPoint(0, 0),
            ))


class TestProjection:
    def test_identity(self):
        origin = GeodeticPoint(46.95, 7.44, 12.0)
        lp = to_local(origin, origin)
        assert lp == LocalPoint(0.0, 0.0, 0.0)

    def test_meridian_arc(self):
        # 0.001 deg of latitude northward at 47N
        lp = to_local(GeodeticPoint(47.0, 8.0), GeodeticPoint(47.001, 8.0))
        expected = meridian_arc_per_degree(47.0) * 0.001
        assert lp.north == pytest.approx(expected, abs=0.2)
        assert lp.north == pytest.approx(111.2, abs=0.2)
        assert abs(lp.east) < 1e-9

    def test_parallel_arc(self):
        lp = to_local(GeodeticPoint(47.0, 8.0), GeodeticPoint(47.0, 8.001))
        expected = parallel_arc_per_degree(47.0) * 0.001
        assert lp.east == pytest.approx(expected, abs=0.2)
        assert lp.east == pytest.approx(75.9, abs=0.2)
        assert abs(lp.north) < 1e-9

    def test_altitude_difference(self):
        lp = to_local(GeodeticPoint(47.0, 8.0, 5.0), GeodeticPoint(47.0, 8.0, 17.5))
        assert lp.up == pytest.approx(12.5)

    def test_rejects_far_points(self):
        with pytest.raises(ValueError):
            to_local(GeodeticPoint(47.0, 8.0), GeodeticPoint(48.5, 8.0))

    def test_round_trip(self, rng):
        origin = GeodeticPoint(46.95, 7.44, 3.0)
        for _ in range(200):
            p = LocalPoint(*rng.uniform(-4000, 4000, 2), rng.uniform(-50, 50))
            back = to_local(origin, from_local(origin, p))
            assert back.east == pytest.approx(p.east, abs=1e-6)
            assert back.north == pytest.approx(p.north, abs=1e-6)
            assert back.up == pytest.approx(p.up, abs=1e-9)


class TestDistances:
    """The ground distance of link_angles, and the slant distance as
    extract_path_loss takes it: hypot of ground distance and height gap."""

    def test_colocated(self):
        horiz, _, _ = link_angles(0.0, 0.0, 0.0)
        assert horiz == 0.0
        assert hypot(horiz, 0.0) == 0.0

    def test_pythagoras(self):
        # 300 m ground, heights 29.4 and 1.4 -> sqrt(300^2 + 28^2)
        dz = 1.4 - 29.4
        horiz, _, _ = link_angles(0.0, 300.0, dz)
        assert hypot(horiz, dz) == pytest.approx(math.sqrt(300**2 + 28**2))
        assert hypot(horiz, dz) == pytest.approx(301.30, abs=0.005)

    def test_pure_vertical(self):
        dz = 2.1 - 24.5
        horiz, _, _ = link_angles(0.0, 0.0, dz)
        assert hypot(horiz, dz) == pytest.approx(22.4)

    def test_symmetry_and_bounds(self, rng):
        a, b = rng.uniform(-1000, 1000, (2, 2, 100))
        dz = rng.uniform(0, 70, 100) - rng.uniform(0, 70, 100)  # antenna tops above ground
        horiz, _, _ = link_angles(*(b - a), dz)
        back, _, _ = link_angles(*(a - b), -dz)
        d = hypot(horiz, dz)
        assert d == pytest.approx(hypot(back, -dz))
        assert (d >= np.abs(dz) - 1e-12).all()
        assert (d >= horiz - 1e-12).all()


class TestAzimuthElevation:
    def test_due_north_level(self):
        _, az, el = link_angles(0.0, 100.0, 0.0)
        assert az == pytest.approx(0.0)
        assert el == pytest.approx(0.0)

    def test_due_east_depressed(self):
        _, az, el = link_angles(100.0, 0.0, 2.1 - 24.5)
        assert az == pytest.approx(90.0)
        assert el == pytest.approx(math.degrees(math.atan2(-22.4, 100.0)))
        assert el == pytest.approx(-12.63, abs=0.005)

    def test_due_south(self):
        _, az, _ = link_angles(0.0, -50.0, 0.0)
        assert az == pytest.approx(180.0)

    def test_bearing_matches_request(self, rng):
        bearing = rng.uniform(0, 360, 100)
        r = rng.uniform(1, 2000, 100)
        _, az, _ = link_angles(r * np.sin(np.radians(bearing)), r * np.cos(np.radians(bearing)),
                               0.0)
        assert ((0.0 <= az) & (az <= 360.0)).all()
        diff = (az - bearing + 180.0) % 360.0 - 180.0
        assert (np.abs(diff) < 1e-9).all()


ORIGIN = GeodeticPoint(47.0, 8.0)


def one_sample_bin(east, north, grid_size=5.0):
    """The bin aggregate_bins makes of one sample at east/north m from ORIGIN."""
    sample = MeasurementSample(timestamp_ms=1000, received_power_dbm=-80.0, band="3.5GHz",
                               source="TESTBED",
                               position=from_local(ORIGIN, LocalPoint(east, north)))
    [aggregate] = aggregate_bins([sample], ORIGIN, grid_size)
    return aggregate


class TestBinIndex:
    def test_origin(self):
        assert one_sample_bin(0.0, 0.0).index == GridIndex(0, 0)

    def test_floor_negative(self):
        assert one_sample_bin(12.3, -0.1).index == GridIndex(2, -1)

    def test_boundary_interior(self):
        assert one_sample_bin(4.999, 4.999).index == GridIndex(0, 0)

    def test_translation_consistency(self, rng):
        for _ in range(200):
            east, north = rng.uniform(-500, 500, 2)
            g = rng.uniform(0.5, 20.0)
            base = one_sample_bin(east, north, g)
            shifted = one_sample_bin(east + g, north, g)
            assert (shifted.index.ix, shifted.index.iy) == (base.index.ix + 1, base.index.iy)
            # floor convention on the projected position, the one-sample centroid
            c = base.centroid
            assert base.index == GridIndex(math.floor(c.east / g), math.floor(c.north / g), g)


L_SHAPE = [(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (1.0, 1.0), (1.0, 3.0), (0.0, 3.0)]


class TestPointInPolygon:
    def test_unit_square_center(self):
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        assert point_in_ring(0.5, 0.5, square)

    def test_far_point(self):
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        assert not point_in_ring(2.83, 2.83, square)

    def test_boundary_counts_inside(self):
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        assert point_in_ring(0.5, 0.0, square)
        assert point_in_ring(1.0, 1.0, square)

    def test_matches_winding_oracle_l_shape(self, rng):
        for _ in range(1000):
            x, y = rng.uniform(-1, 5), rng.uniform(-1, 4)
            assert point_in_ring(x, y, L_SHAPE) == winding_number_inside(x, y, L_SHAPE)

    def test_matches_winding_oracle_random_polygons(self, rng):
        # star-shaped rings around the origin are always simple
        for _ in range(30):
            n = rng.integers(3, 12)
            angles = np.sort(rng.uniform(0, 2 * math.pi, n))
            radii = rng.uniform(0.5, 3.0, n)
            ring = [(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, angles)]
            for _ in range(30):
                x, y = rng.uniform(-3.5, 3.5, 2)
                assert point_in_ring(x, y, ring) == winding_number_inside(x, y, ring)

    def test_geodetic_polygon(self):
        poly = Polygon((
            GeodeticPoint(47.000, 8.000),
            GeodeticPoint(47.000, 8.010),
            GeodeticPoint(47.010, 8.010),
            GeodeticPoint(47.010, 8.000),
        ))
        site = GeodeticPoint(47.003, 8.002)
        bins = [GridBin(GridIndex(i, 0), 120.0, 300.0, 300.0, 1, centroid=to_local(site, p))
                for i, p in enumerate([GeodeticPoint(47.005, 8.005), GeodeticPoint(47.020, 8.005)])]
        assert [b.los for b in classify_los(bins, [poly], site)] == ["LOS", "NLOS"]


class TestGeoJson:
    def test_load_feature_collection(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {"los": True},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[
                            [8.0, 47.0], [8.01, 47.0], [8.01, 47.01], [8.0, 47.01], [8.0, 47.0],
                        ]],
                    },
                },
                {
                    "type": "Feature",
                    "properties": {"los": False},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[
                            [8.02, 47.0], [8.03, 47.0], [8.03, 47.01], [8.02, 47.0],
                        ]],
                    },
                },
            ],
        }
        path = tmp_path / "polys.geojson"
        path.write_text(json.dumps(doc))
        polys = load_polygons(path)
        assert len(polys) == 2
        assert polys[0].label == "LOS"
        assert polys[1].label == "NLOS"
        # lon/lat order in GeoJSON maps to (latitude, longitude) fields
        assert polys[0].vertices[0].latitude == 47.0
        assert polys[0].vertices[0].longitude == 8.0
        assert len(polys[0].vertices) == 4

    def test_rejects_non_feature_collection(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text(json.dumps({"type": "Feature"}))
        with pytest.raises(ValueError):
            load_polygons(path)
