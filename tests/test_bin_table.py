"""Bin tables read from disk stay columns: what reads them, what consumes
them, and the input checks that ride along (compare's height consistency,
MultiPolygon features, duplicated antenna-pattern nodes)."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plkit import analysis, ingest, models
from plkit.analysis import (
    BinTable,
    distance_profile,
    fit_log_distance,
    frequency_offset,
    pair_bins_by_index,
    prediction_errors,
    read_bins_csv,
    shadow_fading,
    synthesize_samples,
    write_bins_csv,
)
from plkit.antenna import isotropic, load_pattern_csv, save_pattern_csv
from plkit.cli import main
from plkit.geo import GeodeticPoint, GridIndex, load_polygons, unproject

GOLDEN = Path(__file__).parent / "data" / "golden"


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def bins():
    return list(synthesize_samples(83.33, 2.9, 6.9, 100.0, 400, (40.0, 2000.0), seed=3, los="NLOS"))


@pytest.fixture
def table(bins, tmp_path):
    write_bins_csv(bins, tmp_path / "bins.csv")
    return read_bins_csv(tmp_path / "bins.csv")


class TestReadTable:
    def test_read_gives_a_table_whose_records_match_the_file(self, bins, table):
        assert isinstance(table, BinTable) and len(table) == len(bins)
        assert np.isnan(table.east).all() and np.isnan(table.rx_dbm).all()
        for got, want in zip(table, bins):
            assert got.index == want.index and got.position == want.position
            assert (got.path_loss_db, got.distance_2d_m, got.distance_3d_m) == (
                want.path_loss_db, want.distance_2d_m, want.distance_3d_m)
            assert got.centroid is None and got.median_rx_power_dbm is None

    def test_mixed_bands_read_back_row_for_row(self, bins, tmp_path):
        mixed = [replace(b, band="800MHz") if i % 3 == 0 else b for i, b in enumerate(bins)]
        first = tmp_path / "mixed.csv"
        write_bins_csv(mixed, first)
        table = read_bins_csv(first)
        assert table.band.tolist() == [b.band for b in mixed]
        assert [b.band for b in table] == [b.band for b in mixed]
        again = tmp_path / "again.csv"
        write_bins_csv(table, again)
        assert again.read_bytes() == first.read_bytes()

    def test_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(analysis.BIN_FIELDS) + "\n\n")
        table = read_bins_csv(path, grid_size=2.5)
        assert len(table) == 0 and list(table) == [] and table.grid_size == 2.5


class TestWriteOnlyWhatReadsBack:
    """``write_bins_csv`` holds each bin to the reader's path-loss and
    distance rule and refuses before the file opens."""

    @pytest.mark.parametrize("pl, d3d, d2d", [
        (100.0, -1.0, -2.0), (100.0, 50.0, 60.0), (100.0, math.inf, 50.0),
        (100.0, 50.0, 0.0),
    ])
    def test_a_bin_the_reader_refuses_is_not_written(self, tmp_path, pl, d3d, d2d):
        good = analysis.GridBin(GridIndex(0, 0), 100.0, 60.0, 50.0, 1)
        bad = analysis.GridBin(GridIndex(3, -4), pl, d3d, d2d, 1)
        path = tmp_path / "bins.csv"
        with pytest.raises(ValueError) as refused:
            write_bins_csv([good, bad], path)
        assert str(refused.value) == (
            "bin (3, -4): need a finite pl_db and finite 0 < d2d_m <= d3d_m, "
            f"got pl_db={pl}, d2d_m={d2d}, d3d_m={d3d}")
        assert not path.exists()


class TestConsumersOnTables:
    def test_table_and_records_give_the_same_results(self, bins, table):
        template = models.LinkGeometry.at(500.0, 3.5, 25.0, 1.5)
        assert fit_log_distance(table) == fit_log_distance(bins)
        assert fit_log_distance(table, use_2d=True, min_d_m=50.0) == fit_log_distance(
            bins, use_2d=True, min_d_m=50.0)
        assert prediction_errors(table, "FSPL", template) == prediction_errors(bins, "FSPL", template)
        fit = fit_log_distance(bins)
        a, b = shadow_fading(table, fit), shadow_fading(bins, fit)
        assert a.residuals_db.tolist() == b.residuals_db.tolist()
        assert a.hist_counts.tolist() == b.hist_counts.tolist()
        assert distance_profile(table, step_m=50.0) == distance_profile(bins, step_m=50.0)

    def test_distance_profile_medians(self, bins):
        got = distance_profile(bins, step_m=100.0)
        groups = {}
        for b in bins:
            groups.setdefault(math.floor(b.distance_3d_m / 100.0), []).append(b.path_loss_db)
        want = [((g + 0.5) * 100.0, float(np.median(v))) for g, v in sorted(groups.items())]
        assert got == want

    def test_pairs_are_an_array_for_tables_and_tuples_for_records(self, bins, table):
        pairs = pair_bins_by_index(table, table)
        assert isinstance(pairs, np.ndarray) and pairs.shape[1] == 2
        listed = pair_bins_by_index(bins, bins)
        assert listed == [tuple(p) for p in pairs.tolist()]
        assert frequency_offset(pairs) == frequency_offset(listed)

    def test_duplicate_cells_average_as_a_python_sum(self):
        rng = np.random.default_rng(11)
        values = (90.0 + rng.random(9) * 10.0).tolist()
        # numpy's pairwise sum orders nine terms differently; the pair must not
        assert np.mean(values) != sum(values) / len(values)
        high = [analysis.GridBin(analysis.GridIndex(4, -2), v, 120.0, 100.0, 1) for v in values]
        low = [analysis.GridBin(analysis.GridIndex(4, -2), 80.0, 120.0, 100.0, 1)]
        assert pair_bins_by_index(high, low) == [(sum(values) / len(values), 80.0)]

    def test_offset_with_no_shared_cells_exits_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        row = "{},0,47.0,8.0,150.0,152.0,100.0,1,UNKNOWN,3.5GHz\n"
        a.write_text(",".join(analysis.BIN_FIELDS) + "\n" + row.format(1))
        b.write_text(",".join(analysis.BIN_FIELDS) + "\n" + row.format(2))
        assert run(["offset", a, b, "--out", tmp_path / "o.json"]) == 2
        assert "share no grid cells" in capsys.readouterr().err


@st.composite
def bin_tables(draw):
    """A BinTable as the program makes them: each row has a whole centroid
    or none, and a whole position or none; a median power or none."""
    n = draw(st.integers(0, 8))
    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)
    def maybe(values, present):
        return np.where(present, values, np.nan)
    has_centroid, has_rx, has_pos = (
        np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        for _ in range(3))
    ints = st.integers(-10**6, 10**6)
    ix, iy = (np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)
              for _ in range(2))
    east, north, up = (maybe(column(st.floats(-5e3, 5e3)), has_centroid) for _ in range(3))
    lat, lon = (maybe(column(st.floats(-lim, lim)), has_pos) for lim in (90.0, 180.0))
    return BinTable(
        ix, iy, east, north, up, maybe(column(st.floats(-160.0, 0.0)), has_rx),
        np.array(draw(st.lists(st.integers(1, 99), min_size=n, max_size=n)), dtype=np.int64),
        column(st.floats(1e-3, 300.0)), column(st.floats(1.0, 1e4)), column(st.floats(1.0, 1e4)),
        lat, lon, np.array(draw(st.lists(st.sampled_from(analysis.LOS_LABELS), min_size=n,
                                         max_size=n)), dtype=str),
        np.array(draw(st.lists(st.sampled_from(["", "3.5GHz", "800MHz"]), min_size=n,
                               max_size=n)), dtype=str),
        grid_size=draw(st.sampled_from([5.0, 2.5, 10.0])))


class TestRecords:
    """Lists of records convert to a table once and back, column for column."""

    @settings(max_examples=60, deadline=None)
    @given(bin_tables())
    def test_grid_bins_round_trip(self, table):
        again = BinTable.from_records(list(table))
        # an empty list carries no grid size and takes the default
        assert again == (table if len(table) else replace(table, grid_size=5.0))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-400.0, 400.0), st.floats(-400.0, 400.0),
                              st.floats(-160.0, 0.0)), min_size=1, max_size=30),
           st.sampled_from([5.0, 2.5, 10.0]))
    def test_bin_aggregates_round_trip(self, points, grid_size):
        origin = GeodeticPoint(47.0, 8.0)
        east, north, rx = (np.array(c) for c in zip(*points))
        lat, lon = unproject(origin, east, north)
        n = len(points)
        samples = ingest.SampleTable(
            np.arange(1, n + 1), lat, lon, np.zeros(n), rx, np.full(n, "3.5GHz"),
            np.full(n, "TESTBED"), np.full(n, None, dtype=object), np.full(n, None, dtype=object))
        table = analysis.aggregate_bins(samples, origin, grid_size)
        aggregates = analysis.aggregate_bins(list(samples), origin, grid_size)
        assert all(isinstance(a, analysis.BinAggregate) for a in aggregates)
        assert BinTable.from_records(aggregates) == table


class TestParseResult:
    def test_samples_are_built_from_the_table_and_read_only(self):
        result = ingest.parse_testbed_log(GOLDEN / "bin" / "testbed_log.csv")
        assert len(result.samples) == len(result.table) == result.rows - result.skipped
        assert result.samples == list(result.table)
        with pytest.raises(AttributeError):
            result.samples = []

    def test_bin_builds_no_sample_records(self, tmp_path, monkeypatch):
        def no_records(*args, **kwargs):
            raise AssertionError("a MeasurementSample was built")

        monkeypatch.setattr(ingest, "MeasurementSample", no_records)
        out = tmp_path / "bins.csv"
        golden = GOLDEN / "bin"
        with pytest.warns(UserWarning):
            assert run(["bin", golden / "testbed_log.csv", "--site", golden / "site.json",
                        "--polygons", golden / "los.geojson",
                        "--exclusion-mask", golden / "mask.geojson", "--out", out]) == 0
        assert out.read_bytes() == (golden / "bins.csv").read_bytes()


class TestCompareHeights:
    def test_other_heights_warn_once_with_the_count(self, tmp_path, capsys):
        bins_path = tmp_path / "bins.csv"
        assert run(["synth", "--out", bins_path, "--n", 50, "--seed", 0, "--h-bs", 25]) == 0
        capsys.readouterr()
        assert run(["compare", bins_path, "--models", "FSPL,TR38901_UMA_NLOS",
                    "--h-bs", 35, "--out", tmp_path / "cmp"]) == 0
        warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: 50 of 50 bins have d3d_m != hypot(d2d_m, h_bs - h_ut)")

    @pytest.mark.parametrize("table", ["golden", "catalog"])
    def test_consistent_tables_stay_silent(self, tmp_path, capsys, table):
        if table == "golden":
            bins_path = GOLDEN / "bins.csv"
        else:  # as the benchmark's catalog_compare input is drawn
            bins_path = tmp_path / "bins.csv"
            assert run(["synth", "--model", "TR38901_UMA_NLOS", "--n", 500, "--seed", 1,
                        "--sigma", 6, "--d-min", 35, "--d-max", 3000, "--out", bins_path]) == 0
        capsys.readouterr()
        assert run(["compare", bins_path, "--out", tmp_path / "cmp"]) == 0
        assert "warning:" not in capsys.readouterr().err


def test_multipolygon_is_rejected_with_its_own_message(tmp_path, capsys):
    ring = [[8.0, 47.0], [8.001, 47.0], [8.001, 47.001], [8.0, 47.0]]
    doc = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {},
         "geometry": {"type": "Polygon", "coordinates": [ring]}},
        {"type": "Feature", "properties": {},
         "geometry": {"type": "MultiPolygon", "coordinates": [[ring], [ring]]}},
    ]}
    path = tmp_path / "multi.geojson"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_polygons(path)
    assert str(info.value) == "feature 1: MultiPolygon is not supported; split it into Polygon features"

    log_dir = tmp_path / "input"
    assert run(["synth", "--emit", "log", "--out", log_dir, "--n", 20, "--seed", 0]) == 0
    assert run(["bin", log_dir / "testbed_log.csv", "--site", log_dir / "site.json",
                "--polygons", path, "--out", tmp_path / "bins.csv"]) == 2
    assert "MultiPolygon is not supported" in capsys.readouterr().err


class TestPatternNodes:
    def test_duplicate_node_is_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "pattern.csv"
        save_pattern_csv(isotropic(3.0), path)
        lines = path.read_text().splitlines()
        lines.insert(5, lines[2].replace(",3.0", ",9.0"))
        path.write_text("\n".join(lines) + "\n")
        az, el, _ = lines[2].split(",")
        with pytest.raises(ValueError, match=rf"line 6: duplicate node \(azimuth {float(az)!r}, "
                                             rf"elevation {float(el)!r}\)"):
            load_pattern_csv(path)

    def test_gains_land_on_their_nodes(self, tmp_path):
        path = tmp_path / "pattern.csv"
        az = np.arange(0.0, 360.0, 90.0)
        el = np.array([-10.0, 0.0, 10.0])
        rows = [(a, e, 100 * i + j) for i, a in enumerate(az) for j, e in enumerate(el)]
        rows.reverse()  # node order in the file does not matter
        path.write_text("azimuth_deg,elevation_deg,gain_dbi\n"
                        + "".join(f"{a},{e},{g}\n" for a, e, g in rows))
        pattern = load_pattern_csv(path)
        assert pattern.azimuth_deg.tolist() == az.tolist()
        assert pattern.gain_dbi.tolist() == [[100 * i + j for j in range(3)] for i in range(4)]
