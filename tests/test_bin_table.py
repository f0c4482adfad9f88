"""Bin tables read from disk stay columns: what reads them (the text, or
the column file beside it), what consumes them, and the input checks that
ride along (compare's height consistency, MultiPolygon features,
duplicated antenna-pattern nodes)."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

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
    distance rule and to ``BIN_RULES``, and refuses before the file opens."""

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

    @pytest.mark.parametrize("column, value, message", [
        ("count", 0, "sample_count must be >= 1"),
        ("pl_db", 0.0, "path loss must be finite and > 0, got 0.0"),
        ("los", "maybe", "los must be one of ('LOS', 'NLOS', 'UNKNOWN')"),
    ])
    def test_a_bin_that_breaks_a_bin_rule_is_not_written(self, tmp_path, column, value,
                                                          message):
        table = synthesize_samples(83.33, 2.9, 6.9, 100.0, 3, (100.0, 2000.0), seed=1)
        cells = getattr(table, column).copy()
        cells[1] = value
        path = tmp_path / "bins.csv"
        with pytest.raises(ValueError) as refused:
            write_bins_csv(replace(table, **{column: cells}), path)
        assert str(refused.value) == f"bin ({table.ix[1]}, {table.iy[1]}): {message}"
        assert not path.exists()

    @pytest.mark.parametrize("lat, lon, band, message", [
        (95.0, 8.0, "3.5GHz", "latitude 95.0 outside [-90, 90]"),
        (math.nan, 8.0, "3.5GHz", "need lat and lon both set or both empty, got lat=nan, lon=8.0"),
        (47.0, math.nan, "3.5GHz",
         "need lat and lon both set or both empty, got lat=47.0, lon=nan"),
        (47.0, 8.0, "3.5\0GHz", "band must not hold a NUL, got '3.5\\x00GHz'"),
        (47.0, 8.0, "3.5\rGHz", "band must not hold a CR, got '3.5\\rGHz'"),
    ])
    def test_a_bin_the_reader_refuses_or_changes_is_not_written(self, tmp_path, lat, lon, band,
                                                                message):
        """The reader refuses a latitude outside [-90, 90], a latitude without
        a longitude and a NUL in a band, and drops a longitude without a
        latitude: the writer refuses each before the file opens."""
        table = synthesize_samples(83.33, 2.9, 6.9, 100.0, 3, (100.0, 2000.0), seed=1)
        lats, lons, bands = table.lat.copy(), table.lon.copy(), table.band.astype(object)
        lats[1], lons[1], bands[1] = lat, lon, band
        path = tmp_path / "bins.csv"
        with pytest.raises(ValueError) as refused:
            write_bins_csv(replace(table, lat=lats, lon=lons, band=bands), path)
        assert str(refused.value) == f"bin ({table.ix[1]}, {table.iy[1]}): {message}"
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


@st.composite
def written_tables(draw):
    """A table the writer takes: ``bin_tables`` with d3d_m >= d2d_m, bands of
    any text but a NUL or a CR (quoted cells included), and a negative NaN where a
    bin has no position, which the writer writes as the reader's NaN."""
    table = draw(bin_tables())
    n = len(table)
    bands = st.one_of(st.sampled_from(["", "3.5GHz", "800MHz"]),
                      st.text(st.characters(codec="utf-8", exclude_characters="\0\r"), max_size=4))
    lat, lon = (np.where(np.isnan(c), -np.nan, c) for c in (table.lat, table.lon))
    return replace(table, d3d_m=np.maximum(table.d2d_m, table.d3d_m), lat=lat, lon=lon,
                   band=np.array(draw(st.lists(bands, min_size=n, max_size=n)), dtype=str))


def parsed(path):
    """The table parsed from the text, as with no column file beside it."""
    with mock.patch.object(analysis, "_read_columns", return_value=None):
        return read_bins_csv(path)


def from_columns(path):
    """The table read from its column file: parsing the text fails."""
    with mock.patch.object(analysis, "read_csv", side_effect=AssertionError("text parsed")):
        return read_bins_csv(path)


def outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


def assert_bitwise_equal(got, want):
    """Every column of the same dtype and the same values, floats bit for
    bit (NaN payloads and signs included)."""
    assert isinstance(got, BinTable) and isinstance(want, BinTable)
    for name in analysis._BIN_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        if a.dtype.kind == "f":
            a, b = a.view(np.int64), b.view(np.int64)
        assert a.tolist() == b.tolist(), name
    assert got.grid_size == want.grid_size


def rewrite_rows(path, edit):
    """Rewrite the table's rows as ``edit`` changes them, through csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows[:1] + edit(rows[1:]))


def damage(cols: Path, kind: str, noise: bytes) -> None:
    """Damage a column file: garbage, truncated, or a header with another
    version, hash, row count (one that no memory holds included) or labels,
    or a path loss the rules refuse."""
    data = cols.read_bytes()
    line, body = data.split(b"\n", 1)
    head = json.loads(line)
    if kind == "garbage":
        data = noise
    elif kind == "truncated":
        data = data[:len(noise) % len(data)]
    elif kind == "refused value":  # pl_db of the first bin, the seventh column, is -1
        at = len(line) + 1 + 6 * 8 * head["rows"]
        data = data[:at] + np.array([-1.0], "<f8").tobytes() + data[at + 8:]
    else:
        key, value = {"version": ("version", 2), "hash": ("sha256", "0" * 64),
                      "rows": ("rows", head["rows"] + 1), "huge rows": ("rows", 10**15),
                      "labels": ("los", ["maybe"]),
                      "no labels": ("band", [])}[kind]
        data = json.dumps({**head, key: value}).encode() + b"\n" + body
    cols.write_bytes(data)


class TestColumnFile:
    """``write_bins_csv`` writes ``<path>.cols`` beside the table, and
    ``read_bins_csv`` reads it only while it holds the table's hash and
    passes the writer's checks: the result is the text's, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(written_tables())
    def test_the_column_file_reads_as_the_text(self, table):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "bins.csv"
            write_bins_csv(table, path)
            assert Path(f"{path}.cols").exists() == (len(table) > 0)
            if len(table):
                assert_bitwise_equal(from_columns(path), parsed(path))

    @settings(max_examples=60, deadline=None)
    @given(written_tables().filter(len), st.data())
    def test_an_edited_table_is_parsed_not_read_from_the_stale_file(self, table, data):
        k = data.draw(st.integers(0, len(table) - 1))
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "bins.csv"
            write_bins_csv(table, path)
            rewrite_rows(path, lambda rows: rows[:k] + [rows[k][:6] + ["1234.5"] + rows[k][7:]]
                         + rows[k + 1:])
            edited = read_bins_csv(path)
            assert edited.pl_db[k] == 1234.5
            assert_bitwise_equal(edited, parsed(path))
            write_bins_csv(table, path)
            rewrite_rows(path, lambda rows: rows[:k] + rows[k + 1:])
            dropped = read_bins_csv(path)
            assert len(dropped) == len(table) - 1
            assert_bitwise_equal(dropped, parsed(path))

    @settings(max_examples=60, deadline=None)
    @given(written_tables().filter(len),
           st.sampled_from(["garbage", "truncated", "version", "hash", "rows", "huge rows",
                            "labels", "no labels", "refused value"]),
           st.binary(max_size=200), st.booleans())
    def test_a_damaged_column_file_changes_nothing(self, table, kind, noise, refused_cell):
        """The same table, or with a refused cell in the text, the same
        refusal."""
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "bins.csv"
            write_bins_csv(table, path)
            cols = Path(f"{path}.cols")
            damage(cols, kind, noise)
            if refused_cell:
                stale = cols.read_bytes()
                rewrite_rows(path, lambda rows: [rows[0][:6] + ["-1"] + rows[0][7:]] + rows[1:])
                cols.write_bytes(stale)
            got, want = outcome(read_bins_csv, path), outcome(parsed, path)
            if refused_cell:
                assert got == want and "line 2: path loss must be finite and > 0" in got
            else:
                assert_bitwise_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(written_tables().filter(len))
    def test_the_same_table_writes_the_same_column_file(self, table):
        with tempfile.TemporaryDirectory() as directory:
            first, second = Path(directory) / "a.csv", Path(directory) / "b.csv"
            write_bins_csv(table, first)
            written = Path(f"{first}.cols").read_bytes()
            write_bins_csv(table, first)
            write_bins_csv(table, second)
            assert Path(f"{first}.cols").read_bytes() == written
            assert Path(f"{second}.cols").read_bytes() == written

    @pytest.mark.parametrize("kind", ["empty", "object int column", "256 labels"])
    def test_a_table_the_file_cannot_hold_removes_the_old_one(self, tmp_path, kind):
        table = synthesize_samples(83.33, 2.9, 6.9, 100.0, 300, (100.0, 2000.0), seed=1)
        if kind == "empty":
            table = table.take(np.zeros(len(table), dtype=bool))
        elif kind == "object int column":
            table = replace(table, count=np.array([2**70] + [1] * (len(table) - 1), dtype=object))
        else:
            table = replace(table, band=np.array([f"b{k % 256}" for k in range(len(table))]))
        path = tmp_path / "bins.csv"
        write_bins_csv(synthesize_samples(83.33, 2.9, 6.9, 100.0, 5, (100.0, 2000.0), seed=2),
                       path)
        assert Path(f"{path}.cols").exists()
        write_bins_csv(table, path)
        assert not Path(f"{path}.cols").exists()
        assert read_bins_csv(path) == parsed(path)

    @pytest.mark.parametrize("band", ["3.5GHz", 'a,"b'])  # one format string; csv.writer
    def test_the_header_names_the_hash_of_the_bytes_written(self, tmp_path, band):
        table = synthesize_samples(83.33, 2.9, 6.9, 100.0, 700, (100.0, 2000.0), seed=3)
        path = tmp_path / "bins.csv"
        write_bins_csv(replace(table, band=np.full(len(table), band)), path)
        head = json.loads(Path(f"{path}.cols").read_bytes().split(b"\n", 1)[0])
        assert head["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert read_bins_csv(path).band[0] == band

    def test_a_table_written_to_a_pipe_gets_no_column_file(self, tmp_path):
        """The table goes out whole and nothing is written beside the pipe."""
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "plkit.cli", "synth", "--n", "3", "--out", "/dev/stdout"],
            capture_output=True, text=True, timeout=120, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(",".join(analysis.BIN_FIELDS) + "\n")

    def test_an_unwritable_column_file_leaves_the_table(self, tmp_path):
        args = ["synth", "--n", 50, "--seed", 4]
        assert run(args + ["--out", tmp_path / "want.csv"]) == 0
        path = tmp_path / "bins.csv"
        Path(f"{path}.cols").mkdir()  # no file can be written there
        assert run(args + ["--out", path]) == 0
        assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert read_bins_csv(path) == read_bins_csv(tmp_path / "want.csv")


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
