"""CLI input checks: bad inputs exit 2 with a message, never a traceback,
an empty table or a NaN in a JSON artifact; explicit flags beat the
config file."""

import json
import math
from pathlib import Path

import pytest

from plkit.analysis import read_bins_csv, write_bins_csv
from plkit.cli import main
from plkit.geo import GridIndex, LocalPoint, bin_index, load_polygons

GOLDEN = Path(__file__).parent / "data" / "golden"


def run(args):
    return main([str(a) for a in args])


def synth_bins(path, n=50, seed=0):
    assert run(["synth", "--out", path, "--n", n, "--seed", seed]) == 0


def replace_first_row(path, column, value):
    """Overwrite one column of the first data row of a bin table."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index(column)] = value
    lines[1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


class TestCompareOutputDirectory:
    def test_out_flag_beats_config_output_dir(self, tmp_path):
        bins_path = tmp_path / "bins.csv"
        synth_bins(bins_path)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"output_dir": str(tmp_path / "from_config")}))
        flag_dir = tmp_path / "from_flag"
        assert run(["compare", bins_path, "--config", config, "--models", "FSPL",
                    "--out", flag_dir]) == 0
        assert (flag_dir / "errors.json").exists()
        assert not (tmp_path / "from_config").exists()

    def test_config_output_dir_used_without_flag(self, tmp_path):
        bins_path = tmp_path / "bins.csv"
        synth_bins(bins_path)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"output_dir": str(tmp_path / "from_config")}))
        assert run(["compare", bins_path, "--config", config, "--models", "FSPL"]) == 0
        assert (tmp_path / "from_config" / "errors.json").exists()

    def test_no_output_directory_exits_2(self, tmp_path, capsys):
        bins_path = tmp_path / "bins.csv"
        synth_bins(bins_path)
        assert run(["compare", bins_path, "--models", "FSPL"]) == 2
        assert "output" in capsys.readouterr().err


class TestInputChecks:
    def test_compare_zero_curve_points_exits_2(self, tmp_path, capsys):
        bins_path = tmp_path / "bins.csv"
        synth_bins(bins_path)
        assert run(["compare", bins_path, "--out", tmp_path / "cmp", "--models", "FSPL",
                    "--curve-points", 0]) == 2
        assert "curve-points" in capsys.readouterr().err

    def test_synth_model_zero_bins_exits_2(self, tmp_path, capsys):
        bins_path = tmp_path / "bins.csv"
        assert run(["synth", "--model", "FSPL", "--n", 0, "--out", bins_path]) == 2
        assert "n must be >= 1" in capsys.readouterr().err
        assert not bins_path.exists()

    @pytest.mark.parametrize("column, value", [
        ("pl_db", "inf"),
        ("pl_db", "-inf"),
        ("pl_db", "nan"),
        ("d2d_m", "-5.0"),
        ("d2d_m", "0.0"),
        ("d3d_m", "1.0"),  # below d2d_m
        ("d3d_m", "inf"),
    ])
    def test_bad_bin_row_exits_2_with_line_number(self, tmp_path, capsys, column, value):
        bins_path = tmp_path / "bins.csv"
        synth_bins(bins_path)
        replace_first_row(bins_path, column, value)
        for command in (["fit", bins_path, "--out", tmp_path / "fit.json"],
                        ["compare", bins_path, "--out", tmp_path / "cmp", "--models", "FSPL"]):
            assert run(command) == 2
            err = capsys.readouterr().err
            assert "line 2" in err and f"{column}={value}" in err
        assert not (tmp_path / "fit.json").exists()
        assert not (tmp_path / "cmp").exists()


class TestO2iManifestShape:
    @pytest.mark.parametrize("manifest, message", [
        ([{"building_id": "1", "indoor_log": "in.csv", "outdoor_log": "out.csv"}],
         "manifest must be a JSON object"),
        ({"sessions": {"building_id": "1"}}, "'sessions' must be a list"),
        ({"sessions": ["in.csv"]}, "session 0 must be an object"),
        ({"sessions": [{"building_id": "1", "indoor_log": "in.csv", "outdoor_log": "out.csv"},
                       7]}, "session 1 must be an object"),
        *(({"sessions": [{"building_id": "A", "floor": 0, "indoor_log": "in.csv",
                          "outdoor_log": "out.csv", **session}]}, message)
          for session, message in [
              ({"floor": None}, "building A: floor must be an integer, got None"),
              ({"floor": [1]}, "building A: floor must be an integer, got [1]"),
              ({"floor": 1.7}, "building A: floor must be an integer, got 1.7"),
              ({"floor": "1.5"}, "building A: floor must be an integer, got '1.5'"),
              ({"floor": True}, "building A: floor must be an integer, got True"),
              ({"indoor_log": 3}, "building A: 'indoor_log' must be a path string, got 3"),
              ({"outdoor_log": None},
               "building A: 'outdoor_log' must be a path string, got None"),
          ]),
    ])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, manifest, message):
        path = tmp_path / "o2i.json"
        path.write_text(json.dumps(manifest))
        assert run(["o2i", path, "--out", tmp_path / "cdfs"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert not (tmp_path / "cdfs").exists()


class TestBinTableWithoutPositions:
    def test_table_without_positions_writes_back_and_reads_again(self, tmp_path):
        bins_path = tmp_path / "bins.csv"
        synth_bins(bins_path, n=6)
        lines = bins_path.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for row in rows[::2]:
            row[2] = row[3] = ""  # every other bin has no position
        bins_path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
        for table in (read_bins_csv(bins_path), read_bins_csv(bins_path).take([0, 2, 4])):
            write_bins_csv(table, tmp_path / "again.csv")
            again = read_bins_csv(tmp_path / "again.csv")
            assert again == table
        write_bins_csv(read_bins_csv(bins_path), tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == bins_path.read_bytes()


def assert_exit_2(args, capsys, out, message):
    """The command exits 2 with ``message`` on stderr, no traceback and no
    output file."""
    assert run(args) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not Path(out).exists()


def golden_bin_args(tmp_path, out, **swap):
    """``bin`` on the golden testbed log; ``swap`` replaces an input file
    (site, polygons) by the given JSON document."""
    paths = {"site": GOLDEN / "bin" / "site.json", "polygons": GOLDEN / "bin" / "los.geojson"}
    for name, doc in swap.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return ["bin", GOLDEN / "bin" / "testbed_log.csv", "--site", paths["site"],
            "--pattern", GOLDEN / "bin" / "pattern.csv", "--polygons", paths["polygons"],
            "--out", out]


class TestGridSize:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-5", "1e-300"])
    @pytest.mark.parametrize("command", ["bin", "synth"])
    def test_bin_and_synth_refuse_the_grid_size(self, tmp_path, capsys, command, value):
        out = tmp_path / "bins.csv"
        if command == "bin":
            args = golden_bin_args(tmp_path, out)
        else:
            args = ["synth", "--n", 50, "--out", out]
        assert_exit_2(args + [f"--grid-size={value}"], capsys, out, "grid_size")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["fit", "compare", "offset"])
    def test_table_readers_refuse_the_grid_size(self, tmp_path, capsys, command, value):
        bins_path = tmp_path / "bins.csv"
        synth_bins(bins_path)
        out = tmp_path / "out"
        args = {"fit": ["fit", bins_path], "compare": ["compare", bins_path, "--models", "FSPL"],
                "offset": ["offset", bins_path, bins_path]}[command]
        assert_exit_2(args + [f"--grid-size={value}", "--out", out], capsys, out,
                      "grid_size must be finite and > 0")

    def test_config_grid_size_follows_the_same_rule(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"grid_size": NaN}')
        out = tmp_path / "bins.csv"
        assert_exit_2(["synth", "--n", 50, "--config", config, "--out", out], capsys, out,
                      "grid_size must be finite and > 0")

    @pytest.mark.parametrize("size", [math.nan, math.inf, 0.0, -1.0])
    def test_grid_index_and_bin_index_share_the_rule(self, size):
        with pytest.raises(ValueError, match="grid_size must be finite and > 0"):
            GridIndex(0, 0, size)
        with pytest.raises(ValueError, match="grid_size must be finite and > 0"):
            bin_index(LocalPoint(1.0, 1.0), size)


SQUARE = [[8.0, 47.0], [8.001, 47.0], [8.001, 47.001], [8.0, 47.001], [8.0, 47.0]]


def feature(coordinates, properties=None):
    return {"type": "Feature", "properties": properties,
            "geometry": {"type": "Polygon", "coordinates": coordinates}}


class TestJsonInputs:
    @pytest.mark.parametrize("doc, message", [
        ([feature([SQUARE])], "polygon file must be a GeoJSON FeatureCollection"),
        ({"type": "FeatureCollection", "features": {"a": 1}}, "'features' must be a list"),
        ({"type": "FeatureCollection", "features": ["x"]},
         "feature 0: must be a GeoJSON Feature object"),
        ({"type": "FeatureCollection", "features": [feature([SQUARE], properties=[1])]},
         "feature 0: geometry and properties must be objects"),
        ({"type": "FeatureCollection",
          "features": [feature([SQUARE]), feature([[[8.0, "47.0"]] + SQUARE[1:]])]},
         "feature 1: coordinates must be one ring of [lon, lat] numbers"),
        ({"type": "FeatureCollection", "features": [feature([[8.0, 47.0, 1.0]])]},
         "feature 0: coordinates must be one ring of [lon, lat] numbers"),
        ({"type": "FeatureCollection", "features": [feature("ring")]},
         "feature 0: coordinates must be one ring of [lon, lat] numbers"),
    ])
    @pytest.mark.filterwarnings("ignore::UserWarning")  # the bin stage's clamping warnings
    def test_malformed_polygons_exit_2(self, tmp_path, capsys, doc, message):
        out = tmp_path / "bins.csv"
        assert_exit_2(golden_bin_args(tmp_path, out, polygons=doc), capsys, out, message)

    def test_null_properties_read_as_los(self, tmp_path):
        path = tmp_path / "p.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection",
                                    "features": [feature([SQUARE], properties=None)]}))
        assert [p.label for p in load_polygons(path)] == ["LOS"]

    @pytest.mark.parametrize("field, value", [
        ("tx_power_dbm", None),
        ("tx_power_dbm", "x"),
        ("antenna_height_agl_m", [25.0]),
        ("ue_height_m", {"m": 1.5}),
        ("boresight_azimuth_deg", "nan"),
        ("altitude_agl_m", None),
        ("feeder_loss_db", "inf"),
    ])
    def test_bad_site_field_exits_2_naming_it(self, tmp_path, capsys, field, value):
        site = json.loads((GOLDEN / "bin" / "site.json").read_text())
        site[field] = value
        out = tmp_path / "bins.csv"
        assert_exit_2(golden_bin_args(tmp_path, out, site=site), capsys, out,
                      f"site config field {field!r} must be a finite number")

    @pytest.mark.parametrize("site, message", [
        ([1, 2], "site config must be a JSON object"),
        ("pattern", "site config field 'pattern' must be a string"),
    ])
    def test_bad_site_shape_exits_2(self, tmp_path, capsys, site, message):
        if site == "pattern":
            site = json.loads((GOLDEN / "bin" / "site.json").read_text())
            site["pattern"] = None
        out = tmp_path / "bins.csv"
        assert_exit_2(golden_bin_args(tmp_path, out, site=site), capsys, out, message)

    def test_numeric_strings_in_the_site_config_still_read(self, tmp_path):
        site = json.loads((GOLDEN / "bin" / "site.json").read_text())
        site["tx_power_dbm"] = str(site["tx_power_dbm"])
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        with pytest.warns(UserWarning):
            assert run(golden_bin_args(tmp_path, want)) == 0
            assert run(golden_bin_args(tmp_path, got, site=site)) == 0
        assert got.read_bytes() == want.read_bytes()

    def test_config_must_be_an_object(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('[{"grid_size": 5}]')
        out = tmp_path / "bins.csv"
        assert_exit_2(["synth", "--config", config, "--out", out], capsys, out,
                      "config must be a JSON object")


class TestO2iFloors:
    @pytest.mark.parametrize("floor", ["2", 2, 2.0])
    def test_integral_floors_still_read(self, tmp_path, floor):
        manifest = tmp_path / "o2i.json"
        manifest.write_text(json.dumps({"sessions": [{
            "building_id": "A", "floor": floor,
            "indoor_log": str(GOLDEN / "o2i" / "indoor_A_f0.csv"),
            "outdoor_log": str(GOLDEN / "o2i" / "outdoor_A_f0.csv")}]}))
        out = tmp_path / "cdfs"
        assert run(["o2i", manifest, "--out", out]) == 0
        assert [p.name for p in out.iterdir()] == ["o2i_A_floor2.csv"]
        assert (out / "o2i_A_floor2.csv").read_bytes() == (
            GOLDEN / "o2i" / "o2i_A_floor0.csv").read_bytes()
