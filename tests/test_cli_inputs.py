"""CLI input checks: bad inputs exit 2 with a message, never a traceback,
an empty table or a NaN in a JSON artifact; explicit flags beat the
config file."""

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from plkit.analysis import (BIN_FIELDS, aggregate_bins, prediction_errors, read_bins_csv,
                            synthesize_samples, write_bins_csv)
from plkit.cli import main
from plkit.geo import GeodeticPoint, GridIndex, load_polygons
from plkit.ingest import SampleTable, read_samples_csv
from plkit.models import LinkGeometry, predict_series

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
              ({"floor": None}, "building A: floor must be a whole number, got None"),
              ({"floor": [1]}, "building A: floor must be a whole number, got [1]"),
              ({"floor": 1.7}, "building A: floor must be a whole number, got 1.7"),
              ({"floor": "1.5"}, "building A: floor must be a whole number, got '1.5'"),
              ({"floor": True}, "building A: floor must be a whole number, got True"),
              ({"indoor_log": 3}, "building A: 'indoor_log' must be a string, got 3"),
              ({"outdoor_log": None},
               "building A: 'outdoor_log' must be a string, got None"),
              *(({"building_id": bad}, f"building {bad}: building_id must be a string or a "
                                       f"whole number, got {bad!r}")
                for bad in (None, True, [1], {"id": 1}, 1.5)),
          ]),
        # each (building, floor) names one output file
        *(({"sessions": [
            {"building_id": "B01", "floor": 0, "indoor_log": "a.csv", "outdoor_log": "b.csv"},
            {"indoor_log": "c.csv", "outdoor_log": "d.csv", **session}]}, message)
          for session, message in [
              ({"building_id": "B01", "floor": 0}, "building B01: floor 0 is listed twice"),
              ({"building_id": "B01", "floor": "0"}, "building B01: floor 0 is listed twice"),
              ({"building_id": "B01"}, "building B01: floor 0 is listed twice"),
              ({"building_id": "../x", "floor": 1},
               "building ../x: building_id must not hold '/', '\\' or NUL"),
              ({"building_id": "a\\b"}, "building_id must not hold '/', '\\' or NUL"),
              ({"building_id": "a\0b"}, "building_id must not hold '/', '\\' or NUL"),
              # o2i_B01_floor<309 digits>.csv, o2i_<300 b>_floor0.csv
              ({"building_id": "B01", "floor": 1e308},
               "building B01: floor too long for the output file name (over 255 bytes)"),
              ({"building_id": "b" * 300}, f"building {'b' * 300}: building_id too long for "
                                           "the output file name (over 255 bytes)"),
          ]),
    ])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, manifest, message):
        path = tmp_path / "o2i.json"
        path.write_text(json.dumps(manifest))
        assert run(["o2i", path, "--out", tmp_path / "cdfs"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert not (tmp_path / "cdfs").exists()


class TestO2iSessionsNameOneFileEach:
    @pytest.mark.parametrize("second", [{"building_id": "A", "floor": 0},
                                        {"building_id": "../A", "floor": 1}])
    def test_refused_before_any_file_is_written(self, tmp_path, capsys, second):
        logs = {"indoor_log": str(GOLDEN / "o2i" / "indoor_A_f0.csv"),
                "outdoor_log": str(GOLDEN / "o2i" / "outdoor_A_f0.csv")}
        manifest = tmp_path / "o2i.json"
        manifest.write_text(json.dumps({"sessions": [
            {"building_id": "A", "floor": 0, **logs}, {**second, **logs}]}))
        out = tmp_path / "cdfs"
        assert_exit_2(["o2i", manifest, "--out", out], capsys, out,
                      f"{manifest}: building {second['building_id']}: ")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["o2i.json"]


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

    @pytest.mark.parametrize("command", ["fit", "compare", "offset"])
    def test_table_readers_take_no_grid_size(self, tmp_path, capsys, command):
        """Only synth and bin make cells; the readers refuse the flag and
        ignore the config key, as any key a command has no option for."""
        bins_path = tmp_path / "bins.csv"
        synth_bins(bins_path)
        out = tmp_path / "out"
        args = {"fit": ["fit", bins_path], "compare": ["compare", bins_path, "--models", "FSPL"],
                "offset": ["offset", bins_path, bins_path]}[command] + ["--out", out]
        with pytest.raises(SystemExit) as exit_:
            run(args + ["--grid-size", "5"])
        assert exit_.value.code == 2 and not out.exists()
        assert "unrecognized arguments: --grid-size" in capsys.readouterr().err
        config = tmp_path / "c.json"
        config.write_text('{"grid_size": 7}')
        assert run(args + ["--config", config]) == 0

    @pytest.mark.parametrize("size", [math.nan, math.inf, 0.0])
    def test_read_bins_csv_checks_the_grid_size_before_the_file(self, tmp_path, size):
        header_only = tmp_path / "bins.csv"
        header_only.write_text(",".join(BIN_FIELDS) + "\n")
        for path in (header_only, tmp_path / "missing.csv"):
            with pytest.raises(ValueError, match=r"^grid_size must be finite and > 0"):
                read_bins_csv(path, grid_size=size)

    def test_config_grid_size_follows_the_same_rule(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"grid_size": NaN}')
        out = tmp_path / "bins.csv"
        assert_exit_2(["synth", "--n", 50, "--config", config, "--out", out], capsys, out,
                      "config key 'grid_size' must be a finite number, got nan")

    @pytest.mark.parametrize("size", [math.nan, math.inf, 0.0, -1.0])
    def test_grid_index_and_aggregate_bins_share_the_rule(self, size):
        with pytest.raises(ValueError, match="grid_size must be finite and > 0"):
            GridIndex(0, 0, size)
        with pytest.raises(ValueError, match="grid_size must be finite and > 0"):
            aggregate_bins(SampleTable.from_samples([]), GeodeticPoint(47.0, 8.0), size)


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

    @pytest.mark.parametrize("los", ["false", None, 0])
    @pytest.mark.filterwarnings("ignore::UserWarning")  # the bin stage's clamping warnings
    def test_los_property_that_is_not_a_boolean_exits_2(self, tmp_path, capsys, los):
        doc = {"type": "FeatureCollection",
               "features": [feature([SQUARE], {"los": True}), feature([SQUARE], {"los": los})]}
        out = tmp_path / "bins.csv"
        assert_exit_2(golden_bin_args(tmp_path, out, polygons=doc), capsys, out,
                      f"feature 1: property 'los' must be true or false, got {los!r}")

    @pytest.mark.parametrize("field, value", [
        ("tx_power_dbm", None),
        ("tx_power_dbm", "x"),
        ("antenna_height_agl_m", [25.0]),
        ("ue_height_m", {"m": 1.5}),
        ("boresight_azimuth_deg", "nan"),
        ("altitude_agl_m", None),
        ("feeder_loss_db", "inf"),
        ("rx_gain_dbi", True),
        ("feeder_loss_db", False),
    ])
    def test_bad_site_field_exits_2_naming_it(self, tmp_path, capsys, field, value):
        site = json.loads((GOLDEN / "bin" / "site.json").read_text())
        site[field] = value
        out = tmp_path / "bins.csv"
        assert_exit_2(golden_bin_args(tmp_path, out, site=site), capsys, out,
                      f"site config field {field!r} must be a finite number")

    @pytest.mark.parametrize("field", ["antenna_height_agl_m", "ue_height_m"])
    @pytest.mark.parametrize("height", [1000.5, 1e308])
    def test_site_height_above_1000_m_exits_2_naming_it(self, tmp_path, capsys, field, height):
        site = json.loads((GOLDEN / "bin" / "site.json").read_text())
        site[field] = height
        out = tmp_path / "bins.csv"
        assert_exit_2(golden_bin_args(tmp_path, out, site=site), capsys, out,
                      f"{field} {height!r} outside (0, 1000]")

    @pytest.mark.parametrize("altitude", [1000.5, -1000.5, 1e308])
    def test_site_altitude_beyond_1000_m_exits_2_naming_it(self, tmp_path, capsys, altitude):
        """An altitude of 1e308 made bin write an infinite d3d_m."""
        site = json.loads((GOLDEN / "bin" / "site.json").read_text())
        site["altitude_agl_m"] = altitude
        out = tmp_path / "bins.csv"
        assert_exit_2(golden_bin_args(tmp_path, out, site=site), capsys, out,
                      f"altitude_agl {altitude!r} outside [-1000, 1000]")

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


class TestConfigValueTypes:
    @pytest.mark.parametrize("command, config, message", [
        ("synth", {"grid_size": None}, "'grid_size' must be a finite number, got None"),
        ("synth", {"seed": True}, "'seed' must be a whole number, got True"),
        ("synth", {"d0": "1e2x"}, "'d0' must be a finite number, got '1e2x'"),
        ("synth", {"grid_size": "nan"}, "'grid_size' must be a finite number, got 'nan'"),
        ("synth", {"min_d": [1]}, "'min_d' must be a finite number, got [1]"),
        ("compare", {"models": 5}, "'models' must be a string or a list of strings, got 5"),
        ("compare", {"models": ["FSPL", 5]}, "'models' must be a string or a list of strings"),
        ("compare", {"site": 5}, "'site' must be a string, got 5"),
        ("compare", {"output_dir": ["a"]}, "'output_dir' must be a string, got ['a']"),
    ])
    def test_a_value_of_the_wrong_type_exits_2_naming_the_key(self, tmp_path, capsys, command,
                                                              config, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        args = [command, "--config", path, "--out", out]
        if command == "compare":
            synth_bins(tmp_path / "bins.csv")
            args.insert(1, tmp_path / "bins.csv")
        assert_exit_2(args, capsys, out, f"config key {message}")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", ["grid_size", "d0", "min_d", "max_d", "seed"])
    def test_a_nan_or_infinity_literal_exits_2_naming_the_key(self, tmp_path, capsys, key,
                                                              literal):
        path = tmp_path / "c.json"
        path.write_text(f'{{"{key}": {literal}}}')
        out = tmp_path / "bins.csv"
        rule = "a whole number" if key == "seed" else "a finite number"
        assert_exit_2(["synth", "--n", 50, "--config", path, "--out", out], capsys, out,
                      f"config key {key!r} must be {rule}, got {float(literal)!r}")

    def test_numbers_written_as_strings_still_read(self, tmp_path):
        outputs = []
        for d0, grid_size, seed in (("100", "5", "3"), (100, 5, 3)):
            path = tmp_path / "c.json"
            path.write_text(json.dumps({"d0": d0, "grid_size": grid_size, "seed": seed}))
            out = tmp_path / f"{len(outputs)}.csv"
            assert main(["synth", "--config", str(path), "--out", str(out), "--n", "20"]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


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


    @pytest.mark.parametrize("building_id", [7, 7.0, "7"])
    def test_a_whole_building_id_names_its_file_in_decimal(self, tmp_path, building_id):
        manifest = tmp_path / "o2i.json"
        manifest.write_text(json.dumps({"sessions": [{
            "building_id": building_id,
            "indoor_log": str(GOLDEN / "o2i" / "indoor_A_f0.csv"),
            "outdoor_log": str(GOLDEN / "o2i" / "outdoor_A_f0.csv")}]}))
        out = tmp_path / "cdfs"
        assert run(["o2i", manifest, "--out", out]) == 0
        assert [p.name for p in out.iterdir()] == ["o2i_7_floor0.csv"]


def bad_line(src, dst, line, column, value):
    """Copy the CSV ``src`` to ``dst`` with one cell of file line ``line``
    replaced."""
    lines = Path(src).read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[column] = value
    lines[line - 1] = ",".join(cells)
    Path(dst).write_text("\n".join(lines) + "\n")
    return dst


SCANNER_LOG = ("timestamp_ms,lat,lon,cell_id,rsrp_dbm\n"
               + "".join(f"{1000 * k},46.98{k},7.47,301,-80.5\n" for k in range(1, 6)))


class TestRefusalsNameTheFile:
    """A CSV or JSON input read by path is named in its refusal."""

    def test_bin_over_two_logs_names_the_bad_one(self, tmp_path, capsys):
        log = GOLDEN / "bin" / "testbed_log.csv"
        good = bad_line(log, tmp_path / "a.csv", 2, 0, "1000")
        bad = bad_line(log, tmp_path / "b.csv", 5, 0, "x")
        out = tmp_path / "bins.csv"
        args = ["bin", good, bad, "--site", GOLDEN / "bin" / "site.json",
                "--pattern", GOLDEN / "bin" / "pattern.csv", "--out", out]
        assert_exit_2(args, capsys, out,
                      f"error: {bad}: line 5: invalid literal for int() with base 10: 'x'")

    @pytest.mark.parametrize("text, message", [
        (SCANNER_LOG.replace("-80.5\n", "x\n", 2), "line 2: could not convert string to float"),
        ("timestamp_ms,lat,lon,rsrp_dbm\n1000,47,8,-80\n",
         "expected header timestamp_ms,lat,lon,cell_id,rsrp_dbm"),
    ], ids=["row", "header"])
    def test_a_scanner_log_is_named(self, tmp_path, capsys, text, message):
        log = tmp_path / "scan.csv"
        log.write_text(text)
        out = tmp_path / "bins.csv"
        args = ["bin", log, "--source", "scanner", "--cells", "301",
                "--site", GOLDEN / "bin" / "site.json",
                "--pattern", GOLDEN / "bin" / "pattern.csv", "--out", out]
        assert_exit_2(args, capsys, out, f"error: {log}: {message}")

    @pytest.mark.parametrize("command", ["fit", "bin"])
    def test_a_byte_that_is_not_utf8_names_the_file(self, tmp_path, capsys, command):
        src = GOLDEN / "bin" / ("bins.csv" if command == "fit" else "testbed_log.csv")
        path = tmp_path / "in.csv"
        path.write_bytes(src.read_bytes().replace(b"\n", b"\n\xb5", 1))
        out = tmp_path / "out.json"
        args = [command, path, "--out", out]
        if command == "bin":
            args += ["--site", GOLDEN / "bin" / "site.json"]
        assert_exit_2(args, capsys, out, f"error: {path}: 'utf-8' codec can't decode byte 0xb5")

    def test_a_field_over_the_csv_limit_exits_2(self, tmp_path, capsys):
        path = bad_line(GOLDEN / "bin" / "bins.csv", tmp_path / "bins.csv", 3, 9,
                        "x" * (csv.field_size_limit() + 1))
        out = tmp_path / "fit.json"
        assert_exit_2(["fit", path, "--out", out], capsys, out,
                      f"error: field larger than field limit ({csv.field_size_limit()})")

    @pytest.mark.parametrize("flag", ["--polygons", "--site", "--config"])
    @pytest.mark.filterwarnings("ignore::UserWarning")  # the bin stage's clamping warnings
    def test_malformed_json_names_its_file(self, tmp_path, capsys, flag):
        path = tmp_path / "in.json"
        path.write_text('{"type": "FeatureCollection",\n')
        out = tmp_path / "bins.csv"
        args = golden_bin_args(tmp_path, out)
        if flag in args:
            args[args.index(flag) + 1] = path
        else:
            args += [flag, path]
        assert_exit_2(args, capsys, out, f"error: {path}: Expecting")

    def test_a_malformed_o2i_manifest_names_its_file(self, tmp_path, capsys):
        path = tmp_path / "o2i.json"
        path.write_text('{"sessions": [')
        out = tmp_path / "cdfs"
        assert_exit_2(["o2i", path, "--out", out], capsys, out, f"error: {path}: Expecting")


class TestBandCells:
    """A NUL in a band cell, which a numpy string column would drop, is
    refused with its line; checked after every other cell of a chunk."""

    def test_bin_table(self, tmp_path):
        path = bad_line(GOLDEN / "bin" / "bins.csv", tmp_path / "bins.csv", 3, 9, "x\0")
        with pytest.raises(ValueError) as info:
            read_bins_csv(path)
        assert str(info.value) == f"{path}: line 3: band must not hold a NUL, got 'x\\x00'"
        bad_line(path, path, 3, 8, "MAYBE")
        with pytest.raises(ValueError, match="line 3: los must be one of"):
            read_bins_csv(path)

    def test_sample_file(self, tmp_path):
        path = bad_line(GOLDEN / "o2i" / "indoor_A_f0.csv", tmp_path / "s.csv", 2, 5, "\0x\0")
        with pytest.raises(ValueError) as info:
            read_samples_csv(path)
        assert str(info.value) == f"{path}: line 2: band must not hold a NUL, got '\\x00x\\x00'"
        bad_line(path, path, 2, 6, "PHONE")
        with pytest.raises(ValueError, match="line 2: source must be one of"):
            read_samples_csv(path)


class TestNanLinkParameters:
    """A NaN height or fit distance is refused by its own name, not by what
    it would break further on."""

    @pytest.mark.parametrize("command, flag", [
        (["synth"], "--h-bs"),
        (["synth", "--emit", "log"], "--h-bs"),
        (["synth"], "--h-ut"),
        (["synth", "--model", "FSPL"], "--h-ut"),
        (["compare", GOLDEN / "bins.csv", "--models", "FSPL"], "--h-bs"),
    ], ids=["synth", "synth-log", "synth-h-ut", "synth-model", "compare"])
    def test_a_nan_height(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        assert_exit_2(command + [flag, "nan", "--out", out], capsys, out,
                      f"error: h_{flag[-2:]}_m nan outside (0, 1000]")

    @pytest.mark.parametrize("flag, message", [
        ("--d0", "d0_m must be > 0, got nan"),
        ("--min-d", "min_d_m must be a number, got nan"),
        ("--max-d", "max_d_m must be a number, got nan"),
    ])
    def test_a_nan_fit_distance(self, tmp_path, capsys, flag, message):
        out = tmp_path / "fit.json"
        assert_exit_2(["fit", GOLDEN / "bin" / "bins.csv", flag, "nan", "--out", out], capsys,
                      out, f"error: {message}")


COMPARE = ["compare", GOLDEN / "bins.csv", "--models", "FSPL,SUI_A,TR38901_RMA_NLOS"]
SYNTH_RMA = ["synth", "--n", 20, "--model", "TR38901_RMA_NLOS"]


class TestLinkParameterBounds:
    """Each link parameter has one rule, which the flags, a site config and
    LinkGeometry share: finite, heights in (0, 1000] m, the carrier in
    (0, 3000] GHz. A value outside it is refused by name before a model
    overflows on it."""

    @pytest.mark.parametrize("command, flag, value, message", [
        (COMPARE, "--freq", "inf", "f_ghz inf outside (0, 3000]"),
        (COMPARE, "--freq", "1e308", "f_ghz 1e+308 outside (0, 3000]"),
        (COMPARE, "--h-bs", "1e308", "h_bs_m 1e+308 outside (0, 1000]"),
        (COMPARE, "--h-ut", "1e308", "h_ut_m 1e+308 outside (0, 1000]"),
        (COMPARE, "--avg-building-height", "1e308",
         "avg_building_height_m 1e+308 outside (0, 1000]"),
        (COMPARE, "--h-bs", "inf", "h_bs_m inf outside (0, 1000]"),
        (COMPARE, "--avg-building-height", "inf", "avg_building_height_m inf outside (0, 1000]"),
        (COMPARE, "--avg-street-width", "inf", "avg_street_width_m must be finite and > 0, got inf"),
        (SYNTH_RMA, "--h-bs", "1e308", "h_bs_m 1e+308 outside (0, 1000]"),
        (SYNTH_RMA, "--h-ut", "1e308", "h_ut_m 1e+308 outside (0, 1000]"),
        (SYNTH_RMA, "--avg-building-height", "1e308",
         "avg_building_height_m 1e+308 outside (0, 1000]"),
        (SYNTH_RMA, "--h-bs", "inf", "h_bs_m inf outside (0, 1000]"),
        (["synth", "--n", 20], "--freq", "inf", "f_ghz inf outside (0, 3000]"),
    ], ids=["compare-freq-inf", "compare-freq-1e308", "compare-h-bs-1e308",
            "compare-h-ut-1e308", "compare-building-1e308", "compare-h-bs-inf",
            "compare-building-inf", "compare-street-inf", "synth-rma-h-bs-1e308",
            "synth-rma-h-ut-1e308", "synth-rma-building-1e308", "synth-rma-h-bs-inf",
            "synth-freq-inf"])
    def test_a_flag_outside_its_rule(self, tmp_path, capsys, command, flag, value, message):
        out = tmp_path / "out"
        assert_exit_2(command + [flag, value, "--out", out], capsys, out, f"error: {message}")

    def test_a_site_carrier_outside_its_rule(self, tmp_path, capsys):
        site = json.loads((GOLDEN / "bin" / "site.json").read_text())
        site["carrier_freq_ghz"] = 1e308
        (tmp_path / "site.json").write_text(json.dumps(site))
        out = tmp_path / "cmp"
        assert_exit_2(COMPARE + ["--site", tmp_path / "site.json", "--out", out], capsys, out,
                      "carrier_freq_ghz 1e+308 outside (0, 3000]")

    def test_a_tiny_mast_height_does_not_overflow_rural_macro(self, tmp_path):
        out = tmp_path / "cmp"
        assert run(["compare", GOLDEN / "bins.csv", "--models", "TR38901_RMA_NLOS",
                    "--h-bs", "1e-300", "--out", out]) == 0
        assert json.loads((out / "errors.json").read_text())[0]["model"] == "TR38901_RMA_NLOS"

    @pytest.mark.parametrize("bound", [1000.0, 3000.0])
    def test_the_site_config_and_the_link_share_each_bound(self, suburban_site, bound):
        fields = {1000.0: [("antenna_height_agl_m", "h_bs_m"), ("ue_height_m", "h_ut_m")],
                  3000.0: [("carrier_freq_ghz", "f_ghz")]}[bound]
        link = {"f_ghz": 3.5, "h_bs_m": 25.0, "h_ut_m": 1.5}
        for site_field, key in fields:
            for value in (bound, math.nextafter(bound, math.inf)):
                site_ok = accepted(lambda: replace(suburban_site, **{site_field: value}))
                link_ok = accepted(lambda: LinkGeometry.at(100.0, **{**link, key: value}))
                assert site_ok == link_ok == (value == bound)


class TestPathLossRule:
    """Synthesis and the bin reader refuse the same path losses: the rule
    is finite and > 0."""

    @pytest.mark.parametrize("flag", ["--gamma", "--a0"])
    def test_synth_refuses_an_infinite_path_loss(self, tmp_path, capsys, flag):
        out = tmp_path / "bins.csv"
        assert_exit_2(["synth", "--n", 5, flag, "inf", "--out", out], capsys, out,
                      "error: path loss must be finite and > 0, got inf")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_fit_refuses_a_pin_a0_that_is_not_finite(tmp_path, capsys, value):
    out = tmp_path / "fit.json"
    assert_exit_2(["fit", GOLDEN / "bin" / "bins.csv", f"--pin-a0={value}", "--out", out],
                  capsys, out, f"error: pin_a0_db must be finite, got {float(value)}")


def accepted(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


class TestSynthInputs:
    @pytest.mark.parametrize("model", [[], ["--model", "FSPL"]], ids=["law", "model"])
    def test_an_infinite_distance_range_exits_2(self, tmp_path, capsys, model):
        out = tmp_path / "bins.csv"
        assert_exit_2(["synth", "--n", 50, "--d-max", "inf", "--out", out] + model, capsys, out,
                      "error: --d-max inf outside (0, 100000]")

    @pytest.mark.parametrize("flags, message", [
        (["--emit", "log", "--d-max", "1e308"], "--d-max 1e+308 outside (0, 100000]"),
        (["--emit", "log", "--d-max", "1e160"], "--d-max 1e+160 outside (0, 100000]"),
        (["--model", "FSPL", "--d-max", "1e308"], "--d-max 1e+308 outside (0, 100000]"),
        (["--d-min", "2e5", "--d-max", "3e5"], "--d-min 200000.0 outside (0, 100000]"),
        (["--d0", "1e308"], "--d0 1e+308 outside (0, 100000]"),
    ], ids=["log-1e308", "log-1e160", "model", "d-min", "d0"])
    def test_a_distance_over_the_bound_is_refused_by_its_flag(self, tmp_path, capsys, flags,
                                                              message):
        """Before the bound, --d-max 1e308 overflowed d3d**2 and blamed the grid size."""
        out = tmp_path / "out"
        assert_exit_2(["synth", "--n", 20, "--out", out] + flags, capsys, out,
                      f"error: {message}\n")

    def test_the_distance_bound_is_inclusive(self, tmp_path):
        out = tmp_path / "bins.csv"
        assert run(["synth", "--n", 20, "--d-max", "1e5", "--d0", "1e5", "--out", out]) == 0

    def test_a_library_distance_range_is_held_to_the_bound(self):
        with pytest.raises(ValueError) as refused:
            synthesize_samples(80.0, 3.0, 0.0, 100.0, 5, (100.0, 1e308), seed=0)
        assert str(refused.value) == ("invalid distance range (100.0, 1e+308): "
                                      "need 0 < min < max <= 100000 m")

    @pytest.mark.parametrize("flags", [["--rx-gain", "nan"], ["--tx-power", "nan"],
                                       ["--h-ut", "-1"], ["--tx-power", "90", "--gamma", "0.5"]])
    def test_emit_log_writes_nothing_before_its_checks(self, tmp_path, capsys, flags):
        out = tmp_path / "demo"
        assert run(["synth", "--emit", "log", "--n", 50, "--out", out] + flags) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("model", [[], ["--model", "FSPL"]], ids=["law", "model"])
    def test_a_2d_distance_lost_to_rounding_exits_2(self, tmp_path, capsys, model):
        """The reader refuses d2d_m 0, so synth writes no such bin."""
        out = tmp_path / "bins.csv"
        # just above the 23.5 m height gap (log-distance law), or far below it
        distances = ["1e-300", "2000"] if model else ["23.500000000000004", "23.50000000000001"]
        assert_exit_2(["synth", "--n", 5, "--d-min", distances[0], "--d-max", distances[1],
                       "--out", out] + model, capsys, out,
                      "minimum distance too small: a bin's d2d_m rounds to 0")

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_a_bad_d0_is_named(self, tmp_path, capsys, value):
        out = tmp_path / "bins.csv"
        assert_exit_2(["synth", "--n", 5, f"--d0={value}", "--out", out], capsys, out,
                      f"error: --d0 must be > 0, got {float(value)}")

    @pytest.mark.parametrize("d_min", ["-inf", "0", "-5", "nan"])
    @pytest.mark.parametrize("model", [[], ["--model", "FSPL"]], ids=["law", "model"])
    def test_a_bad_minimum_distance_is_refused_alike(self, tmp_path, capsys, model, d_min):
        out = tmp_path / "bins.csv"
        assert_exit_2(["synth", "--n", 5, f"--d-min={d_min}", "--out", out] + model, capsys,
                      out, f"error: invalid distance range ({float(d_min)}, 2000.0)")

    def test_a_model_run_ignores_d0(self, tmp_path):
        """--d0 sets only the log-distance law's reference distance."""
        plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
        assert run(["synth", "--model", "FSPL", "--n", 50, "--out", plain]) == 0
        for d0 in (-1, 1e308):
            assert run(["synth", "--model", "FSPL", "--n", 50, "--d0", d0, "--out", odd]) == 0
            assert odd.read_bytes() == plain.read_bytes()


class TestCatalogEntry:
    """``compare``, ``synth`` and ``predict_series`` reach the catalog
    through one lookup, with one refusal of a model with free parameters."""

    FREE = "LOG_DISTANCE has free parameters (a0_db, gamma, d0_m)"

    @pytest.mark.parametrize("command", [
        ["compare", GOLDEN / "bins.csv", "--models", "FSPL,log_distance"],
        ["synth", "--n", 5, "--model", "log_distance"],
    ], ids=["compare", "synth"])
    def test_a_model_with_free_parameters_is_refused_by_one_message(self, tmp_path, capsys,
                                                                      command):
        out = tmp_path / "out"
        assert_exit_2(command + ["--out", out], capsys, out, f"error: {self.FREE}\n")
        with pytest.raises(ValueError) as series:
            predict_series("LOG_DISTANCE", LinkGeometry.at(100.0, 3.5, 25.0, 1.5), [100.0])
        assert str(series.value) == self.FREE

    # SUI's c / h_bs term gives losses near 1e302 dB, whose squares overflow
    def test_statistics_that_overflow_name_the_model_and_link(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert_exit_2(["compare", GOLDEN / "bins.csv", "--models", "FSPL,SUI_A",
                       "--h-bs", "1e-300", "--out", out], capsys, out,
                      "error: SUI_A: error statistics are not finite")

    def test_the_overflow_message_lists_every_link_parameter(self):
        with pytest.raises(ValueError) as refused:
            prediction_errors(read_bins_csv(GOLDEN / "bins.csv"), "SUI_A",
                              LinkGeometry.at(100.0, 3.55, 1e-300, 1.5))
        message = str(refused.value)
        assert message.startswith("SUI_A: error statistics are not finite (")
        assert message.endswith("at h_bs_m 1e-300, h_ut_m 1.5, avg_building_height_m 5, "
                                "avg_street_width_m 20, f_ghz 3.55")
