"""CLI input checks: bad inputs exit 2 with a message, never a traceback,
an empty table or a NaN in a JSON artifact; explicit flags beat the
config file."""

import json

import pytest

from plkit.analysis import read_bins_csv, write_bins_csv
from plkit.cli import main


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
