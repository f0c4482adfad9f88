import json
import math

import pytest

from plkit.analysis import read_bins_csv, synthesize_samples, write_bins_csv
from plkit.cli import build_parser, main
from plkit.geo import GeodeticPoint, LocalPoint, from_local
from plkit.ingest import MeasurementSample, write_samples_csv


def run(args):
    return main([str(a) for a in args])


def write_polygons(path, rings_local, origin, los=True):
    """Write a GeoJSON file from local-coordinate rectangles."""
    features = []
    for ring in rings_local:
        coords = []
        for e, n in ring + [ring[0]]:
            p = from_local(origin, LocalPoint(e, n))
            coords.append([p.longitude, p.latitude])
        features.append({
            "type": "Feature",
            "properties": {"los": los},
            "geometry": {"type": "Polygon", "coordinates": [coords]},
        })
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))


class TestSynthAndFit:
    def test_urban_parameters_recovered(self, tmp_path):
        bins_path = tmp_path / "bins.csv"
        assert run(["synth", "--out", bins_path, "--n", 5000, "--seed", 0,
                    "--gamma", 4.8, "--sigma", 7.1]) == 0
        fit_path = tmp_path / "fit.json"
        assert run(["fit", bins_path, "--out", fit_path]) == 0
        fit = json.loads(fit_path.read_text())
        assert fit["gamma"] == pytest.approx(4.8, abs=0.1)
        assert fit["sigma"] == pytest.approx(7.1, abs=0.3)
        assert fit["d0"] == 100.0

    def test_nlos_split_recovers_rural_gamma(self, tmp_path):
        bins_path = tmp_path / "bins.csv"
        assert run(["synth", "--out", bins_path, "--n", 5000, "--seed", 1,
                    "--gamma", 3.1, "--sigma", 9.4, "--los", "nlos"]) == 0
        fit_path = tmp_path / "fit.json"
        assert run(["fit", bins_path, "--split", "nlos", "--out", fit_path]) == 0
        fit = json.loads(fit_path.read_text())
        assert fit["gamma"] == pytest.approx(3.1, abs=0.1)
        assert fit["split"] == "nlos"

    def test_los_split_without_labels_fails(self, tmp_path, capsys):
        bins_path = tmp_path / "bins.csv"
        run(["synth", "--out", bins_path, "--n", 50, "--seed", 0])
        assert run(["fit", bins_path, "--split", "los", "--out", tmp_path / "f.json"]) == 2
        assert "no LOS labels" in capsys.readouterr().err

    def test_config_file_defaults_and_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3, "d0": 100.0}))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run(["synth", "--config", config, "--out", out_a, "--n", 50])
        run(["synth", "--out", out_b, "--n", 50, "--seed", 3])
        assert out_a.read_bytes() == out_b.read_bytes()
        out_c = tmp_path / "c.csv"
        run(["synth", "--config", config, "--out", out_c, "--n", 50, "--seed", 4])
        assert out_c.read_bytes() != out_a.read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"speed": 3}))
        assert run(["synth", "--config", config, "--out", tmp_path / "x.csv"]) == 2
        assert "unknown config keys" in capsys.readouterr().err


class TestBinCommand:
    def test_synth_log_chain_and_los_fraction(self, tmp_path, capsys):
        log_dir = tmp_path / "input"
        assert run(["synth", "--emit", "log", "--out", log_dir, "--n", 100,
                    "--seed", 2, "--gamma", "2.5", "--sigma", "4.0"]) == 0
        origin = GeodeticPoint(47.0, 8.0)
        polys = tmp_path / "los.geojson"
        # a huge square east of the site: bearings are uniform, so roughly
        # half of the bins land inside
        write_polygons(polys, [[(0.0, -3000.0), (3000.0, -3000.0),
                                (3000.0, 3000.0), (0.0, 3000.0)]], origin)
        bins_path = tmp_path / "bins.csv"
        code = run(["bin", log_dir / "testbed_log.csv", "--site", log_dir / "site.json",
                    "--polygons", polys, "--out", bins_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "samples: 100" in out
        assert "LOS fraction: 0." in out
        assert "distance range:" in out
        bins = read_bins_csv(bins_path)
        assert bins and all(b.los in ("LOS", "NLOS") for b in bins)

    def test_synth_log_reads_back_through_the_testbed_parser(self, tmp_path):
        """``synth --emit log`` writes its bins' samples in the testbed-log
        layout; the parser gives back each timestamp, position and power."""
        import numpy as np

        from plkit.ingest import parse_testbed_log

        args = ["--n", 300, "--seed", 4, "--gamma", 2.7, "--sigma", 5.0]
        assert run(["synth", "--emit", "log", "--out", tmp_path / "log"] + args) == 0
        assert run(["synth", "--out", tmp_path / "bins.csv"] + args) == 0
        bins = read_bins_csv(tmp_path / "bins.csv")
        samples = parse_testbed_log(tmp_path / "log" / "testbed_log.csv").table
        assert np.array_equal(samples.timestamp_ms, 1000 * np.arange(1, len(bins) + 1))
        assert np.array_equal(samples.lat, bins.lat) and np.array_equal(samples.lon, bins.lon)
        # the default --tx-power 43 and --rx-gain 4, received on the first beam
        assert np.array_equal(samples.rx_dbm, 43.0 + 4.0 - bins.pl_db)
        assert samples.beam_id.tolist() == [0] * len(bins)

    def test_fraction_42_percent_fixture(self, tmp_path, capsys):
        origin = GeodeticPoint(47.0, 8.0)
        log_dir = tmp_path / "input"
        run(["synth", "--emit", "log", "--out", log_dir, "--n", 5, "--seed", 0])
        # hand-built log: 100 samples in a line of distinct 5 m bins
        rows = ["timestamp_ms,lat,lon," + ",".join(f"mrsrp_{i:02d}" for i in range(48))]
        for i in range(100):
            p = from_local(origin, LocalPoint(5.0 * i + 2.5, 102.5))
            cells = [""] * 48
            cells[0] = "-80.0"
            rows.append(f"{1000 + i},{p.latitude!r},{p.longitude!r}," + ",".join(cells))
        log = tmp_path / "line_log.csv"
        log.write_text("\n".join(rows) + "\n")
        polys = tmp_path / "los.geojson"
        write_polygons(polys, [[(0.0, 100.0), (42 * 5.0, 100.0),
                                (42 * 5.0, 105.0), (0.0, 105.0)]], origin)
        bins_path = tmp_path / "bins.csv"
        assert run(["bin", log, "--site", log_dir / "site.json",
                    "--polygons", polys, "--out", bins_path]) == 0
        out = capsys.readouterr().out
        assert "bins: 100" in out
        assert "LOS fraction: 0.42" in out

    def test_empty_log_exits_2(self, tmp_path, capsys):
        log_dir = tmp_path / "input"
        run(["synth", "--emit", "log", "--out", log_dir, "--n", 5, "--seed", 0])
        empty = tmp_path / "empty.csv"
        empty.write_text("timestamp_ms,lat,lon," + ",".join(f"mrsrp_{i:02d}" for i in range(48)) + "\n")
        code = run(["bin", empty, "--site", log_dir / "site.json",
                    "--out", tmp_path / "bins.csv"])
        assert code == 2
        assert "no samples" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        log_dir = tmp_path / "input"
        run(["synth", "--emit", "log", "--out", log_dir, "--n", 80, "--seed", 5])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run(["bin", log_dir / "testbed_log.csv",
                        "--site", log_dir / "site.json", "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_boresight_rotates_pattern_gain(self, tmp_path):
        import numpy as np
        from plkit.antenna import AntennaPattern, save_pattern_csv
        from plkit.ingest import SiteConfig, save_site_config

        origin = GeodeticPoint(47.0, 8.0)
        # gain 20 dBi along relative azimuth 0 (all elevations), 0 elsewhere
        az = np.arange(0.0, 360.0, 90.0)
        el = np.arange(-90.0, 90.1, 45.0)
        gain = np.zeros((az.size, el.size))
        gain[0, :] = 20.0
        save_pattern_csv(AntennaPattern(az, el, gain), tmp_path / "sector.csv")
        site = SiteConfig(
            site_position=origin, antenna_height_agl_m=24.5,
            boresight_azimuth_deg=90.0, tx_power_dbm=50.0, carrier_freq_ghz=3.5,
            pattern_ref="sector.csv", rx_gain_dbi=4.0, ue_height_m=2.1,
        )
        save_site_config(site, tmp_path / "site.json")
        rows = ["timestamp_ms,lat,lon," + ",".join(f"mrsrp_{i:02d}" for i in range(48))]
        for i, (e, n) in enumerate([(300.0, 0.0), (0.0, 300.0)]):
            p = from_local(origin, LocalPoint(e, n))
            cells = [""] * 48
            cells[0] = "-80.0"
            rows.append(f"{1000 + i},{p.latitude!r},{p.longitude!r}," + ",".join(cells))
        log = tmp_path / "log.csv"
        log.write_text("\n".join(rows) + "\n")
        bins_path = tmp_path / "bins.csv"
        assert run(["bin", log, "--site", tmp_path / "site.json", "--out", bins_path]) == 0
        by_key = {b.index.key: b for b in read_bins_csv(bins_path)}
        east = next(b for k, b in by_key.items() if k[0] > 0)
        north = next(b for k, b in by_key.items() if k[1] > 0)
        # the boresight points east: full gain toward the east sample only
        assert east.path_loss_db == pytest.approx(50.0 + 20.0 + 4.0 + 80.0)
        assert north.path_loss_db == pytest.approx(50.0 + 0.0 + 4.0 + 80.0)

    def test_exclusion_mask_drops_bins(self, tmp_path, capsys):
        log_dir = tmp_path / "input"
        run(["synth", "--emit", "log", "--out", log_dir, "--n", 200, "--seed", 9])
        origin = GeodeticPoint(47.0, 8.0)
        mask = tmp_path / "mask.geojson"
        # cut out everything east of the site
        write_polygons(mask, [[(0.0, -3000.0), (3000.0, -3000.0),
                               (3000.0, 3000.0), (0.0, 3000.0)]], origin)
        full = tmp_path / "full.csv"
        masked = tmp_path / "masked.csv"
        run(["bin", log_dir / "testbed_log.csv", "--site", log_dir / "site.json",
             "--out", full])
        assert run(["bin", log_dir / "testbed_log.csv", "--site", log_dir / "site.json",
                    "--exclusion-mask", mask, "--out", masked]) == 0
        kept = read_bins_csv(masked)
        assert 0 < len(kept) < len(read_bins_csv(full))
        site_origin = GeodeticPoint(47.0, 8.0)
        for b in kept:
            assert b.position.longitude <= site_origin.longitude + 1e-12

    def test_scanner_source(self, tmp_path):
        log_dir = tmp_path / "input"
        run(["synth", "--emit", "log", "--out", log_dir, "--n", 5, "--seed", 0])
        scanner = tmp_path / "scan.csv"
        origin = GeodeticPoint(47.0, 8.0)
        rows = ["timestamp_ms,lat,lon,cell_id,rsrp_dbm"]
        for i, cell in enumerate([301, 301, 302, 301]):
            p = from_local(origin, LocalPoint(200.0 + 10 * i, 150.0))
            rows.append(f"{1000 + i},{p.latitude!r},{p.longitude!r},{cell},-8{i}.0")
        scanner.write_text("\n".join(rows) + "\n")
        bins_path = tmp_path / "bins.csv"
        assert run(["bin", scanner, "--site", log_dir / "site.json", "--source", "scanner",
                    "--cells", "301", "--band", "800MHz", "--out", bins_path]) == 0
        bins = read_bins_csv(bins_path)
        assert len(bins) == 3
        assert all(b.band == "800MHz" for b in bins)


class TestCompareCommand:
    def test_self_consistency_ranking(self, tmp_path):
        bins_path = tmp_path / "bins.csv"
        assert run(["synth", "--out", bins_path, "--model", "TR38901_UMA_NLOS",
                    "--sigma", 6.0, "--n", 2000, "--seed", 0, "--freq", 3.5]) == 0
        out_dir = tmp_path / "cmp"
        assert run(["compare", bins_path, "--out", out_dir, "--freq", 3.5]) == 0
        stats = json.loads((out_dir / "errors.json").read_text())
        assert stats[0]["model"] == "TR38901_UMA_NLOS"
        assert stats[0]["rmse"] == pytest.approx(6.0, abs=0.5)
        assert (out_dir / "model_curves.csv").exists()

    def test_fspl_underpredicts_lossy_data(self, tmp_path):
        bins_path = tmp_path / "bins.csv"
        run(["synth", "--out", bins_path, "--n", 500, "--seed", 1,
             "--gamma", 3.5, "--sigma", 5.0])
        out_dir = tmp_path / "cmp"
        assert run(["compare", bins_path, "--out", out_dir,
                    "--models", "FSPL", "--freq", 3.55]) == 0
        stats = json.loads((out_dir / "errors.json").read_text())
        assert len(stats) == 1
        assert stats[0]["model"] == "FSPL"
        assert stats[0]["mu_e"] < 0

    def test_curves_cover_observed_range(self, tmp_path):
        bins_path = tmp_path / "bins.csv"
        run(["synth", "--out", bins_path, "--n", 200, "--seed", 2])
        out_dir = tmp_path / "cmp"
        run(["compare", bins_path, "--out", out_dir, "--models", "FSPL,TWO_RAY",
             "--curve-points", "50"])
        lines = (out_dir / "model_curves.csv").read_text().strip().splitlines()
        assert lines[0] == "model,d2d_m,pl_db"
        assert len(lines) == 1 + 2 * 50
        bins = read_bins_csv(bins_path)
        d_lo = min(b.distance_2d_m for b in bins)
        d_hi = max(b.distance_2d_m for b in bins)
        ds = [float(l.split(",")[1]) for l in lines[1:51]]
        assert ds[0] == pytest.approx(d_lo, rel=1e-9)
        assert ds[-1] == pytest.approx(d_hi, rel=1e-9)

    def test_unknown_model_exits_2(self, tmp_path, capsys):
        bins_path = tmp_path / "bins.csv"
        run(["synth", "--out", bins_path, "--n", 50, "--seed", 0])
        assert run(["compare", bins_path, "--out", tmp_path / "cmp",
                    "--models", "NOT_A_MODEL"]) == 2
        assert "unknown model" in capsys.readouterr().err


class TestOffsetCommand:
    def _fspl_table(self, tmp_path, f_ghz, name, seed=7):
        path = tmp_path / name
        assert run(["synth", "--out", path, "--model", "FSPL", "--n", 400,
                    "--seed", seed, "--freq", f_ghz, "--h-bs", 10, "--h-ut", 10]) == 0
        return path

    def test_theory_offsets(self, tmp_path):
        high = self._fspl_table(tmp_path, 3.5, "high.csv")
        for f_low, rounded in ((0.8, 12.8), (2.1, 4.4)):
            low = self._fspl_table(tmp_path, f_low, f"low{f_low}.csv")
            out = tmp_path / f"offset{f_low}.json"
            assert run(["offset", high, low, "--out", out]) == 0
            doc = json.loads(out.read_text())
            assert doc["offset_db"] == pytest.approx(20 * math.log10(3.5 / f_low), abs=0.01)
            assert round(doc["offset_db"], 1) == rounded
            assert doc["n_pairs"] >= 2

    def test_identical_tables_zero(self, tmp_path):
        high = self._fspl_table(tmp_path, 3.5, "same.csv")
        out = tmp_path / "offset.json"
        assert run(["offset", high, high, "--out", out]) == 0
        assert json.loads(out.read_text())["offset_db"] == 0.0

    def test_disjoint_tables_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_bins_csv(synthesize_samples(83.0, 2.0, 0.0, 100.0, 5, (100, 200), 1), a)
        write_bins_csv(synthesize_samples(83.0, 2.0, 0.0, 100.0, 5, (1500, 1900), 2), b)
        assert run(["offset", a, b, "--out", tmp_path / "o.json"]) == 2
        assert "share no grid cells" in capsys.readouterr().err


class TestO2iCommand:
    def _write_session(self, tmp_path, building, floor, indoor, outdoor):
        mk = lambda powers: [
            MeasurementSample(1000 + i, GeodeticPoint(46.98, 7.48), p, "3.5GHz", "TESTBED")
            for i, p in enumerate(powers)
        ]
        write_samples_csv(mk(indoor), tmp_path / f"b{building}_in.csv")
        write_samples_csv(mk(outdoor), tmp_path / f"b{building}_out.csv")
        return {
            "building_id": str(building), "floor": floor,
            "indoor_log": f"b{building}_in.csv", "outdoor_log": f"b{building}_out.csv",
        }

    def test_single_building(self, tmp_path):
        manifest = tmp_path / "o2i.json"
        session = self._write_session(tmp_path, 1, 0, [-95.0, -100.0, -105.0], [-70.0])
        manifest.write_text(json.dumps({"sessions": [session]}))
        out_dir = tmp_path / "cdfs"
        assert run(["o2i", manifest, "--out", out_dir]) == 0
        files = sorted(out_dir.glob("*.csv"))
        assert len(files) == 1
        lines = files[0].read_text().strip().splitlines()
        assert lines[0] == "loss_db,probability"
        assert len(lines) == 4

    def test_six_buildings(self, tmp_path):
        sessions = [
            self._write_session(tmp_path, b, 0, [-90.0 - b, -95.0 - b], [-70.0, -71.0])
            for b in range(1, 7)
        ]
        manifest = tmp_path / "o2i.json"
        manifest.write_text(json.dumps({"sessions": sessions}))
        out_dir = tmp_path / "cdfs"
        assert run(["o2i", manifest, "--out", out_dir]) == 0
        assert len(sorted(out_dir.glob("*.csv"))) == 6

    def test_missing_outdoor_names_building(self, tmp_path, capsys):
        session = self._write_session(tmp_path, 4, 2, [-95.0], [-70.0])
        del session["outdoor_log"]
        manifest = tmp_path / "o2i.json"
        manifest.write_text(json.dumps({"sessions": [session]}))
        assert run(["o2i", manifest, "--out", tmp_path / "cdfs"]) == 2
        assert "building 4" in capsys.readouterr().err


class TestModelsCommand:
    def test_dump_json(self, tmp_path):
        out = tmp_path / "catalog.json"
        assert run(["models", "--out", out]) == 0
        catalog = json.loads(out.read_text())
        assert any(e["id"] == "TR38901_UMA_NLOS" and e["published_sigma_db"] == 6.0
                   for e in catalog)

    def test_print_table(self, capsys):
        assert run(["models"]) == 0
        out = capsys.readouterr().out
        assert "WINNER2_D1_NLOS" in out


COMMANDS = ["synth", "bin", "fit", "compare", "offset", "o2i", "models"]


class TestParser:
    """``main`` builds only the invoked command's arguments; what it prints
    and how it exits must be what the full parser gives."""

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h"], ["bogus"], ["--", "bin"], ["bin"], ["synth", "--bad"],
        ["compare", "bins.csv", "--curve-points", "x"], ["fit", "--split", "up"],
    ] + [[command, "--help"] for command in COMMANDS])
    def test_main_prints_what_the_full_parser_prints(self, argv, capsys):
        with pytest.raises(SystemExit) as want_exit:
            build_parser().parse_args(argv)
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as got_exit:
            main(argv)
        got = capsys.readouterr()
        assert (got_exit.value.code, got.out, got.err) == (want_exit.value.code, want.out,
                                                           want.err)
        assert got.out or got.err
